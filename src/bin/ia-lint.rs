//! ia-lint — static analysis reports for VM images.
//!
//! ```text
//! usage: ia-lint [--json] [--out FILE] [--flow-json FILE] [--deny-warnings]
//!                [--builtin] [FILE...]
//! ```
//!
//! Each `FILE` is either an image (`.img`, raw bytes in the IAVM format) or
//! assembly source (`.ias`, assembled in-memory first). `--builtin` lints
//! every in-tree workload image (micro/mix/scribe/make8). With
//! `--flow-json FILE`, every image is additionally taint-analyzed against
//! the demo flow spec (`secret` = `/secret`): flow findings join the
//! regular findings (with per-sink disassembly excerpts in text mode),
//! the adversarial `exfil` pair rides along with `--builtin`, and the
//! full per-image flow report is written to `FILE`. Exits nonzero if any
//! analyzed image has lint errors, or any warnings under
//! `--deny-warnings`.

use ia_analyze::flow::{analyze_flow, FlowAnalysis, FlowSpec};
use ia_analyze::{
    analyze_bytes, analyze_image, flow_json, lint_json, render_text, ImageAnalysis, Severity,
};
use ia_obs::report::{Json, Layout};
use ia_workloads::{exfil, make8, micro, mix, scribe};
use std::process::ExitCode;

struct Options {
    json: bool,
    out: Option<String>,
    flow_out: Option<String>,
    deny_warnings: bool,
    builtin: bool,
    files: Vec<String>,
}

const USAGE: &str = "usage: ia-lint [--json] [--out FILE] [--flow-json FILE] \
                     [--deny-warnings] [--builtin] [FILE...]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        out: None,
        flow_out: None,
        deny_warnings: false,
        builtin: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--out" => {
                opts.out = Some(args.next().ok_or("--out needs a path")?);
            }
            "--flow-json" => {
                opts.flow_out = Some(args.next().ok_or("--flow-json needs a path")?);
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--builtin" => opts.builtin = true,
            "--help" | "-h" => return Err(USAGE.into()),
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !opts.builtin && opts.files.is_empty() {
        return Err("nothing to lint: pass image files or --builtin".into());
    }
    Ok(opts)
}

/// The in-tree workload images, by name.
fn builtin_images() -> Vec<(String, ia_vm::Image)> {
    let mut v = Vec::new();
    for call in micro::MicroCall::ALL {
        v.push((format!("micro:{}", call.name()), micro::loop_image(call, 4)));
    }
    for seed in 1..=4u64 {
        v.push((format!("mix:seed{seed}"), mix::random_program(seed, 40)));
    }
    v.push(("scribe".to_string(), scribe::image()));
    v.push(("make8:tool".to_string(), make8::tool_image()));
    v.push(("make8:cc".to_string(), make8::cc_image()));
    v.push(("make8:make".to_string(), make8::make_image()));
    v
}

/// The label spec every image is flow-checked against: one label, rooted
/// at `/secret` — the same spec the `exfiltrate` example enforces.
fn demo_spec() -> FlowSpec {
    FlowSpec::new().label("secret", &[b"/secret"])
}

/// One image's lint report; the flow analysis rides along only when a
/// flow report was requested (it is noisier by design — fail-closed path
/// resolution makes every unresolvable path a warning).
fn analyze_one(
    name: &str,
    img: &ia_vm::Image,
    flow: bool,
) -> (String, ImageAnalysis, Option<FlowAnalysis>) {
    let mut a = analyze_image(img);
    let fa = flow.then(|| analyze_flow(img, &a, &demo_spec()));
    if let Some(fa) = &fa {
        a.findings.extend(fa.findings.iter().cloned());
    }
    (name.to_string(), a, fa)
}

fn analyze_file(
    path: &str,
    flow: bool,
) -> Result<(String, ImageAnalysis, Option<FlowAnalysis>), String> {
    if path.ends_with(".ias") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let img = ia_vm::assemble(&src).map_err(|e| format!("{path}: assemble: {e}"))?;
        Ok(analyze_one(path, &img, flow))
    } else {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let mut a =
            analyze_bytes(&bytes).map_err(|e| format!("{path}: not an IAVM image ({e})"))?;
        // `analyze_bytes` is the lenient parse; flow analysis additionally
        // needs the image's data segment, so use the strict decoder and
        // fail closed to an empty image (→ widened) if it rejects the file.
        let fa = flow.then(|| {
            let img = ia_vm::Image::from_bytes(&bytes).unwrap_or(ia_vm::Image {
                code: Vec::new(),
                data: Vec::new(),
                entry: 0,
            });
            analyze_flow(&img, &a, &demo_spec())
        });
        if let Some(fa) = &fa {
            a.findings.extend(fa.findings.iter().cloned());
        }
        Ok((path.to_string(), a, fa))
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let flow = opts.flow_out.is_some();
    let mut reports: Vec<(String, ImageAnalysis, Option<FlowAnalysis>)> = Vec::new();
    if opts.builtin {
        for (name, img) in builtin_images() {
            reports.push(analyze_one(&name, &img, flow));
        }
        // The adversarial pair rides along whenever a flow report is
        // requested: the leak must be flagged, its twin must stay clean.
        if flow {
            reports.push(analyze_one("exfil:leak", &exfil::exfil_image(), true));
            reports.push(analyze_one("exfil:benign", &exfil::benign_image(), true));
        }
    }
    for path in &opts.files {
        match analyze_file(path, flow) {
            Ok(r) => reports.push(r),
            Err(msg) => {
                eprintln!("ia-lint: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    let output = if opts.json {
        Json::array(
            Layout::Block,
            reports.iter().map(|(name, a, _)| lint_json(name, a)),
        )
        .render()
    } else {
        reports
            .iter()
            .map(|(name, a, _)| render_text(name, a))
            .collect::<Vec<_>>()
            .join("\n────────────────────────────────────────\n")
    };

    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("ia-lint: write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{output}"),
    }

    if let Some(path) = &opts.flow_out {
        let doc = Json::array(
            Layout::Block,
            reports
                .iter()
                .filter_map(|(name, _, fa)| fa.as_ref().map(|fa| flow_json(name, fa))),
        )
        .render();
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("ia-lint: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let dirty = reports
            .iter()
            .filter(|(_, _, fa)| fa.as_ref().is_some_and(|fa| !fa.is_clean()))
            .count();
        eprintln!(
            "ia-lint: flow report on {} image(s) -> {path} ({dirty} flow-dirty)",
            reports.len()
        );
    }

    let total_errors: usize = reports
        .iter()
        .map(|(_, a, _)| a.count(Severity::Error))
        .sum();
    let total_warnings: usize = reports
        .iter()
        .map(|(_, a, _)| a.count(Severity::Warning))
        .sum();
    eprintln!(
        "ia-lint: {} image(s), {total_errors} error(s), {total_warnings} warning(s)",
        reports.len()
    );
    if total_errors > 0 || (opts.deny_warnings && total_warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
