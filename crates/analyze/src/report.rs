//! Lint findings and report rendering (text, and JSON through the shared
//! writer in [`ia_obs::report`]).

use crate::flow::FlowAnalysis;
use crate::interp::SyscallSet;
use crate::ImageAnalysis;
use ia_abi::Sysno;
use ia_obs::report::{Json, Layout};
use ia_vm::{disasm_insn, Insn};
use std::fmt::Write as _;

/// Version stamp carried by every JSON document this module renders —
/// the workspace-wide stamp from [`ia_obs::report`], re-exported so
/// existing consumers keep their import path.
pub const SCHEMA_VERSION: u32 = ia_obs::report::SCHEMA_VERSION;

/// How bad a finding is. Errors describe code that faults (or jumps into the
/// void) on a reachable path; warnings are suspicious but survivable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Will fault if the path executes.
    Error,
    /// Suspicious, or an error pattern in unreachable code.
    Warning,
}

impl Severity {
    /// Lowercase label used in both renderings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable kind slug (e.g. `"bad-branch-target"`).
    pub kind: &'static str,
    /// Instruction index the finding anchors to, if any.
    pub at: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

/// Renders a ±2-instruction disassembly excerpt around `at`, with a `>`
/// marker on the offending line.
fn excerpt(code: &[Option<Insn>], at: usize) -> String {
    let lo = at.saturating_sub(2);
    let hi = (at + 3).min(code.len());
    let mut out = String::new();
    for (i, slot) in code.iter().enumerate().take(hi).skip(lo) {
        let text = match slot {
            Some(insn) => disasm_insn(insn),
            None => "<undecodable>".to_string(),
        };
        let mark = if i == at { '>' } else { ' ' };
        let _ = writeln!(out, "  {mark} {i:5}: {text}");
    }
    out
}

/// Formats one site's syscall set for humans: names where known.
fn render_nrs(nrs: &SyscallSet) -> String {
    match nrs {
        SyscallSet::Top => "⊤ (any syscall)".to_string(),
        SyscallSet::Exact(vs) => {
            let names: Vec<String> = vs
                .iter()
                .map(|&v| match Sysno::from_u32(v) {
                    Some(s) => format!("{}({v})", s.name()),
                    None => format!("nosys({v})"),
                })
                .collect();
            names.join(", ")
        }
    }
}

/// Renders the full human-readable report.
#[must_use]
pub fn render_text(name: &str, a: &ImageAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {} insns, {} data bytes, entry {}",
        a.code.len(),
        a.data_len,
        a.entry
    );

    let _ = writeln!(out, "\nsyscall sites ({}):", a.sites.len());
    for site in &a.sites {
        let _ = writeln!(out, "  insn {:5}: {}", site.at, render_nrs(&site.nrs));
    }

    let _ = writeln!(
        out,
        "\nfootprint: {}{}",
        if a.footprint.exact { "" } else { "⊤ — " },
        render_footprint(a)
    );

    let errors = a.count(Severity::Error);
    let warnings = a.count(Severity::Warning);
    let _ = writeln!(out, "\nfindings: {errors} error(s), {warnings} warning(s)");
    for f in &a.findings {
        match f.at {
            Some(at) => {
                let _ = writeln!(
                    out,
                    "\n{} [{}] at insn {at}: {}",
                    f.severity.label(),
                    f.kind,
                    f.message
                );
                out.push_str(&excerpt(&a.code, at));
            }
            None => {
                let _ = writeln!(out, "\n{} [{}]: {}", f.severity.label(), f.kind, f.message);
            }
        }
    }
    out
}

/// Short description of the inferred footprint.
#[must_use]
pub fn render_footprint(a: &ImageAnalysis) -> String {
    if !a.footprint.exact {
        return "all syscalls possible (the analyzer widened; the footprint-widened finding names the cause)"
            .to_string();
    }
    let names: Vec<String> = a
        .footprint
        .nrs
        .iter()
        .map(|&v| match Sysno::from_u32(v) {
            Some(s) => s.name().to_string(),
            None => format!("nosys({v})"),
        })
        .collect();
    names.join(", ")
}

/// One finding as a JSON row (lint and flow reports share the shape).
fn finding_json(f: &Finding) -> Json {
    Json::inline()
        .field("severity", f.severity.label())
        .field("kind", f.kind)
        .field("at", f.at)
        .field("message", &f.message)
}

fn findings_json(findings: &[Finding]) -> Json {
    Json::array(Layout::Block, findings.iter().map(finding_json))
}

/// The lint report as a stamped JSON document (see
/// [`ia_obs::report::Json`]; `.render()` gives its text).
#[must_use]
pub fn lint_json(name: &str, a: &ImageAnalysis) -> Json {
    let names = a
        .footprint
        .nrs
        .iter()
        .filter_map(|&v| Sysno::from_u32(v))
        .map(Sysno::name);
    let sites = a.sites.iter().map(|site| {
        let nrs = match &site.nrs {
            SyscallSet::Top => Json::from("top"),
            SyscallSet::Exact(vs) => Json::array(Layout::Inline, vs.iter().copied()),
        };
        Json::inline().field("at", site.at).field("nrs", nrs)
    });
    Json::document("image", name)
        .field("insns", a.code.len())
        .field("data_bytes", a.data_len)
        .field("entry", a.entry)
        .field("errors", a.count(Severity::Error))
        .field("warnings", a.count(Severity::Warning))
        .field(
            "footprint",
            Json::block()
                .field("exact", a.footprint.exact)
                .field(
                    "numbers",
                    Json::array(Layout::Inline, a.footprint.nrs.iter().copied()),
                )
                .field("names", Json::array(Layout::Inline, names)),
        )
        .field("sites", Json::array(Layout::Block, sites))
        .field("findings", findings_json(&a.findings))
}

/// One image's information-flow analysis as a stamped JSON document.
#[must_use]
pub fn flow_json(name: &str, fa: &FlowAnalysis) -> Json {
    let labels = fa.spec.labels.iter().map(|l| l.name.as_str());
    let sources = fa.sources.iter().map(|s| {
        Json::inline()
            .field("at", s.at)
            .field("labels", s.labels)
            .field("call", s.kind)
    });
    let sinks = fa.sinks.iter().map(|s| {
        Json::inline()
            .field("at", s.at)
            .field("data_labels", s.data.labels)
            .field("ambient_labels", s.ambient.labels)
    });
    Json::document("image", name)
        .field("clean", fa.is_clean())
        .field("widened", fa.widened)
        .field("cause", fa.cause.as_deref())
        .field("labels", Json::array(Layout::Inline, labels))
        .field("sources", Json::array(Layout::Block, sources))
        .field("sinks", Json::array(Layout::Block, sinks))
        .field("findings", findings_json(&fa.findings))
}
