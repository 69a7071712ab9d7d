//! perfbench — host wall time of whole paper workloads under the default
//! `KernelBuilder` configuration, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <scribe|make8|txn|fleet> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Prints a human-readable report and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` instances alternate
//! untraced and traced, and the metrics are the per-layer ones (plus the
//! unattributed share and the tracing overhead). `--spans` writes the
//! traced instances' spans as TSV.

#![forbid(unsafe_code)]

mod probe;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use ia_kernel::Observable;

use probe::{bucket_name, Acc, Spans, AGENTS, CLASSES, NR_BUCKETS};
use work::{Counts, Run, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One instance after its Observables were checked and dropped.
struct Sample {
    row: usize,
    wall_ns: u64,
    counts: Counts,
    steals: u64,
    /// Reference keys its Observables must match.
    keys: Vec<usize>,
    problems: Vec<String>,
    spans: Option<Spans>,
    /// Tenants (1 outside the fleet), files and bytes at instance end.
    tenants: u64,
    vfs_files: u64,
    vfs_bytes: u64,
}

/// Every Observable of a configuration must equal the first one seen;
/// that first one is checked against the references after the loop.
#[derive(Default)]
struct Verifier {
    first: BTreeMap<usize, Observable>,
}

impl Verifier {
    fn sample(&mut self, run: Run) -> Sample {
        let mut s = Sample {
            row: run.row,
            wall_ns: run.wall_ns,
            counts: run.counts,
            steals: run.steals,
            keys: Vec::new(),
            problems: run.problems,
            spans: run.spans,
            tenants: run.obs.len() as u64,
            vfs_files: 0,
            vfs_bytes: 0,
        };
        for (key, obs) in run.obs {
            s.vfs_files += obs.client.fs_files as u64;
            s.vfs_bytes += obs.client.fs_bytes;
            let first = self.first.entry(key).or_insert_with(|| obs.clone());
            if *first != obs {
                s.problems.push(format!(
                    "configuration {key}: Observable differs between instances"
                ));
            }
            if !s.keys.contains(&key) {
                s.keys.push(key);
            }
        }
        s
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean over rows of each row's `stat` instance time, ms. Rows differ in
/// cost by up to 2×, so a pooled statistic would jump between rows as the
/// rotation's counts shift by one.
fn row_balanced_ms(samples: &[Sample], rows: usize, stat: fn(&mut [f64]) -> f64) -> f64 {
    let per_row: Vec<f64> = row_stats_ms(samples, rows, stat)
        .into_iter()
        .filter(|&m| m > 0.0)
        .collect();
    per_row.iter().sum::<f64>() / per_row.len().max(1) as f64
}

/// Each row's `stat` instance time, ms (0 for a row with no samples).
fn row_stats_ms(samples: &[Sample], rows: usize, stat: fn(&mut [f64]) -> f64) -> Vec<f64> {
    (0..rows)
        .map(|r| {
            let mut v: Vec<f64> = samples
                .iter()
                .filter(|s| s.row == r)
                .map(|s| s.wall_ns as f64 / 1e6)
                .collect();
            stat(&mut v)
        })
        .collect()
}

fn minimum(v: &mut [f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest percentile with at least ten samples beyond it, by
/// nearest rank — the eleventh-largest sample: `(percentile, value,
/// samples beyond)`.
fn tail(walls_ms: &mut [f64]) -> (f64, f64, usize) {
    walls_ms.sort_by(f64::total_cmp);
    let n = walls_ms.len();
    let rank = n.saturating_sub(10).max(1);
    let value = walls_ms.get(rank - 1).copied().unwrap_or(0.0);
    (100.0 * rank as f64 / n as f64, value, n - rank.min(n))
}

/// The metric list in report order, with a human-readable report as it
/// is built.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    text: String,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.show(name, value, unit, note);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a line to the human-readable report only.
    fn show(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        let _ = writeln!(self.text, "{name:<30} {value:>16.6} {unit:<12} {note}");
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn end_to_end(r: &mut Report, samples: &[Sample], rows: usize, setup_s: f64, peak_mib: f64) {
    let wall_s = samples.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e9;
    let n = samples.len();
    let sum = |f: fn(&Counts) -> u64| samples.iter().map(|s| f(&s.counts)).sum::<u64>() as f64;
    let mut walls: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let (p, tail_ms, beyond) = tail(&mut walls);
    r.put(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUPS} set-ups"),
    );
    r.put(
        "runs_per_s",
        n as f64 / wall_s,
        "1/s",
        &format!("{n} instances"),
    );
    let per_row = |stat| {
        row_stats_ms(samples, rows, stat)
            .iter()
            .map(|m| format!("{m:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    r.put(
        "run_ms_min",
        row_balanced_ms(samples, rows, minimum),
        "ms",
        &format!("mean of per-row minima [{}]", per_row(minimum)),
    );
    // The median and the tail move with the host's load from one run to
    // the next (see README.md), so they are reported but not part of the
    // JSON.
    r.show(
        "run_ms_p50",
        row_balanced_ms(samples, rows, median),
        "ms",
        &format!("mean of per-row medians [{}]", per_row(median)),
    );
    r.show(
        "run_ms_tail",
        tail_ms,
        "ms",
        &format!("p{p:.2} of {n} samples, {beyond} beyond it"),
    );
    r.put(
        "guest_minsns_per_s",
        sum(|c| c.insns) / wall_s / 1e6,
        "Minsns/s",
        "",
    );
    r.put(
        "guest_ksyscalls_per_s",
        sum(|c| c.syscalls) / wall_s / 1e3,
        "ksyscalls/s",
        "",
    );
    r.put(
        "peak_rss_mib",
        peak_mib,
        "MiB",
        "VmHWM after the measured runs",
    );
}

/// A traced sample's spans.
fn spans(s: &Sample) -> &Spans {
    s.spans.as_ref().expect("traced samples carry spans")
}

fn per_layer(r: &mut Report, traced: &[Sample], untraced: &[Sample], rows: usize) {
    let n = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Sample) -> u64| traced.iter().map(f).sum::<u64>();
    let per = |f: &dyn Fn(&Sample) -> u64| sum(f) as f64 / n;
    let insns = sum(&|s| s.counts.insns);

    r.put(
        "vm.insns",
        per(&|s| s.counts.insns),
        "count",
        "per instance",
    );
    r.put(
        "vm.fused_frac",
        2.0 * ratio(sum(&|s| s.counts.fused_hits), insns),
        "ratio",
        "2 x fused hits / insns",
    );

    let self_ns = |s: &Sample| spans(s).run_with.ns.saturating_sub(spans(s).route_ns());
    r.put(
        "sched.self_ns",
        per(&self_ns),
        "ns",
        "run_with minus router upcalls",
    );
    r.put("sched.slices", per(&|s| s.counts.slices), "count", "");
    r.put(
        "sched.insns_per_slice",
        ratio(insns, sum(&|s| s.counts.slices)),
        "ratio",
        "",
    );
    r.put("sched.fast_hits", per(&|s| s.counts.fast_hits), "count", "");
    let fast_all = sum(&|s| s.counts.fast_hits + s.counts.fast_misses);
    r.put(
        "sched.fast_hit_ratio",
        ratio(sum(&|s| s.counts.fast_hits), fast_all),
        "ratio",
        "",
    );

    r.put(
        "interpose.route_ns",
        per(&|s| spans(s).route_ns()),
        "ns",
        "all router upcalls",
    );
    r.put("interpose.routes", per(&|s| spans(s).routes()), "count", "");
    r.put(
        "interpose.intercepted",
        per(&|s| s.counts.intercepted),
        "count",
        "",
    );
    r.put(
        "interpose.passthrough",
        per(&|s| s.counts.passthrough),
        "count",
        "",
    );
    let routed = sum(&|s| s.counts.intercepted + s.counts.passthrough);
    r.put(
        "interpose.intercept_ratio",
        ratio(sum(&|s| s.counts.intercepted), routed),
        "ratio",
        "",
    );

    for (c, class) in CLASSES.iter().enumerate() {
        r.put(
            &format!("syscalls.{class}_ns"),
            per(&|s| spans(s).class(c).ns),
            "ns",
            "",
        );
        r.put(
            &format!("syscalls.{class}_calls"),
            per(&|s| spans(s).class(c).calls),
            "count",
            "",
        );
    }
    for (a, agent) in AGENTS.iter().enumerate() {
        r.put(
            &format!("agents.{agent}.incl_ns"),
            per(&|s| spans(s).agents[a].ns),
            "ns",
            "",
        );
        r.put(
            &format!("agents.{agent}.calls"),
            per(&|s| spans(s).agents[a].calls),
            "count",
            "",
        );
    }

    let (hits, misses) = (
        sum(&|s| s.counts.cache_hits),
        sum(&|s| s.counts.cache_misses),
    );
    r.put(
        "exec_cache.hits",
        per(&|s| s.counts.cache_hits),
        "count",
        "",
    );
    r.put(
        "exec_cache.misses",
        per(&|s| s.counts.cache_misses),
        "count",
        "",
    );
    r.put(
        "exec_cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        "",
    );

    r.put("snapshot.branch_ns", per(&|s| spans(s).branch.ns), "ns", "");
    r.put(
        "snapshot.observable_ns",
        per(&|s| spans(s).observable.ns),
        "ns",
        "",
    );
    r.put(
        "vfs.files",
        per(&|s| s.vfs_files),
        "count",
        "summed over tenants",
    );
    r.put(
        "vfs.bytes",
        per(&|s| s.vfs_bytes),
        "bytes",
        "summed over tenants",
    );

    r.put("fleet.spinup_ns", per(&|s| spans(s).spinup.ns), "ns", "");
    r.put("fleet.drive_ns", per(&|s| spans(s).drive.ns), "ns", "");
    r.put(
        "fleet.turns_per_tenant",
        ratio(sum(&|s| s.counts.turns), sum(&|s| s.tenants)),
        "ratio",
        "",
    );
    r.put(
        "fleet.steals",
        per(&|s| s.steals),
        "count",
        "not deterministic",
    );

    let wall = sum(&|s| s.wall_ns);
    r.put(
        "recon.unattributed_frac",
        ratio(sum(&|s| spans(s).unattributed_ns()), wall),
        "ratio",
        "instance time outside every layer span",
    );
    let (t, u) = (
        row_balanced_ms(traced, rows, median),
        row_balanced_ms(untraced, rows, median),
    );
    r.put(
        "trace.overhead_frac",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
        "ratio",
        &format!("traced p50 {t:.3} ms vs untraced {u:.3} ms"),
    );
}

/// Per-row and per-syscall breakdown of the traced run (not part of the
/// JSON).
fn breakdown(w: &dyn Workload, traced: &[Sample], untraced: &[Sample]) -> String {
    let mut out = String::from(
        "row          n   p50_ms  traced_ms  fused_frac  fast_hit_ratio  routes  route_ms  unattr\n",
    );
    let rows = w.rows().len();
    let (p50u, p50t) = (
        row_stats_ms(untraced, rows, median),
        row_stats_ms(traced, rows, median),
    );
    for (r, name) in w.rows().iter().enumerate() {
        let t: Vec<&Sample> = traced.iter().filter(|s| s.row == r).collect();
        let sum = |f: &dyn Fn(&Sample) -> u64| t.iter().map(|s| f(s)).sum::<u64>();
        let n = t.len().max(1) as f64;
        let _ = writeln!(
            out,
            "{name:<10} {:>4} {:>8.3} {:>10.3} {:>11.4} {:>15.4} {:>7.0} {:>9.3} {:>7.4}",
            t.len(),
            p50u[r],
            p50t[r],
            2.0 * ratio(sum(&|s| s.counts.fused_hits), sum(&|s| s.counts.insns)),
            ratio(
                sum(&|s| s.counts.fast_hits),
                sum(&|s| s.counts.fast_hits + s.counts.fast_misses)
            ),
            sum(&|s| spans(s).routes()) as f64 / n,
            sum(&|s| spans(s).route_ns()) as f64 / n / 1e6,
            ratio(sum(&|s| spans(s).unattributed_ns()), sum(&|s| s.wall_ns)),
        );
    }
    // Router time by syscall number, busiest first.
    let mut by_nr = vec![Acc::default(); NR_BUCKETS];
    for s in traced {
        for (acc, a) in by_nr.iter_mut().zip(&spans(s).route) {
            acc.ns += a.ns;
            acc.calls += a.calls;
        }
    }
    let mut order: Vec<usize> = (0..NR_BUCKETS).filter(|&b| by_nr[b].ns > 0).collect();
    order.sort_by_key(|&b| std::cmp::Reverse(by_nr[b].ns));
    out.push_str("syscall        route_ns/inst  calls/inst\n");
    let n = traced.len().max(1) as f64;
    for b in order.into_iter().take(8) {
        let _ = writeln!(
            out,
            "{:<14} {:>13.0} {:>11.1}",
            bucket_name(b),
            by_nr[b].ns as f64 / n,
            by_nr[b].calls as f64 / n
        );
    }
    out
}

fn write_spans(path: &str, w: &dyn Workload, traced: &[Sample]) -> std::io::Result<()> {
    let mut out = String::from("instance\trow\tspan\tparent\tns\tcalls\n");
    for (i, s) in traced.iter().enumerate() {
        for (span, parent, ns, calls) in s.spans.iter().flat_map(Spans::rows) {
            let _ = writeln!(
                out,
                "{i}\t{}\t{span}\t{parent}\t{ns}\t{calls}",
                w.rows()[s.row]
            );
        }
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <scribe|make8|txn|fleet> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]");
            return ExitCode::from(2);
        }
    };

    let Some(inputs) = work::Inputs::draw(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let mut setup_ns = Vec::new();
    let set_up = |setup_ns: &mut Vec<f64>| {
        let t = Instant::now();
        let w = work::setup(&inputs);
        setup_ns.push(t.elapsed().as_nanos() as f64);
        w
    };
    let mut w = set_up(&mut setup_ns);

    // The closed loop: one client, the next instance starts when the
    // previous one ends, until the instances' own time reaches the budget.
    // The other set-ups are spread evenly over the loop, each replacing
    // the workload, so their median samples the same host states as the
    // instances do.
    let budget_ns = (args.seconds * 1e9) as u64;
    let mut verifier = Verifier::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut measured, mut i) = (0u64, 0u64);
    while measured < budget_ns {
        if measured >= budget_ns / SETUPS as u64 * setup_ns.len() as u64 {
            drop(w);
            w = set_up(&mut setup_ns);
        }
        let plain = verifier.sample(w.run(i, false));
        measured += plain.wall_ns;
        if args.trace {
            let mut t = verifier.sample(w.run(i, true));
            measured += t.wall_ns;
            if t.counts != plain.counts {
                t.problems.push(format!(
                    "tracing changed exact counts: {:?} untraced, {:?} traced",
                    plain.counts, t.counts
                ));
            }
            traced.push(t);
        }
        untraced.push(plain);
        i += 1;
    }
    while setup_ns.len() < SETUPS {
        drop(w);
        w = set_up(&mut setup_ns);
    }
    let setup_s = median(&mut setup_ns) / 1e9;
    let peak_mib = peak_rss_mib();

    // References, outside every timed span.
    let mut bad: BTreeMap<usize, String> = BTreeMap::new();
    let first = std::mem::take(&mut verifier.first);
    for (key, obs) in &first {
        for (name, reference) in w.references(*key) {
            if reference != *obs {
                bad.entry(*key).or_insert_with(|| {
                    format!("configuration {key} differs from the {name} reference")
                });
            }
        }
    }
    let mut failed = 0;
    let mut notes = Vec::new();
    for s in untraced.iter().chain(&traced) {
        let mut problems = s.problems.clone();
        problems.extend(s.keys.iter().filter_map(|k| bad.get(k).cloned()));
        if !problems.is_empty() {
            failed += 1;
            if notes.len() < 10 {
                notes.push(problems.join("; "));
            }
        }
    }
    let attempted = untraced.len() + traced.len();

    let rows = w.rows().len();
    let mut report = Report::default();
    if args.trace {
        per_layer(&mut report, &traced, &untraced, rows);
    } else {
        end_to_end(&mut report, &untraced, rows, setup_s, peak_mib);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} rows={:?} host_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.rows(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    print!("{}", report.text);
    if args.trace {
        print!("{}", breakdown(w.as_ref(), &traced, &untraced));
        if let Some(path) = &args.spans {
            if let Err(e) = write_spans(path, w.as_ref(), &traced) {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "failed_frac {} ({failed} of {attempted} instances); configurations checked: {}",
        ratio(failed as u64, attempted as u64),
        first.len()
    );
    for n in &notes {
        println!("FAILED: {n}");
    }
    println!("{}", report.json(failed == 0, attempted, failed));
    ExitCode::SUCCESS
}
