//! `reproduce` — prints every table of the paper's evaluation section,
//! regenerated from the simulation.
//!
//! ```text
//! cargo run -p ia-bench --release --bin reproduce             # everything
//! cargo run -p ia-bench --release --bin reproduce table-3-2   # one table
//! cargo run -p ia-bench --release --bin reproduce overhead    # BENCH_2 table + fast-path probe
//! cargo run -p ia-bench --release --bin reproduce -- --json   # BENCH_{1,2,3}.json
//! cargo run -p ia-bench --release --bin reproduce -- --json2  # BENCH_2.json only
//! cargo run -p ia-bench --release --bin reproduce -- --json3  # BENCH_3.json only
//! cargo run -p ia-bench --release --bin reproduce -- --fusion # fusion-hit histogram
//! cargo run -p ia-bench --release --bin reproduce -- --smoke  # CI gate
//! ```
//!
//! Any other argument prints the usage and exits 2. A `BENCH_*.json`
//! that cannot be written exits 1.

use ia_bench::{
    ablation_pay_per_use, dfs_trace_comparison, fleetbench, fusion, hostbench, overhead,
    render_ablation, render_dfs, render_table_3_1, render_table_3_4, render_table_3_5,
    render_timing, snapbench, table_3_1, table_3_2, table_3_3, table_3_4, table_3_5,
};

/// Largest tolerated drop of the smoke scenario's normalized throughput
/// ratio below the committed baseline before CI fails.
const SMOKE_TOLERANCE: f64 = 0.20;

/// Extracts one scenario's committed speedup from the
/// [`hostbench::SMOKE_SECTION`] object of the `BENCH_1.json` text.
/// Hand-rolled: the workspace builds offline with no serialization
/// dependency, and the document is our own line-per-entry writer's
/// output.
fn baseline_speedup(json: &str, name: &str) -> Option<f64> {
    let header = format!("\"{}\": {{", hostbench::SMOKE_SECTION);
    let key = format!("\"{name}\": ");
    json.lines()
        .skip_while(|l| !l.contains(&header))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('}'))
        .find_map(|l| l.split(&key).nth(1))
        .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
}

/// One smoke gate: compares the live paired speedup (see
/// [`hostbench::run_smoke`]) of the default
/// configuration (fused engine, fast path on) over the reference (plain
/// engine, fast path off) against the committed one, failing beyond
/// [`SMOKE_TOLERANCE`]. Both sides of each repetition's ratio are
/// measured back to back, so a slow (or fast) CI host cancels out
/// instead of tripping — or masking — the gate.
fn smoke_gate(json: &str, what: &str, name: &str, live: f64) -> bool {
    let Some(committed) = baseline_speedup(json, name).filter(|&c| c > 0.0) else {
        eprintln!(
            "smoke: missing {name} in BENCH_1.json's {}",
            hostbench::SMOKE_SECTION
        );
        return false;
    };
    let floor = committed * (1.0 - SMOKE_TOLERANCE);
    println!(
        "smoke: {name}: live {what} paired ratio {live:.2}x vs committed {committed:.2}x (floor {floor:.2}x)"
    );
    if live < floor {
        eprintln!(
            "smoke: FAIL — {name} hot-path speedup regressed more than {:.0}% below the committed baseline",
            SMOKE_TOLERANCE * 100.0
        );
        return false;
    }
    true
}

/// The txn end-of-session gate: a session over the largest swept VFS may
/// cost at most [`snapbench::TXN_SCALING_BOUND`] times one over the
/// smallest, both measured in this window, so it needs no baseline.
fn txn_scaling_gate() -> bool {
    let scaling = snapbench::txn_scaling(3);
    let (commit, abort) = scaling.ratios();
    println!(
        "smoke: txn scaling: commit {commit:.1}x, abort {abort:.1}x at {} over {} files (bound {}x)",
        snapbench::SIZES[snapbench::SIZES.len() - 1],
        snapbench::SIZES[0],
        snapbench::TXN_SCALING_BOUND
    );
    if !scaling.holds() {
        eprintln!(
            "smoke: FAIL — txn session cost grows with the tree size, not with what it changed"
        );
    }
    scaling.holds()
}

/// Compares fresh runs of the trap and compute smoke scenarios on the
/// default configuration — each normalized by the reference measured in
/// the same window —
/// against the committed baseline ratios, and checks the txn scaling
/// bound; exits non-zero on a regression beyond [`SMOKE_TOLERANCE`] on
/// either scenario or on a broken bound.
fn smoke() {
    let json = match std::fs::read_to_string("BENCH_1.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("smoke: cannot read BENCH_1.json: {e}");
            std::process::exit(1);
        }
    };
    let ok = smoke_gate(
        &json,
        "traps/s",
        hostbench::SMOKE_SCENARIO,
        hostbench::run_smoke(),
    ) & smoke_gate(
        &json,
        "Minsns/s",
        hostbench::SMOKE_COMPUTE_SCENARIO,
        hostbench::run_smoke_compute(),
    ) & txn_scaling_gate();
    if !ok {
        std::process::exit(1);
    }
    println!("smoke: ok");
}

/// The report's sections, in print order.
const TABLES: [&str; 8] = [
    "table-3-1",
    "table-3-2",
    "table-3-3",
    "table-3-4",
    "table-3-5",
    "dfs-trace",
    "ablation",
    "overhead",
];

const USAGE: &str = "usage: reproduce [all | table-3-1 | table-3-2 | table-3-3 | table-3-4 | \
                     table-3-5 | dfs-trace | ablation | overhead]...\n       \
                     reproduce --json | --json2 | --json3 | --fusion | --smoke";

/// Writes one benchmark document into the working directory; a file CI
/// cannot write must fail the run, not leave a stale artifact behind.
fn write_bench(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("reproduce: could not write {path}: {e}");
        std::process::exit(1);
    }
}

/// Measures the snapshot-cost + fleet document.
fn bench3() -> String {
    let fleet = fleetbench::run_all();
    snapbench::render_json(&snapbench::run_all(), &snapbench::txn_scaling(5), &fleet)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let modes = ["--smoke", "--json", "--json2", "--json3", "--fusion"];
    if let Some(bad) = args
        .iter()
        .find(|a| !(*a == "all" || modes.contains(&a.as_str()) || TABLES.contains(&a.as_str())))
    {
        eprintln!("reproduce: unknown argument {bad}\n{USAGE}");
        std::process::exit(2);
    }

    if flag("--smoke") {
        smoke();
        return;
    }

    if flag("--json") {
        // Host-throughput mode: measure the interpreter hot path on the
        // reference and the default configuration and emit the
        // machine-readable baseline.
        let json = hostbench::render_json(&hostbench::run_all());
        print!("{json}");
        write_bench("BENCH_1.json", &json);
        // Per-agent syscall overhead table (paper §6 shape) with per-layer
        // getpid attribution folded from flight-recorder events.
        write_bench("BENCH_2.json", &overhead::render_json(&overhead::run_all()));
        // Snapshot cost vs VFS size, branch-based txn sessions, and the
        // multi-tenant fleet scaling sweep.
        write_bench("BENCH_3.json", &bench3());
        return;
    }

    if flag("--json2") {
        // Just the per-agent overhead table — virtual-time measurement,
        // cheap and deterministic.
        let json2 = overhead::render_json(&overhead::run_all());
        print!("{json2}");
        write_bench("BENCH_2.json", &json2);
        return;
    }

    if flag("--json3") {
        // Just the snapshot-cost + fleet document — much cheaper than the
        // full throughput sweep.
        let json3 = bench3();
        print!("{json3}");
        write_bench("BENCH_3.json", &json3);
        return;
    }

    if flag("--fusion") {
        let (stats, exec_cache) = fusion::profile();
        print!("{}", fusion::render_json(&stats, exec_cache));
        return;
    }

    let want = |name: &str| args.is_empty() || flag(name) || flag("all");

    println!("Interposition Agents (Jones, SOSP '93) — reproduction report");
    println!("=============================================================\n");

    if want("table-3-1") {
        println!("{}", render_table_3_1(&table_3_1()));
    }
    if want("table-3-2") {
        println!(
            "{}",
            render_timing(
                "Table 3-2: Time to format my dissertation (VAX 6250 profile)",
                "paper: 151.7 s base; timex +0.5 s, trace +3.5 s (2.5%), union +5.0 s (3.5%)",
                &table_3_2()
            )
        );
    }
    if want("table-3-3") {
        println!(
            "{}",
            render_timing(
                "Table 3-3: Time to make 8 programs (25 MHz i486 profile)",
                "paper: 16.0 s base; timex +19%, union +82%, trace +107%",
                &table_3_3()
            )
        );
    }
    if want("table-3-4") {
        println!("{}", render_table_3_4(&table_3_4()));
    }
    if want("table-3-5") {
        println!("{}", render_table_3_5(&table_3_5()));
    }
    if want("dfs-trace") {
        println!("{}", render_dfs(&dfs_trace_comparison()));
    }
    if want("ablation") {
        println!("{}", render_ablation(&ablation_pay_per_use()));
    }
    if want("overhead") {
        print!("{}", overhead::render_text(&overhead::run_all()));
        println!("{}", overhead::render_fast_path_probe());
    }
}
