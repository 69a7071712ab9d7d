//! Golden tests for the benchmark documents: fixed inputs must render to
//! the exact bytes of the committed golden files. `reproduce --smoke`
//! reads the committed `BENCH_1.json` line by line, so a layout change
//! must show up here first. BENCH_2 is pure virtual time, so the live
//! document itself must equal the committed `BENCH_2.json`.

use ia_bench::fleetbench::FleetSample;
use ia_bench::fusion;
use ia_bench::hostbench::{self, Scenario};
use ia_bench::overhead::{self, Bench2, Cell, LayerRow, Row};
use ia_bench::snapbench::{self, Sample, TxnScaling};
use ia_kernel::FusionStats;

fn scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();
    for (name, insns, traps) in [
        ("compute/no_agent", 6_000_004u64, 1u64),
        ("traps/no_agent", 600_008, 150_001),
    ] {
        for (engine, fast, secs) in [
            ("plain", false, 0.0502),
            ("fused", false, 0.0201),
            ("fused", true, 0.012_345_67),
        ] {
            v.push(Scenario {
                name: name.into(),
                engine,
                fast_path: fast,
                insns,
                traps,
                host_secs: secs,
                rep_secs: vec![secs * 1.5, secs],
                minsns_per_sec: insns as f64 / secs / 1e6,
                traps_per_sec: traps as f64 / secs,
            });
        }
    }
    v
}

fn bench2() -> Bench2 {
    let cell = |call, us_per_call, overhead_us, artifact| Cell {
        call,
        us_per_call,
        overhead_us,
        artifact,
    };
    Bench2 {
        rows: vec![
            Row {
                config: "bare",
                cells: vec![
                    cell("getpid", 25.0, 0.0, None),
                    cell("read_1k", 376.25, 0.0, None),
                ],
            },
            Row {
                config: "crypt",
                cells: vec![
                    cell("getpid", 25.0, 0.0, None),
                    cell(
                        "write_1k",
                        600.5,
                        -65.125,
                        Some("reimplements write; not comparable"),
                    ),
                ],
            },
        ],
        layers: vec![
            LayerRow {
                config: "bare",
                layer: "kernel".into(),
                count: 256,
                virt_ns_per_call: 25_000,
            },
            LayerRow {
                config: "trace",
                layer: "interpose".into(),
                count: 256,
                virt_ns_per_call: 4_000,
            },
        ],
    }
}

fn samples() -> Vec<Sample> {
    vec![
        Sample {
            metric: "vfs_snapshot_ns",
            vfs_files: 10,
            ns: 100.0,
        },
        Sample {
            metric: "vfs_eager_copy_ns",
            vfs_files: 10,
            ns: 5_123.44,
        },
        Sample {
            metric: "vfs_snapshot_ns",
            vfs_files: 10_000,
            ns: 120.06,
        },
    ]
}

fn fleet() -> Vec<FleetSample> {
    vec![
        FleetSample {
            tenants: 100,
            threads: 1,
            spin_up_ns_per_tenant: 30_771.4,
            wall_ms: 42.14,
            syscalls_per_sec: 546_735.2,
            insns_per_sec: 177_344_059.7,
            steals: 0,
        },
        FleetSample {
            tenants: 100,
            threads: 2,
            spin_up_ns_per_tenant: 29_000.5,
            wall_ms: 23.96,
            syscalls_per_sec: 961_602.8,
            insns_per_sec: 311_000_000.0,
            steals: 26,
        },
    ]
}

#[test]
fn bench_1_matches_golden() {
    assert_eq!(
        hostbench::render_json(&scenarios()),
        include_str!("golden/bench1.json")
    );
}

#[test]
fn bench_2_matches_golden() {
    assert_eq!(
        overhead::render_json(&bench2()),
        include_str!("golden/bench2.json")
    );
}

#[test]
fn committed_bench_2_matches_a_live_run() {
    assert_eq!(
        overhead::render_json(&overhead::run_all()),
        include_str!("../../../BENCH_2.json"),
        "the cost model moved: regenerate BENCH_2.json with `reproduce --json2`"
    );
}

#[test]
fn bench_3_matches_golden() {
    assert_eq!(
        snapbench::render_json(
            &samples(),
            &TxnScaling {
                commit_ns: (20_557.04, 1_234_567.8),
                abort_ns: (18_264.0, 999_999.96),
            },
            &fleet()
        ),
        include_str!("golden/bench3.json")
    );
}

#[test]
fn fusion_histogram_matches_golden() {
    let stats = FusionStats {
        hits: [20_000, 20_000, 2_008, 2_036, 20_000],
    };
    assert_eq!(
        fusion::render_json(&stats, (7, 1)),
        include_str!("golden/fusion.json")
    );
}
