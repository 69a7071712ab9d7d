//! ia-replay: deterministic time-travel over the flight recorder.
//!
//! The flight recorder (ia-obs) stamps every scheduler decision — trap
//! dispatches, layer enter/exit, slices, signal deliveries — with a
//! monotone sequence number and the virtual clock. Because the whole
//! machine is deterministic, any window `[a, b)` of that event stream can
//! be *re-executed*: restore the nearest world snapshot taken at or
//! before `a`, run forward, and the recorder must emit the identical
//! events again. This binary records a seeded conform program with
//! periodic kernel snapshots (agent chains and pending upcalls included),
//! then proves exactly that.
//!
//! ```text
//! ia-replay --selftest                    # tier-1 gate: windows across seeds and stacks
//! ia-replay --seed 7 --from 120 --to 200  # replay one window, print events
//! ```
//!
//! Comparison is bit-identical on `(vclock_ns, event)` with layer ids
//! resolved to names: the recorder interns layer names in first-seen
//! order, so a replay that starts mid-stream may assign different
//! [`ia_obs::LayerId`]s to the same layers. Everything else in
//! [`ia_obs::Stamped`] is compared exactly, with sequence numbers offset
//! by the snapshot's tag. The replayed run must also reach the same
//! outcome and final [`Observable`] when the window extends to the end.

use std::process::ExitCode;

use ia_conform::{sample, world, OpSet, Program, StackKind};
use ia_interpose::InterposedRouter;
use ia_kernel::{run, Kernel, KernelBuilder, KernelSnapshot, Observable, RunLimits, RunOutcome};
use ia_obs::{Obs, Stamped};

/// Ring capacity while recording: large enough that no selftest run ever
/// drops an event (drops would leave holes in the reference stream).
const RING: usize = 1 << 20;

/// One recorded run: the reference event stream (pre-rendered, since the
/// recording kernel's layer-name table dies with it), the periodic
/// snapshots tagged with the recorder sequence number at capture time,
/// and the final world for end-state checks.
struct Recording {
    /// `events[i]` has `seq == i` (the recording ring never drops).
    keys: Vec<String>,
    /// `(seq-at-capture, snapshot)`, ascending.
    snaps: Vec<(u64, KernelSnapshot)>,
    /// The agent stack the client ran under.
    stack: StackKind,
    /// Step-chunk size the recorder ran with. Chunk boundaries are
    /// observable (an interrupted slice is accounted as two [`Slice`]
    /// events), so a replay must re-execute with the same chunking —
    /// snapshots sit on chunk boundaries, which keeps them aligned.
    ///
    /// [`Slice`]: ia_obs::Event::Slice
    chunk: u64,
    final_obs: Observable,
    outcome: RunOutcome,
}

fn build_world(program: &Program, stack: StackKind) -> Kernel {
    let mut k = world(program, KernelBuilder::new(), stack.agents());
    k.obs.enable(RING);
    k
}

/// Renders one stamped event with layer ids resolved through `obs`, so
/// streams from recorders with different interning orders compare.
fn event_key(obs: &Obs, e: &Stamped) -> String {
    use ia_obs::Event::{LayerEnter, LayerExit};
    let body = match e.event {
        LayerEnter { layer, pid, nr } => {
            format!("enter {} pid={pid} nr={nr}", obs.layer_name(layer))
        }
        LayerExit {
            layer,
            pid,
            nr,
            outcome,
        } => format!(
            "exit {} pid={pid} nr={nr} {outcome:?}",
            obs.layer_name(layer)
        ),
        other => format!("{other:?}"),
    };
    format!("v={} {body}", e.vclock_ns)
}

/// Runs `program` under `stack` to completion in `chunk`-step
/// increments, snapshotting the world at every chunk boundary (including
/// step 0).
fn record(program: &Program, stack: StackKind, chunk: u64) -> Recording {
    let mut k = build_world(program, stack);
    let mut router = InterposedRouter::new();
    let mut snaps = Vec::new();
    let outcome = loop {
        snaps.push((k.obs.recorded(), k.snapshot()));
        match run(&mut k, &mut router, RunLimits { max_steps: chunk }) {
            RunOutcome::StepLimit => continue,
            other => break other,
        }
    };
    assert_eq!(k.obs.dropped(), 0, "recording ring too small for this run");
    let keys = k
        .obs
        .events()
        .iter()
        .map(|e| event_key(&k.obs, e))
        .collect();
    Recording {
        keys,
        snaps,
        stack,
        chunk,
        final_obs: k.observable(),
        outcome,
    }
}

/// The replayed window plus end-state facts, for assertions and printing.
struct Replayed {
    /// Rendered events covering `[a, b)`, in order.
    window: Vec<String>,
    /// Which snapshot the replay started from.
    snap_id: u64,
    snap_seq: u64,
}

/// Re-executes the window `[a, b)` of `rec` from the nearest snapshot and
/// checks the regenerated stream against the reference, bit for bit.
fn replay_window(program: &Program, rec: &Recording, a: u64, b: u64) -> Result<Replayed, String> {
    let total = rec.keys.len() as u64;
    let b = b.min(total);
    if a >= b {
        return Err(format!("empty window [{a}, {b}) (stream has {total})"));
    }
    let (tag, snap) = rec
        .snaps
        .iter()
        .rev()
        .find(|(tag, _)| *tag <= a)
        .ok_or_else(|| format!("no snapshot at or before seq {a}"))?;

    // A fresh world, rewound to the snapshot. The recorder is not part of
    // the capture (observation must stay inert), so re-enabling it starts
    // a fresh stream whose seq 0 corresponds to reference seq `tag`.
    let mut k = build_world(program, rec.stack);
    k.restore(snap);
    k.obs.enable(RING);

    let need = b - tag;
    let mut outcome = RunOutcome::StepLimit;
    while k.obs.recorded() < need && outcome == RunOutcome::StepLimit {
        outcome = run(
            &mut k,
            &mut InterposedRouter::new(),
            RunLimits {
                max_steps: rec.chunk,
            },
        );
    }
    if k.obs.recorded() < need {
        return Err(format!(
            "replay from snapshot {} (seq {tag}) stopped with {outcome:?} after {} events, \
             needed {need} to cover [{a}, {b})",
            snap.id,
            k.obs.recorded()
        ));
    }
    // Replaying the tail must land in the recorded end state, not merely
    // pass through the right events.
    if b == total {
        while outcome == RunOutcome::StepLimit {
            outcome = run(
                &mut k,
                &mut InterposedRouter::new(),
                RunLimits {
                    max_steps: rec.chunk,
                },
            );
        }
        if outcome != rec.outcome {
            return Err(format!(
                "replayed outcome {outcome:?} != recorded {:?}",
                rec.outcome
            ));
        }
        if k.observable() != rec.final_obs {
            return Err("replayed final observable differs from recording".into());
        }
    }

    let replayed = k.obs.events();
    let mut window = Vec::with_capacity((b - a) as usize);
    for seq in a..b {
        let got = &replayed[(seq - tag) as usize];
        if got.seq != seq - tag {
            return Err(format!(
                "replayed stream has a hole: expected local seq {}, got {}",
                seq - tag,
                got.seq
            ));
        }
        let (want_key, got_key) = (&rec.keys[seq as usize], event_key(&k.obs, got));
        if *want_key != got_key {
            return Err(format!(
                "window [{a}, {b}) diverged at seq {seq} (snapshot {}, local seq {}):\n  \
                 recorded: {want_key}\n  replayed: {got_key}",
                snap.id,
                seq - tag
            ));
        }
        window.push(got_key);
    }
    Ok(Replayed {
        window,
        snap_id: snap.id,
        snap_seq: *tag,
    })
}

/// The tier-1 gate: across several seeds, under the stacked agents and
/// under the batching observer (whose snapshots hold pending vectored
/// upcalls), record with snapshots and replay full tails, interior
/// windows, and windows starting strictly between snapshots. Everything
/// must reproduce bit-identically.
fn selftest() -> Result<(), String> {
    let mut windows = 0u64;
    let mut events = 0u64;
    for (stack, seed) in [StackKind::Stacked, StackKind::Batched]
        .into_iter()
        .flat_map(|stack| [1u64, 4, 11, 23].map(|seed| (stack, seed)))
    {
        let program = sample(seed, 18, OpSet::ALL);
        let rec = record(&program, stack, 100);
        let total = rec.keys.len() as u64;
        if rec.snaps.len() < 2 {
            return Err(format!(
                "{stack:?} seed {seed}: only {} snapshot(s) — run too short to exercise time travel",
                rec.snaps.len()
            ));
        }
        let tags: Vec<u64> = rec.snaps.iter().map(|(t, _)| *t).collect();
        let mut cases: Vec<(u64, u64)> = Vec::new();
        for &t in &tags {
            cases.push((t, total)); // full tail from each snapshot
            cases.push((t, (t + 64).min(total))); // short interior window
            cases.push((t + 17, (t + 90).min(total))); // start between snapshots
        }
        for (a, b) in cases {
            if a >= b.min(total) {
                continue;
            }
            let r = replay_window(&program, &rec, a, b).map_err(|d| format!("{stack:?}: {d}"))?;
            windows += 1;
            events += r.window.len() as u64;
        }
        println!(
            "{stack:?} seed {seed}: {} events, {} snapshots, outcome {:?} — all windows reproduced",
            total,
            rec.snaps.len(),
            rec.outcome
        );
    }
    println!("ia-replay selftest: {windows} windows, {events} events compared, 0 divergences");
    Ok(())
}

struct Options {
    selftest: bool,
    seed: u64,
    ops: usize,
    chunk: u64,
    from: u64,
    to: u64,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut o = Options {
            selftest: false,
            seed: 7,
            ops: 24,
            chunk: 400,
            from: 0,
            to: u64::MAX,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut num = |name: &str| -> Result<u64, String> {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{name} needs a numeric argument"))
            };
            match a.as_str() {
                "--selftest" => o.selftest = true,
                "--seed" => o.seed = num("--seed")?,
                "--ops" => o.ops = num("--ops")?.max(1) as usize,
                "--chunk" => o.chunk = num("--chunk")?.max(1),
                "--from" => o.from = num("--from")?,
                "--to" => o.to = num("--to")?,
                "--help" | "-h" => {
                    println!(
                        "usage: ia-replay --selftest\n\
                         \u{20}      ia-replay [--seed N] [--ops M] [--chunk C] [--from A] [--to B]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(o)
    }
}

fn main() -> ExitCode {
    let o = match Options::parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ia-replay: {e}");
            return ExitCode::from(2);
        }
    };
    if o.selftest {
        return match selftest() {
            Ok(()) => ExitCode::SUCCESS,
            Err(d) => {
                println!("FAIL: {d}");
                ExitCode::FAILURE
            }
        };
    }
    let program = sample(o.seed, o.ops, OpSet::ALL);
    let rec = record(&program, StackKind::Stacked, o.chunk);
    let total = rec.keys.len() as u64;
    println!(
        "recorded seed {}: {} events, {} snapshots, outcome {:?}",
        o.seed,
        total,
        rec.snaps.len(),
        rec.outcome
    );
    let (a, b) = (o.from.min(total), o.to.min(total));
    match replay_window(&program, &rec, a, b) {
        Ok(r) => {
            println!(
                "replayed [{a}, {}) from snapshot {} (seq {}):",
                b, r.snap_id, r.snap_seq
            );
            for (i, line) in r.window.iter().enumerate() {
                println!("  seq {:>6}  {line}", a + i as u64);
            }
            println!("OK: window reproduced bit-identically");
            ExitCode::SUCCESS
        }
        Err(d) => {
            println!("FAIL: {d}");
            ExitCode::FAILURE
        }
    }
}
