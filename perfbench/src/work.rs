//! The four workloads, each a closed loop of whole instances driven from
//! one thread against the default `KernelBuilder` configuration.
//!
//! The seeded inputs are drawn once per run by [`Inputs::draw`], untimed.
//! Everything an instance shares with the next one is built from them in
//! [`setup`] (timed as `setup_s`): VFS population, image build, the fleet
//! base, the txn template, and one warm-up instance of every row, which
//! fills the exec cache. An instance's span starts before its kernel is
//! built and ends after the kernel is dropped; correctness checks run
//! after the span closes.

use std::sync::Arc;
use std::time::Instant;

use ia_agents::txn::{Decision, TxnHandle};
use ia_agents::{Timex, TraceAgent, TxnAgent, UnionAgent};
use ia_fleet::workload::{tenant_agents, tenant_image};
use ia_fleet::{solo_observable, Fleet, FleetBase, Tenant};
use ia_interpose::{wrap_process, Agent, InterposedRouter};
use ia_kernel::{
    Engine, ExecCache, Kernel, KernelBuilder, MachineProfile, Observable, RunOutcome, I486_25,
    VAX_6250,
};
use ia_prng::Prng;
use ia_vfs::Fs;
use ia_vm::Image;
use ia_workloads::runner::run_workload_observed;
use ia_workloads::{make8, mix, scribe, AgentKind, SchedKind};

use crate::probe::{timed, Acc, AgentClocks, Spans, TimedAgent, TimedRouter};

/// Exact counts the traced run must reproduce bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub insns: u64,
    pub syscalls: u64,
    pub fast_hits: u64,
    pub fast_misses: u64,
    pub fused_hits: u64,
    pub slices: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub intercepted: u64,
    pub passthrough: u64,
    pub unmanaged: u64,
    pub turns: u64,
}

impl Counts {
    fn of(k: &Kernel, router: &InterposedRouter, cache: &ExecCache, before: (u64, u64)) -> Counts {
        Counts {
            insns: k.total_insns,
            syscalls: k.total_syscalls,
            fast_hits: k.fast_stats.hits(),
            fast_misses: k.fast_stats.misses(),
            fused_hits: k.fusion_stats.total(),
            slices: k.perf.slices,
            cache_hits: cache.hits() - before.0,
            cache_misses: cache.misses() - before.1,
            intercepted: router.stats.intercepted,
            passthrough: router.stats.passthrough,
            unmanaged: router.stats.unmanaged,
            turns: 0,
        }
    }
}

/// What one instance produced.
pub struct Run {
    /// Which row of [`Workload::rows`] it ran.
    pub row: usize,
    /// Host nanoseconds of the whole instance.
    pub wall_ns: u64,
    pub counts: Counts,
    /// Work-stealing events (fleet only; not deterministic).
    pub steals: u64,
    /// Observables to verify, each keyed by the configuration whose
    /// reference it must equal.
    pub obs: Vec<(usize, Observable)>,
    /// Known-constant checks that failed.
    pub problems: Vec<String>,
    /// The instance's spans, when traced.
    pub spans: Option<Spans>,
}

pub trait Workload {
    /// Row labels; instance `i` runs one of them.
    fn rows(&self) -> &[&'static str];
    /// Runs instance `i`, traced or not.
    fn run(&mut self, i: u64, trace: bool) -> Run;
    /// Reference Observables configuration `key` must reproduce, each with
    /// the name of the reference that produced it.
    fn references(&mut self, key: usize) -> Vec<(&'static str, Observable)>;
}

/// A workload's seeded inputs, drawn once per run outside the set-up
/// timer: choosing them is the benchmark's work, not the program's.
pub struct Inputs {
    name: String,
    seed: u64,
    /// The fleet's tenant-image pool (empty for the other workloads).
    pool: Vec<Image>,
}

impl Inputs {
    /// The inputs of workload `name` for `seed`, or `None` for an unknown
    /// name.
    pub fn draw(name: &str, seed: u64) -> Option<Inputs> {
        let pool = match name {
            "scribe" | "make8" | "txn" => Vec::new(),
            "fleet" => fleet_pool(seed),
            _ => return None,
        };
        Some(Inputs {
            name: name.to_string(),
            seed,
            pool,
        })
    }
}

/// Builds the workload `inputs` describe (timed as `setup_s`).
pub fn setup(inputs: &Inputs) -> Box<dyn Workload> {
    let seed = inputs.seed;
    let mut w: Box<dyn Workload> = match inputs.name.as_str() {
        "scribe" => Box::new(Paper::new(Paper::SCRIBE, seed)),
        "make8" => Box::new(Paper::new(Paper::MAKE8, seed)),
        "txn" => Box::new(Txn::new(seed)),
        "fleet" => Box::new(FleetWl::new(seed, &inputs.pool)),
        other => unreachable!("Inputs::draw admits no workload {other:?}"),
    };
    // Warm-up: one instance of every row, so caches are filled and lazy
    // set-up has finished before the first timed instance. It also puts
    // the allocator in the state a long-running host is in: freeing the
    // first 1 MiB process address space raises glibc's dynamic mmap
    // threshold, after which address spaces come from the brk heap. Every
    // timed instance sees that state; before the warm-up, fleet spin-up
    // is several times faster and peak RSS an order of magnitude lower.
    for i in 0..w.rows().len() as u64 {
        let _ = w.run(i, false);
    }
    w
}

/// A traced instance's recorders.
struct Probe {
    spans: Spans,
    clocks: Arc<AgentClocks>,
}

impl Probe {
    fn new(trace: bool) -> Option<Probe> {
        trace.then(|| Probe {
            spans: Spans::default(),
            clocks: Arc::new(AgentClocks::default()),
        })
    }

    fn finish(probe: Option<Probe>, wall_ns: u64) -> Option<Spans> {
        probe.map(|mut p| {
            p.spans.instance = Acc::once(wall_ns);
            p.clocks.fold_into(&mut p.spans);
            p.spans
        })
    }

    fn clocks(probe: &Option<Probe>) -> Option<&Arc<AgentClocks>> {
        probe.as_ref().map(|p| &p.clocks)
    }
}

fn load(agent: Box<dyn Agent>, clocks: Option<&Arc<AgentClocks>>) -> Box<dyn Agent> {
    match clocks {
        Some(c) => TimedAgent::wrap(agent, c),
        None => agent,
    }
}

fn drive(k: &mut Kernel, router: &mut InterposedRouter, probe: &mut Option<Probe>) -> RunOutcome {
    match probe {
        None => k.run_with(router),
        Some(p) => {
            let t = Instant::now();
            let out = k.run_with(&mut TimedRouter {
                inner: router,
                spans: &mut p.spans,
            });
            p.spans.run_with.add_since(t);
            out
        }
    }
}

fn observe(k: &Kernel, probe: &mut Option<Probe>) -> Observable {
    match probe {
        None => k.observable(),
        Some(p) => timed(&mut p.spans.observable, || k.observable()),
    }
}

fn check_exits(
    problems: &mut Vec<String>,
    outcome: &RunOutcome,
    obs: &Observable,
    processes: usize,
) {
    if *outcome != RunOutcome::AllExited {
        problems.push(format!("run ended {outcome:?}"));
    }
    let st = &obs.client.exit_statuses;
    if st.len() != processes || st.values().any(|&s| s != 0) {
        problems.push(format!("expected {processes} clean exits, got {st:?}"));
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Prng) {
    for j in (1..v.len()).rev() {
        v.swap(j, rng.below(j as u64 + 1) as usize);
    }
}

/// A reference kernel: the plain engine with the trap fast path off.
fn plain() -> KernelBuilder {
    KernelBuilder::new().engine(Engine::Plain).fast_path(false)
}

/// The paper's two applications (§3.4), rotating the four table rows.
struct Paper {
    spec: &'static PaperSpec,
    /// The prototype filesystem every instance starts from.
    base: Fs,
    /// Shared exec cache, warmed by set-up.
    cache: ExecCache,
    image: Image,
    /// Seeded rotation order over the rows.
    order: [usize; 4],
}

struct PaperSpec {
    workload: ia_workloads::Workload,
    profile: MachineProfile,
    populate: fn(&mut Kernel),
    image: fn() -> Image,
    /// Starts the application: scribe from its image, make8 from
    /// `/bin/make` in the populated filesystem (through the exec cache).
    spawn: fn(&mut Kernel, &Image) -> ia_kernel::Pid,
    /// Union mount specs for the union row (the runner's own).
    union: &'static [&'static [u8]],
    check: fn(&mut Vec<String>, &RunOutcome, &Observable, &Counts, Option<&Spans>),
}

const ROWS: [&str; 4] = ["None", "timex", "trace", "union"];

impl Paper {
    const SCRIBE: &'static PaperSpec = &PaperSpec {
        workload: ia_workloads::Workload::Scribe,
        profile: VAX_6250,
        populate: scribe::setup,
        image: scribe::image,
        spawn: |k, image| k.spawn_image(image, &[b"scribe"], b"scribe"),
        union: &[
            b"/home/mbj/diss=/home/mbj/diss:/usr/lib/scribe",
            b"/usr/lib/scribe/fonts=/usr/lib/scribe/fonts:/usr/share",
        ],
        check: |problems, outcome, obs, counts, _| {
            check_exits(problems, outcome, obs, 1);
            // The client's own traps; `total_syscalls` also counts the
            // agents' downcalls.
            let traps = counts.intercepted + counts.passthrough + counts.unmanaged;
            if traps != scribe::expected_syscalls() {
                problems.push(format!(
                    "scribe made {traps} syscalls, expected {}",
                    scribe::expected_syscalls()
                ));
            }
        },
    };

    const MAKE8: &'static PaperSpec = &PaperSpec {
        workload: ia_workloads::Workload::Make8,
        profile: I486_25,
        populate: make8::setup,
        image: make8::make_image,
        spawn: |k, _| make8::spawn(k),
        union: &[b"/usr/src/proj=/usr/src/proj:/tmp"],
        check: |problems, outcome, obs, _, spans| {
            let pairs = make8::fork_exec_pairs();
            // make plus one process per fork.
            check_exits(problems, outcome, obs, 1 + pairs as usize);
            if let Some(s) = spans {
                let (forks, execs) = (s.class(0).calls, s.class(1).calls);
                if forks != pairs || execs != pairs {
                    problems.push(format!(
                        "routed {forks} forks and {execs} execs, expected {pairs} of each"
                    ));
                }
            }
        },
    };

    fn new(spec: &'static PaperSpec, seed: u64) -> Paper {
        let mut k = KernelBuilder::new().profile(spec.profile).build();
        (spec.populate)(&mut k);
        let mut order = [0, 1, 2, 3];
        shuffle(&mut order, &mut Prng::new(seed));
        Paper {
            spec,
            base: k.fs.clone(),
            cache: ExecCache::new(),
            image: (spec.image)(),
            order,
        }
    }

    fn agent(&self, row: usize) -> Option<Box<dyn Agent>> {
        match AgentKind::TABLE_ROWS[row] {
            AgentKind::Timex => Some(Timex::boxed(3600)),
            AgentKind::Trace => Some(Box::new(TraceAgent::new().0)),
            AgentKind::Union => Some(UnionAgent::boxed(self.spec.union)),
            _ => None,
        }
    }

    /// One build-spawn-wrap-run-observe pass on the kernel `config` builds.
    fn execute(
        &self,
        row: usize,
        config: KernelBuilder,
        probe: &mut Option<Probe>,
    ) -> (RunOutcome, Observable, Counts) {
        let before = (self.cache.hits(), self.cache.misses());
        let mut k = config
            .profile(self.spec.profile)
            .base_vfs(&self.base)
            .build();
        let pid = (self.spec.spawn)(&mut k, &self.image);
        let mut router = InterposedRouter::new();
        if let Some(a) = self.agent(row) {
            wrap_process(&mut k, &mut router, pid, load(a, Probe::clocks(probe)), &[]);
        }
        let outcome = drive(&mut k, &mut router, probe);
        let obs = observe(&k, probe);
        let counts = Counts::of(&k, &router, &self.cache, before);
        (outcome, obs, counts)
    }
}

impl Workload for Paper {
    fn rows(&self) -> &[&'static str] {
        &ROWS
    }

    fn run(&mut self, i: u64, trace: bool) -> Run {
        let row = self.order[i as usize % 4];
        let mut probe = Probe::new(trace);
        let start = Instant::now();
        let config = KernelBuilder::new().exec_cache(self.cache.clone());
        let (outcome, obs, counts) = self.execute(row, config, &mut probe);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let spans = Probe::finish(probe, wall_ns);
        let mut problems = Vec::new();
        (self.spec.check)(&mut problems, &outcome, &obs, &counts, spans.as_ref());
        Run {
            row,
            wall_ns,
            counts,
            steals: 0,
            obs: vec![(row, obs)],
            problems,
            spans,
        }
    }

    fn references(&mut self, row: usize) -> Vec<(&'static str, Observable)> {
        let (_, plain_obs, _) = self.execute(row, plain(), &mut None);
        // The repository's own harness builds the kernel and populates its
        // filesystem itself; the benchmark's clone-from-base instance must
        // be indistinguishable from it.
        let kind = AgentKind::TABLE_ROWS[row];
        let (_, runner_obs) = run_workload_observed(
            self.spec.workload,
            self.spec.profile,
            kind,
            SchedKind::Sliced,
            None,
        );
        vec![("plain", plain_obs), ("runner", runner_obs)]
    }
}

/// Distinct session programs; session `i` runs program `i % SESSIONS`.
const SESSIONS: usize = 64;
/// Template directories × files per directory: the 10k-file world.
const DIRS: usize = 100;
const FILES_PER_DIR: usize = 100;
/// Operations per session program.
const SESSION_OPS: usize = 200;

/// Half the sessions commit, half abort.
fn commits(slot: usize) -> bool {
    slot.is_multiple_of(2)
}

/// Transactional sessions branched off a 10k-file template world.
struct Txn {
    template: Kernel,
    template_digest: Option<u64>,
    images: Vec<Image>,
}

impl Txn {
    fn new(seed: u64) -> Txn {
        let mut rng = Prng::new(seed ^ 0x07a9_5e55);
        let mut k = KernelBuilder::new().build();
        mix::setup(&mut k);
        for d in 0..DIRS {
            k.mkdir_p(format!("/data/d{d:02}").as_bytes())
                .expect("template directory");
            for f in 0..FILES_PER_DIR {
                let len = rng.range_usize(64, 1024);
                k.write_file(format!("/data/d{d:02}/f{f:02}").as_bytes(), &rng.bytes(len))
                    .expect("template file");
            }
        }
        let images = (0..SESSIONS)
            .map(|_| mix::random_program(rng.next_u64(), SESSION_OPS))
            .collect();
        Txn {
            template: k,
            template_digest: None,
            images,
        }
    }

    /// Runs session `slot` on `k`.
    fn session(
        &self,
        k: &mut Kernel,
        slot: usize,
        probe: &mut Option<Probe>,
    ) -> (RunOutcome, Observable, Counts, TxnHandle) {
        let cache = k.exec_cache_handle();
        let before = (cache.hits(), cache.misses());
        let (agent, handle) = TxnAgent::new();
        if commits(slot) {
            handle.set_commit();
        }
        let pid = k.spawn_image(&self.images[slot], &[b"mix"], b"mix");
        let mut router = InterposedRouter::new();
        wrap_process(k, &mut router, pid, load(agent, Probe::clocks(probe)), &[]);
        let outcome = drive(k, &mut router, probe);
        let obs = observe(k, probe);
        let counts = Counts::of(k, &router, &cache, before);
        (outcome, obs, counts, handle)
    }
}

impl Workload for Txn {
    fn rows(&self) -> &[&'static str] {
        &["commit", "abort"]
    }

    fn run(&mut self, i: u64, trace: bool) -> Run {
        let slot = i as usize % SESSIONS;
        let mut probe = Probe::new(trace);
        let start = Instant::now();
        let mut k = match &mut probe {
            None => self.template.branch(),
            Some(p) => timed(&mut p.spans.branch, || self.template.branch()),
        };
        let (outcome, obs, counts, handle) = self.session(&mut k, slot, &mut probe);
        drop(k);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let spans = Probe::finish(probe, wall_ns);

        let mut problems = Vec::new();
        check_exits(&mut problems, &outcome, &obs, 1);
        let commit = commits(slot);
        let want = if commit {
            Decision::Commit
        } else {
            Decision::Abort
        };
        if handle.outcome() != Some(want) {
            problems.push(format!(
                "session ended {:?}, wanted {want:?}",
                handle.outcome()
            ));
        }
        if commit && handle.modified_paths().is_empty() {
            problems.push("committed session reports no modified paths".into());
        }
        let template = &self.template;
        let digest = *self
            .template_digest
            .get_or_insert_with(|| template.fs.content_digest());
        if !commit && obs.client.vfs_digest != digest {
            problems.push("aborted session changed the template's content digest".into());
        }
        Run {
            row: usize::from(!commit),
            wall_ns,
            counts,
            steals: 0,
            obs: vec![(slot, obs)],
            problems,
            spans,
        }
    }

    fn references(&mut self, slot: usize) -> Vec<(&'static str, Observable)> {
        let mut k = plain().base_vfs(&self.template.fs).build();
        let (_, obs, _, _) = self.session(&mut k, slot, &mut None);
        vec![("plain", obs)]
    }
}

/// Tenants per fleet instance.
const TENANTS: usize = 1000;
/// Distinct tenant images in the shared base.
const POOL: usize = 16;
/// Seeded candidates drawn per pool image.
const CANDIDATES: usize = 8;

/// A 1k-tenant fleet spun up from a shared base and driven to completion.
struct FleetWl {
    base: FleetBase,
    paths: Vec<Vec<u8>>,
    /// Pool image of each tenant.
    assign: Vec<usize>,
    threads: usize,
    seed: u64,
    images: Vec<Image>,
    /// A private base built like `base`, for the solo references.
    solo_base: Option<FleetBase>,
}

/// The fleet's seeded pool of `POOL` tenant images, stratified: POOL ×
/// CANDIDATES seeded images, split into 4 bands by the syscalls a solo run
/// makes and each band into 4 cells by the instructions it retires; one
/// seeded pick per cell. Every seed gets a different pool with nearly the
/// same totals of both, so less of the spread between seeds comes from the
/// draw.
fn fleet_pool(seed: u64) -> Vec<Image> {
    let mut rng = Prng::new(seed ^ 0x0f1e_e700);
    let mut candidates: Vec<(u64, u64, Image)> = (0..POOL * CANDIDATES)
        .map(|_| {
            let image = tenant_image(rng.next_u64());
            let mut k = KernelBuilder::new().build();
            k.spawn_image(&image, &[b"t"], b"t");
            let _ = k.run_to_completion();
            (k.total_syscalls, k.total_insns, image)
        })
        .collect();
    candidates.sort_by_key(|c| c.0);
    let mut images = Vec::with_capacity(POOL);
    for band in candidates.chunks_mut(POOL / 4 * CANDIDATES) {
        band.sort_by_key(|c| c.1);
        for cell in band.chunks(CANDIDATES) {
            images.push(cell[rng.below(CANDIDATES as u64) as usize].2.clone());
        }
    }
    images
}

impl FleetWl {
    fn new(seed: u64, pool: &[Image]) -> FleetWl {
        let mut rng = Prng::new(seed ^ 0x0f1e_e701);
        let images = pool.to_vec();
        let paths: Vec<Vec<u8>> = (0..POOL)
            .map(|j| format!("/bin/t{j:02}").into_bytes())
            .collect();
        // Every image serves the same number of tenants (±1), in seeded
        // order.
        let mut assign: Vec<usize> = (0..TENANTS).map(|id| id % POOL).collect();
        shuffle(&mut assign, &mut rng);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        FleetWl {
            base: Self::base(&paths, &images),
            paths,
            assign,
            threads,
            seed,
            images,
            solo_base: None,
        }
    }

    fn base(paths: &[Vec<u8>], images: &[Image]) -> FleetBase {
        let mut base = FleetBase::new();
        for (p, img) in paths.iter().zip(images) {
            base.install_image(p, img);
        }
        base
    }
}

impl Workload for FleetWl {
    fn rows(&self) -> &[&'static str] {
        &["1k tenants"]
    }

    fn run(&mut self, i: u64, trace: bool) -> Run {
        // Agent clocks per tenant: one set shared by all tenants would
        // bounce its cache line between the pool's threads on every call.
        let clocks: Vec<Arc<AgentClocks>> = (0..if trace { TENANTS } else { 0 })
            .map(|_| Arc::default())
            .collect();
        let cache = &self.base.exec_cache;
        let before = (cache.hits(), cache.misses());
        let start = Instant::now();
        let tenants: Vec<Tenant> = (0..TENANTS)
            .map(|id| {
                let agents = tenant_agents()
                    .into_iter()
                    .map(|a| load(a, clocks.get(id)))
                    .collect();
                Tenant::spawn_path(
                    &self.base,
                    id,
                    &self.paths[self.assign[id]],
                    &[b"t"],
                    agents,
                )
            })
            .collect();
        let spun_ns = start.elapsed().as_nanos() as u64;
        let (results, report) = Fleet::new(self.threads).seed(self.seed ^ i).run(tenants);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let spans = trace.then(|| {
            let mut s = Spans {
                instance: Acc::once(wall_ns),
                spinup: Acc::once(spun_ns),
                drive: Acc::once(wall_ns - spun_ns),
                ..Spans::default()
            };
            for c in &clocks {
                c.fold_into(&mut s);
            }
            s
        });

        let problems = results
            .iter()
            .filter(|r| r.outcome != RunOutcome::AllExited)
            .map(|r| format!("tenant {} ended {:?}", r.id, r.outcome))
            .collect();
        Run {
            row: 0,
            wall_ns,
            counts: Counts {
                insns: report.total_insns,
                syscalls: report.total_syscalls,
                cache_hits: cache.hits() - before.0,
                cache_misses: cache.misses() - before.1,
                turns: report.total_turns,
                ..Counts::default()
            },
            steals: report.steals,
            obs: results
                .into_iter()
                .map(|r| (self.assign[r.id], r.obs))
                .collect(),
            problems,
            spans,
        }
    }

    fn references(&mut self, j: usize) -> Vec<(&'static str, Observable)> {
        let (paths, images) = (&self.paths, &self.images);
        let solo_base = self
            .solo_base
            .get_or_insert_with(|| Self::base(paths, images));
        let (_, solo) = solo_observable(solo_base, &paths[j], &[b"t"], tenant_agents(), u64::MAX);
        let mut k = plain().base_vfs(&solo_base.vfs).build();
        let pid = k.spawn(&paths[j], &[b"t"]).expect("tenant image installed");
        let mut router = InterposedRouter::new();
        for a in tenant_agents() {
            wrap_process(&mut k, &mut router, pid, a, &[]);
        }
        let _ = k.run_with(&mut router);
        vec![("solo", solo), ("plain", k.observable())]
    }
}
