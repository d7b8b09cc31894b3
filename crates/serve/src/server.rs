//! The job server: runner threads, step execution, and the socket front
//! end.
//!
//! A [`Server`] owns one job registry and one [`BaselineCache`]. Runner
//! threads pull *scheduler steps* from the registry — one NSGA-II
//! generation of an explore job (via [`gdsii_guard::nsga2::explore_with_engine`]
//! with `halt_after`), or the whole of an analyze/harden job — so
//! priorities take effect at generation boundaries and a pause/cancel
//! request lands exactly where a checkpoint was just written. Explore
//! jobs are therefore bit-identical across any pause/resume pattern, by
//! the same checkpoint-resume property the kill-matrix test pins.
//!
//! With `runners: 0` nothing runs until [`Server::step_once`] /
//! [`Server::run_until_idle`] — the deterministic mode the scheduler
//! tests drive.
//!
//! **Crash safety and containment** (DESIGN.md §2j): with a
//! `journal_dir` configured, every lifecycle transition is journaled
//! before publication and [`Server::start`] replays the journal —
//! non-terminal jobs re-queue in their original order and explores
//! resume bit-identically from their checkpoints. Runner threads are
//! *supervised*: a runner that dies (thread panic outside the step
//! sandbox) or wedges past `stuck_after` has its in-flight job marked
//! failed and is replaced, so the pool never silently shrinks. Submits
//! beyond `max_queued` or the memory budget are refused with a
//! retryable [`Response::Busy`] instead of growing without bound.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gdsii_guard::flow::{harden, FlowMetrics};
use gdsii_guard::nsga2::{explore_with_engine, ExploreOptions, ExploreResult};
use gdsii_guard::sandbox::{classify, EvalFailure, SandboxPolicy};
use gdsii_guard::Error;
use ggjson::Json;
use tech::Technology;

use crate::baseline::{BaselineCache, DesignContext};
use crate::job::{BaselineSummary, JobEvent, JobKind, JobSpec, JobStatus};
use crate::journal::Journal;
use crate::proto::{Request, Response};
use crate::registry::{Claim, Registry, StepOutcome};

/// How a [`Server`] is stood up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket to listen on; `None` runs in-process only
    /// (submit/watch through the [`Server`] methods).
    pub socket: Option<PathBuf>,
    /// Directory for per-job checkpoint envelopes; `None` uses
    /// `ggd-serve-<pid>` under the system temp directory.
    pub data_dir: Option<PathBuf>,
    /// Runner threads; `0` means no background execution — tests drive
    /// the scheduler with [`Server::step_once`].
    pub runners: usize,
    /// Durable job-journal directory (`GG_JOURNAL_DIR`). `None` runs
    /// volatile: a crash forgets every job.
    pub journal_dir: Option<PathBuf>,
    /// Admission limit on queued jobs (`GG_MAX_QUEUED`); `0` = unlimited.
    /// Submits beyond it get a retryable `Busy` refusal.
    pub max_queued: usize,
    /// Admission memory budget in bytes (`GG_SERVE_MEM_BUDGET`); `0` =
    /// unlimited. Submits are refused while peak RSS or the eval-cache
    /// footprint exceeds it.
    pub mem_budget_bytes: u64,
    /// Watchdog threshold (`GG_STUCK_MS`): a runner whose step exceeds
    /// this wall time is declared wedged — its job fails as stuck and
    /// the runner is replaced. `None` disables stuck detection (dead
    /// runners are still replaced).
    pub stuck_after: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            socket: None,
            data_dir: None,
            runners: 1,
            journal_dir: None,
            max_queued: 0,
            mem_budget_bytes: 0,
            stuck_after: None,
        }
    }
}

/// Scheduler and shared-baseline-cache counters, as returned by `stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Jobs ever submitted.
    pub jobs: u64,
    /// Baseline contexts constructed (one per distinct design, counting
    /// failed builds).
    pub baseline_builds: u64,
    /// Baseline requests served from cache instead of rebuilding.
    pub baseline_hits: u64,
    /// Resident bytes of every cached baseline's occupancy index.
    pub occupancy_bytes: u64,
    /// Usage-plane bytes across cached baselines (routing + Phase-A plan,
    /// Arc-deduplicated per engine).
    pub route_planes_bytes: u64,
    /// Accounted candidate-cache bytes across cached engines (bounded per
    /// engine by `GG_EVAL_CACHE_BYTES`).
    pub eval_cache_bytes: u64,
    /// Process peak resident set (`VmHWM`), 0 where procfs is absent.
    pub peak_rss_bytes: u64,
    /// Jobs currently waiting for a runner slot.
    pub queued: u64,
    /// Submits refused by admission control this server lifetime.
    pub busy_rejects: u64,
    /// Runner threads replaced by the supervisor (died or wedged).
    pub runner_restarts: u64,
    /// Non-terminal jobs re-queued from the journal at startup.
    pub recovered_jobs: u64,
}

ggjson::json_struct!(ServerStats {
    jobs,
    baseline_builds,
    baseline_hits,
    occupancy_bytes,
    route_planes_bytes,
    eval_cache_bytes,
    peak_rss_bytes,
    queued,
    busy_rejects,
    runner_restarts,
    recovered_jobs
});

/// Assembles the stats payload from the shared server state.
fn collect_stats(shared: &Shared) -> ServerStats {
    let (baseline_builds, baseline_hits) = shared.baselines.stats();
    let mem = shared.baselines.memory_footprint();
    ServerStats {
        jobs: shared.registry.jobs().len() as u64,
        baseline_builds,
        baseline_hits,
        occupancy_bytes: mem.occupancy_bytes,
        route_planes_bytes: mem.route_planes_bytes,
        eval_cache_bytes: mem.cache_bytes,
        peak_rss_bytes: obs::peak_rss_bytes(),
        queued: shared.registry.queued_count() as u64,
        busy_rejects: shared.busy_rejects.load(Ordering::Relaxed),
        runner_restarts: shared.runner_restarts.load(Ordering::Relaxed),
        recovered_jobs: shared.recovered_jobs,
    }
}

struct Shared {
    registry: Registry,
    baselines: BaselineCache,
    data_dir: PathBuf,
    socket_path: Option<PathBuf>,
    ckpt_counter: AtomicU64,
    /// Admission limits (0 = unlimited).
    max_queued: usize,
    mem_budget_bytes: u64,
    busy_rejects: AtomicU64,
    runner_restarts: AtomicU64,
    /// Non-terminal jobs re-queued from the journal at startup.
    recovered_jobs: u64,
}

/// Per-runner heartbeat the supervisor watches: which job the runner is
/// executing and since when, plus the retirement flag that tells an
/// abandoned (wedged) runner not to claim further work if it ever wakes.
#[derive(Default)]
struct Flight {
    busy: Mutex<Option<(u64, Instant)>>,
    retired: AtomicBool,
}

struct RunnerSlot {
    handle: JoinHandle<()>,
    flight: Arc<Flight>,
}

/// The one submit path, behind both [`Server::submit`] and the socket's
/// `submit` request: validate (a bad spec is [`Error::Serve`]), admit
/// (over the limits is the retryable [`Error::Busy`]), pick the job's
/// checkpoint path, and queue it.
fn submit(shared: &Shared, spec: JobSpec) -> Result<u64, Error> {
    spec.validate().map_err(Error::Serve)?;
    admit(shared, &spec).map_err(Error::Busy)?;
    let checkpoint = match &spec.checkpoint {
        Some(path) => PathBuf::from(path),
        None => {
            let n = shared.ckpt_counter.fetch_add(1, Ordering::Relaxed);
            shared.data_dir.join(format!("job{n}.ckpt"))
        }
    };
    Ok(shared.registry.submit(spec, checkpoint))
}

/// Admission gate, checked before a submit enters the queue. Idempotent
/// resubmits (a dedup token the registry already knows) bypass the gate
/// — they map to an existing job, adding no load. Refusals are counted
/// in `serve.busy_rejects` and surface as the retryable `Busy` response.
fn admit(shared: &Shared, spec: &JobSpec) -> Result<(), String> {
    if let Some(tok) = &spec.dedup {
        if shared.registry.lookup_dedup(tok).is_some() {
            return Ok(());
        }
    }
    let refuse = |why: String| {
        shared.busy_rejects.fetch_add(1, Ordering::Relaxed);
        busy_metric().incr();
        Err(why)
    };
    if shared.max_queued > 0 {
        let queued = shared.registry.queued_count();
        if queued >= shared.max_queued {
            return refuse(format!(
                "{queued} jobs queued (limit {})",
                shared.max_queued
            ));
        }
    }
    if shared.mem_budget_bytes > 0 {
        let rss = obs::peak_rss_bytes();
        let cache = shared.baselines.memory_footprint().cache_bytes;
        if rss > shared.mem_budget_bytes || cache > shared.mem_budget_bytes {
            return refuse(format!(
                "memory budget exceeded (peak RSS {rss} B, eval cache {cache} B, budget {} B)",
                shared.mem_budget_bytes
            ));
        }
    }
    Ok(())
}

fn busy_metric() -> &'static obs::Counter {
    use std::sync::OnceLock;
    static M: OnceLock<obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("serve.busy_rejects"))
}

fn restart_metric() -> &'static obs::Counter {
    use std::sync::OnceLock;
    static M: OnceLock<obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("serve.runner_restarts"))
}

/// A running job server. Dropping it without [`Server::stop`] leaves
/// its threads running detached for the rest of the process.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Stands the server up: creates the data directory, binds the
    /// socket (if configured), and spawns the runner threads.
    pub fn start(cfg: ServerConfig) -> Result<Self, Error> {
        // Arm `GG_FAULTS` before the first journal append: the
        // service-level points (`journal.write`, `serve.runner_panic`)
        // fire long before any evaluation sandbox would arm them.
        faults::ensure_init();
        let data_dir = cfg.data_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("ggd-serve-{}", std::process::id()))
        });
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| Error::Io(format!("cannot create {}: {e}", data_dir.display())))?;
        let listener =
            match &cfg.socket {
                Some(path) => {
                    // A stale socket file from a dead server blocks bind.
                    let _ = std::fs::remove_file(path);
                    Some(UnixListener::bind(path).map_err(|e| {
                        Error::Serve(format!("cannot bind {}: {e}", path.display()))
                    })?)
                }
                None => None,
            };
        // Replay the journal (if any) before runners exist, so recovery
        // happens against a quiescent registry.
        let (registry, recovered_jobs) = match &cfg.journal_dir {
            Some(dir) => {
                let records = Journal::replay(dir)?;
                let journal = Arc::new(Journal::open(dir)?);
                let registry = Registry::with_journal(Some(journal));
                let stats = registry.recover(&records);
                if stats.jobs > 0 {
                    registry.compact_now();
                    obs::diagln!(
                        "journal: recovered {} job(s) from {} ({} re-queued, {} already terminal)",
                        stats.jobs,
                        dir.display(),
                        stats.requeued,
                        stats.finished
                    );
                }
                (registry, stats.requeued)
            }
            None => (Registry::new(), 0),
        };
        let shared = Arc::new(Shared {
            registry,
            baselines: BaselineCache::new(Technology::nangate45_like()),
            data_dir,
            socket_path: cfg.socket,
            ckpt_counter: AtomicU64::new(0),
            max_queued: cfg.max_queued,
            mem_budget_bytes: cfg.mem_budget_bytes,
            busy_rejects: AtomicU64::new(0),
            runner_restarts: AtomicU64::new(0),
            recovered_jobs,
        });
        let mut threads = Vec::new();
        if cfg.runners > 0 {
            // Runners live under the supervisor, which replaces any that
            // die or wedge; only the supervisor handle is joined on stop.
            let mut slots = Vec::new();
            for i in 0..cfg.runners {
                slots.push(spawn_runner(&shared, i)?);
            }
            let sh = Arc::clone(&shared);
            let stuck_after = cfg.stuck_after;
            threads.push(
                std::thread::Builder::new()
                    .name("ggd-supervisor".to_owned())
                    .spawn(move || supervisor_loop(&sh, slots, stuck_after))
                    .map_err(|e| Error::Serve(format!("cannot spawn supervisor: {e}")))?,
            );
        }
        if let Some(listener) = listener {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ggd-accept".to_owned())
                    .spawn(move || accept_loop(&sh, listener))
                    .map_err(|e| Error::Serve(format!("cannot spawn acceptor: {e}")))?,
            );
        }
        Ok(Self { shared, threads })
    }

    /// Validates and queues a job; returns its id. Refuses with the
    /// retryable [`Error::Busy`] when admission limits are exceeded
    /// (idempotent resubmits bypass the gate).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, Error> {
        submit(&self.shared, spec)
    }

    /// Point-in-time status of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, Error> {
        self.shared.registry.status(id).map_err(Error::Serve)
    }

    /// Status of every job, in submit order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        self.shared.registry.jobs()
    }

    /// Parks a job at its next generation boundary (immediately if it is
    /// still queued).
    pub fn pause(&self, id: u64) -> Result<(), Error> {
        self.shared.registry.pause(id).map_err(Error::Serve)
    }

    /// Re-queues a paused job at the back of its priority class.
    pub fn resume(&self, id: u64) -> Result<(), Error> {
        self.shared.registry.resume(id).map_err(Error::Serve)
    }

    /// Cancels a job (at its next generation boundary if running).
    pub fn cancel(&self, id: u64) -> Result<(), Error> {
        self.shared.registry.cancel(id).map_err(Error::Serve)
    }

    /// Final result payload of a done job.
    pub fn result(&self, id: u64) -> Result<Json, Error> {
        self.shared.registry.result(id).map_err(Error::Serve)
    }

    /// Events of job `id` from stream cursor `from`, plus whether the
    /// job is terminal. With `wait`, blocks until news arrives (bounded
    /// by an internal poll interval).
    pub fn events_since(
        &self,
        id: u64,
        from: u64,
        wait: bool,
    ) -> Result<(Vec<JobEvent>, bool), Error> {
        self.shared
            .registry
            .events_since(id, from, wait, Duration::from_millis(200))
            .map_err(Error::Serve)
    }

    /// Scheduler, baseline-cache, and memory-footprint counters.
    pub fn stats(&self) -> ServerStats {
        collect_stats(&self.shared)
    }

    /// Claims and executes exactly one scheduler step on the calling
    /// thread; returns whether there was anything to run. The `runners:
    /// 0` test mode's drive shaft.
    pub fn step_once(&self) -> bool {
        match self.shared.registry.claim_next(false) {
            Claim::Step(id) => {
                let outcome = execute_step(&self.shared, id);
                self.shared.registry.finish_step(id, outcome);
                true
            }
            Claim::Idle | Claim::Shutdown => false,
        }
    }

    /// Runs scheduler steps on the calling thread until no job is queued
    /// or running.
    pub fn run_until_idle(&self) {
        while self.step_once() {}
    }

    /// Whether any job is queued or running.
    pub fn has_live_work(&self) -> bool {
        self.shared.registry.has_live_work()
    }

    /// Begins shutdown without waiting: runners exit at their next
    /// claim, watchers drain, the acceptor unblocks.
    pub fn begin_shutdown(&self) {
        self.shared.registry.shutdown();
        if let Some(path) = &self.shared.socket_path {
            // Unblock the acceptor's blocking `accept`.
            let _ = UnixStream::connect(path);
        }
    }

    /// Blocks until the server shuts down (a client sends `shutdown`,
    /// or another thread calls [`Server::begin_shutdown`]), then joins
    /// every thread and removes the socket file. Daemon mode.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.shared.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Shuts down and joins: [`Server::begin_shutdown`] + [`Server::wait`].
    pub fn stop(self) {
        self.begin_shutdown();
        self.wait();
    }
}

fn spawn_runner(shared: &Arc<Shared>, idx: usize) -> Result<RunnerSlot, Error> {
    let flight = Arc::new(Flight::default());
    let sh = Arc::clone(shared);
    let fl = Arc::clone(&flight);
    let handle = std::thread::Builder::new()
        .name(format!("ggd-runner-{idx}"))
        .spawn(move || runner_loop(&sh, &fl))
        .map_err(|e| Error::Serve(format!("cannot spawn runner: {e}")))?;
    Ok(RunnerSlot { handle, flight })
}

fn runner_loop(shared: &Shared, flight: &Flight) {
    // Deterministic drill: kills the runner *thread* (outside the step
    // sandbox) to exercise the supervisor's died-runner path.
    static RUNNER_PANIC: faults::Point = faults::Point::new("serve.runner_panic");
    loop {
        if flight.retired.load(Ordering::Relaxed) {
            break;
        }
        match shared.registry.claim_next(true) {
            Claim::Shutdown => break,
            Claim::Idle => {}
            Claim::Step(id) => {
                *flight.busy.lock().unwrap_or_else(|p| p.into_inner()) = Some((id, Instant::now()));
                if RUNNER_PANIC.fires_external(id) {
                    std::panic::panic_any(faults::FaultPayload::Injected {
                        point: "serve.runner_panic",
                    });
                }
                let outcome = execute_step(shared, id);
                *flight.busy.lock().unwrap_or_else(|p| p.into_inner()) = None;
                shared.registry.finish_step(id, outcome);
            }
        }
    }
}

/// Watches the runner pool: joins and replaces runners whose thread
/// died (failing their in-flight job), and — with a `stuck_after`
/// threshold — retires runners wedged past the heartbeat, failing the
/// stuck job and abandoning the thread (the `retired` flag plus the
/// registry's late-outcome guard contain it if it ever wakes).
fn supervisor_loop(
    shared: &Arc<Shared>,
    mut slots: Vec<RunnerSlot>,
    stuck_after: Option<Duration>,
) {
    let mut next_idx = slots.len();
    loop {
        if shared.registry.is_shutdown() {
            for slot in slots {
                slot.flight.retired.store(true, Ordering::Relaxed);
                let _ = slot.handle.join();
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
        for slot in &mut slots {
            let died = slot.handle.is_finished();
            let stuck = !died
                && stuck_after.is_some_and(|limit| {
                    matches!(
                        *slot.flight.busy.lock().unwrap_or_else(|p| p.into_inner()),
                        Some((_, t0)) if t0.elapsed() > limit
                    )
                });
            if !died && !stuck {
                continue;
            }
            if died && shared.registry.is_shutdown() {
                continue; // normal exit, handled by the join above
            }
            let Ok(fresh) = spawn_runner(shared, next_idx) else {
                obs::diagln!("supervisor: cannot respawn runner; retrying");
                continue;
            };
            next_idx += 1;
            let old = std::mem::replace(slot, fresh);
            old.flight.retired.store(true, Ordering::Relaxed);
            // Count the restart before failing the job: a client that sees
            // the failure must also see the restart in `stats`.
            shared.runner_restarts.fetch_add(1, Ordering::Relaxed);
            restart_metric().incr();
            let in_flight = old
                .flight
                .busy
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take();
            if died {
                let _ = old.handle.join(); // collect the panic
                if let Some((job, _)) = in_flight {
                    shared.registry.finish_step(
                        job,
                        StepOutcome::Failed {
                            error: "runner thread died mid-step (runner restarted)".into(),
                        },
                    );
                }
                obs::diagln!("supervisor: runner died; pool restored");
            } else {
                // Wedged: the thread cannot be joined — abandon it. Its
                // eventual finish_step is dropped by the late-outcome
                // guard, and the retired flag stops further claims.
                if let Some((job, t0)) = in_flight {
                    shared.registry.finish_step(
                        job,
                        StepOutcome::Failed {
                            error: format!(
                                "stuck: step exceeded the {} ms watchdog (ran {} ms); \
                                 runner restarted",
                                stuck_after.map_or(0, |d| d.as_millis()),
                                t0.elapsed().as_millis()
                            ),
                        },
                    );
                }
                drop(old.handle);
                obs::diagln!("supervisor: runner wedged; abandoned and replaced");
            }
        }
    }
}

/// Runs one claimed scheduler step, converting panics into job failures
/// so a poisoned candidate cannot take the server down.
fn execute_step(shared: &Shared, id: u64) -> StepOutcome {
    let Some((spec, step, ckpt)) = shared.registry.step_inputs(id) else {
        return StepOutcome::Failed {
            error: format!("job {id} vanished from the registry"),
        };
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_step(shared, id, &spec, step, &ckpt)
    })) {
        Ok(outcome) => outcome,
        Err(panic) => {
            // A plain panic renders as its bare message; injected faults
            // and deadlines as the sandbox renders them.
            let why = match classify(panic) {
                EvalFailure::Panicked { message } => message,
                other => other.to_string(),
            };
            StepOutcome::Failed {
                error: format!("step panicked: {why}"),
            }
        }
    }
}

fn run_step(shared: &Shared, id: u64, spec: &JobSpec, step: u64, ckpt: &Path) -> StepOutcome {
    let ctx = match shared.baselines.get(&spec.design) {
        Ok(ctx) => ctx,
        Err(e) => {
            return StepOutcome::Failed {
                error: e.to_string(),
            }
        }
    };
    if step == 0 {
        shared
            .registry
            .emit(id, "baseline", None, ggjson::ToJson::to_json(&ctx.summary));
    }
    match spec.kind {
        JobKind::Analyze => run_analyze(&ctx, shared.baselines.tech()),
        JobKind::Harden => run_harden(&ctx, shared.baselines.tech(), spec),
        JobKind::Explore => run_explore_step(shared, id, &ctx, spec, step, ckpt),
    }
}

fn run_analyze(ctx: &DesignContext, tech: &Technology) -> StepOutcome {
    let battery = secmetrics::attack::battery_success_rate(&ctx.base().security, tech);
    let result = Json::Obj(vec![
        ("baseline".to_owned(), ggjson::ToJson::to_json(&ctx.summary)),
        ("battery_success".to_owned(), Json::Num(battery)),
    ]);
    StepOutcome::Finished {
        generation: None,
        data: result.clone(),
        result,
    }
}

fn run_harden(ctx: &DesignContext, tech: &Technology, spec: &JobSpec) -> StepOutcome {
    let hardened = match harden(ctx.base(), tech, &spec.op, spec.out.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            return StepOutcome::Failed {
                error: e.to_string(),
            }
        }
    };
    let metrics = FlowMetrics::from_snapshot(&hardened, ctx.base());
    let battery = secmetrics::attack::battery_success_rate(&hardened.security, tech);
    let wrote = spec.out.clone().map_or(Json::Null, Json::Str);
    let result = Json::Obj(vec![
        ("baseline".to_owned(), ggjson::ToJson::to_json(&ctx.summary)),
        (
            "hardened".to_owned(),
            ggjson::ToJson::to_json(&BaselineSummary::from_snapshot(&hardened)),
        ),
        ("metrics".to_owned(), ggjson::ToJson::to_json(&metrics)),
        ("battery_success".to_owned(), Json::Num(battery)),
        ("wrote".to_owned(), wrote),
    ]);
    StepOutcome::Finished {
        generation: None,
        data: result.clone(),
        result,
    }
}

fn run_explore_step(
    shared: &Shared,
    id: u64,
    ctx: &DesignContext,
    spec: &JobSpec,
    step: u64,
    ckpt: &Path,
) -> StepOutcome {
    let params = spec.nsga2_params();
    let opts = ExploreOptions {
        checkpoint: Some(ckpt.to_path_buf()),
        resume: step > 0 || spec.resume,
        halt_after: Some(step as usize),
        // Cooperative per-candidate budget: a wedged evaluation trips
        // its own deadline long before the supervisor's watchdog has to
        // declare the whole runner stuck.
        deadline: SandboxPolicy::from_env().deadline,
    };
    let result = match explore_with_engine(&ctx.engine, shared.baselines.tech(), &params, &opts) {
        Ok(r) => r,
        Err(e) => {
            return StepOutcome::Failed {
                error: e.to_string(),
            }
        }
    };
    let data = progress_data(shared, id, &result);
    if step < spec.generations as u64 {
        return StepOutcome::Progress {
            generation: step,
            data,
        };
    }
    // Final generation: assemble the result payload and artifacts.
    let mut wrote = Json::Null;
    if let Some(path) = &spec.out {
        if let Err(e) = std::fs::write(path, ggjson::to_vec_pretty(&result)) {
            return StepOutcome::Failed {
                error: format!("cannot write {path}: {e}"),
            };
        }
        wrote = Json::Str(path.clone());
    }
    let payload = Json::Obj(vec![
        ("baseline".to_owned(), ggjson::ToJson::to_json(&ctx.summary)),
        ("explore".to_owned(), ggjson::ToJson::to_json(&result)),
        ("wrote".to_owned(), wrote),
    ]);
    StepOutcome::Finished {
        generation: Some(step),
        data,
        result: payload,
    }
}

/// Builds one `generation` event payload: evaluated-point count, front
/// size, front-membership deltas against the previous generation, and —
/// when telemetry is on — the cumulative obs snapshot.
fn progress_data(shared: &Shared, id: u64, result: &ExploreResult) -> Json {
    let front = result.pareto_front();
    let keys: Vec<String> = front
        .iter()
        .map(|p| ggjson::to_string_compact(&p.genome))
        .collect();
    let prev = shared.registry.replace_front(id, keys.clone());
    let added: Vec<String> = keys.iter().filter(|k| !prev.contains(k)).cloned().collect();
    let removed: Vec<String> = prev.iter().filter(|k| !keys.contains(k)).cloned().collect();
    let mut members = vec![
        ("points".to_owned(), Json::Num(result.points.len() as f64)),
        ("front_size".to_owned(), Json::Num(front.len() as f64)),
        ("added".to_owned(), ggjson::ToJson::to_json(&added)),
        ("removed".to_owned(), ggjson::ToJson::to_json(&removed)),
    ];
    let snap = obs::snapshot();
    if !snap.is_empty() {
        if let Some(obs_json) = ggjson::from_str::<Json>(&snap.to_json()) {
            members.push(("obs".to_owned(), obs_json));
        }
    }
    Json::Obj(members)
}

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    // `incoming` never returns `None`; shutdown is signalled by a flag
    // plus a dummy self-connection that unblocks the accept.
    for conn in listener.incoming() {
        if shared.registry.is_shutdown() {
            break;
        }
        match conn {
            Ok(stream) => {
                let sh = Arc::clone(shared);
                std::thread::spawn(move || handle_conn(&sh, stream));
            }
            Err(_) => continue,
        }
    }
}

fn handle_conn(shared: &Shared, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        if handle_line(shared, &line, &mut writer).is_err() {
            return;
        }
    }
}

fn write_line(writer: &mut UnixStream, resp: &Response) -> std::io::Result<()> {
    let mut line = resp.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Job `id`'s status as a wire payload.
fn status_json(shared: &Shared, id: u64) -> Result<Json, String> {
    shared
        .registry
        .status(id)
        .map(|s| ggjson::ToJson::to_json(&s))
}

/// Applies a control action (pause, resume, cancel) to job `id`, then
/// reports the job's status: the one reply shape of all three requests.
fn control(
    shared: &Shared,
    id: u64,
    act: fn(&Registry, u64) -> Result<(), String>,
) -> Result<Json, String> {
    act(&shared.registry, id).and_then(|()| status_json(shared, id))
}

fn handle_line(shared: &Shared, line: &str, writer: &mut UnixStream) -> std::io::Result<()> {
    let req = match Request::from_line(line) {
        Ok(req) => req,
        Err(e) => return write_line(writer, &Response::Err(e.to_string())),
    };
    let reply = |r: Result<Json, String>| match r {
        Ok(payload) => Response::Ok(payload),
        Err(why) => Response::Err(why),
    };
    match req {
        Request::Ping => write_line(writer, &Response::Ok(Json::Str("pong".into()))),
        Request::Jobs => write_line(
            writer,
            &Response::Ok(ggjson::ToJson::to_json(&shared.registry.jobs())),
        ),
        Request::Stats => write_line(
            writer,
            &Response::Ok(ggjson::ToJson::to_json(&collect_stats(shared))),
        ),
        Request::Shutdown => {
            shared.registry.shutdown();
            let out = write_line(writer, &Response::Ok(Json::Str("bye".into())));
            if let Some(path) = &shared.socket_path {
                let _ = UnixStream::connect(path);
            }
            out
        }
        Request::Submit(spec) => {
            let resp = match submit(shared, spec) {
                Ok(id) => Response::Ok(Json::Obj(vec![("job".to_owned(), Json::Num(id as f64))])),
                Err(Error::Busy(why)) => Response::Busy(why),
                Err(Error::Serve(why)) => Response::Err(why),
                Err(other) => Response::Err(other.to_string()),
            };
            write_line(writer, &resp)
        }
        Request::Status(id) => write_line(writer, &reply(status_json(shared, id))),
        Request::Pause(id) => write_line(writer, &reply(control(shared, id, Registry::pause))),
        Request::Resume(id) => write_line(writer, &reply(control(shared, id, Registry::resume))),
        Request::Cancel(id) => write_line(writer, &reply(control(shared, id, Registry::cancel))),
        Request::Result(id) => write_line(writer, &reply(shared.registry.result(id))),
        Request::Watch { job, from } => {
            let mut cursor = from;
            loop {
                let (events, terminal) = match shared.registry.events_since(
                    job,
                    cursor,
                    true,
                    Duration::from_millis(200),
                ) {
                    Ok(pair) => pair,
                    Err(why) => return write_line(writer, &Response::Err(why)),
                };
                cursor += events.len() as u64;
                for e in events {
                    write_line(writer, &Response::Event(e))?;
                }
                if terminal {
                    return write_line(writer, &reply(status_json(shared, job)));
                }
                if shared.registry.is_shutdown() {
                    return write_line(writer, &Response::Err("server shutting down".to_owned()));
                }
            }
        }
    }
}
