//! The job registry: queue, lifecycle state machine, and event streams.
//!
//! One mutex guards all scheduling state; a condvar wakes runner threads
//! when work arrives and `watch` readers when events land. Scheduling
//! order is **priority descending, then submit order ascending** —
//! strict priorities with FIFO inside each class. Runners claim one
//! *scheduler step* at a time (one generation of an explore job, or the
//! whole of an analyze/harden job), so a high-priority submit preempts a
//! long-running low-priority explore at its next generation boundary
//! without killing it.
//!
//! When constructed [`Registry::with_journal`], every lifecycle
//! transition is appended to the durable [`Journal`] *before* the
//! corresponding event is published — write-ahead ordering, so a watcher
//! can never observe a transition the journal might forget. On restart,
//! [`Registry::recover`] replays the log: non-terminal jobs re-enter the
//! queue with their original submit-order tickets (priority/FIFO order
//! preserved), terminal jobs come back queryable with their results.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use ggjson::Json;

use crate::job::{JobEvent, JobKind, JobSpec, JobState, JobStatus};
use crate::journal::{Journal, JournalRecord};

/// Everything the registry tracks about one job.
pub(crate) struct Job {
    pub spec: JobSpec,
    pub state: JobState,
    /// Submit-order tiebreaker inside a priority class.
    pub seq: u64,
    /// Next scheduler step to run (for explore: the generation index
    /// handed to `halt_after`).
    pub next_step: u64,
    /// Total scheduler steps this job runs.
    pub total_steps: u64,
    pub pause_requested: bool,
    pub cancel_requested: bool,
    /// Set by `resume`; the next claim emits a `resumed` event.
    pub resumed_pending: bool,
    pub events: Vec<JobEvent>,
    pub result: Option<Json>,
    pub error: Option<String>,
    /// Checkpoint envelope backing pause/resume for this job.
    pub checkpoint: PathBuf,
    /// Pareto-front member keys as of the last generation, for computing
    /// streamed front deltas.
    pub front_keys: Vec<String>,
}

/// What a runner's completed step did to its job.
pub(crate) enum StepOutcome {
    /// One generation finished; the job stays alive. The payload becomes
    /// a `generation` event.
    Progress { generation: u64, data: Json },
    /// The job produced its final result. `data` becomes the `done`
    /// event payload (the full result is fetched via `result`).
    Finished {
        generation: Option<u64>,
        data: Json,
        result: Json,
    },
    /// The step failed; the job is dead.
    Failed { error: String },
}

/// What `claim_next` handed out.
pub(crate) enum Claim {
    /// Run one step of this job.
    Step(u64),
    /// Nothing runnable right now.
    Idle,
    /// The registry is shutting down; the runner should exit.
    Shutdown,
}

/// What [`Registry::recover`] found in the journal.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecoveryStats {
    /// Jobs reconstructed from the journal.
    pub jobs: u64,
    /// Non-terminal jobs re-queued for execution.
    pub requeued: u64,
    /// Terminal jobs restored for `status`/`result` queries.
    pub finished: u64,
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    next_seq: u64,
    /// Server-global event tick (total order across all jobs).
    next_tick: u64,
    /// Idempotency tokens already seen, mapped to their job ids
    /// (rebuilt from `submitted` records on recovery).
    dedup: HashMap<String, u64>,
    shutdown: bool,
}

impl Inner {
    fn push_event(&mut self, id: u64, kind: &str, generation: Option<u64>, data: Json) {
        let tick = self.next_tick;
        if let Some(job) = self.jobs.get_mut(&id) {
            self.next_tick += 1;
            job.events.push(JobEvent {
                seq: job.events.len() as u64,
                tick,
                kind: kind.to_owned(),
                generation,
                data,
            });
        }
    }
}

pub(crate) struct Registry {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// Write-ahead journal; `None` runs the registry volatile (tests,
    /// `--no-journal`).
    journal: Option<Arc<Journal>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::with_journal(None)
    }

    /// A registry whose transitions are journaled before publication.
    pub fn with_journal(journal: Option<Arc<Journal>>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                next_id: 1,
                next_seq: 0,
                next_tick: 0,
                dedup: HashMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            journal,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Journals one transition (no-op without a journal). Called while
    /// holding the registry lock, *before* the matching `push_event` —
    /// the journal has its own mutex and never takes ours, so the
    /// ordering is deadlock-free.
    fn jot(&self, rec: &JournalRecord) {
        if let Some(j) = &self.journal {
            j.append(rec);
        }
    }

    /// Queues a validated spec; returns the job id. A spec carrying an
    /// already-seen `dedup` token returns the existing job instead.
    pub fn submit(&self, spec: JobSpec, checkpoint: PathBuf) -> u64 {
        let mut inner = self.lock();
        if let Some(tok) = &spec.dedup {
            if let Some(&existing) = inner.dedup.get(tok) {
                return existing;
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let total_steps = match spec.kind {
            // Steps 0..=generations: the initial population counts as one.
            JobKind::Explore => spec.generations as u64 + 1,
            _ => 1,
        };
        if let Some(tok) = &spec.dedup {
            inner.dedup.insert(tok.clone(), id);
        }
        self.jot(&JournalRecord::submitted(id, &spec, seq, &checkpoint));
        inner.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                seq,
                next_step: 0,
                total_steps,
                pause_requested: false,
                cancel_requested: false,
                resumed_pending: false,
                events: Vec::new(),
                result: None,
                error: None,
                checkpoint,
                front_keys: Vec::new(),
            },
        );
        inner.push_event(id, "queued", None, Json::Null);
        drop(inner);
        self.cv.notify_all();
        id
    }

    /// The job a dedup token maps to, if any (lets the server bypass
    /// admission control for idempotent resubmits).
    pub fn lookup_dedup(&self, token: &str) -> Option<u64> {
        self.lock().dedup.get(token).copied()
    }

    /// Jobs currently waiting for a runner slot.
    pub fn queued_count(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .count()
    }

    /// Claims the highest-priority queued job and marks it running.
    /// With `block`, waits until a job is runnable or shutdown begins.
    pub fn claim_next(&self, block: bool) -> Claim {
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return Claim::Shutdown;
            }
            let pick = inner
                .jobs
                .iter()
                .filter(|(_, j)| j.state == JobState::Queued)
                .min_by_key(|(_, j)| (std::cmp::Reverse(j.spec.priority), j.seq))
                .map(|(id, _)| *id);
            if let Some(id) = pick {
                let (first_step, resumed) = match inner.jobs.get_mut(&id) {
                    Some(job) => {
                        job.state = JobState::Running;
                        let resumed = std::mem::take(&mut job.resumed_pending);
                        (job.next_step == 0, resumed)
                    }
                    None => continue,
                };
                if resumed {
                    inner.push_event(id, "resumed", None, Json::Null);
                } else if first_step {
                    self.jot(&JournalRecord::transition(id, "started"));
                    inner.push_event(id, "started", None, Json::Null);
                }
                drop(inner);
                self.cv.notify_all();
                return Claim::Step(id);
            }
            if !block {
                return Claim::Idle;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Applies a completed step's outcome and the pending pause/cancel
    /// requests, in that order of precedence: cancel > pause > continue.
    ///
    /// Late outcomes are dropped: if the job is no longer `Running` —
    /// the watchdog already failed it as stuck, or it was recovered by a
    /// restart — a wedged runner waking up afterwards must not resurrect
    /// or re-terminate it.
    pub fn finish_step(&self, id: u64, outcome: StepOutcome) {
        let mut inner = self.lock();
        if inner
            .jobs
            .get(&id)
            .is_none_or(|j| j.state != JobState::Running)
        {
            return;
        }
        match outcome {
            StepOutcome::Failed { error } => {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Failed;
                    job.error = Some(error.clone());
                }
                self.jot(&JournalRecord::failed(id, &error));
                inner.push_event(id, "failed", None, Json::Str(error));
            }
            StepOutcome::Finished {
                generation,
                data,
                result,
            } => {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.next_step += 1;
                    job.result = Some(result.clone());
                    job.state = JobState::Done;
                }
                self.jot(&JournalRecord::done(id, result));
                inner.push_event(id, "done", generation, data);
            }
            StepOutcome::Progress { generation, data } => {
                let follow_up = match inner.jobs.get_mut(&id) {
                    Some(job) => {
                        job.next_step += 1;
                        if job.cancel_requested {
                            job.state = JobState::Cancelled;
                            Some("cancelled")
                        } else if job.pause_requested {
                            job.pause_requested = false;
                            job.state = JobState::Paused;
                            Some("paused")
                        } else {
                            job.state = JobState::Queued;
                            None
                        }
                    }
                    None => None,
                };
                // The generation record lands *after* explore_with_engine
                // persisted the step's checkpoint, so the journal never
                // claims progress the checkpoint cannot replay.
                self.jot(&JournalRecord::generation(id, generation));
                inner.push_event(id, "generation", Some(generation), data);
                if let Some(kind) = follow_up {
                    self.jot(&JournalRecord::transition(id, kind));
                    inner.push_event(id, kind, None, Json::Null);
                }
            }
        }
        self.maybe_compact(&inner);
        drop(inner);
        self.cv.notify_all();
    }

    /// Rewrites the journal as a compact snapshot if the active segment
    /// outgrew its threshold. Compaction failure downgrades to a
    /// diagnostic — the old segments keep the log replayable.
    fn maybe_compact(&self, inner: &Inner) {
        let Some(j) = &self.journal else { return };
        if !j.should_rotate() {
            return;
        }
        if let Err(e) = j.rewrite(&snapshot_records(inner)) {
            obs::diagln!("journal: compaction failed ({e}); staying on the old segment");
        }
    }

    /// Immediately compacts the journal to a snapshot of current state
    /// (used once after recovery so replay cost does not accrete across
    /// restarts).
    pub fn compact_now(&self) {
        let inner = self.lock();
        if let Some(j) = &self.journal {
            if let Err(e) = j.rewrite(&snapshot_records(&inner)) {
                obs::diagln!("journal: post-recovery compaction failed ({e})");
            }
        }
    }

    /// Rebuilds registry state from replayed journal records (call once,
    /// before any runner starts claiming).
    ///
    /// Jobs that were `Running` at the crash re-queue with their original
    /// ticket: the in-flight step re-runs, and for explores the
    /// checkpoint envelope makes that re-run bit-identical (an
    /// already-checkpointed generation is returned from the archive, not
    /// recomputed). Each reconstructed job gets a synthesized event
    /// prefix — `queued`, then `recovered` carrying `steps_done`, then
    /// its terminal event if it has one — so `watch` clients see a
    /// coherent stream.
    pub fn recover(&self, records: &[JournalRecord]) -> RecoveryStats {
        let mut inner = self.lock();
        for rec in records {
            let id = rec.job;
            match rec.kind.as_str() {
                "submitted" => {
                    let Some(spec) = rec.spec.clone() else {
                        continue;
                    };
                    let total_steps = match spec.kind {
                        JobKind::Explore => spec.generations as u64 + 1,
                        _ => 1,
                    };
                    if let Some(tok) = &spec.dedup {
                        inner.dedup.insert(tok.clone(), id);
                    }
                    let checkpoint = PathBuf::from(rec.checkpoint.clone().unwrap_or_default());
                    // Insert overwrites: a compaction snapshot may repeat
                    // a job an older segment already introduced.
                    inner.jobs.insert(
                        id,
                        Job {
                            spec,
                            state: JobState::Queued,
                            seq: rec.seq,
                            next_step: 0,
                            total_steps,
                            pause_requested: false,
                            cancel_requested: false,
                            resumed_pending: false,
                            events: Vec::new(),
                            result: None,
                            error: None,
                            checkpoint,
                            front_keys: Vec::new(),
                        },
                    );
                }
                "started" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = JobState::Running;
                    }
                }
                "generation" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        if let Some(g) = rec.generation {
                            job.next_step = g + 1;
                        }
                    }
                }
                "paused" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = JobState::Paused;
                    }
                }
                "resumed" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = JobState::Queued;
                        job.seq = rec.seq;
                    }
                }
                "cancelled" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = JobState::Cancelled;
                    }
                }
                "done" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = JobState::Done;
                        job.result = rec.result.clone();
                        job.next_step = job.total_steps;
                    }
                }
                "failed" => {
                    if let Some(job) = inner.jobs.get_mut(&id) {
                        job.state = JobState::Failed;
                        job.error = rec.error.clone();
                    }
                }
                other => {
                    obs::diagln!("journal: ignoring unknown record kind '{other}'");
                }
            }
        }
        let mut stats = RecoveryStats::default();
        let ids: Vec<u64> = inner.jobs.keys().copied().collect();
        for id in ids {
            let (steps_done, terminal, error) = match inner.jobs.get_mut(&id) {
                Some(job) => {
                    // The step in flight at the crash re-runs.
                    if job.state == JobState::Running {
                        job.state = JobState::Queued;
                    }
                    (job.next_step, job.state, job.error.clone())
                }
                None => continue,
            };
            stats.jobs += 1;
            if terminal.is_terminal() {
                stats.finished += 1;
            } else {
                stats.requeued += 1;
            }
            inner.push_event(id, "queued", None, Json::Null);
            inner.push_event(
                id,
                "recovered",
                None,
                Json::Obj(vec![("steps_done".into(), Json::Num(steps_done as f64))]),
            );
            match terminal {
                JobState::Done => inner.push_event(id, "done", None, Json::Null),
                JobState::Cancelled => inner.push_event(id, "cancelled", None, Json::Null),
                JobState::Failed => inner.push_event(
                    id,
                    "failed",
                    None,
                    Json::Str(error.unwrap_or_else(|| "unknown error".into())),
                ),
                JobState::Paused => inner.push_event(id, "paused", None, Json::Null),
                JobState::Queued | JobState::Running => {}
            }
        }
        inner.next_id = inner.jobs.keys().max().map_or(1, |m| m + 1);
        inner.next_seq = inner
            .jobs
            .values()
            .map(|j| j.seq + 1)
            .max()
            .unwrap_or(0)
            .max(inner.next_seq);
        drop(inner);
        self.cv.notify_all();
        stats
    }

    /// Requests a pause: queued jobs park immediately, running jobs park
    /// at their next generation boundary.
    pub fn pause(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let newly_paused = match inner.jobs.get_mut(&id) {
            Some(job) => match job.state {
                JobState::Queued => {
                    job.state = JobState::Paused;
                    true
                }
                JobState::Running => {
                    job.pause_requested = true;
                    false
                }
                JobState::Paused => false,
                s => return Err(format!("cannot pause a {} job", s.as_str())),
            },
            None => return Err(format!("no job {id}")),
        };
        if newly_paused {
            self.jot(&JournalRecord::transition(id, "paused"));
            inner.push_event(id, "paused", None, Json::Null);
        }
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Re-queues a paused job. It re-enters the back of its priority
    /// class (a fresh submit-order ticket, FIFO fairness preserved).
    pub fn resume(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        let requeued = match inner.jobs.get_mut(&id) {
            Some(job) => match job.state {
                JobState::Paused => {
                    job.state = JobState::Queued;
                    job.seq = seq;
                    job.resumed_pending = true;
                    true
                }
                JobState::Queued | JobState::Running => {
                    // Un-park a pause that has not landed yet.
                    job.pause_requested = false;
                    false
                }
                s => return Err(format!("cannot resume a {} job", s.as_str())),
            },
            None => return Err(format!("no job {id}")),
        };
        if requeued {
            self.jot(&JournalRecord::resumed(id, seq));
        }
        inner.next_seq += 1;
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Requests cancellation: queued/paused jobs die immediately, running
    /// jobs die at their next generation boundary.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let now_cancelled = match inner.jobs.get_mut(&id) {
            Some(job) => match job.state {
                JobState::Queued | JobState::Paused => {
                    job.state = JobState::Cancelled;
                    true
                }
                JobState::Running => {
                    job.cancel_requested = true;
                    false
                }
                _ => false, // already terminal: cancel is idempotent
            },
            None => return Err(format!("no job {id}")),
        };
        if now_cancelled {
            self.jot(&JournalRecord::transition(id, "cancelled"));
            inner.push_event(id, "cancelled", None, Json::Null);
        }
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Point-in-time status of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        let inner = self.lock();
        inner
            .jobs
            .get(&id)
            .map(|j| status_of(id, j))
            .ok_or_else(|| format!("no job {id}"))
    }

    /// Status of every job, in id (submit) order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let inner = self.lock();
        inner.jobs.iter().map(|(id, j)| status_of(*id, j)).collect()
    }

    /// Events of job `id` from stream position `from` on, plus whether
    /// the job is terminal. With `wait`, blocks until there is at least
    /// one new event, the job is terminal, or `timeout` expires.
    pub fn events_since(
        &self,
        id: u64,
        from: u64,
        wait: bool,
        timeout: Duration,
    ) -> Result<(Vec<JobEvent>, bool), String> {
        let mut inner = self.lock();
        loop {
            let Some(job) = inner.jobs.get(&id) else {
                return Err(format!("no job {id}"));
            };
            let fresh: Vec<JobEvent> = job.events.iter().skip(from as usize).cloned().collect();
            let terminal = job.state.is_terminal();
            if !fresh.is_empty() || terminal || !wait || inner.shutdown {
                return Ok((fresh, terminal));
            }
            let (guard, out) = self
                .cv
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
            if out.timed_out() {
                let Some(job) = inner.jobs.get(&id) else {
                    return Err(format!("no job {id}"));
                };
                return Ok((Vec::new(), job.state.is_terminal()));
            }
        }
    }

    /// Final result payload of a `done` job.
    pub fn result(&self, id: u64) -> Result<Json, String> {
        let inner = self.lock();
        let Some(job) = inner.jobs.get(&id) else {
            return Err(format!("no job {id}"));
        };
        match (&job.state, &job.result) {
            (JobState::Done, Some(r)) => Ok(r.clone()),
            (JobState::Failed, _) => Err(format!(
                "job {id} failed: {}",
                job.error.as_deref().unwrap_or("unknown error")
            )),
            (s, _) => Err(format!("job {id} is {}, not done", s.as_str())),
        }
    }

    /// Reads the fields a runner needs to execute one step.
    pub fn step_inputs(&self, id: u64) -> Option<(JobSpec, u64, PathBuf)> {
        let inner = self.lock();
        inner
            .jobs
            .get(&id)
            .map(|j| (j.spec.clone(), j.next_step, j.checkpoint.clone()))
    }

    /// Installs the job's current Pareto-front member keys and returns
    /// the previous set, so runners can stream front deltas.
    pub fn replace_front(&self, id: u64, front: Vec<String>) -> Vec<String> {
        let mut inner = self.lock();
        inner
            .jobs
            .get_mut(&id)
            .map(|j| std::mem::replace(&mut j.front_keys, front))
            .unwrap_or_default()
    }

    /// Appends an auxiliary event (e.g. `baseline`) to a job's stream.
    pub fn emit(&self, id: u64, kind: &str, generation: Option<u64>, data: Json) {
        let mut inner = self.lock();
        inner.push_event(id, kind, generation, data);
        drop(inner);
        self.cv.notify_all();
    }

    /// Begins shutdown: wakes every waiter; runners exit at their next
    /// claim, watchers return what they have.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Whether any job is queued or running.
    pub fn has_live_work(&self) -> bool {
        self.lock()
            .jobs
            .values()
            .any(|j| matches!(j.state, JobState::Queued | JobState::Running))
    }
}

/// The minimal record sequence reproducing every job's current state,
/// used as the compaction snapshot: `submitted`, a `generation` marking
/// completed progress for live jobs, and the parked/terminal transition.
fn snapshot_records(inner: &Inner) -> Vec<JournalRecord> {
    let mut recs = Vec::new();
    for (&id, job) in &inner.jobs {
        recs.push(JournalRecord::submitted(
            id,
            &job.spec,
            job.seq,
            &job.checkpoint,
        ));
        if job.next_step > 0 && !job.state.is_terminal() {
            recs.push(JournalRecord::generation(id, job.next_step - 1));
        }
        match job.state {
            JobState::Done => {
                recs.push(JournalRecord::done(
                    id,
                    job.result.clone().unwrap_or(Json::Null),
                ));
            }
            JobState::Failed => {
                recs.push(JournalRecord::failed(
                    id,
                    job.error.as_deref().unwrap_or("unknown error"),
                ));
            }
            JobState::Cancelled => recs.push(JournalRecord::transition(id, "cancelled")),
            JobState::Paused => recs.push(JournalRecord::transition(id, "paused")),
            // Queued replays as-is; Running re-queues on recovery anyway.
            JobState::Queued | JobState::Running => {}
        }
    }
    recs
}

fn status_of(id: u64, job: &Job) -> JobStatus {
    JobStatus {
        id,
        state: job.state,
        kind: job.spec.kind,
        design: job.spec.design.clone(),
        priority: job.spec.priority,
        steps_done: job.next_step,
        steps_total: job.total_steps,
        events: job.events.len() as u64,
        error: job.error.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn ckpt(n: u64) -> PathBuf {
        PathBuf::from(format!("/tmp/unused-{n}.ckpt"))
    }

    fn spec(priority: u8) -> JobSpec {
        JobSpec {
            priority,
            ..JobSpec::analyze("TINY")
        }
    }

    fn kinds(reg: &Registry, id: u64) -> Vec<String> {
        let (events, _) = reg
            .events_since(id, 0, false, Duration::from_millis(1))
            .expect("job exists");
        events.into_iter().map(|e| e.kind).collect()
    }

    #[test]
    fn higher_priority_claims_first() {
        let reg = Registry::new();
        let low = reg.submit(spec(0), ckpt(1));
        let high = reg.submit(spec(5), ckpt(2));
        let mid = reg.submit(spec(2), ckpt(3));
        let order: Vec<u64> = (0..3)
            .map(|_| match reg.claim_next(false) {
                Claim::Step(id) => id,
                _ => panic!("expected a runnable job"),
            })
            .collect();
        assert_eq!(order, vec![high, mid, low]);
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let reg = Registry::new();
        let ids: Vec<u64> = (0..4).map(|n| reg.submit(spec(3), ckpt(n))).collect();
        for expected in &ids {
            match reg.claim_next(false) {
                Claim::Step(id) => assert_eq!(id, *expected),
                _ => panic!("expected a runnable job"),
            }
        }
        assert!(matches!(reg.claim_next(false), Claim::Idle));
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let reg = Registry::new();
        let a = reg.submit(spec(0), ckpt(1));
        let b = reg.submit(spec(0), ckpt(2));
        reg.cancel(b).expect("queued job cancels");
        assert!(matches!(reg.claim_next(false), Claim::Step(id) if id == a));
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        assert_eq!(kinds(&reg, b), vec!["queued", "cancelled"]);
        let status = reg.status(b).expect("status");
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.steps_done, 0);
    }

    #[test]
    fn pause_while_running_lands_at_the_generation_boundary() {
        let reg = Registry::new();
        let mut explore = JobSpec::explore("TINY");
        explore.generations = 3;
        let id = reg.submit(explore, ckpt(1));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        // Pause arrives mid-step: the job keeps running...
        reg.pause(id).expect("running job accepts pause");
        assert_eq!(reg.status(id).expect("status").state, JobState::Running);
        // ...and parks only once the in-flight generation completes.
        reg.finish_step(
            id,
            StepOutcome::Progress {
                generation: 0,
                data: Json::Null,
            },
        );
        let status = reg.status(id).expect("status");
        assert_eq!(status.state, JobState::Paused);
        assert_eq!(status.steps_done, 1);
        assert_eq!(
            kinds(&reg, id),
            vec!["queued", "started", "generation", "paused"]
        );
        // Nothing runnable while paused; resume re-queues and re-claims.
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        reg.resume(id).expect("paused job resumes");
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        assert_eq!(
            kinds(&reg, id),
            vec!["queued", "started", "generation", "paused", "resumed"]
        );
    }

    #[test]
    fn cancel_while_running_lands_at_the_generation_boundary() {
        let reg = Registry::new();
        let id = reg.submit(JobSpec::explore("TINY"), ckpt(1));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        reg.cancel(id).expect("running job accepts cancel");
        assert_eq!(reg.status(id).expect("status").state, JobState::Running);
        reg.finish_step(
            id,
            StepOutcome::Progress {
                generation: 0,
                data: Json::Null,
            },
        );
        assert_eq!(reg.status(id).expect("status").state, JobState::Cancelled);
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        assert!(reg.result(id).is_err());
    }

    #[test]
    fn resumed_jobs_requeue_behind_their_class() {
        let reg = Registry::new();
        let a = reg.submit(spec(1), ckpt(1));
        reg.pause(a).expect("queued job pauses");
        let b = reg.submit(spec(1), ckpt(2));
        reg.resume(a).expect("paused job resumes");
        // `a` was submitted first but re-entered the class after `b`.
        assert!(matches!(reg.claim_next(false), Claim::Step(id) if id == b));
        assert!(matches!(reg.claim_next(false), Claim::Step(id) if id == a));
    }

    #[test]
    fn ticks_order_events_across_jobs() {
        let reg = Registry::new();
        let a = reg.submit(spec(0), ckpt(1));
        let b = reg.submit(spec(0), ckpt(2));
        let (ea, _) = reg
            .events_since(a, 0, false, Duration::from_millis(1))
            .expect("a exists");
        let (eb, _) = reg
            .events_since(b, 0, false, Duration::from_millis(1))
            .expect("b exists");
        assert!(
            ea[0].tick < eb[0].tick,
            "global ticks order cross-job events"
        );
        assert_eq!(ea[0].seq, 0);
        assert_eq!(eb[0].seq, 0);
    }

    #[test]
    fn terminal_states_refuse_transitions() {
        let reg = Registry::new();
        let id = reg.submit(spec(0), ckpt(1));
        reg.cancel(id).expect("cancel");
        assert!(reg.pause(id).is_err());
        assert!(reg.resume(id).is_err());
        reg.cancel(id).expect("cancel is idempotent");
        assert!(reg.pause(99).is_err());
    }

    #[test]
    fn shutdown_unblocks_claims() {
        let reg = Registry::new();
        reg.shutdown();
        assert!(matches!(reg.claim_next(true), Claim::Shutdown));
        assert!(reg.is_shutdown());
    }

    #[test]
    fn late_outcomes_from_retired_runners_are_dropped() {
        let reg = Registry::new();
        let id = reg.submit(spec(0), ckpt(1));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        // The watchdog declares the job stuck...
        reg.finish_step(
            id,
            StepOutcome::Failed {
                error: "stuck".into(),
            },
        );
        assert_eq!(reg.status(id).expect("status").state, JobState::Failed);
        // ...then the wedged runner wakes up and reports success. Dropped.
        reg.finish_step(
            id,
            StepOutcome::Finished {
                generation: None,
                data: Json::Null,
                result: Json::Num(1.0),
            },
        );
        let status = reg.status(id).expect("status");
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.error.as_deref(), Some("stuck"));
        assert!(reg.result(id).is_err());
    }

    fn journal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ggreg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drives a journaled registry through a mixed workload, "crashes"
    /// (drops it), recovers a fresh registry from the journal, and checks
    /// every job's position and the claim order survived.
    #[test]
    fn recovery_restores_jobs_order_and_results() {
        let _guard = crate::journal::fault_test_lock();
        let dir = journal_dir("recover");
        let (running, paused, queued_hi, queued_lo, finished);
        {
            let journal = Arc::new(Journal::open(&dir).expect("open journal"));
            let reg = Registry::with_journal(Some(journal));
            let mut explore = JobSpec::explore("TINY");
            explore.generations = 4;
            running = reg.submit(explore.clone(), ckpt(1));
            paused = reg.submit(explore.clone(), ckpt(2));
            finished = reg.submit(spec(0), ckpt(3));
            // `running` completes two generations, then goes mid-step 2.
            for g in 0..2 {
                assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == running));
                reg.finish_step(
                    running,
                    StepOutcome::Progress {
                        generation: g,
                        data: Json::Null,
                    },
                );
            }
            assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == running));
            // `paused` parks after one generation.
            assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == paused));
            reg.pause(paused).expect("pause");
            reg.finish_step(
                paused,
                StepOutcome::Progress {
                    generation: 0,
                    data: Json::Null,
                },
            );
            // `finished` runs to completion.
            assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == finished));
            reg.finish_step(
                finished,
                StepOutcome::Finished {
                    generation: None,
                    data: Json::Null,
                    result: Json::Num(42.0),
                },
            );
            queued_hi = reg.submit(spec(9), ckpt(4));
            queued_lo = reg.submit(spec(0), ckpt(5));
            // Crash: drop the registry with `running` mid-step.
        }
        let journal = Arc::new(Journal::open(&dir).expect("reopen journal"));
        let records = Journal::replay(&dir).expect("replay");
        let reg = Registry::with_journal(Some(journal));
        let stats = reg.recover(&records);
        assert_eq!(stats.jobs, 5);
        assert_eq!(
            stats.requeued, 4,
            "running + paused + queued ×2 are non-terminal"
        );
        assert_eq!(stats.finished, 1);

        let st = reg.status(running).expect("status");
        assert_eq!(st.state, JobState::Queued, "in-flight job re-queued");
        assert_eq!(st.steps_done, 2, "completed generations survive");
        assert_eq!(reg.status(paused).expect("status").state, JobState::Paused);
        assert_eq!(
            reg.result(finished).expect("done job keeps its result"),
            Json::Num(42.0)
        );
        // Claim order: priority first, then original submit order.
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == queued_hi));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == running));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == queued_lo));
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        // New submits get fresh ids past the recovered ones.
        let next = reg.submit(spec(0), ckpt(6));
        assert!(next > queued_lo);
        // Synthesized event prefix is coherent.
        assert_eq!(kinds(&reg, paused), vec!["queued", "recovered", "paused"]);
        assert_eq!(kinds(&reg, finished), vec!["queued", "recovered", "done"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dedup_tokens_are_idempotent_and_survive_recovery() {
        let _guard = crate::journal::fault_test_lock();
        let dir = journal_dir("dedup");
        let first;
        {
            let journal = Arc::new(Journal::open(&dir).expect("open journal"));
            let reg = Registry::with_journal(Some(journal));
            let mut s = spec(0);
            s.dedup = Some("tok-1".into());
            first = reg.submit(s.clone(), ckpt(1));
            assert_eq!(reg.submit(s.clone(), ckpt(2)), first, "resubmit dedups");
            assert_eq!(reg.lookup_dedup("tok-1"), Some(first));
            assert_eq!(reg.lookup_dedup("tok-2"), None);
        }
        let records = Journal::replay(&dir).expect("replay");
        let reg = Registry::new();
        reg.recover(&records);
        assert_eq!(
            reg.lookup_dedup("tok-1"),
            Some(first),
            "token survives restart"
        );
        let mut s = spec(0);
        s.dedup = Some("tok-1".into());
        assert_eq!(
            reg.submit(s, ckpt(3)),
            first,
            "post-restart resubmit dedups"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_snapshot_replays_identically() {
        let _guard = crate::journal::fault_test_lock();
        let dir = journal_dir("compact");
        let journal = Arc::new(Journal::open_with(&dir, 64, false).expect("open"));
        let reg = Registry::with_journal(Some(journal));
        let a = reg.submit(spec(2), ckpt(1));
        let b = reg.submit(spec(0), ckpt(2));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == a));
        reg.finish_step(
            a,
            StepOutcome::Finished {
                generation: None,
                data: Json::Null,
                result: Json::Num(7.0),
            },
        );
        let before: Vec<JobStatus> = reg.jobs();
        reg.compact_now();
        let records = Journal::replay(&dir).expect("replay");
        let reg2 = Registry::new();
        reg2.recover(&records);
        let after: Vec<JobStatus> = reg2.jobs();
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(&after) {
            assert_eq!((x.id, x.state, x.steps_done), (y.id, y.state, y.steps_done));
        }
        assert_eq!(reg2.result(a).expect("result"), Json::Num(7.0));
        assert_eq!(reg2.status(b).expect("status").state, JobState::Queued);
        std::fs::remove_dir_all(&dir).ok();
    }
}
