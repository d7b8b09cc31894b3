//! The workloads. Each takes its inputs from the run seed, times
//! the public engine path with nothing traced (`--trace 0`), or replays
//! the same work through the staged composition (`--trace 1`), and checks
//! its outputs outside the timed region.

use std::path::Path;
use std::time::Instant;

use gdsii_guard::pipeline::implement_baseline_unchecked;
use gdsii_guard::sandbox::{evaluate_candidate, SandboxPolicy};
use gdsii_guard::{
    explore_with_engine, EvalEngine, EvalPoint, EvalStatus, ExploreOptions, ExploreResult,
    FlowMetrics, FlowRun, Genome, Nsga2Params, Snapshot,
};
use netlist::bench::DesignSpec;
use tech::{Technology, NUM_METAL_LAYERS};

use crate::staged::{self, StagedEngine};
use crate::stats::{front_hypervolume, median, mix, tail_percentile};
use crate::trace::{Metric, Trace};

/// Set-ups per untraced run: at least this many, and more until they
/// have taken [`SETUP_MIN_SECS`] in all; `setup_s` is their median. A
/// short set-up repeats often enough that its median rides out the
/// second-scale slow spells of a shared machine.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 3.0;

/// `explore_aes1`: NSGA-II population and generations per explore.
const EXPLORE_POP: usize = 8;
const EXPLORE_GENS: usize = 2;

/// What one run knows: the technology, its seed, how long to measure,
/// whether to trace, and where it may write.
pub struct Ctx<'a> {
    pub tech: &'a Technology,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: &'a Path,
}

/// The result of one run: its metrics, failure accounting, and context
/// lines printed with the result.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub notes: Vec<(&'static str, String)>,
}

/// Evaluations attempted and the ones that failed (quarantined, degraded,
/// or failing an output check), with a reason per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn end_to_end(self, e2e: EndToEnd, notes: Vec<(&'static str, String)>) -> Outcome {
        let metrics = e2e.metrics(&self);
        self.outcome(metrics, notes)
    }

    fn outcome(self, metrics: Vec<Metric>, notes: Vec<(&'static str, String)>) -> Outcome {
        Outcome {
            metrics,
            attempted: self.attempted,
            failures: self.failures,
            notes,
        }
    }
}

/// The user-visible figures every workload reports.
struct EndToEnd {
    total_s: f64,
    setup_s: f64,
    cands_per_s: f64,
    cand_p50_ms: f64,
    peak_rss_mib: f64,
    front_hv: f64,
}

impl EndToEnd {
    fn metrics(self, tally: &Tally) -> Vec<Metric> {
        let fail_frac = tally.failures.len() as f64 / tally.attempted.max(1) as f64;
        vec![
            ("total_s".into(), self.total_s, "s"),
            ("setup_s".into(), self.setup_s, "s"),
            ("cands_per_s".into(), self.cands_per_s, "1/s"),
            ("cand_p50_ms".into(), self.cand_p50_ms, "ms"),
            ("peak_rss_mib".into(), self.peak_rss_mib, "MiB"),
            ("front_hv".into(), self.front_hv, "ps"),
            ("ok_frac".into(), 1.0 - fail_frac, "ratio"),
        ]
    }
}

fn design(name: &str) -> DesignSpec {
    netlist::bench::parse_spec(name).expect("workload designs are in the roster")
}

/// The process high-water resident set, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether another unit of work that lasts about `last` seconds still
/// fits in the measuring time of a phase started at `phase`. Whole units
/// only: a unit longer than the measuring time runs once.
fn another_fits(phase: Instant, last: f64, seconds: f64) -> bool {
    secs(phase) + last <= seconds
}

/// Sets up repeatedly from the spec through the public calls (baseline,
/// engine, then `warm`), keeping the last engine. Returns it with the
/// per-repetition walls.
fn setup_public(
    spec: &DesignSpec,
    tech: &Technology,
    warm: impl Fn(&EvalEngine),
) -> (EvalEngine, Vec<f64>) {
    let mut walls: Vec<f64> = Vec::new();
    let mut engine = None;
    while walls.len() < SETUP_MIN_REPS || walls.iter().sum::<f64>() < SETUP_MIN_SECS {
        // Free the previous set-up first, so peak memory is one set-up's.
        drop(engine.take());
        let t = Instant::now();
        let base = implement_baseline_unchecked(spec, tech);
        let e = EvalEngine::new(&base, tech);
        warm(&e);
        walls.push(secs(t));
        engine = Some(e);
    }
    (engine.expect("at least one set-up"), walls)
}

/// Sets up once through the staged composition, then checks the staged
/// baseline against `implement_baseline_unchecked` outside the traced
/// wall. Returns the engine and the traced set-up wall.
fn setup_staged(
    spec: &DesignSpec,
    tech: &Technology,
    trace: &mut Trace,
    tally: &mut Tally,
) -> (EvalEngine, f64) {
    let t = Instant::now();
    let base = staged::implement_baseline(spec, tech, trace);
    let engine = trace.time("setup.pipeline.engine", || EvalEngine::new(&base, tech));
    let wall = secs(t);
    let reference = implement_baseline_unchecked(spec, tech);
    tally.check(staged::same_snapshot(&base, &reference), || {
        format!(
            "{}: staged baseline differs from implement_baseline_unchecked",
            spec.name
        )
    });
    (engine, wall)
}

/// Evaluates one candidate through the public sandboxed engine path
/// (`FlowRun::engine` inside the degrade chain) and records a failure
/// if it degraded or was quarantined.
fn engine_candidate(
    engine: &EvalEngine,
    tech: &Technology,
    g: &Genome,
    tally: &mut Tally,
) -> FlowMetrics {
    let (m, status) = evaluate_candidate(engine, tech, g, 0, 0, &SandboxPolicy::default());
    tally.check(matches!(status, EvalStatus::Ok), || {
        format!("candidate {g:?} left the engine path: {status:?}")
    });
    m
}

/// Checks `m` against the from-scratch oracle (`FlowRun` without an
/// engine).
fn oracle_check(
    base: &Snapshot,
    tech: &Technology,
    g: &Genome,
    m: &FlowMetrics,
    tally: &mut Tally,
) {
    let cfg = g.to_config();
    let oracle = FlowRun::new(base, tech, &cfg)
        .seed(g.flow_seed())
        .metrics()
        .expect("the oracle path has no error path");
    tally.check(staged::same_metrics(&oracle, m), || {
        format!("candidate {g:?} differs from the oracle: {m:?} vs {oracle:?}")
    });
}

fn point(g: Genome, metrics: FlowMetrics) -> EvalPoint {
    EvalPoint {
        genome: g,
        config: g.to_config(),
        metrics,
        generation: 0,
    }
}

/// `front_hv` of `points`, with the baseline as the always-available
/// choice.
fn hypervolume(base: &Snapshot, points: Vec<EvalPoint>) -> f64 {
    let baseline = point(genome(0, 0, 0), FlowMetrics::from_snapshot(base, base));
    front_hypervolume(points, baseline)
}

/// A genome at the baseline's route rule.
fn genome(op: u8, n_idx: u8, iter_idx: u8) -> Genome {
    Genome {
        op,
        n_idx,
        iter_idx,
        scale_idx: [0; NUM_METAL_LAYERS],
    }
}

// ---------------------------------------------------------------------------
// explore_aes1
// ---------------------------------------------------------------------------

/// NSGA-II on AES_1 from the spec to the Pareto front, checkpointing on,
/// one GA worker, the library's default GA seed. Its input is the named
/// design and the default job, so every seed gives the same input: the
/// GA seed alone moves an explore's work by a factor of two, which would
/// drown any change to the program. Explores repeat on fresh engines
/// while another fits in the measuring time.
pub fn explore_aes1(ctx: &Ctx) -> Result<Outcome, gdsii_guard::Error> {
    let tech = ctx.tech;
    let spec = design("AES_1");
    let params = Nsga2Params::builder()
        .population(EXPLORE_POP)
        .generations(EXPLORE_GENS)
        .threads(1)
        .build();
    let opts = ExploreOptions {
        checkpoint: Some(ctx.scratch.join("explore.ckpt")),
        ..ExploreOptions::default()
    };
    let mut tally = Tally::default();
    let mut notes = vec![(
        "ga",
        format!(
            "pop {EXPLORE_POP}, gens {EXPLORE_GENS}, seed {:#x}, 1 worker, checkpointing on",
            params.seed
        ),
    )];

    if ctx.trace {
        let mut trace = Trace::default();
        let (engine, setup_wall) = setup_staged(&spec, tech, &mut trace, &mut tally);
        let t = Instant::now();
        let res = explore_with_engine(&engine, tech, &params, &opts)?;
        let explore_wall = secs(t);
        crate::pin_route_threads();

        // Replay every evaluated point through the staged composition,
        // with the engine's memo semantics, and hold it to what explore
        // reported.
        let mut replay = StagedEngine::new(&engine, tech);
        let t = Instant::now();
        let replayed: Vec<FlowMetrics> = res
            .points
            .iter()
            .map(|p| replay.metrics(tech, &p.config, p.genome.flow_seed(), &mut trace))
            .collect();
        let replay_wall = secs(t);
        for (p, m) in res.points.iter().zip(&replayed) {
            let quarantined = res.quarantined.iter().any(|q| q.genome == p.genome);
            tally.check(!quarantined && staged::same_metrics(m, &p.metrics), || {
                format!(
                    "explore point {:?}: staged {m:?} vs engine {:?}",
                    p.genome, p.metrics
                )
            });
        }
        trace.set(
            "cand.pipeline.cache_bytes",
            engine.memory_footprint().cache_bytes as f64,
        );
        let overhead = explore_wall - replay_wall;
        notes.push(("explore_wall_s", format!("{explore_wall}")));
        notes.push(("staged_replay_wall_s", format!("{replay_wall}")));
        notes.push((
            "trace_overhead",
            "folded into nsga2.overhead_s (explore wall minus staged replay wall)".into(),
        ));
        let metrics = trace.metrics(setup_wall + replay_wall + overhead, overhead);
        return Ok(tally.outcome(metrics, notes));
    }

    let (engine, setup_walls) = setup_public(&spec, tech, |_| {});
    let base = engine.base().clone();
    let mut first = Some(engine);
    let panics_before = crate::panics();
    let phase = Instant::now();
    let mut units: Vec<(ExploreResult, f64)> = Vec::new();
    while units
        .last()
        .is_none_or(|(_, w)| another_fits(phase, *w, ctx.seconds))
    {
        // Every explore starts from a cold engine, built outside its wall.
        let engine = first.take().unwrap_or_else(|| EvalEngine::new(&base, tech));
        let t = Instant::now();
        let res = explore_with_engine(&engine, tech, &params, &opts)?;
        units.push((res, secs(t)));
    }
    let peak = peak_rss_mib();
    crate::pin_route_threads();

    // Candidates whose evaluation panicked left the normal path (degraded
    // or quarantined); the sandbox hides them, the panic count does not.
    let panics = crate::panics() - panics_before;
    let first_points = &units[0].0.points;
    for (res, _) in &units {
        for (i, p) in res.points.iter().enumerate() {
            let quarantined = res.quarantined.iter().any(|q| q.genome == p.genome);
            let repeats = first_points.get(i).is_some_and(|q| {
                q.genome == p.genome && staged::same_metrics(&q.metrics, &p.metrics)
            });
            tally.check(!quarantined && repeats, || {
                format!("explore point {:?} quarantined or not repeatable", p.genome)
            });
        }
    }
    tally.check(panics == 0, || {
        format!("{panics} panics inside the sandbox: degraded or quarantined candidates")
    });
    let pick = &first_points[(mix(ctx.seed, 0x0AC1E) % first_points.len() as u64) as usize];
    oracle_check(&base, tech, &pick.genome, &pick.metrics, &mut tally);

    let evals: usize = units.iter().map(|(r, _)| r.points.len()).sum();
    let wall: f64 = units.iter().map(|(_, w)| w).sum();
    let explore_walls: Vec<f64> = units.iter().map(|(_, w)| *w).collect();
    let per_cand_ms: Vec<f64> = units
        .iter()
        .map(|(r, w)| 1e3 * w / r.points.len() as f64)
        .collect();
    let front_hv = hypervolume(&base, first_points.clone());
    let setup_s = median(&setup_walls);
    notes.push((
        "explores",
        format!("{} ({} evaluations)", units.len(), evals),
    ));
    notes.push(("explore_walls_s", format!("{explore_walls:?}")));
    notes.push(("setup_walls_s", format!("{setup_walls:?}")));
    notes.push((
        "cand_p50_ms",
        "mean candidate latency inside each explore (explore_with hides candidate boundaries), median over explores".into(),
    ));
    let e2e = EndToEnd {
        total_s: setup_s + median(&explore_walls),
        setup_s,
        cands_per_s: evals as f64 / wall,
        cand_p50_ms: median(&per_cand_ms),
        peak_rss_mib: peak,
        front_hv,
    };
    Ok(tally.end_to_end(e2e, notes))
}

// ---------------------------------------------------------------------------
// rescale_aes3
// ---------------------------------------------------------------------------

/// The operator edits of a converged population: the initial
/// population's canonical LDA (`N = 8`, one iteration) and its `N = 16`
/// neighbour.
const RESCALE_EDITS: [(u8, u8); 2] = [(2, 0), (3, 0)];

/// Route-rule widths (indices into `RouteRule::CANDIDATES`) that every
/// sibling spreads over the metal layers: 3 × 1.0, 4 × 1.2, 3 × 1.5.
const SIBLING_WIDTHS: [u8; NUM_METAL_LAYERS] = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2];

/// Siblings in one repetition of the batch.
const RESCALE_SIBLINGS: usize = 5;

/// One repetition of the batch: sibling `k` is edit `k mod 2` with
/// [`SIBLING_WIDTHS`] rotated by `2k` layers, and the seed shuffles their
/// order anew for every repetition. The siblings themselves are fixed:
/// one can cost four times another, so a seeded choice of siblings made
/// the batch's cost depend on the seed.
fn rescale_batch(seed: u64, rep: u64, edits: &[Genome]) -> Vec<Genome> {
    let mut batch: Vec<Genome> = (0..RESCALE_SIBLINGS)
        .map(|k| {
            let mut g = edits[k % edits.len()];
            g.scale_idx = SIBLING_WIDTHS;
            g.scale_idx.rotate_left(2 * k);
            g
        })
        .collect();
    // Fisher–Yates with one mixed draw per swap.
    for i in (1..batch.len()).rev() {
        let j = (mix(seed, (rep << 8) | i as u64) % (i as u64 + 1)) as usize;
        batch.swap(i, j);
    }
    batch
}

/// Per repetition of the batch: each sibling with its result and wall.
type Repetitions<T> = Vec<Vec<(Genome, T, f64)>>;

/// Repeats the batch while another repetition fits in the measuring
/// time (at least one). Before each, outside its wall, `fresh` empties
/// the metrics memo, so every repetition is the same work; `eval`
/// evaluates one sibling. Returns the repetitions and their walls.
fn repeat_batch<S, T>(
    ctx: &Ctx,
    edits: &[Genome],
    state: &mut S,
    fresh: impl Fn(&mut S),
    mut eval: impl FnMut(&mut S, &Genome) -> T,
) -> (Repetitions<T>, Vec<f64>) {
    let mut reps: Repetitions<T> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let phase = Instant::now();
    while walls
        .last()
        .is_none_or(|w| another_fits(phase, *w, ctx.seconds))
    {
        fresh(state);
        let batch = rescale_batch(ctx.seed, reps.len() as u64, edits);
        let t = Instant::now();
        let rep = batch
            .into_iter()
            .map(|g| {
                let t = Instant::now();
                let out = eval(state, &g);
                (g, out, secs(t))
            })
            .collect();
        walls.push(secs(t));
        reps.push(rep);
    }
    (reps, walls)
}

/// Scale-only siblings of a few warmed LDA edits on AES_3 through the
/// public engine path: Phase B under changed route rules is the work.
/// The batch repeats on an emptied metrics memo while another
/// repetition fits in the measuring time; the warmed edits stay.
pub fn rescale_aes3(ctx: &Ctx) -> Result<Outcome, gdsii_guard::Error> {
    let tech = ctx.tech;
    let spec = design("AES_3");
    let edits: Vec<Genome> = RESCALE_EDITS
        .iter()
        .map(|&(n, i)| genome(1, n, i))
        .collect();
    let mut tally = Tally::default();
    let mut notes = vec![("edits", format!("{edits:?}"))];

    if ctx.trace {
        let mut trace = Trace::default();
        let (engine, setup_wall) = setup_staged(&spec, tech, &mut trace, &mut tally);
        let mut stage = StagedEngine::new(&engine, tech);
        let t = Instant::now();
        for g in &edits {
            stage.metrics(tech, &g.to_config(), g.flow_seed(), &mut trace);
        }
        let warm_wall = secs(t);
        let (reps, walls) = repeat_batch(
            ctx,
            &edits,
            &mut (&mut stage, &mut trace),
            |(stage, _)| stage.reset_metrics_memo(),
            |(stage, trace), g| stage.metrics(tech, &g.to_config(), g.flow_seed(), trace),
        );
        let batch_wall: f64 = walls.iter().sum();

        // The engine path over the same candidates, in the same order.
        for g in &edits {
            engine_candidate(&engine, tech, g, &mut tally);
        }
        let t = Instant::now();
        for rep in &reps {
            engine.reset_metrics_memo();
            for (g, m, _) in rep {
                let e = engine_candidate(&engine, tech, g, &mut tally);
                tally.check(staged::same_metrics(m, &e), || {
                    format!("sibling {g:?}: staged {m:?} vs engine {e:?}")
                });
            }
        }
        let engine_wall = secs(t);
        trace.set(
            "cand.pipeline.cache_bytes",
            engine.memory_footprint().cache_bytes as f64,
        );
        notes.push((
            "batch",
            format!("{RESCALE_SIBLINGS} siblings × {} repetitions", reps.len()),
        ));
        notes.push((
            "trace_overhead",
            format!("{}", batch_wall / engine_wall - 1.0),
        ));
        let metrics = trace.metrics(setup_wall + warm_wall + batch_wall, 0.0);
        return Ok(tally.outcome(metrics, notes));
    }

    let warm = |engine: &EvalEngine| {
        let mut scratch = Tally::default();
        for g in &edits {
            engine_candidate(engine, tech, g, &mut scratch);
        }
        assert!(
            scratch.failures.is_empty(),
            "edit warm-up failed: {:?}",
            scratch.failures
        );
    };
    let (engine, setup_walls) = setup_public(&spec, tech, warm);
    let (reps, rep_walls) = repeat_batch(
        ctx,
        &edits,
        &mut tally,
        |_| engine.reset_metrics_memo(),
        |tally, g| engine_candidate(&engine, tech, g, tally),
    );
    let peak = peak_rss_mib();

    // Every repetition reproduces the first; one seeded sibling of the
    // first matches the from-scratch oracle.
    let first = &reps[0];
    for (g, m, _) in reps[1..].iter().flatten() {
        let same = first
            .iter()
            .any(|(h, n, _)| h == g && staged::same_metrics(n, m));
        tally.check(same, || format!("sibling {g:?} did not repeat"));
    }
    let pick = &first[(mix(ctx.seed, 0x0AC1E) % first.len() as u64) as usize];
    oracle_check(engine.base(), tech, &pick.0, &pick.1, &mut tally);

    let lat: Vec<f64> = reps.iter().flatten().map(|b| b.2).collect();
    // The median sibling of every repetition is the same work, whatever
    // the number of repetitions; the median over all latencies would
    // move between two siblings with the count.
    let rep_medians: Vec<f64> = reps
        .iter()
        .map(|r| median(&r.iter().map(|b| b.2).collect::<Vec<_>>()))
        .collect();
    let setup_s = median(&setup_walls);
    notes.push((
        "batch",
        format!("{RESCALE_SIBLINGS} siblings × {} repetitions", reps.len()),
    ));
    notes.push(("setup_walls_s", format!("{setup_walls:?}")));
    notes.push(("repetition_walls_s", format!("{rep_walls:?}")));
    notes.push(("cand_walls_s", format!("{lat:.3?}")));
    if let Some((p, v)) = tail_percentile(&lat) {
        notes.push(("cand_tail_ms", format!("p{} = {}", p * 100.0, v * 1e3)));
    }
    let points = first.iter().map(|b| point(b.0, b.1)).collect();
    let e2e = EndToEnd {
        total_s: setup_s + median(&rep_walls),
        setup_s,
        cands_per_s: lat.len() as f64 / rep_walls.iter().sum::<f64>(),
        cand_p50_ms: 1e3 * median(&rep_medians),
        peak_rss_mib: peak,
        front_hv: hypervolume(engine.base(), points),
    };
    Ok(tally.end_to_end(e2e, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let e2e = EndToEnd {
            total_s: 1.0,
            setup_s: 1.0,
            cands_per_s: 1.0,
            cand_p50_ms: 1.0,
            peak_rss_mib: 1.0,
            front_hv: 1.0,
        };
        let names: Vec<String> = e2e
            .metrics(&Tally::default())
            .into_iter()
            .map(|(name, ..)| name)
            .collect();
        assert_eq!(names, crate::benchmark_json_names("end_to_end"));
    }

    #[test]
    fn rescale_batch_is_a_seeded_order_of_fixed_siblings() {
        let edits = [genome(1, 2, 0), genome(1, 3, 0)];
        let batch = rescale_batch(7, 0, &edits);
        assert_eq!(batch.len(), RESCALE_SIBLINGS);
        let mut want = SIBLING_WIDTHS;
        want.sort_unstable();
        for (i, g) in batch.iter().enumerate() {
            let mut w = g.scale_idx;
            w.sort_unstable();
            assert_eq!(w, want, "a sibling spreads the fixed widths");
            assert!(edits.iter().any(|e| (e.op, e.n_idx) == (g.op, g.n_idx)));
            assert!(!batch[..i].contains(g), "sibling {i} repeats");
        }
        assert_eq!(batch, rescale_batch(7, 0, &edits), "same seed, same batch");
        let sorted = |mut b: Vec<Genome>| {
            b.sort_by_key(|g| (g.n_idx, g.scale_idx));
            b
        };
        let orders = [rescale_batch(7, 1, &edits), rescale_batch(8, 0, &edits)];
        assert!(orders.iter().any(|o| *o != batch), "the seed moves the order");
        for o in orders {
            assert_eq!(sorted(o), sorted(batch.clone()), "and only the order");
        }
    }
}
