//! The full benchmark-matrix harness: runs the explore schedule over
//! every design in the paper's Table II (plus one `@xN`-scaled 100k+-cell
//! stress design) and lands one row per design in `BENCH_suite.json` at
//! the workspace root — wall clocks, evals/sec, incremental-replay
//! speedup, Pareto hypervolume, security/timing deltas against the
//! design's own baseline, the engine's memory-footprint gauges, and the
//! process peak RSS. Where `bench_explore` tracks one design deeply, this
//! harness tracks the whole matrix broadly so scaling regressions show up
//! per design size.
//!
//! Flags:
//! - `--design NAME` runs a single design (any roster name, including
//!   scaled `NAME@xN` forms) instead of the matrix.
//! - `--pop N` / `--gens N` / `--seed N` / `--threads N` override the
//!   per-design explore schedule (defaults 8/3, seed shared with the
//!   other benches).
//! - `--smoke` runs only Camellia and openMSP430_1 on a reduced schedule,
//!   asserts the wall and peak-RSS budgets, and writes no JSON — the CI
//!   gate.
//!
//! Designs above [`BIG_DESIGN_CELLS`] cells run a reduced schedule and
//! replay only the first [`BIG_REPLAY_CAP`] schedule points through the
//! full/incremental comparison (a full from-scratch re-implementation of
//! a 100k-cell chip costs tens of seconds; the cap keeps the matrix under
//! control). The row's `population`/`generations`/`replay_points` fields
//! record exactly what ran — no silent caps.

use std::time::Instant;

use gdsii_guard::prelude::*;
use gg_bench::driver::GG_GA_PARAMS;
use netlist::bench::DesignSpec;
use tech::Technology;

/// Cell count past which a design is "big": reduced schedule, capped
/// replay.
const BIG_DESIGN_CELLS: usize = 50_000;
/// Schedule points replayed through both evaluation paths on big designs.
const BIG_REPLAY_CAP: usize = 4;
/// The scaled stress design appended to the matrix: 7 × AES_2 = 112k
/// cells, comfortably past the 100k bar.
const SCALED_DESIGN: &str = "AES_2@x7";

/// Smoke budgets (also asserted for the scaled design in a full matrix
/// run): the reduced two-design smoke must finish inside this wall, and
/// the process peak RSS must stay under this byte budget.
const SMOKE_WALL_BUDGET_SECS: f64 = 120.0;
const SMOKE_PEAK_RSS_BUDGET_BYTES: u64 = 1 << 30; // 1 GiB

#[derive(Debug, Clone)]
struct SuiteRow {
    design: String,
    cells: u64,
    population: u64,
    generations: u64,
    evaluations: u64,
    baseline_wall_secs: f64,
    explore_wall_secs: f64,
    evals_per_sec: f64,
    replay_points: u64,
    replay_full_wall_secs: f64,
    replay_incremental_wall_secs: f64,
    replay_speedup: f64,
    front_size: u64,
    hypervolume: f64,
    best_security: f64,
    security_delta: f64,
    base_tns_ps: f64,
    front_tns_ps: f64,
    tns_delta_ps: f64,
    occupancy_bytes: u64,
    route_planes_bytes: u64,
    eval_cache_bytes: u64,
    peak_rss_bytes: u64,
}

ggjson::json_struct!(SuiteRow {
    design,
    cells,
    population,
    generations,
    evaluations,
    baseline_wall_secs,
    explore_wall_secs,
    evals_per_sec,
    replay_points,
    replay_full_wall_secs,
    replay_incremental_wall_secs,
    replay_speedup,
    front_size,
    hypervolume,
    best_security,
    security_delta,
    base_tns_ps,
    front_tns_ps,
    tns_delta_ps,
    occupancy_bytes,
    route_planes_bytes,
    eval_cache_bytes,
    peak_rss_bytes
});

/// The process high-water resident set in bytes, from
/// `/proc/self/status` (`VmHWM`). 0 where procfs is unavailable. The
/// kernel counter is monotone for the process lifetime, so per-row values
/// are cumulative peaks — the increase over the previous row is what the
/// row's design added.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Replays `points` serially through `eval`, returning wall seconds.
/// Serial on purpose: one worker keeps the thread-local scratch warm and
/// makes the full-vs-incremental walls comparable across machines with
/// different core counts.
fn replay_wall(points: &[&EvalPoint], eval: impl Fn(&EvalPoint) -> FlowMetrics) -> f64 {
    let t0 = Instant::now();
    for p in points {
        std::hint::black_box(eval(p));
    }
    t0.elapsed().as_secs_f64()
}

/// Runs one design through baseline + explore + replay comparison and
/// fills its suite row.
fn run_design(spec: &DesignSpec, tech: &Technology, params: &Nsga2Params) -> SuiteRow {
    let big = spec.target_cells > BIG_DESIGN_CELLS;
    let params = if big {
        Nsga2Params {
            population: params.population.min(4),
            generations: params.generations.min(1),
            ..*params
        }
    } else {
        *params
    };

    gdsii_guard::obs::reset();
    gdsii_guard::obs::set_enabled(true);

    let t0 = Instant::now();
    let base = implement_baseline_unchecked(spec, tech);
    let baseline_wall_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let result = explore(&base, tech, &params);
    let explore_wall_secs = t0.elapsed().as_secs_f64();
    let telemetry = gdsii_guard::obs::snapshot();
    gdsii_guard::obs::set_enabled(false);

    let evaluations = result.points.len() as u64;

    // Replay comparison: the same schedule points through the
    // from-scratch path and a fresh incremental engine, telemetry off.
    // Big designs replay a capped prefix (recorded in `replay_points`).
    let points: Vec<&EvalPoint> = result
        .points
        .iter()
        .take(if big { BIG_REPLAY_CAP } else { usize::MAX })
        .collect();
    let engine = EvalEngine::new(&base, tech);
    engine.reset_metrics_memo();
    let replay_incremental_wall_secs = replay_wall(&points, |p| {
        FlowRun::new(engine.base(), tech, &p.config)
            .engine(&engine)
            .seed(p.genome.flow_seed())
            .metrics()
            .expect("operator-edit cache poisoned")
    });
    let replay_full_wall_secs = replay_wall(&points, |p| {
        FlowRun::new(&base, tech, &p.config)
            .seed(p.genome.flow_seed())
            .metrics()
            .expect("oracle flow is infallible")
    });

    // Front quality: hypervolume against the run's own nadir reference,
    // plus the security-best front point's deltas vs the baseline (whose
    // normalized security is 1.0 by construction).
    let front = result.pareto_front();
    let hypervolume = result
        .nadir_reference()
        .map_or(0.0, |r| result.hypervolume(r));
    let best = front
        .iter()
        .min_by(|a, b| a.metrics.security.total_cmp(&b.metrics.security));
    let best_security = best.map_or(1.0, |p| p.metrics.security);
    let front_tns_ps = best.map_or(result.base_tns_ps, |p| p.metrics.tns_ps);

    let gauge = |name: &str| telemetry.gauge(name).unwrap_or(0.0) as u64;
    SuiteRow {
        design: spec.name.to_string(),
        cells: spec.target_cells as u64,
        population: params.population as u64,
        generations: params.generations as u64,
        evaluations,
        baseline_wall_secs,
        explore_wall_secs,
        evals_per_sec: evaluations as f64 / explore_wall_secs.max(1e-9),
        replay_points: points.len() as u64,
        replay_full_wall_secs,
        replay_incremental_wall_secs,
        replay_speedup: replay_full_wall_secs / replay_incremental_wall_secs.max(1e-9),
        front_size: front.len() as u64,
        hypervolume,
        best_security,
        security_delta: 1.0 - best_security,
        base_tns_ps: result.base_tns_ps,
        front_tns_ps,
        tns_delta_ps: front_tns_ps - result.base_tns_ps,
        occupancy_bytes: gauge("mem.occupancy_bytes"),
        route_planes_bytes: gauge("mem.route_planes_bytes"),
        eval_cache_bytes: gauge("eval.cache_bytes"),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

fn print_row(r: &SuiteRow) {
    println!(
        "{:<12} {:>7} cells  base {:>7.2}s  explore {:>7.2}s ({:>6.1} ev/s)  \
         replay x{:<5.1} hv {:>9.3}  sec {:.3}  peak {:>4} MiB",
        r.design,
        r.cells,
        r.baseline_wall_secs,
        r.explore_wall_secs,
        r.evals_per_sec,
        r.replay_speedup,
        r.hypervolume,
        r.best_security,
        r.peak_rss_bytes >> 20,
    );
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    v.parse().ok().or_else(|| {
        eprintln!("{flag}: cannot parse '{v}'");
        std::process::exit(2);
    })
}

fn resolve_or_die(name: &str) -> DesignSpec {
    gdsii_guard::serve::baseline::resolve_spec(name).unwrap_or_else(|| {
        eprintln!(
            "unknown design '{name}'; known designs: {}",
            gdsii_guard::serve::baseline::known_designs()
        );
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let tech = Technology::nangate45_like();
    let params = Nsga2Params::builder()
        .population(flag_value(&args, "--pop").unwrap_or(8))
        .generations(flag_value(&args, "--gens").unwrap_or(3))
        .seed(flag_value(&args, "--seed").unwrap_or(GG_GA_PARAMS.seed))
        .threads(flag_value(&args, "--threads").unwrap_or(0))
        .build();

    let specs: Vec<DesignSpec> = if smoke {
        vec![resolve_or_die("Camellia"), resolve_or_die("openMSP430_1")]
    } else if let Some(name) = flag_value::<String>(&args, "--design") {
        vec![resolve_or_die(&name)]
    } else {
        let mut all = netlist::bench::all_specs();
        all.push(resolve_or_die(SCALED_DESIGN));
        all
    };

    let params = if smoke {
        Nsga2Params {
            population: 4,
            generations: 2,
            ..params
        }
    } else {
        params
    };

    let suite_t0 = Instant::now();
    let mut rows = Vec::with_capacity(specs.len());
    for spec in &specs {
        let row = run_design(spec, &tech, &params);
        print_row(&row);
        // The scaled stress design must stay inside the smoke memory
        // budget — the whole point of the memory-lean data structures.
        if spec.target_cells > 100_000 {
            assert!(
                row.peak_rss_bytes < SMOKE_PEAK_RSS_BUDGET_BYTES,
                "{}: peak RSS {} exceeds the {} byte budget",
                spec.name,
                row.peak_rss_bytes,
                SMOKE_PEAK_RSS_BUDGET_BYTES
            );
        }
        rows.push(row);
    }
    let suite_wall_secs = suite_t0.elapsed().as_secs_f64();

    if smoke {
        let peak = peak_rss_bytes();
        println!(
            "smoke: {} designs in {suite_wall_secs:.2}s (budget {SMOKE_WALL_BUDGET_SECS}s), \
             peak RSS {} MiB (budget {} MiB)",
            rows.len(),
            peak >> 20,
            SMOKE_PEAK_RSS_BUDGET_BYTES >> 20,
        );
        assert!(
            suite_wall_secs < SMOKE_WALL_BUDGET_SECS,
            "smoke wall {suite_wall_secs:.2}s exceeds the {SMOKE_WALL_BUDGET_SECS}s budget"
        );
        assert!(
            peak != 0 && peak < SMOKE_PEAK_RSS_BUDGET_BYTES,
            "smoke peak RSS {peak} outside the {SMOKE_PEAK_RSS_BUDGET_BYTES} byte budget"
        );
        for r in &rows {
            assert!(
                r.replay_speedup > 1.0,
                "{}: incremental replay slower than full ({:.2}x)",
                r.design,
                r.replay_speedup
            );
        }
        println!("smoke: OK (wall and memory within budget, incremental replay faster)");
        return;
    }

    let j = ggjson::Json::Obj(vec![
        (
            "threads".into(),
            ggjson::Json::Num(params.resolved_threads() as f64),
        ),
        ("suite_wall_secs".into(), ggjson::Json::Num(suite_wall_secs)),
        (
            "designs".into(),
            ggjson::Json::Arr(rows.iter().map(ggjson::ToJson::to_json).collect()),
        ),
    ]);

    // Workspace root: crates/bench/ -> repo root.
    let mut out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    let out = out.join("BENCH_suite.json");
    std::fs::write(&out, ggjson::to_vec_pretty(&j)).expect("write BENCH_suite.json");
    println!(
        "suite: {} designs in {suite_wall_secs:.2}s; wrote {}",
        rows.len(),
        out.display()
    );
}
