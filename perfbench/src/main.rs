//! Paper-scale benchmark of the GDSII-Guard reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore_aes1|rescale_aes3> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints the
//! end-to-end metrics of the workload; with `--trace 1` it replays the
//! same work through the staged composition of public layer calls and
//! prints the per-layer metrics. Context lines go first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when an output check
//! failed. See `perfbench/README.md` for the workloads and metrics.

mod staged;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tech::Technology;
use workloads::{Ctx, Outcome};

/// GA workers per explore; `route::budget_for_workers` floors each
/// worker's router at 2 threads, so one worker keeps a 2-core machine at
/// 2 busy threads.
const GA_WORKERS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("missing or non-positive --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Panics seen anywhere in the process. The sandbox hides a candidate's
/// panic behind its degrade chain; counting them is how the benchmark
/// sees a degraded candidate from outside.
static PANICS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn panics() -> u64 {
    PANICS.load(Ordering::SeqCst)
}

/// Chains a counting hook in front of the sandbox's quiet hook. The
/// sandbox installs its hook on its first candidate and wraps whatever
/// was there, so one TINY candidate runs first; ours then sees every
/// panic, sandboxed or not.
fn install_panic_counter(tech: &Technology) {
    let base =
        gdsii_guard::pipeline::implement_baseline_unchecked(&netlist::bench::tiny_spec(), tech);
    let engine = gdsii_guard::EvalEngine::new(&base, tech);
    let g = gdsii_guard::Genome {
        op: 0,
        n_idx: 0,
        iter_idx: 0,
        scale_idx: [0; tech::NUM_METAL_LAYERS],
    };
    gdsii_guard::sandbox::evaluate_candidate(&engine, tech, &g, 0, 0, &Default::default());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        prev(info);
    }));
}

/// Routing threads per candidate, as explore sets them for one worker.
pub(crate) fn pin_route_threads() {
    route::set_parallelism(route::budget_for_workers(GA_WORKERS));
}

/// Removes every `GG_*` variable (fault specs, cache budgets, deadlines,
/// trace topics) and `RAYON_NUM_THREADS` before the library reads any,
/// so a run always measures the defaults. Returns the names removed.
fn clear_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GG_") || k == "RAYON_NUM_THREADS")
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Identity of the program under test: the git commit when the checkout
/// has one, else an FNV-1a fingerprint of the workspace sources.
fn source_identity(root: &Path) -> String {
    if let Some(c) = git_commit(root) {
        return c;
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in &files {
        let name = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
        let body = std::fs::read(f).unwrap_or_default();
        for b in name.as_bytes().iter().chain(&body) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("source-fnv1a:{h:016x}")
}

fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

fn json_line(o: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a non-finite value already fails the run.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failures.len(),
        metrics.join(", ")
    )
}

fn main() {
    let cleared = clear_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Ctx) -> Result<Outcome, gdsii_guard::Error> = match args.workload.as_str() {
        "explore_aes1" => workloads::explore_aes1,
        "rescale_aes3" => workloads::rescale_aes3,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    let scratch =
        root.join(".perfbench_tmp")
            .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory inside the checkout");

    let tech = Technology::nangate45_like();
    install_panic_counter(&tech);
    pin_route_threads();
    let ctx = Ctx {
        tech: &tech,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: &scratch,
    };
    let result = run(&ctx);
    // Best effort: a leftover scratch directory is harmless and ignored.
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(root.join(".perfbench_tmp"));
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload: {}", args.workload);
    println!("program: {}", source_identity(&root));
    println!(
        "machine: nproc {nproc}; threads: {GA_WORKERS} GA worker, {} route threads per candidate",
        route::budget_for_workers(GA_WORKERS)
    );
    println!(
        "run: seed {}, seconds {}, trace {}, env cleared {:?}",
        args.seed, args.seconds, args.trace as u8, cleared
    );
    for (k, v) in &outcome.notes {
        println!("{k}: {v}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let correct = outcome.failures.is_empty() && outcome.metrics.iter().all(|m| m.1.is_finite());
    println!("{}", json_line(&outcome, correct));
    if !correct {
        std::process::exit(1);
    }
}

/// The `name`s listed under `key` in the repository's `BENCHMARK.json`,
/// in order, so the tests can hold the emitted metrics to it.
#[cfg(test)]
pub(crate) fn benchmark_json_names(key: &str) -> Vec<String> {
    let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let end = section.find(']').expect("the section is a list");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}
