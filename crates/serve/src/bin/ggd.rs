//! `ggd` — the GDSII-Guard command-line front end.
//!
//! ```text
//! ggd [--verbose] analyze --design <name>                 # implement + report baseline metrics
//! ggd [--verbose] harden  --design <name> [--op cs|lda] [--out out.gds]
//! ggd [--verbose] explore --design <name> [--pop N] [--gens N] [--seed N]
//! ggd serve --socket <path> [--runners N]                 # exploration-as-a-service daemon
//! ggd submit|status|watch|pause|resume|cancel|result …    # client for a running daemon
//! ggd list                                                # list the benchmark designs
//! ```
//!
//! Designs are the twelve benchmark specs of `netlist::bench` (AES_1 …
//! TDEA) plus the miniature `TINY` smoke design. All runs are
//! deterministic. The one-shot commands call the library directly:
//! `ggd explore` runs [`explore_with`] in-process, and only
//! `ggd explore --socket` (or `$GGD_SOCKET`) goes through a daemon, with
//! the same stdout. `--verbose` turns the telemetry subsystem on and
//! prints the span/metric tree to stderr when the command finishes —
//! including on error paths, now that `main` returns `Result`.
//!
//! Designs are named with `--design`; a stray positional argument on a
//! command that takes none is an error naming the flag.
//!
//! `ggd serve` is **crash-safe** by default: job-lifecycle transitions
//! are journaled under `--journal-dir` (default `$GG_JOURNAL_DIR`, else
//! `results/journal`), and a restarted daemon pointed at the same
//! journal re-queues every interrupted job and resumes explores from
//! their checkpoints bit-identically. `--no-journal` opts out.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::path::PathBuf;
use std::time::Duration;

use gdsii_guard::obs::diagln;
use gdsii_guard::prelude::*;
use gdsii_guard::sandbox::SandboxPolicy;
use gdsii_guard::Error;
use gg_serve::{
    BaselineSummary, Client, JobEvent, JobKind, JobSpec, JobState, Server, ServerConfig,
};
use ggjson::{FromJson, Json, ToJson};
use tech::Technology;

const USAGE: &str = "usage: ggd [--verbose] <command> [flags]\n\
   \n\
   one-shot commands:\n\
   \x20 list                                     list benchmark designs\n\
   \x20 analyze --design <name>                  baseline metrics\n\
   \x20 harden  --design <name> [--op cs|lda] [--out out.gds]\n\
   \x20 explore --design <name> [--pop N] [--gens N] [--seed N] [--out front.json]\n\
   \n\
   daemon:\n\
   \x20 serve   --socket <path> [--runners N] [--data-dir <dir>]\n\
   \x20         [--journal-dir <dir>|--no-journal] [--max-queued N]\n\
   \x20         env: GG_JOURNAL_DIR, GG_MAX_QUEUED, GG_SERVE_MEM_BUDGET,\n\
   \x20              GG_STUCK_MS (runner watchdog; default 8x GG_EVAL_DEADLINE_MS)\n\
   \n\
   client commands (all accept --socket <path>; default $GGD_SOCKET,\n\
   else ggd.sock under the system temp dir):\n\
   \x20 submit  <explore|harden|analyze> --design <name> [--priority N]\n\
   \x20         [--pop N] [--gens N] [--seed N] [--threads N] [--op cs|lda]\n\
   \x20         [--out <path>] [--checkpoint <path>] [--resume]\n\
   \x20 status  <job>                            one job's state\n\
   \x20 watch   <job> [--from K]                 stream events until terminal\n\
   \x20 pause   <job>                            park at next generation boundary\n\
   \x20 resume  <job>                            re-queue a paused job\n\
   \x20 cancel  <job>                            cancel a job\n\
   \x20 result  <job>                            final result payload (JSON)\n\
   \x20 jobs                                     all jobs\n\
   \x20 stats                                    scheduler + baseline-cache counters\n\
   \x20 shutdown                                 stop the daemon";

/// Everything the flag parser can collect; each command reads the
/// subset it understands.
#[derive(Default)]
struct Opts {
    design: Option<String>,
    pop: Option<usize>,
    gens: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    out: Option<String>,
    op: Option<String>,
    socket: Option<PathBuf>,
    priority: Option<u8>,
    from: Option<u64>,
    runners: Option<usize>,
    data_dir: Option<PathBuf>,
    journal_dir: Option<PathBuf>,
    no_journal: bool,
    max_queued: Option<usize>,
    checkpoint: Option<String>,
    resume: bool,
    help: bool,
    positionals: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, Error> {
    fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, Error> {
        it.next()
            .cloned()
            .ok_or_else(|| Error::InvalidArgs(format!("{flag} needs a value")))
    }
    fn num<'a, T: std::str::FromStr>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<T, Error> {
        let v = value(it, flag)?;
        v.parse()
            .map_err(|_| Error::InvalidArgs(format!("{flag} got '{v}', not a number")))
    }

    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => o.help = true,
            "--resume" => o.resume = true,
            "--design" => o.design = Some(value(&mut it, a)?),
            "--pop" => o.pop = Some(num(&mut it, a)?),
            "--gens" => o.gens = Some(num(&mut it, a)?),
            "--seed" => o.seed = Some(num(&mut it, a)?),
            "--threads" => o.threads = Some(num(&mut it, a)?),
            "--out" => o.out = Some(value(&mut it, a)?),
            "--op" => o.op = Some(value(&mut it, a)?),
            "--socket" => o.socket = Some(PathBuf::from(value(&mut it, a)?)),
            "--priority" => o.priority = Some(num(&mut it, a)?),
            "--from" => o.from = Some(num(&mut it, a)?),
            "--runners" => o.runners = Some(num(&mut it, a)?),
            "--data-dir" => o.data_dir = Some(PathBuf::from(value(&mut it, a)?)),
            "--journal-dir" => o.journal_dir = Some(PathBuf::from(value(&mut it, a)?)),
            "--no-journal" => o.no_journal = true,
            "--max-queued" => o.max_queued = Some(num(&mut it, a)?),
            "--checkpoint" => o.checkpoint = Some(value(&mut it, a)?),
            s if s.starts_with("--") => {
                return Err(Error::InvalidArgs(format!("unknown flag '{s}'")))
            }
            _ => o.positionals.push(a.clone()),
        }
    }
    Ok(o)
}

impl Opts {
    /// The design name from `--design`.
    fn design(&self) -> Result<String, Error> {
        self.design
            .clone()
            .ok_or_else(|| Error::InvalidArgs("no design named; use --design <name>".into()))
    }

    /// The job id every client command takes as its positional.
    fn job_id(&self) -> Result<u64, Error> {
        self.positionals
            .first()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::InvalidArgs("expected a numeric job id".into()))
    }

    /// The daemon socket path: `--socket`, `$GGD_SOCKET`, or the default
    /// under the system temp dir.
    fn socket(&self) -> PathBuf {
        self.socket
            .clone()
            .or_else(|| std::env::var_os("GGD_SOCKET").map(PathBuf::from))
            .unwrap_or_else(|| std::env::temp_dir().join("ggd.sock"))
    }
}

/// Fails fast on a design name the benchmark roster does not know,
/// listing every accepted name — shared by the local commands and
/// `submit`, so a typo dies at the CLI instead of inside the daemon.
fn resolve_design(name: &str) -> Result<netlist::bench::DesignSpec, Error> {
    netlist::bench::parse_spec(name).ok_or_else(|| {
        Error::InvalidArgs(format!(
            "unknown design '{name}'; known designs: {}",
            netlist::bench::known_designs()
        ))
    })
}

/// Translates the job flags into a [`JobSpec`] of `kind`: the one
/// flags-to-job mapping behind `harden`, one-shot and remote `explore`,
/// and `submit`, so every default lives in `JobSpec`.
fn job_spec(o: &Opts, kind: JobKind) -> Result<JobSpec, Error> {
    let design = o.design()?;
    resolve_design(&design)?;
    let mut spec = match kind {
        JobKind::Explore => JobSpec::explore(&design),
        JobKind::Analyze => JobSpec::analyze(&design),
        JobKind::Harden => JobSpec::harden(&design, o.op.as_deref().unwrap_or("cs")),
    };
    if let Some(pop) = o.pop {
        spec.population = pop;
    }
    if let Some(gens) = o.gens {
        spec.generations = gens;
    }
    if let Some(seed) = o.seed {
        spec.seed = seed;
    }
    if let Some(threads) = o.threads {
        spec.threads = threads;
    }
    if let Some(priority) = o.priority {
        spec.priority = priority;
    }
    spec.out = o.out.clone();
    spec.checkpoint = o.checkpoint.clone();
    spec.resume = o.resume;
    spec.validate().map_err(Error::InvalidArgs)?;
    Ok(spec)
}

fn baseline(name: &str, tech: &Technology) -> Result<Snapshot, Error> {
    implement_baseline(&resolve_design(name)?, tech)
}

fn print_snapshot(label: &str, s: &Snapshot) {
    println!("{}", BaselineSummary::from_snapshot(s).render(label));
}

fn cmd_list() {
    println!(
        "{:<14} {:>7} {:>6} {:>10} {:>8}",
        "design", "cells", "util%", "clock(ps)", "timing"
    );
    for s in netlist::bench::all_specs() {
        println!(
            "{:<14} {:>7} {:>6.0} {:>10.0} {:>8}",
            s.name,
            s.target_cells,
            s.utilization * 100.0,
            s.clock_period(),
            if s.period_factor > 1.0 {
                "loose"
            } else {
                "tight"
            }
        );
    }
}

fn cmd_analyze(o: &Opts) -> Result<(), Error> {
    let name = o.design()?;
    let tech = Technology::nangate45_like();
    let base = baseline(&name, &tech)?;
    print_snapshot("baseline", &base);
    let battery = secmetrics::attack::battery_success_rate(&base.security, &tech);
    println!("  Trojan battery success rate: {:.0} %", battery * 100.0);
    Ok(())
}

fn cmd_harden(o: &Opts) -> Result<(), Error> {
    let spec = job_spec(o, JobKind::Harden)?;
    let tech = Technology::nangate45_like();
    let base = baseline(&spec.design, &tech)?;
    print_snapshot("baseline", &base);
    let hardened = harden(&base, &tech, &spec.op, spec.out.as_deref())?;
    print_snapshot("hardened", &hardened);
    let m = FlowMetrics::from_snapshot(&hardened, &base);
    println!(
        "  security {:.3} (risk reduced {:.1} %), battery success {:.0} %",
        m.security,
        (1.0 - m.security) * 100.0,
        secmetrics::attack::battery_success_rate(&hardened.security, &tech) * 100.0
    );
    if let Some(path) = &spec.out {
        println!("  wrote {path}");
    }
    Ok(())
}

/// Renders the final Pareto front exactly as the one-shot CLI always
/// has: evaluated-point count, then the front sorted by security.
fn print_front(result: &ExploreResult) {
    println!(
        "evaluated {} configurations; Pareto front:",
        result.points.len()
    );
    let mut front = result.pareto_front();
    front.sort_by(|a, b| {
        a.metrics
            .security
            .partial_cmp(&b.metrics.security)
            .expect("finite")
    });
    for p in front {
        let op = match p.config.op {
            OpSelect::CellShift => "CS".to_owned(),
            OpSelect::Lda { n, n_iter } => format!("LDA(N={n},it={n_iter})"),
        };
        println!(
            "  security {:.3}  TNS {:>9.1} ps  power {:.3} mW  DRC {:>3}  {}",
            p.metrics.security, p.metrics.tns_ps, p.metrics.power_mw, p.metrics.drc, op
        );
    }
}

/// One-line human rendering of a streamed job event.
fn describe_event(e: &JobEvent) -> String {
    let mut s = format!("[{:>4}] {}", e.tick, e.kind);
    match e.kind.as_str() {
        "generation" => {
            if let Some(g) = e.generation {
                s.push_str(&format!(" {g}"));
            }
            let points = e.data.get("points").and_then(Json::as_num);
            let front = e.data.get("front_size").and_then(Json::as_num);
            if let (Some(points), Some(front)) = (points, front) {
                s.push_str(&format!(": {points} points evaluated, front size {front}"));
            }
            let added = e.data.get("added").and_then(Vec::<String>::from_json);
            let removed = e.data.get("removed").and_then(Vec::<String>::from_json);
            if let (Some(a), Some(r)) = (added, removed) {
                if !a.is_empty() || !r.is_empty() {
                    s.push_str(&format!(" (front +{} -{})", a.len(), r.len()));
                }
            }
        }
        "failed" => {
            if let Some(why) = e.data.as_str() {
                s.push_str(&format!(": {why}"));
            }
        }
        _ => {}
    }
    s
}

/// Unpacks an explore job's result payload and prints the front.
fn print_explore_payload(payload: &Json) -> Result<(), Error> {
    let result = payload
        .get("explore")
        .and_then(ExploreResult::from_json)
        .ok_or_else(|| Error::Serve("malformed explore result payload".into()))?;
    print_front(&result);
    Ok(())
}

/// `ggd explore` without `--socket`: the exploration runs in-process
/// through [`explore_with`], checkpointing only to `--checkpoint`.
fn cmd_explore_local(spec: &JobSpec) -> Result<(), Error> {
    let tech = Technology::nangate45_like();
    let base = baseline(&spec.design, &tech)?;
    print_snapshot("baseline", &base);
    let opts = ExploreOptions {
        checkpoint: spec.checkpoint.as_ref().map(PathBuf::from),
        resume: spec.resume,
        halt_after: None,
        deadline: SandboxPolicy::from_env().deadline,
    };
    let result = explore_with(&base, &tech, &spec.nsga2_params(), &opts)?;
    if let Some(path) = &spec.out {
        std::fs::write(path, ggjson::to_vec_pretty(&result))
            .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    }
    print_front(&result);
    Ok(())
}

/// `ggd explore --socket <path>`: submit-and-watch against a daemon.
fn cmd_explore_remote(o: &Opts, spec: &JobSpec) -> Result<(), Error> {
    let mut client = Client::connect(&o.socket())?;
    let id = client.submit(spec)?;
    let status = client.watch(id, 0, |e| match e.kind.as_str() {
        "baseline" => {
            if let Some(sum) = BaselineSummary::from_json(&e.data) {
                println!("{}", sum.render("baseline"));
            }
        }
        "generation" => diagln!("{}", describe_event(e)),
        _ => {}
    })?;
    match status.state {
        JobState::Done => print_explore_payload(&client.result(id)?),
        other => Err(Error::Serve(format!(
            "explore job {id} ended {}: {}",
            other.as_str(),
            status.error.unwrap_or_else(|| "no diagnostic".into())
        ))),
    }
}

/// Reads a numeric env var; unset, empty, or unparsable yields `None`.
fn env_num<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

/// The daemon's journal directory: `--no-journal` disables, else
/// `--journal-dir`, `$GG_JOURNAL_DIR`, or `results/journal`.
fn resolve_journal_dir(o: &Opts) -> Option<PathBuf> {
    if o.no_journal {
        return None;
    }
    o.journal_dir
        .clone()
        .or_else(|| std::env::var_os("GG_JOURNAL_DIR").map(PathBuf::from))
        .or_else(|| Some(PathBuf::from("results/journal")))
}

/// The runner watchdog threshold: `$GG_STUCK_MS`, else 8× the
/// cooperative eval deadline when one is configured (a step that blows
/// through eight per-candidate budgets is wedged, not slow), else off.
fn resolve_stuck_after() -> Option<Duration> {
    env_num::<u64>("GG_STUCK_MS")
        .or_else(|| env_num::<u64>("GG_EVAL_DEADLINE_MS").map(|ms| ms.saturating_mul(8)))
        .map(Duration::from_millis)
}

fn cmd_serve(o: &Opts) -> Result<(), Error> {
    let socket = o.socket();
    let journal_dir = resolve_journal_dir(o);
    let server = Server::start(ServerConfig {
        socket: Some(socket.clone()),
        data_dir: o.data_dir.clone(),
        // An explicit `--runners 0` is honored: a queue-only daemon is
        // useful for inspecting admission control and recovery.
        runners: o.runners.unwrap_or(1),
        journal_dir: journal_dir.clone(),
        max_queued: o
            .max_queued
            .or_else(|| env_num("GG_MAX_QUEUED"))
            .unwrap_or(0),
        mem_budget_bytes: env_num("GG_SERVE_MEM_BUDGET").unwrap_or(0),
        stuck_after: resolve_stuck_after(),
    })?;
    diagln!("ggd serve: listening on {}", socket.display());
    match &journal_dir {
        Some(dir) => diagln!("ggd serve: journaling jobs under {}", dir.display()),
        None => diagln!("ggd serve: journal disabled; a crash forgets all jobs"),
    }
    server.wait();
    diagln!("ggd serve: shut down");
    Ok(())
}

fn cmd_submit(o: &Opts) -> Result<(), Error> {
    let name = o.positionals.first().map(String::as_str).ok_or_else(|| {
        Error::InvalidArgs("submit needs a job kind (explore|harden|analyze)".into())
    })?;
    let kind = JobKind::from_name(name).ok_or_else(|| {
        Error::InvalidArgs(format!(
            "unknown job kind '{name}' (expected explore, harden, or analyze)"
        ))
    })?;
    let spec = job_spec(o, kind)?;
    let mut client = Client::connect(&o.socket())?;
    let id = client.submit(&spec)?;
    println!("job {id}");
    Ok(())
}

fn print_status(s: &gg_serve::JobStatus) {
    println!(
        "job {} {} {} {}  priority {}  steps {}/{}  events {}{}",
        s.id,
        s.kind.as_str(),
        s.design,
        s.state.as_str(),
        s.priority,
        s.steps_done,
        s.steps_total,
        s.events,
        s.error
            .as_deref()
            .map(|e| format!("  error: {e}"))
            .unwrap_or_default()
    );
}

fn cmd_watch(o: &Opts) -> Result<(), Error> {
    let id = o.job_id()?;
    let mut client = Client::connect(&o.socket())?;
    let status = client.watch(id, o.from.unwrap_or(0), |e| {
        println!("{}", describe_event(e));
    })?;
    print_status(&status);
    Ok(())
}

fn main() -> Result<(), Error> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    args.retain(|a| a != "--verbose" && a != "-v");
    if verbose {
        obs::set_enabled(true);
    }
    let outcome = dispatch(&args);
    // Render telemetry even when the command failed — the old
    // `process::exit` paths silently dropped it.
    if verbose {
        let snap = obs::snapshot();
        if !snap.is_empty() {
            diagln!("{}", snap.render());
        }
    }
    outcome
}

/// Rejects positional arguments beyond what `command` takes: the job
/// kind for `submit`, the job id for the per-job client commands, none
/// elsewhere. Unknown commands fall through to their own error.
fn check_positionals(command: &str, o: &Opts) -> Result<(), Error> {
    let allowed = match command {
        "submit" | "status" | "watch" | "pause" | "resume" | "cancel" | "result" => 1,
        "list" | "analyze" | "harden" | "explore" | "serve" | "jobs" | "stats" | "shutdown" => 0,
        _ => return Ok(()),
    };
    let Some(extra) = o.positionals.get(allowed) else {
        return Ok(());
    };
    let hint = match command {
        "analyze" | "harden" | "explore" | "submit" => "; name the design with --design <name>",
        _ => "",
    };
    Err(Error::InvalidArgs(format!(
        "unexpected argument '{extra}' for {command}{hint}"
    )))
}

fn dispatch(args: &[String]) -> Result<(), Error> {
    let Some(command) = args.first().map(String::as_str) else {
        diagln!("{USAGE}");
        return Err(Error::InvalidArgs("no command given".into()));
    };
    if command == "--help" || command == "-h" || command == "help" {
        diagln!("{USAGE}");
        return Ok(());
    }
    let o = parse_opts(&args[1..])?;
    if o.help {
        diagln!("{USAGE}");
        return Ok(());
    }
    check_positionals(command, &o)?;
    match command {
        "list" => {
            cmd_list();
            Ok(())
        }
        "analyze" => cmd_analyze(&o),
        "harden" => cmd_harden(&o),
        "explore" => {
            let spec = job_spec(&o, JobKind::Explore)?;
            if o.socket.is_some() || std::env::var_os("GGD_SOCKET").is_some() {
                cmd_explore_remote(&o, &spec)
            } else {
                cmd_explore_local(&spec)
            }
        }
        "serve" => cmd_serve(&o),
        "submit" => cmd_submit(&o),
        "status" => {
            let s = Client::connect(&o.socket())?.status(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "pause" => {
            let s = Client::connect(&o.socket())?.pause(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "resume" => {
            let s = Client::connect(&o.socket())?.resume(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "cancel" => {
            let s = Client::connect(&o.socket())?.cancel(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "watch" => cmd_watch(&o),
        "result" => {
            let payload = Client::connect(&o.socket())?.result(o.job_id()?)?;
            print!("{}", ggjson::to_string_pretty(&payload));
            Ok(())
        }
        "jobs" => {
            for s in Client::connect(&o.socket())?.jobs()? {
                print_status(&s);
            }
            Ok(())
        }
        "stats" => {
            let stats = Client::connect(&o.socket())?.stats()?;
            print!("{}", ggjson::to_string_pretty(&stats.to_json()));
            Ok(())
        }
        "shutdown" => Client::connect(&o.socket())?.shutdown(),
        other => {
            diagln!("{USAGE}");
            Err(Error::InvalidArgs(format!("unknown command '{other}'")))
        }
    }
}
