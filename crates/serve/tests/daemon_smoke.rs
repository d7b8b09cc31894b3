//! End-to-end daemon drill over the real `ggd` binary and a real
//! Unix-domain socket: start `ggd serve`, submit a TINY explore plus a
//! higher-priority analyze, stream progress events, pause and resume the
//! explore mid-watch, and assert the final front is bit-identical to
//! both the library one-shot and the one-shot CLI's stdout.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use gdsii_guard::prelude::*;
use gg_serve::{BaselineSummary, Client, JobSpec, JobState};
use ggjson::ToJson;
use tech::Technology;

const POP: usize = 4;
const GENS: usize = 2;

struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gg-daemon-smoke-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let socket = dir.join("ggd.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_ggd"))
            .args([
                "serve",
                "--socket",
                socket.to_str().expect("utf-8 path"),
                "--data-dir",
                dir.join("data").to_str().expect("utf-8 path"),
                // Journal into the scratch dir, not the CWD-relative
                // default: a stale journal from a previous run would be
                // recovered as extra jobs and skew the stats asserts.
                "--journal-dir",
                dir.join("journal").to_str().expect("utf-8 path"),
                "--runners",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ggd serve");
        Self { child, socket, dir }
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(&self.socket, Duration::from_secs(30)).expect("daemon comes up")
    }

    fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.shutdown();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn tiny_explore() -> JobSpec {
    let mut spec = JobSpec::explore("TINY");
    spec.population = POP;
    spec.generations = GENS;
    spec
}

/// The library one-shot reference run every daemon result must match.
fn oracle() -> ExploreResult {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech).expect("tiny baseline");
    let params = Nsga2Params::builder()
        .population(POP)
        .generations(GENS)
        .build();
    explore(&base, &tech, &params)
}

/// Reproduces the exact stdout `ggd explore` prints for a result, using
/// the same library pieces the binary uses.
fn expected_cli_stdout(result: &ExploreResult) -> String {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech).expect("tiny baseline");
    let mut out = String::new();
    out.push_str(&BaselineSummary::from_snapshot(&base).render("baseline"));
    out.push('\n');
    out.push_str(&format!(
        "evaluated {} configurations; Pareto front:\n",
        result.points.len()
    ));
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
        out.push_str(&format!(
            "  security {:.3}  TNS {:>9.1} ps  power {:.3} mW  DRC {:>3}  {}\n",
            p.metrics.security, p.metrics.tns_ps, p.metrics.power_mw, p.metrics.drc, op
        ));
    }
    out
}

#[test]
fn daemon_round_trip_streams_pauses_and_matches_one_shot() {
    let reference = oracle();
    let reference_json = ggjson::to_string_pretty(&reference.to_json());

    let daemon = Daemon::start("roundtrip");
    let mut control = daemon.client();
    control.ping().expect("daemon answers ping");

    // Two jobs at different priorities share the one TINY baseline: the
    // analyze outranks the explore and runs first.
    let mut watcher = daemon.client();
    let explore_id = control.submit(&tiny_explore()).expect("submit explore");
    let analyze_id = control
        .submit(&JobSpec {
            priority: 9,
            ..JobSpec::analyze("TINY")
        })
        .expect("submit analyze");

    // Stream the explore. On the first generation event, pause from the
    // control connection, verify, then resume — mid-watch, over the
    // socket, without perturbing the result.
    let mut generations_seen = 0u32;
    let mut paused_once = false;
    let final_status = watcher
        .watch(explore_id, 0, |event| {
            if event.kind == "generation" {
                generations_seen += 1;
                if !paused_once {
                    paused_once = true;
                    let paused = control.pause(explore_id).expect("pause over socket");
                    assert!(
                        matches!(paused.state, JobState::Paused | JobState::Running),
                        "pause lands immediately (queued) or at the next boundary (running)"
                    );
                    // Give a running step a moment to reach its boundary,
                    // then resume whatever state we parked it in.
                    let deadline = std::time::Instant::now() + Duration::from_secs(30);
                    loop {
                        let s = control.status(explore_id).expect("status");
                        if s.state == JobState::Paused || std::time::Instant::now() > deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    control.resume(explore_id).expect("resume over socket");
                }
            }
        })
        .expect("watch to completion");
    assert_eq!(final_status.state, JobState::Done);
    assert!(
        generations_seen >= 1,
        "watch streamed at least one generation progress event"
    );
    assert!(paused_once, "the pause/resume drill actually ran");

    // Event stream shape: queued → started → baseline → generations.
    let mut replay = daemon.client();
    let mut kinds = Vec::new();
    replay
        .watch(explore_id, 0, |e| kinds.push(e.kind.clone()))
        .expect("replay event stream");
    assert_eq!(&kinds[..2], ["queued", "started"]);
    assert!(kinds.contains(&"baseline".to_owned()));
    assert!(
        kinds.iter().any(|k| k == "paused"),
        "stream records the pause"
    );
    assert!(
        kinds.iter().any(|k| k == "resumed"),
        "stream records the resume"
    );
    assert_eq!(kinds.last().map(String::as_str), Some("done"));

    // The analyze job finished too, and the daemon built TINY only once.
    let analyze_status = control.status(analyze_id).expect("status");
    assert_eq!(analyze_status.state, JobState::Done);
    let stats = control.stats().expect("stats");
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.baseline_builds, 1, "shared baseline cache");
    assert!(stats.baseline_hits >= 1);

    // Bit-identity: the daemon's ExploreResult equals the library
    // one-shot, despite the pause/resume and the interleaved job.
    let payload = control.result(explore_id).expect("result");
    let daemon_json = ggjson::to_string_pretty(payload.get("explore").expect("explore payload"));
    assert_eq!(
        daemon_json, reference_json,
        "daemon explore (paused, resumed, interleaved) must be bit-identical \
         to the one-shot library run"
    );

    daemon.shutdown();

    // And the one-shot CLI prints exactly the front this result renders.
    let cli = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["explore", "--design", "TINY", "--pop", "4", "--gens", "2"])
        .stderr(Stdio::null())
        .output()
        .expect("run one-shot ggd explore");
    assert!(cli.status.success(), "one-shot CLI succeeds");
    let stdout = String::from_utf8(cli.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout,
        expected_cli_stdout(&reference),
        "one-shot CLI stdout is pinned bit-identical to the library result"
    );
}

#[test]
fn cli_rejects_unknown_flags_and_prints_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["explore", "--design", "TINY", "--no-such-flag"])
        .output()
        .expect("run ggd");
    assert!(!out.status.success(), "unknown flags are errors");
    let mut all = String::new();
    all.push_str(&String::from_utf8_lossy(&out.stderr));
    assert!(all.contains("--no-such-flag") || all.contains("no-such-flag"));

    let help = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["--help"])
        .output()
        .expect("run ggd --help");
    assert!(help.status.success(), "--help exits cleanly");
    let text = String::from_utf8_lossy(&help.stderr);
    assert!(text.contains("usage: ggd"));
    assert!(text.contains("serve"), "help documents the daemon");
}

#[test]
fn positional_design_is_rejected_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["analyze", "TINY"])
        .output()
        .expect("run ggd analyze TINY");
    assert!(!out.status.success(), "a positional design is an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("TINY"), "error names the stray argument");
    assert!(stderr.contains("--design"), "error names the flag");
}

/// Runs a one-shot `ggd explore` on TINY with the smoke population and
/// extra flags, returning `(stdout, stderr)` of a successful run.
fn one_shot_explore(extra: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["explore", "--design", "TINY", "--pop", "4", "--gens", "2"])
        .args(extra)
        .output()
        .expect("run one-shot ggd explore");
    assert!(out.status.success(), "one-shot explore succeeds");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn one_shot_explore_never_resumes_an_uninterrupted_run() {
    let (_, stderr) = one_shot_explore(&[]);
    assert!(
        !stderr.contains("resumed from checkpoint"),
        "a plain one-shot run has no checkpoint to resume from:\n{stderr}"
    );
}

#[test]
fn one_shot_checkpoint_resume_prints_identical_stdout() {
    let dir = std::env::temp_dir().join(format!("gg-oneshot-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let ckpt = dir.join("explore.ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 path");
    let (first, _) = one_shot_explore(&["--checkpoint", ckpt]);
    let (resumed, _) = one_shot_explore(&["--checkpoint", ckpt, "--resume"]);
    assert_eq!(first, resumed, "a resumed run prints the same front");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verbose_telemetry_renders_on_error_paths() {
    // An unknown design fails the command, but --verbose telemetry (and
    // the error itself) must still reach stderr: the old process::exit
    // paths dropped the obs render.
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["--verbose", "analyze", "--design", "NO_SUCH"])
        .output()
        .expect("run ggd");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("NO_SUCH"),
        "error diagnostic names the design"
    );
    let mut read_all = String::new();
    let _ = (&out.stderr[..]).read_to_string(&mut read_all);
}
