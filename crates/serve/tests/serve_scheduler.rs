//! Scheduler-level tests of the in-process job server: priority order
//! across kinds, shared baseline cache, and the headline guarantee —
//! pause/resume at generation boundaries is bit-identical to an
//! uninterrupted run.
//!
//! Everything runs with `runners: 0`, so the test owns the clock:
//! [`Server::step_once`] executes exactly one scheduler step per call.

use gdsii_guard::prelude::*;
use gdsii_guard::Error;
use gg_serve::{JobSpec, JobState, Server, ServerConfig};
use ggjson::ToJson;
use tech::Technology;

fn test_server(tag: &str) -> Server {
    let data_dir =
        std::env::temp_dir().join(format!("gg-serve-scheduler-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    Server::start(ServerConfig {
        socket: None,
        data_dir: Some(data_dir),
        runners: 0,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn tiny_explore() -> JobSpec {
    let mut spec = JobSpec::explore("TINY");
    spec.population = 4;
    spec.generations = 2;
    spec
}

fn event_tick(server: &Server, id: u64, kind: &str) -> Option<u64> {
    let (events, _) = server.events_since(id, 0, false).expect("job exists");
    events.iter().find(|e| e.kind == kind).map(|e| e.tick)
}

#[test]
fn higher_priority_jobs_run_first_across_kinds() {
    let server = test_server("priority");
    let explore = server.submit(tiny_explore()).expect("submit");
    let urgent = server
        .submit(JobSpec {
            priority: 9,
            ..JobSpec::analyze("TINY")
        })
        .expect("submit");
    server.run_until_idle();
    assert_eq!(server.status(urgent).expect("status").state, JobState::Done);
    assert_eq!(
        server.status(explore).expect("status").state,
        JobState::Done
    );
    // The analyze job was submitted second but outranks the explore: its
    // start tick precedes the explore's (ticks are server-global).
    let urgent_started = event_tick(&server, urgent, "started").expect("urgent started");
    let explore_started = event_tick(&server, explore, "started").expect("explore started");
    assert!(
        urgent_started < explore_started,
        "priority 9 analyze (tick {urgent_started}) must start before \
         priority 0 explore (tick {explore_started})"
    );
    server.stop();
}

#[test]
fn concurrent_jobs_share_one_baseline_build() {
    let server = test_server("cache");
    let a = server.submit(tiny_explore()).expect("submit");
    let b = server.submit(JobSpec::analyze("TINY")).expect("submit");
    server.run_until_idle();
    assert_eq!(server.status(a).expect("status").state, JobState::Done);
    assert_eq!(server.status(b).expect("status").state, JobState::Done);
    let stats = server.stats();
    assert_eq!(stats.jobs, 2);
    assert_eq!(
        stats.baseline_builds, 1,
        "one TINY baseline build serves every job"
    );
    // Every step after the first hits the cache: the explore has 3
    // steps (gens 0..=2) and the analyze 1, so 3 hits follow the build.
    assert_eq!(stats.baseline_hits, 3);
    // The memory gauges see the one cached baseline: real occupancy and
    // usage-plane bytes, and a peak RSS (procfs) on Linux runners.
    assert!(stats.occupancy_bytes > 0, "cached baseline occupancy bytes");
    assert!(stats.route_planes_bytes > 0, "cached baseline plane bytes");
    if cfg!(target_os = "linux") {
        assert!(stats.peak_rss_bytes > 0, "VmHWM readable");
    }
    server.stop();
}

#[test]
fn paused_and_resumed_explore_is_bit_identical() -> Result<(), Error> {
    // One-shot oracle, no server involved.
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech)?;
    let spec = tiny_explore();
    let params = Nsga2Params::builder()
        .population(spec.population)
        .generations(spec.generations)
        .build();
    let oracle = explore(&base, &tech, &params);
    let oracle_json = ggjson::to_string_pretty(&oracle.to_json());

    let server = test_server("pause-resume");

    // An uninterrupted server job first: submit-and-run matches one-shot.
    let plain = server.submit(spec.clone())?;
    server.run_until_idle();
    let plain_payload = server.result(plain)?;
    let plain_json =
        ggjson::to_string_pretty(plain_payload.get("explore").expect("explore payload"));
    assert_eq!(
        plain_json, oracle_json,
        "server explore must be bit-identical to the one-shot API"
    );

    // Now the same job paused at every generation boundary and resumed.
    let interrupted = server.submit(spec)?;
    loop {
        assert!(server.step_once(), "job still has steps");
        let status = server.status(interrupted)?;
        if status.state == JobState::Done {
            break;
        }
        server.pause(interrupted)?;
        assert_eq!(
            server.status(interrupted)?.state,
            JobState::Paused,
            "a queued job pauses at the boundary it just reached"
        );
        server.resume(interrupted)?;
    }
    let (events, _) = server.events_since(interrupted, 0, false)?;
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    assert!(
        kinds.iter().filter(|k| **k == "paused").count() >= 2,
        "job was paused at interior generation boundaries: {kinds:?}"
    );
    let interrupted_payload = server.result(interrupted)?;
    let interrupted_json =
        ggjson::to_string_pretty(interrupted_payload.get("explore").expect("explore payload"));
    assert_eq!(
        interrupted_json, oracle_json,
        "pause/resume at every generation boundary must not change results"
    );
    server.stop();
    Ok(())
}

#[test]
fn cancelled_queued_job_never_runs_while_neighbor_finishes() {
    let server = test_server("cancel");
    let keep = server.submit(JobSpec::analyze("TINY")).expect("submit");
    let drop_it = server.submit(tiny_explore()).expect("submit");
    server.cancel(drop_it).expect("cancel queued job");
    server.run_until_idle();
    assert_eq!(server.status(keep).expect("status").state, JobState::Done);
    let status = server.status(drop_it).expect("status");
    assert_eq!(status.state, JobState::Cancelled);
    assert_eq!(status.steps_done, 0, "cancelled before any step ran");
    assert!(server.result(drop_it).is_err());
    server.stop();
}

#[test]
fn bad_specs_and_unknown_designs_fail_cleanly() {
    let server = test_server("failures");
    // Version mismatch is refused at submit.
    let mut wrong = JobSpec::analyze("TINY");
    wrong.version = 99;
    assert!(server.submit(wrong).is_err());
    // Unknown designs pass submit (the spec is well-formed) but fail
    // their first step with the resolver's diagnostic.
    let id = server
        .submit(JobSpec::analyze("NO_SUCH_DESIGN"))
        .expect("submit");
    server.run_until_idle();
    let status = server.status(id).expect("status");
    assert_eq!(status.state, JobState::Failed);
    assert!(
        status.error.unwrap_or_default().contains("NO_SUCH_DESIGN"),
        "failure diagnostic names the design"
    );
    server.stop();
}
