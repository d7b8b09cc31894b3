//! Exploration-as-a-service: the `ggd` command-line front end and the
//! `ggd serve` job daemon, built on the `gdsii_guard` algorithm library.
//! The dependency runs one way: this crate uses the library's public
//! API, and the library knows nothing of sockets or journals.
//!
//! The one-shot CLI builds a design's baseline, runs one command, and
//! throws the baseline away. This crate turns the same pipeline into a
//! long-lived **job server**: clients submit explore/harden/analyze jobs
//! over a Unix-domain socket (or in process), a scheduler feeds them to
//! runner threads by priority, and every job over the same design shares
//! one lazily-built [`baseline::BaselineCache`] entry — baseline
//! placement, routing, STA graph, and power model are built once per
//! design per server lifetime, not once per command.
//!
//! The moving parts:
//!
//! - [`job`] — versioned [`JobSpec`]s ([`JOB_SPEC_VERSION`]), the
//!   lifecycle state machine ([`JobState`]), and the per-job event
//!   stream ([`JobEvent`]).
//! - `registry` *(internal)* — queue and state transitions: strict
//!   priority, FIFO within a class, pause/cancel landing at generation
//!   boundaries.
//! - [`baseline`] — the per-design shared [`baseline::DesignContext`]
//!   (spec + evaluation engine + headline summary).
//! - [`server`] — runner threads and the socket front end. Explore jobs
//!   are **generation-stepped**: each scheduler step runs exactly one
//!   NSGA-II generation via [`gdsii_guard::nsga2::explore_with_engine`] with
//!   `halt_after`, persisting the standard checkpoint envelope, so
//!   pause/resume/cancel reuse [`gdsii_guard::checkpoint`] verbatim and a
//!   paused-and-resumed job is bit-identical to an uninterrupted one.
//! - [`journal`] — the durable job journal: a checksummed write-ahead
//!   log of lifecycle transitions. On restart the server replays it,
//!   re-queues non-terminal jobs in original order, and resumes explores
//!   from their per-job checkpoints bit-identically (DESIGN.md §2j).
//! - [`proto`] — the newline-delimited `ggjson` wire protocol
//!   ([`proto::PROTO_VERSION`], message table in the module docs).
//! - [`client`] — the typed client the `ggd` subcommands wrap, with
//!   bounded jittered-backoff retries, reconnection, and idempotent
//!   submits via dedup tokens.
//!
//! ```no_run
//! use gg_serve::{Client, JobSpec, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     socket: Some("/tmp/ggd.sock".into()),
//!     ..ServerConfig::default()
//! })?;
//! let mut client = Client::connect(std::path::Path::new("/tmp/ggd.sock"))?;
//! let job = client.submit(&JobSpec::explore("TINY"))?;
//! let status = client.watch(job, 0, |e| eprintln!("[{}] {}", e.tick, e.kind))?;
//! println!("{:?}", status.state);
//! server.stop();
//! # Ok::<(), gdsii_guard::Error>(())
//! ```

// The daemon must never be brought down by a request: failures surface as
// typed errors or job-failure events, so bare `unwrap()` is denied
// outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod baseline;
pub mod client;
pub mod job;
pub mod journal;
pub mod proto;
pub(crate) mod registry;
pub mod server;

pub use baseline::{BaselineCache, DesignContext};
pub use client::{Client, RetryPolicy};
pub use job::{BaselineSummary, JobEvent, JobKind, JobSpec, JobState, JobStatus, JOB_SPEC_VERSION};
pub use journal::{Journal, JournalRecord};
pub use server::{Server, ServerConfig, ServerStats};
