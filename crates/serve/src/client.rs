//! The typed socket client the `ggd` subcommands are built on.
//!
//! One [`Client`] is one logical connection; requests are serialized on
//! it in order (the protocol has no interleaving), so a long `watch`
//! occupies the connection until the job ends — open a second client for
//! concurrent control traffic.
//!
//! The client is **resilient**: transport failures (connect refused,
//! torn response line, server restart mid-request) are retried up to
//! [`RetryPolicy::attempts`] times with jittered exponential backoff,
//! reconnecting between attempts; a [`crate::proto::Response::Busy`]
//! admission refusal is likewise retried without reconnecting. Retrying
//! a submit is safe because every submit carries a `dedup` idempotency
//! token (auto-generated when the spec has none): a resubmit the server
//! already executed returns the existing job id instead of double-
//! queueing. Retries are counted in the `client.retries` obs counter.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gdsii_guard::Error;
use ggjson::{FromJson, Json};

use crate::job::{JobEvent, JobSpec, JobStatus};
use crate::proto::{Request, Response};
use crate::server::ServerStats;

/// Bounded-retry backoff policy for transport failures and `Busy`
/// admission refusals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (1 = no retries).
    pub attempts: u32,
    /// Delay before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Ceiling on the per-retry delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, fail fast).
    pub fn none() -> Self {
        Self {
            attempts: 1,
            ..Self::default()
        }
    }

    /// The delay before retry number `retry` (1-based), jittered
    /// deterministically from `salt` into the upper half of the
    /// exponential window — spreads reconnect stampedes without an RNG
    /// dependency.
    pub fn backoff(&self, retry: u32, salt: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.min(16).saturating_sub(1))
            .min(self.max_delay);
        let h = faults::splitmix64(salt ^ u64::from(retry).rotate_left(32));
        // Jitter factor in [0.5, 1.0).
        let factor = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(factor)
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// A connection to a running `ggd serve` daemon.
pub struct Client {
    socket: PathBuf,
    policy: RetryPolicy,
    conn: Option<Conn>,
    /// Jitter/dedup salt, unique per client instance.
    salt: u64,
    token_counter: AtomicU64,
}

fn client_salt() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    faults::splitmix64(nanos ^ (u64::from(std::process::id()) << 32))
}

fn dial(socket: &Path) -> Result<Conn, Error> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| Error::Serve(format!("cannot connect to {}: {e}", socket.display())))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| Error::Serve(format!("cannot clone socket: {e}")))?;
    Ok(Conn {
        reader: BufReader::new(read_half),
        writer: stream,
    })
}

impl Client {
    /// Connects to the daemon's Unix-domain socket with the default
    /// [`RetryPolicy`].
    pub fn connect(socket: &Path) -> Result<Self, Error> {
        Self::with_policy(socket, RetryPolicy::default())
    }

    /// Connects with an explicit retry policy. The initial connect is
    /// itself retried per the policy.
    pub fn with_policy(socket: &Path, policy: RetryPolicy) -> Result<Self, Error> {
        let mut client = Self {
            socket: socket.to_path_buf(),
            policy,
            conn: None,
            salt: client_salt(),
            token_counter: AtomicU64::new(0),
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// Like [`Client::connect`], but keeps retrying for up to `patience`
    /// while the daemon is still binding its socket (jittered backoff
    /// between attempts).
    pub fn connect_with_retry(socket: &Path, patience: Duration) -> Result<Self, Error> {
        let policy = RetryPolicy::default();
        let salt = client_salt();
        let start = std::time::Instant::now();
        let mut retry = 0u32;
        loop {
            match Self::with_policy(socket, policy) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= patience => return Err(e),
                Err(_) => {
                    retry += 1;
                    std::thread::sleep(policy.backoff(retry, salt).min(Duration::from_millis(100)));
                }
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, Error> {
        if self.conn.is_none() {
            self.conn = Some(dial(&self.socket)?);
        }
        match self.conn.as_mut() {
            Some(c) => Ok(c),
            None => Err(Error::Serve("connection unavailable".into())),
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), Error> {
        let mut line = req.to_line();
        line.push('\n');
        let conn = self.ensure_conn()?;
        conn.writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.flush())
            .map_err(|e| Error::Serve(format!("cannot send request: {e}")))
    }

    /// Reads one complete response line. A line without its trailing
    /// newline is *torn* (the server died mid-write): it is reported as
    /// a transport error, never parsed — the retry layer reconnects and
    /// reissues rather than acting on a half response.
    fn recv(&mut self) -> Result<Response, Error> {
        let conn = self.ensure_conn()?;
        let mut line = String::new();
        let n = conn
            .reader
            .read_line(&mut line)
            .map_err(|e| Error::Serve(format!("cannot read response: {e}")))?;
        if n == 0 {
            return Err(Error::Serve("server closed the connection".into()));
        }
        if !line.ends_with('\n') {
            return Err(Error::Serve(format!(
                "torn response line ({n} bytes, no newline)"
            )));
        }
        Response::from_line(line.trim_end())
    }

    /// One send+recv on the current connection; any failure is a
    /// transport error from the caller's perspective.
    fn try_once(&mut self, req: &Request) -> Result<Response, Error> {
        self.send(req)?;
        self.recv()
    }

    /// Sends a single-response request and returns the `ok` payload,
    /// retrying transport failures (with reconnect) and `Busy` refusals
    /// (without) per the policy. All requests are idempotent — submits
    /// by virtue of their dedup token.
    fn round_trip(&mut self, req: &Request) -> Result<Json, Error> {
        let mut last = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                metrics().retries.incr();
                std::thread::sleep(self.policy.backoff(attempt, self.salt));
            }
            match self.try_once(req) {
                Ok(Response::Ok(payload)) => return Ok(payload),
                Ok(Response::Err(why)) => return Err(Error::Serve(why)),
                Ok(Response::Event(_)) => {
                    return Err(Error::Serve(
                        "unexpected event outside a watch stream".into(),
                    ))
                }
                Ok(Response::Busy(why)) => {
                    // Admission refusal: the connection is healthy; just
                    // wait for load to drain.
                    last = Some(Error::Busy(why));
                }
                Err(transport) => {
                    self.conn = None;
                    last = Some(transport);
                }
            }
        }
        Err(last.unwrap_or_else(|| Error::Serve("request failed".into())))
    }

    fn typed<T: FromJson>(&mut self, req: &Request, what: &str) -> Result<T, Error> {
        let payload = self.round_trip(req)?;
        T::from_json(&payload)
            .ok_or_else(|| Error::Serve(format!("malformed {what} payload from server")))
    }

    /// A fresh idempotency token, unique across processes and client
    /// instances.
    fn fresh_token(&self) -> String {
        let n = self.token_counter.fetch_add(1, Ordering::Relaxed);
        format!("c{:016x}-{n}", self.salt)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), Error> {
        self.round_trip(&Request::Ping).map(|_| ())
    }

    /// Queues a job; returns its id. A spec without a `dedup` token gets
    /// a fresh one so transport retries cannot double-queue the job.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, Error> {
        let mut spec = spec.clone();
        if spec.dedup.is_none() {
            spec.dedup = Some(self.fresh_token());
        }
        let payload = self.round_trip(&Request::Submit(spec))?;
        payload
            .get("job")
            .and_then(u64::from_json)
            .ok_or_else(|| Error::Serve("submit reply lacks a job id".into()))
    }

    /// Point-in-time status of one job.
    pub fn status(&mut self, id: u64) -> Result<JobStatus, Error> {
        self.typed(&Request::Status(id), "status")
    }

    /// Status of every job, in submit order.
    pub fn jobs(&mut self) -> Result<Vec<JobStatus>, Error> {
        self.typed(&Request::Jobs, "jobs")
    }

    /// Parks a job at its next generation boundary; returns its status.
    pub fn pause(&mut self, id: u64) -> Result<JobStatus, Error> {
        self.typed(&Request::Pause(id), "pause")
    }

    /// Re-queues a paused job; returns its status.
    pub fn resume(&mut self, id: u64) -> Result<JobStatus, Error> {
        self.typed(&Request::Resume(id), "resume")
    }

    /// Cancels a job; returns its status.
    pub fn cancel(&mut self, id: u64) -> Result<JobStatus, Error> {
        self.typed(&Request::Cancel(id), "cancel")
    }

    /// Final result payload of a done job.
    pub fn result(&mut self, id: u64) -> Result<Json, Error> {
        self.round_trip(&Request::Result(id))
    }

    /// Scheduler and baseline-cache counters.
    pub fn stats(&mut self) -> Result<ServerStats, Error> {
        self.typed(&Request::Stats, "stats")
    }

    /// Asks the daemon to shut down.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        self.round_trip(&Request::Shutdown).map(|_| ())
    }

    /// Streams a job's events from stream cursor `from` until the job is
    /// terminal, invoking `on_event` per event; returns the final status.
    ///
    /// Survives server restarts: on a transport failure the client
    /// reconnects (per policy) and re-subscribes from the cursor after
    /// the last delivered event, so no event is delivered twice and the
    /// retry budget resets whenever the stream makes progress.
    pub fn watch(
        &mut self,
        id: u64,
        from: u64,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<JobStatus, Error> {
        let mut cursor = from;
        let mut failures = 0u32;
        'resubscribe: loop {
            if let Err(e) = self.send(&Request::Watch {
                job: id,
                from: cursor,
            }) {
                self.conn = None;
                failures += 1;
                if failures >= self.policy.attempts.max(1) {
                    return Err(e);
                }
                metrics().retries.incr();
                std::thread::sleep(self.policy.backoff(failures, self.salt));
                continue 'resubscribe;
            }
            loop {
                match self.recv() {
                    Ok(Response::Event(e)) => {
                        cursor = e.seq + 1;
                        failures = 0;
                        on_event(&e);
                    }
                    Ok(Response::Ok(payload)) => {
                        return JobStatus::from_json(&payload).ok_or_else(|| {
                            Error::Serve("malformed final status from watch".into())
                        })
                    }
                    Ok(Response::Err(why)) => return Err(Error::Serve(why)),
                    Ok(Response::Busy(why)) => return Err(Error::Busy(why)),
                    Err(transport) => {
                        self.conn = None;
                        failures += 1;
                        if failures >= self.policy.attempts.max(1) {
                            return Err(transport);
                        }
                        metrics().retries.incr();
                        std::thread::sleep(self.policy.backoff(failures, self.salt));
                        continue 'resubscribe;
                    }
                }
            }
        }
    }
}

struct ClientMetrics {
    retries: obs::Counter,
}

fn metrics() -> &'static ClientMetrics {
    use std::sync::OnceLock;
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ClientMetrics {
        retries: obs::counter("client.retries"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::default();
        let d1 = p.backoff(1, 7);
        let d2 = p.backoff(2, 7);
        let d3 = p.backoff(3, 7);
        // Upper-half jitter: each delay sits in [exp/2, exp].
        assert!(d1 >= p.base_delay / 2 && d1 <= p.base_delay);
        assert!(d2 >= p.base_delay && d2 <= p.base_delay * 2);
        assert!(d3 >= p.base_delay * 2 && d3 <= p.base_delay * 4);
        // Deterministic per (retry, salt); different salts spread out.
        assert_eq!(p.backoff(1, 7), d1);
        assert!(
            (1..100u64).any(|s| p.backoff(1, s) != d1),
            "salt varies jitter"
        );
        // The cap holds even for absurd retry counts.
        assert!(p.backoff(40, 7) <= p.max_delay);
    }

    #[test]
    fn torn_lines_are_transport_errors() {
        use std::io::Read;
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir().join(format!("ggc-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let sock = dir.join("t.sock");
        let listener = UnixListener::bind(&sock).expect("bind");
        // A fake server that answers the first request with a *torn*
        // line (no trailing newline) and drops the connection, then
        // answers the retry properly.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept 1");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"{\"ok\":\"po").expect("torn write");
            drop(s);
            let (mut s, _) = listener.accept().expect("accept 2");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"{\"ok\":\"pong\"}\n").expect("full write");
        });
        let mut client = Client::with_policy(
            &sock,
            RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
            },
        )
        .expect("connect");
        client.ping().expect("retry recovers from the torn line");
        server.join().expect("fake server");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_attaches_a_dedup_token_and_retries_busy() {
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir().join(format!("ggc-busy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let sock = dir.join("b.sock");
        let listener = UnixListener::bind(&sock).expect("bind");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(s.try_clone().expect("clone"));
            let mut first = String::new();
            reader.read_line(&mut first).expect("read 1");
            s.write_all(b"{\"busy\":\"queue full\"}\n").expect("busy");
            let mut second = String::new();
            reader.read_line(&mut second).expect("read 2");
            s.write_all(b"{\"ok\":{\"job\":11}}\n").expect("ok");
            (first, second)
        });
        let mut client = Client::with_policy(
            &sock,
            RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
            },
        )
        .expect("connect");
        let id = client
            .submit(&JobSpec::analyze("TINY"))
            .expect("busy then ok");
        assert_eq!(id, 11);
        let (first, second) = server.join().expect("fake server");
        assert!(first.contains("\"dedup\":\"c"), "token attached: {first}");
        assert_eq!(first, second, "retry reissues the identical request");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_busy_retries_surface_as_error_busy() {
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir().join(format!("ggc-busy2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let sock = dir.join("b2.sock");
        let listener = UnixListener::bind(&sock).expect("bind");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(s.try_clone().expect("clone"));
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                s.write_all(b"{\"busy\":\"still full\"}\n").expect("busy");
            }
        });
        let mut client = Client::with_policy(
            &sock,
            RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            },
        )
        .expect("connect");
        match client.ping() {
            Err(Error::Busy(why)) => assert!(why.contains("still full")),
            other => panic!("expected Error::Busy, got {other:?}"),
        }
        server.join().expect("fake server");
        std::fs::remove_dir_all(&dir).ok();
    }
}
