//! The `ggjson`-over-Unix-socket wire protocol.
//!
//! Newline-delimited: every request and every response is one compact
//! JSON object per line (`ggjson::to_string_compact` never emits literal
//! newlines — control characters inside strings are escaped). Requests
//! carry the protocol version; most get exactly one response line, and
//! `watch` streams zero or more `{"event": …}` lines before its final
//! `{"ok": …}` / `{"err": …}`.
//!
//! | request                                        | response lines                       |
//! |------------------------------------------------|--------------------------------------|
//! | `{"v":1,"req":"ping"}`                         | `{"ok":"pong"}`                      |
//! | `{"v":1,"req":"submit","job":{…}}`             | `{"ok":{"job":<id>}}`                |
//! | `{"v":1,"req":"status","job":N}`               | `{"ok":<JobStatus>}`                 |
//! | `{"v":1,"req":"watch","job":N,"from":K}`       | `{"event":<JobEvent>}`* then `{"ok":<JobStatus>}` |
//! | `{"v":1,"req":"pause","job":N}`                | `{"ok":<JobStatus>}`                 |
//! | `{"v":1,"req":"resume","job":N}`               | `{"ok":<JobStatus>}`                 |
//! | `{"v":1,"req":"cancel","job":N}`               | `{"ok":<JobStatus>}`                 |
//! | `{"v":1,"req":"result","job":N}`               | `{"ok":<result payload>}`            |
//! | `{"v":1,"req":"jobs"}`                         | `{"ok":[<JobStatus>…]}`              |
//! | `{"v":1,"req":"stats"}`                        | `{"ok":<ServerStats>}`               |
//! | `{"v":1,"req":"shutdown"}`                     | `{"ok":"bye"}`                       |
//!
//! Any failure is a single `{"err":"diagnostic"}` line; the connection
//! stays usable for further requests either way. A submit refused by
//! admission control (queue depth or memory budget, see
//! [`crate::ServerConfig`]) gets `{"busy":"why"}` instead — a
//! *retryable* refusal the client retries with jittered backoff, unlike
//! the terminal `{"err":…}`.

use gdsii_guard::Error;
use ggjson::{FromJson, Json, ToJson};

use crate::job::{JobEvent, JobSpec};

/// Wire protocol version spoken by [`crate::Server`] and
/// [`crate::Client`].
pub const PROTO_VERSION: u32 = 1;

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Queue a job.
    Submit(JobSpec),
    /// One job's status.
    Status(u64),
    /// Stream a job's events from stream position `from` until terminal.
    Watch {
        /// Job id.
        job: u64,
        /// Event stream cursor (0 = from the beginning).
        from: u64,
    },
    /// Park a job at its next generation boundary.
    Pause(u64),
    /// Re-queue a paused job.
    Resume(u64),
    /// Cancel a job.
    Cancel(u64),
    /// Final result payload of a done job.
    Result(u64),
    /// Status of all jobs.
    Jobs,
    /// Scheduler and baseline-cache counters.
    Stats,
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Encodes as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut members = vec![
            ("v".to_owned(), Json::Num(f64::from(PROTO_VERSION))),
            ("req".to_owned(), Json::Str(self.name().to_owned())),
        ];
        match self {
            Request::Ping | Request::Jobs | Request::Stats | Request::Shutdown => {}
            Request::Submit(spec) => members.push(("job".to_owned(), spec.to_json())),
            Request::Status(id)
            | Request::Pause(id)
            | Request::Resume(id)
            | Request::Cancel(id)
            | Request::Result(id) => {
                members.push(("job".to_owned(), Json::Num(*id as f64)));
            }
            Request::Watch { job, from } => {
                members.push(("job".to_owned(), Json::Num(*job as f64)));
                members.push(("from".to_owned(), Json::Num(*from as f64)));
            }
        }
        ggjson::to_string_compact(&Json::Obj(members))
    }

    /// Decodes one request line.
    pub fn from_line(line: &str) -> Result<Self, Error> {
        let j: Json = ggjson::from_str(line)
            .ok_or_else(|| Error::Serve(format!("malformed request line: {line}")))?;
        let v = j.get("v").and_then(Json::as_num);
        if v != Some(f64::from(PROTO_VERSION)) {
            return Err(Error::Serve(format!(
                "unsupported protocol version {:?} (this server speaks {PROTO_VERSION})",
                v
            )));
        }
        let req = j
            .get("req")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::Serve("request lacks a 'req' field".into()))?;
        let job_id = || {
            j.get("job")
                .and_then(u64::from_json)
                .ok_or_else(|| Error::Serve(format!("'{req}' needs a numeric 'job' field")))
        };
        match req {
            "ping" => Ok(Request::Ping),
            "jobs" => Ok(Request::Jobs),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "status" => Ok(Request::Status(job_id()?)),
            "pause" => Ok(Request::Pause(job_id()?)),
            "resume" => Ok(Request::Resume(job_id()?)),
            "cancel" => Ok(Request::Cancel(job_id()?)),
            "result" => Ok(Request::Result(job_id()?)),
            "watch" => Ok(Request::Watch {
                job: job_id()?,
                from: j.get("from").and_then(u64::from_json).unwrap_or(0),
            }),
            "submit" => {
                let spec = j
                    .get("job")
                    .and_then(JobSpec::from_json)
                    .ok_or_else(|| Error::Serve("'submit' needs a 'job' spec object".into()))?;
                Ok(Request::Submit(spec))
            }
            other => Err(Error::Serve(format!("unknown request '{other}'"))),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Submit(_) => "submit",
            Request::Status(_) => "status",
            Request::Watch { .. } => "watch",
            Request::Pause(_) => "pause",
            Request::Resume(_) => "resume",
            Request::Cancel(_) => "cancel",
            Request::Result(_) => "result",
            Request::Jobs => "jobs",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Request succeeded; the payload shape depends on the request.
    Ok(Json),
    /// Request failed; the payload is the diagnostic.
    Err(String),
    /// Request refused by admission control; retry after backoff. Maps
    /// to [`Error::Busy`] on the client side.
    Busy(String),
    /// One streamed job event (`watch` only, before the final `Ok`).
    Event(JobEvent),
}

impl Response {
    /// Encodes as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let obj = match self {
            Response::Ok(payload) => Json::Obj(vec![("ok".to_owned(), payload.clone())]),
            Response::Err(why) => Json::Obj(vec![("err".to_owned(), Json::Str(why.clone()))]),
            Response::Busy(why) => Json::Obj(vec![("busy".to_owned(), Json::Str(why.clone()))]),
            Response::Event(e) => Json::Obj(vec![("event".to_owned(), e.to_json())]),
        };
        ggjson::to_string_compact(&obj)
    }

    /// Decodes one response line.
    pub fn from_line(line: &str) -> Result<Self, Error> {
        let j: Json = ggjson::from_str(line)
            .ok_or_else(|| Error::Serve(format!("malformed response line: {line}")))?;
        if let Some(payload) = j.get("ok") {
            return Ok(Response::Ok(payload.clone()));
        }
        if let Some(why) = j.get("err").and_then(Json::as_str) {
            return Ok(Response::Err(why.to_owned()));
        }
        if let Some(why) = j.get("busy").and_then(Json::as_str) {
            return Ok(Response::Busy(why.to_owned()));
        }
        if let Some(e) = j.get("event") {
            let event = JobEvent::from_json(e)
                .ok_or_else(|| Error::Serve("malformed event payload".into()))?;
            return Ok(Response::Event(event));
        }
        Err(Error::Serve(format!(
            "response is neither ok, err, busy, nor event: {line}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Jobs,
            Request::Stats,
            Request::Shutdown,
            Request::Status(3),
            Request::Pause(4),
            Request::Resume(5),
            Request::Cancel(6),
            Request::Result(7),
            Request::Watch { job: 8, from: 12 },
            Request::Submit(JobSpec::explore("TINY")),
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(Request::from_line(&line).expect("round trip"), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Ok(Json::Str("pong".into())),
            Response::Err("no job 9".into()),
            Response::Busy("7 jobs queued (limit 4)".into()),
            Response::Event(JobEvent {
                seq: 0,
                tick: 4,
                kind: "queued".into(),
                generation: None,
                data: Json::Null,
            }),
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::from_line(&line).expect("round trip"), r);
        }
    }

    #[test]
    fn version_mismatch_is_refused() {
        assert!(Request::from_line("{\"v\":2,\"req\":\"ping\"}").is_err());
        assert!(Request::from_line("{\"req\":\"ping\"}").is_err());
    }
}
