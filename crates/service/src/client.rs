//! A small blocking loopback client for the release service.
//!
//! One `TcpStream` per call (the server is `Connection: close`), typed
//! request/response bodies from [`crate::api`]. Exists so integration
//! tests and examples can drive the service without hand-rolling HTTP;
//! it is deliberately not a general-purpose HTTP client.

use crate::api::{
    AuditView, ReleaseStatusView, ReleaseSubmission, SeasonCreate, SeasonCreated, SubmitReceipt,
};
use eree_core::definitions::PrivacyParams;
use eree_core::metrics::MetricsSnapshot;
use eree_core::ClosureReceipt;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A failure talking to the service.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, write, read).
    Io(std::io::Error),
    /// The service answered with an error status.
    Api {
        /// The HTTP status code.
        status: u16,
        /// The service's `error` message.
        message: String,
    },
    /// The response could not be parsed as expected.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Api { status, message } => {
                write!(f, "service refused ({status}): {message}")
            }
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A bounded retry schedule for transient failures: exponential backoff
/// with deterministic jitter, capped by both an attempt count and a wall
/// deadline — whichever trips first ends the retrying and surfaces the
/// last error.
///
/// Only *transient* failures retry (see [`RetryPolicy::is_transient`]):
/// connection-level transport errors (the service is restarting) and
/// HTTP 423 (a store lease is briefly held elsewhere). Permanent
/// refusals — 400, 404, 409, protocol errors — surface immediately; in
/// particular a 409 from a closed season or an exhausted budget must
/// never be hammered.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries including the first (so `1` means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget across all attempts and sleeps: once elapsed,
    /// no further retry is scheduled.
    pub deadline: Duration,
    /// Seed for the deterministic jitter stream, so two clients retrying
    /// the same failure desynchronize while each stays reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 5 attempts over at most ~3 s: 25 ms base backoff doubling to a
    /// 400 ms cap — enough to ride out a worker respawn or a service
    /// restart without masking a genuinely down service for long.
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            deadline: Duration::from_secs(3),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Is this failure worth retrying? Transport errors that mean "nobody
    /// is listening *right now*" and HTTP 423 (a write lease held by a
    /// concurrent opener or a worker mid-handoff) are transient;
    /// everything else — including every other API status — is a
    /// permanent answer.
    pub fn is_transient(error: &ClientError) -> bool {
        match error {
            ClientError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            ClientError::Api { status, .. } => *status == 423,
            ClientError::Protocol(_) => false,
        }
    }

    /// The sleep before retry number `retry` (0-based): exponential
    /// doubling from the base, capped, then jittered to 50–100% so
    /// synchronized clients spread out. Deterministic in
    /// (`jitter_seed`, `retry`).
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        // splitmix64: a full-avalanche hash of (seed, retry) standing in
        // for a random source — no RNG dependency, reproducible runs.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(retry).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let fraction = 0.5 + 0.5 * ((z >> 11) as f64 / (1u64 << 53) as f64);
        exp.mul_f64(fraction)
    }
}

/// A blocking client bound to one service address, optionally retrying
/// transient failures under a [`RetryPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// A client for the service at `addr` (see `ReleaseService::addr`).
    /// No retries: every failure surfaces on the first attempt.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, retry: None }
    }

    /// The same client with transient failures retried under `policy`.
    pub fn with_retry(self, policy: RetryPolicy) -> Self {
        Self {
            retry: Some(policy),
            ..self
        }
    }

    /// `POST /seasons`: create `name` with `budget` reserved up front.
    /// Single-snapshot services only; panel services refuse unbound
    /// seasons (use [`create_panel_season`](Self::create_panel_season)).
    pub fn create_season(
        &self,
        name: &str,
        budget: PrivacyParams,
    ) -> Result<SeasonCreated, ClientError> {
        self.post(
            "/seasons",
            &SeasonCreate {
                name: name.to_string(),
                budget,
                quarter: None,
            },
        )
    }

    /// `POST /seasons` against a quarterly-panel service: create `name`
    /// with `budget`, bound to `quarter` of the served panel.
    pub fn create_panel_season(
        &self,
        name: &str,
        budget: PrivacyParams,
        quarter: u64,
    ) -> Result<SeasonCreated, ClientError> {
        self.post(
            "/seasons",
            &SeasonCreate {
                name: name.to_string(),
                budget,
                quarter: Some(quarter),
            },
        )
    }

    /// `POST /seasons/{name}/releases`: submit one release.
    pub fn submit(
        &self,
        season: &str,
        submission: &ReleaseSubmission,
    ) -> Result<SubmitReceipt, ClientError> {
        self.post(&format!("/seasons/{season}/releases"), submission)
    }

    /// `GET /releases/{id}`: the release's current status.
    pub fn release(&self, id: u64) -> Result<ReleaseStatusView, ClientError> {
        self.get(&format!("/releases/{id}"))
    }

    /// `GET /releases/{id}` as the service wrote it: the view's JSON,
    /// unparsed, with the stored artifact body as its last field.
    pub fn release_json(&self, id: u64) -> Result<String, ClientError> {
        self.get_text(&format!("/releases/{id}"))
    }

    /// Poll `GET /releases/{id}` until it leaves `"queued"` or `timeout`
    /// elapses.
    pub fn wait_for(&self, id: u64, timeout: Duration) -> Result<ReleaseStatusView, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let view = self.release(id)?;
            if view.status != "queued" {
                return Ok(view);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Protocol(format!(
                    "release {id} still queued after {timeout:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// `GET /audit`: the agency-wide budget and cache audit.
    pub fn audit(&self) -> Result<AuditView, ClientError> {
        self.get("/audit")
    }

    /// `GET /audit?deep=1`: the audit plus
    /// [`bodies`](AuditView::bodies) — every completed release's body read
    /// and checked against its content digest.
    pub fn audit_deep(&self) -> Result<AuditView, ClientError> {
        self.get("/audit?deep=1")
    }

    /// `GET /metrics`: the canonical structured counters snapshot —
    /// per-family admissions/denials, budget gauges, cache hit counters,
    /// latency histograms, and live per-season queue depths.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ClientError> {
        self.get("/metrics")
    }

    /// `GET /metrics?format=openmetrics`: the same snapshot in the
    /// OpenMetrics (Prometheus) text exposition format, returned raw.
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        self.get_text("/metrics?format=openmetrics")
    }

    fn get_text(&self, path: &str) -> Result<String, ClientError> {
        self.with_attempts(|| {
            let (status, body) = self.call("GET", path, None)?;
            if (200..300).contains(&status) {
                Ok(body)
            } else {
                Err(ClientError::Api {
                    status,
                    message: body,
                })
            }
        })
    }

    /// `POST /seasons/{name}/close`: drain and seal the season, refunding
    /// its unspent budget to the agency cap. Idempotent — closing a
    /// closed season replays its receipt with `already_closed: true`.
    pub fn close_season(&self, name: &str) -> Result<ClosureReceipt, ClientError> {
        let path = format!("/seasons/{name}/close");
        self.with_attempts(|| {
            let (status, body) = self.call("POST", &path, Some("{}"))?;
            decode(status, &body)
        })
    }

    fn get<T: Deserialize>(&self, path: &str) -> Result<T, ClientError> {
        self.with_attempts(|| {
            let (status, body) = self.call("GET", path, None)?;
            decode(status, &body)
        })
    }

    fn post<B: Serialize, T: Deserialize>(&self, path: &str, body: &B) -> Result<T, ClientError> {
        let payload = serde_json::to_string(body).expect("request serialization is infallible");
        self.with_attempts(|| {
            let (status, body) = self.call("POST", path, Some(&payload))?;
            decode(status, &body)
        })
    }

    /// Run `attempt` under the client's retry policy, if any: transient
    /// failures back off and retry until the policy's attempt or deadline
    /// cap trips; everything else (and the last transient error) surfaces
    /// as-is.
    fn with_attempts<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let Some(policy) = self.retry else {
            return attempt();
        };
        let start = Instant::now();
        let mut retry = 0u32;
        loop {
            match attempt() {
                Ok(value) => return Ok(value),
                Err(error) => {
                    if !RetryPolicy::is_transient(&error) || retry + 1 >= policy.max_attempts {
                        return Err(error);
                    }
                    let sleep = policy.backoff(retry);
                    if start.elapsed() + sleep > policy.deadline {
                        return Err(error);
                    }
                    std::thread::sleep(sleep);
                    retry += 1;
                }
            }
        }
    }

    fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: service\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .ok_or_else(|| ClientError::Protocol("response has no header/body split".into()))?;
        let status: u16 = head
            .lines()
            .next()
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("unparseable status line in {head:?}")))?;
        Ok((status, body.to_string()))
    }
}

fn decode<T: Deserialize>(status: u16, body: &str) -> Result<T, ClientError> {
    if (200..300).contains(&status) {
        serde_json::from_str(body)
            .map_err(|e| ClientError::Protocol(format!("undecodable success body: {e}")))
    } else {
        #[derive(Deserialize)]
        struct ErrorBody {
            error: String,
        }
        let message = serde_json::from_str::<ErrorBody>(body)
            .map(|e| e.error)
            .unwrap_or_else(|_| body.to_string());
        Err(ClientError::Api { status, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn io(kind: ErrorKind) -> ClientError {
        ClientError::Io(std::io::Error::new(kind, "synthetic"))
    }

    fn api(status: u16) -> ClientError {
        ClientError::Api {
            status,
            message: "synthetic".to_string(),
        }
    }

    #[test]
    fn transient_classification() {
        // Nobody-listening transport failures and 423 (lease briefly held
        // elsewhere) retry; permanent refusals never do.
        assert!(RetryPolicy::is_transient(&io(ErrorKind::ConnectionRefused)));
        assert!(RetryPolicy::is_transient(&io(ErrorKind::ConnectionReset)));
        assert!(RetryPolicy::is_transient(&io(ErrorKind::TimedOut)));
        assert!(RetryPolicy::is_transient(&api(423)));
        assert!(!RetryPolicy::is_transient(&io(ErrorKind::PermissionDenied)));
        for permanent in [400, 404, 409, 500] {
            assert!(
                !RetryPolicy::is_transient(&api(permanent)),
                "status {permanent} must not retry"
            );
        }
        assert!(!RetryPolicy::is_transient(&ClientError::Protocol(
            "garbled".to_string()
        )));
    }

    #[test]
    fn backoff_doubles_is_capped_and_jitters_deterministically() {
        let policy = RetryPolicy::default();
        for retry in 0..8 {
            let sleep = policy.backoff(retry);
            // Never below half the (capped) exponential step, never above
            // the cap itself.
            let exp = policy
                .base_backoff
                .saturating_mul(1 << retry)
                .min(policy.max_backoff);
            assert!(sleep >= exp.mul_f64(0.5), "retry {retry}: {sleep:?} < half");
            assert!(
                sleep <= policy.max_backoff,
                "retry {retry}: {sleep:?} over cap"
            );
            // Deterministic: the same (seed, retry) always sleeps the same.
            assert_eq!(sleep, policy.backoff(retry));
        }
        // Different seeds desynchronize.
        let other = RetryPolicy {
            jitter_seed: 1,
            ..policy
        };
        assert_ne!(policy.backoff(3), other.backoff(3));
    }

    #[test]
    fn attempts_and_deadline_bound_the_loop() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let client = Client::new(addr).with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(5),
            jitter_seed: 7,
        });
        let mut calls = 0u32;
        let result: Result<(), ClientError> = client.with_attempts(|| {
            calls += 1;
            Err(io(ErrorKind::ConnectionRefused))
        });
        assert!(matches!(result, Err(ClientError::Io(_))));
        assert_eq!(calls, 3, "max_attempts bounds total tries");

        // A permanent error never retries, even under a generous policy.
        let mut calls = 0u32;
        let result: Result<(), ClientError> = client.with_attempts(|| {
            calls += 1;
            Err(api(409))
        });
        assert!(matches!(result, Err(ClientError::Api { status: 409, .. })));
        assert_eq!(calls, 1);

        // An exhausted deadline stops retrying even with attempts left.
        let strict = Client::new(addr).with_retry(RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
            deadline: Duration::from_millis(1),
            jitter_seed: 7,
        });
        let mut calls = 0u32;
        let result: Result<(), ClientError> = strict.with_attempts(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
            Err(api(423))
        });
        assert!(matches!(result, Err(ClientError::Api { status: 423, .. })));
        assert_eq!(calls, 1, "deadline already spent before the first sleep");
    }
}
