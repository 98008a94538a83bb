//! The closed-loop workloads against a `ReleaseService` on
//! loopback, their set-up, and the output checks that run beside them.
//!
//! Every workload measures in *rounds*. A round starts the service on a
//! hard-link copy of the directory the set-up left, runs a fixed seeded
//! slice of the op sequence, checks it, and shuts the service down. The
//! service keeps every release it answers in memory and rewrites files
//! whose size grows with every op, so a round of fixed length keeps peak
//! memory and per-op disk growth independent of how many ops a build
//! fits into `--seconds`; rounds repeat until `--seconds` are measured.

use crate::host::{self, ProcSample};
use crate::plan::{self, Release, ALPHA, PREPOPULATED, SEASONS};
use crate::trace::Tracer;
use crate::wire::{self, Request};
use eree_core::accountant::ReleaseCost;
use eree_core::definitions::PrivacyParams;
use eree_core::metrics::MetricsSnapshot;
use eree_core::public_cache::{ReleaseCache, ReleaseKey};
use eree_core::store::dataset_digest;
use eree_service::{Client, ReleaseService, ServiceConfig};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Two client threads: one per season, and one per vCPU of the host the
/// bounds were set on.
pub const CLIENTS: usize = 2;
/// Fixed interval between polls of a queued release.
pub const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// `publish` ops per client per round.
const PUBLISH_ROUND_OPS: usize = 40;
/// Agency cap and season budgets: far beyond what any run spends.
pub const CAP_EPSILON: f64 = 1e9;
pub const SEASON_EPSILON: f64 = 1e8;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Brand-new releases: every op runs the whole confidential path.
    Publish,
    /// Start the service on 64 releases, read one, release one.
    Restart,
}

impl Workload {
    /// Set-ups per run; `setup_s` is their median. The first stages the
    /// run and the others are spread over its measured rounds (see
    /// [`SetUps`]), so a burst of host steal slows only some of them.
    fn set_ups(self) -> usize {
        match self {
            Self::Publish => 9,
            // Each pre-populates 64 releases, about ten times a
            // `publish` set-up.
            Self::Restart => 5,
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "publish" => Some(Self::Publish),
            "restart" => Some(Self::Restart),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Publish => "publish",
            Self::Restart => "restart",
        }
    }
}

/// A release the set-up completed, as later ops must find it.
#[derive(Debug, Clone)]
pub struct Released {
    /// What was submitted.
    pub release: Release,
    /// Index into [`SEASONS`].
    pub season: usize,
    /// Its release id.
    pub id: u64,
    /// Content digest of its artifact.
    pub digest: u64,
}

/// The state a set-up leaves: the universe, the directory every round
/// copies, and the releases in it.
pub struct Stage {
    /// The canonical Default-scale universe.
    pub dataset: Dataset,
    /// Agency directory as the set-up left it; never written afterwards.
    pub pristine: PathBuf,
    /// Releases completed during set-up, in sequence order.
    pub released: Vec<Released>,
    /// The run's publish sequence.
    pub sequence: Vec<Release>,
}

impl Stage {
    /// The public-cache key the service derives for set-up release
    /// `index` on the dataset fingerprinted by `digest`.
    pub fn key(&self, index: usize, digest: u64) -> ReleaseKey {
        let submission = self.released[index].release.submission();
        ReleaseKey {
            dataset_digest: digest,
            kind: submission.kind,
            spec: submission.spec,
            mechanism: submission.mechanism,
            budget: submission.budget,
            budget_is_per_cell: submission.budget_is_per_cell,
            filter: submission.filter.as_ref().map(|f| f.normalized()),
            integerized: submission.integerize,
            seed: submission.seed,
        }
    }
}

/// The program's own counters, as deltas of two `GET /metrics` scrapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Truth tabulations served from worker memory.
    pub truth_memory_hits: u64,
    /// Truth tabulations loaded from the truth store.
    pub truth_disk_hits: u64,
    /// Truth tabulations computed.
    pub truth_computed: u64,
    /// Submissions answered from the public cache.
    pub public_hits: u64,
    /// Submissions that missed the public cache.
    pub public_misses: u64,
    /// HTTP responses of any status.
    pub http_requests: u64,
    /// Releases queued to season workers.
    pub enqueued: u64,
}

impl Counts {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        let http =
            |m: &MetricsSnapshot| m.service.http_2xx + m.service.http_4xx + m.service.http_5xx;
        Counts {
            truth_memory_hits: after.caches.truth_memory_hits - before.caches.truth_memory_hits,
            truth_disk_hits: after.caches.truth_disk_hits - before.caches.truth_disk_hits,
            truth_computed: after.caches.truth_computed - before.caches.truth_computed,
            public_hits: after.caches.public_hits - before.caches.public_hits,
            public_misses: after.caches.public_misses - before.caches.public_misses,
            // The first scrape is counted after its own snapshot is taken.
            http_requests: http(after) - http(before) - 1,
            enqueued: after.service.releases_enqueued - before.service.releases_enqueued,
        }
    }

    fn add(&mut self, other: Counts) {
        self.truth_memory_hits += other.truth_memory_hits;
        self.truth_disk_hits += other.truth_disk_hits;
        self.truth_computed += other.truth_computed;
        self.public_hits += other.public_hits;
        self.public_misses += other.public_misses;
        self.http_requests += other.http_requests;
        self.enqueued += other.enqueued;
    }
}

/// Everything one run measured.
pub struct Measured {
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Universe generation time of each set-up, ms.
    pub generate_ms: Vec<f64>,
    /// Latency samples in ms, by op type.
    pub latencies: BTreeMap<&'static str, Vec<f64>>,
    /// Ops attempted in measured windows.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Failed output checks and failed ops, as messages.
    pub failures: Vec<String>,
    /// Ops completed in measured windows (cycles on `restart`).
    pub ops: u64,
    /// Wall time of the measured windows, s.
    pub window_s: f64,
    /// Process CPU in the measured windows, client threads excluded, s.
    pub service_cpu_s: f64,
    /// Process counters over the measured windows.
    pub proc: ProcSample,
    /// Agency directory growth over the measured windows, bytes.
    pub disk_bytes: u64,
    /// Truth-store growth over the measured windows, bytes.
    pub truth_bytes: u64,
    /// Polls of queued releases.
    pub polls: u64,
    /// Releases that were polled to completion.
    pub polled: u64,
    /// Size of `releases.json` at the end of the last window, bytes.
    pub registry_bytes: u64,
    /// The program's counters over the measured windows.
    pub counts: Counts,
    /// Peak resident set of the process in each round, MiB.
    pub round_peaks_mib: Vec<f64>,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

impl Measured {
    fn new(tracer: Tracer) -> Self {
        Measured {
            setup_s: Vec::new(),
            generate_ms: Vec::new(),
            latencies: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            ops: 0,
            window_s: 0.0,
            service_cpu_s: 0.0,
            proc: ProcSample::default(),
            disk_bytes: 0,
            truth_bytes: 0,
            polls: 0,
            polled: 0,
            registry_bytes: 0,
            counts: Counts::default(),
            round_peaks_mib: Vec::new(),
            tracer,
        }
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn sample(&mut self, op: &'static str, ms: f64) {
        self.latencies.entry(op).or_default().push(ms);
    }

    fn add_window(&mut self, window: Duration, proc: ProcSample, client_cpu_s: f64) {
        self.window_s += window.as_secs_f64();
        self.service_cpu_s += proc.cpu_s() - client_cpu_s;
        self.proc.user_s += proc.user_s;
        self.proc.sys_s += proc.sys_s;
        self.proc.minflt += proc.minflt;
        self.proc.wchar += proc.wchar;
        self.proc.steal_s += proc.steal_s;
    }
}

fn config() -> ServiceConfig {
    ServiceConfig::new(PrivacyParams::pure(ALPHA, CAP_EPSILON))
}

fn start(dir: &Path, dataset: &Dataset) -> Result<ReleaseService, String> {
    ReleaseService::start(dir, dataset.clone(), config())
        .map_err(|e| format!("service start on {}: {e}", dir.display()))
}

/// The program's own counters (`GET /metrics`), outside any timed call.
fn scrape(addr: std::net::SocketAddr) -> Result<MetricsSnapshot, String> {
    Client::new(addr)
        .metrics()
        .map_err(|e| format!("GET /metrics: {e}"))
}

fn total_spend(snapshot: &MetricsSnapshot) -> f64 {
    snapshot.families.iter().map(|f| f.epsilon_spent).sum()
}

/// One release submitted and polled to completion.
struct Miss {
    id: u64,
    digest: u64,
    cost: ReleaseCost,
    /// POST's first byte → the completing poll's last byte.
    latency_ms: f64,
    /// The POST round trip.
    submit_ms: f64,
    /// POST answered → completing poll's last byte.
    queue_to_done_ms: f64,
    /// The completing poll: a GET of a completed release.
    complete_get_ms: f64,
    polls: u64,
}

/// Submit `release` to `season` and poll every [`POLL_INTERVAL`] until it
/// completes.
fn submit_and_wait(
    addr: std::net::SocketAddr,
    release: &Release,
    season: &str,
    tracer: &mut Tracer,
    op: u64,
    kind: &'static str,
) -> Result<Miss, String> {
    let body = serde_json::to_string(&release.submission()).expect("submissions serialize");
    let submit = Request::post(&format!("/seasons/{season}/releases"), &body);
    let root = tracer.open(kind, op, None);
    let reply = submit.send(addr).map_err(|e| format!("submit: {e}"))?;
    tracer.record("http.submit", op, root, reply.sent, reply.done);
    let receipt = wire::receipt(&reply.body)
        .filter(|r| reply.status == 202 && r.status == "queued" && !r.cached)
        .ok_or_else(|| {
            format!(
                "submit answered {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            )
        })?;
    let poll = Request::get(&format!("/releases/{}", receipt.id));
    let mut polls = 0;
    let done = loop {
        let view = poll.send(addr).map_err(|e| format!("poll: {e}"))?;
        tracer.record("http.poll", op, root, view.sent, view.done);
        polls += 1;
        match (view.status, wire::status_field(&view.body)) {
            (200, Some("queued")) => std::thread::sleep(POLL_INTERVAL),
            (200, Some("complete")) => break view,
            (status, _) => {
                return Err(format!(
                    "release {} answered {status}: {}",
                    receipt.id,
                    String::from_utf8_lossy(&view.body[..view.body.len().min(400)])
                ))
            }
        }
    };
    tracer.close(root);
    let artifact = wire::artifact_bytes(&done.body)
        .ok_or_else(|| format!("release {} is complete but has no artifact", receipt.id))?;
    let cost = wire::artifact_cost(artifact)
        .ok_or_else(|| format!("release {} artifact has no cost", receipt.id))?;
    Ok(Miss {
        id: receipt.id,
        digest: wire::fnv1a(artifact),
        cost,
        latency_ms: ms(done.done - reply.sent),
        submit_ms: ms(reply.elapsed()),
        queue_to_done_ms: ms(done.done - reply.done),
        complete_get_ms: ms(done.elapsed()),
        polls,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one client thread did.
struct ClientLog<T> {
    results: Vec<T>,
    cpu_s: f64,
    tracer: Tracer,
}

/// Run `work` on [`CLIENTS`] threads, each timing its own CPU.
fn clients<T: Send>(
    tracer: &Tracer,
    work: impl Fn(usize, &mut Tracer) -> Vec<T> + Sync,
) -> Vec<ClientLog<T>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let work = &work;
                let mut tracer = tracer.fork();
                scope.spawn(move || {
                    let cpu = host::thread_cpu_s().expect("thread CPU readable");
                    let results = work(client, &mut tracer);
                    let cpu_s = host::thread_cpu_s().expect("thread CPU readable") - cpu;
                    ClientLog {
                        results,
                        cpu_s,
                        tracer,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Release sequence positions `range` through two clients; position `p`
/// goes to client `p % 2`, i.e. season `SEASONS[p % 2]`.
fn publish_positions(
    addr: std::net::SocketAddr,
    sequence: &[Release],
    range: std::ops::Range<usize>,
    tracer: &Tracer,
) -> Vec<ClientLog<(usize, Result<Miss, String>)>> {
    clients(tracer, |client, tracer| {
        range
            .clone()
            .filter(|p| p % CLIENTS == client)
            .map(|p| {
                let miss = submit_and_wait(
                    addr,
                    &sequence[p],
                    SEASONS[client],
                    tracer,
                    p as u64,
                    "op.miss",
                );
                (p, miss)
            })
            .collect()
    })
}

/// Run the set-up once: generate the universe, start a service in a
/// fresh directory, create the seasons, complete the first `count`
/// releases of the sequence (the first of each season is the warm-up
/// that pays worker spawn and the index build), and shut down.
fn set_up(
    work: &Path,
    repetition: usize,
    sequence: Vec<Release>,
    count: usize,
) -> Result<(Stage, f64, f64), String> {
    let started = Instant::now();
    let dataset = Generator::new(GeneratorConfig::default()).generate();
    let generate_ms = ms(started.elapsed());
    let dir = work.join(format!("pristine-{repetition}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let service = start(&dir, &dataset)?;
    let addr = service.addr();
    for season in SEASONS {
        Client::new(addr)
            .create_season(season, PrivacyParams::pure(ALPHA, SEASON_EPSILON))
            .map_err(|e| format!("create season {season}: {e}"))?;
    }
    let off = Tracer::new(started, false);
    let mut released = Vec::with_capacity(count);
    for log in publish_positions(addr, &sequence, 0..count, &off) {
        for (p, miss) in log.results {
            let miss = miss.map_err(|e| format!("set-up release {p}: {e}"))?;
            released.push((p, miss));
        }
    }
    released.sort_by_key(|(p, _)| *p);
    let released = released
        .into_iter()
        .map(|(p, miss)| Released {
            release: sequence[p].clone(),
            season: p % CLIENTS,
            id: miss.id,
            digest: miss.digest,
        })
        .collect();
    service.shutdown();
    let stage = Stage {
        dataset,
        pristine: dir,
        released,
        sequence,
    };
    Ok((stage, started.elapsed().as_secs_f64(), generate_ms))
}

/// The set-ups of a run after the one that staged it.
struct SetUps<'a> {
    work: &'a Path,
    seed: u64,
    /// Releases each set-up completes.
    count: usize,
    /// Set-ups per run, the staging one included.
    planned: usize,
    /// Measured time of the run, s.
    seconds: f64,
}

impl SetUps<'_> {
    /// Run the set-ups due by the measured time so far: one more each
    /// `seconds / (planned - 1)` of it, the last once the run has
    /// measured `seconds`. Each must release what the staging set-up
    /// released; its directory and universe are dropped afterwards.
    fn catch_up(&self, m: &mut Measured, stage: &Stage) -> Result<(), String> {
        let share = (m.window_s / self.seconds).min(1.0);
        let due = 1 + ((self.planned - 1) as f64 * share).floor() as usize;
        while m.setup_s.len() < due {
            let sequence = plan::publish_sequence(self.seed);
            let (next, setup_s, generate_ms) =
                set_up(self.work, m.setup_s.len(), sequence, self.count)?;
            m.setup_s.push(setup_s);
            m.generate_ms.push(generate_ms);
            let same = next
                .released
                .iter()
                .zip(&stage.released)
                .all(|(a, b)| a.digest == b.digest);
            m.check(same, || {
                "two set-ups of the same seed released different artifacts".to_string()
            });
            std::fs::remove_dir_all(&next.pristine)
                .map_err(|e| format!("{}: {e}", next.pristine.display()))?;
        }
        Ok(())
    }
}

/// Run `workload` for `seconds` of measured time.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: Tracer,
) -> Result<(Measured, Stage), String> {
    let mut m = Measured::new(tracer);
    let set_ups = SetUps {
        work,
        seed,
        count: match workload {
            Workload::Publish => CLIENTS,
            Workload::Restart => PREPOPULATED,
        },
        planned: workload.set_ups(),
        seconds,
    };
    let (stage, setup_s, generate_ms) =
        set_up(work, 0, plan::publish_sequence(seed), set_ups.count)?;
    m.setup_s.push(setup_s);
    m.generate_ms.push(generate_ms);
    // The digest the benchmark takes over a served artifact's bytes must
    // be the content digest the public cache records for it.
    let cache = ReleaseCache::open(stage.pristine.join("public")).map_err(|e| e.to_string())?;
    let cached = cache.load(&stage.key(0, dataset_digest(&stage.dataset)));
    m.check(
        cached.is_some_and(|a| ReleaseCache::artifact_digest(&a) == stage.released[0].digest),
        || "a served artifact's digest differs from its public-cache content digest".to_string(),
    );
    let fingerprint = host::tree_fingerprint(&stage.pristine).map_err(|e| e.to_string())?;
    let round_dir = work.join("round");
    match workload {
        Workload::Publish => publish(&mut m, &stage, &set_ups, &round_dir)?,
        Workload::Restart => restart(&mut m, &stage, &set_ups, &round_dir)?,
    }
    set_ups.catch_up(&mut m, &stage)?;
    let _ = std::fs::remove_dir_all(&round_dir);
    let unchanged =
        host::tree_fingerprint(&stage.pristine).map_err(|e| e.to_string())? == fingerprint;
    m.check(unchanged, || {
        "a round wrote into the pristine directory through a hard link".to_string()
    });
    Ok((m, stage))
}

/// Round trips of a trivial route (an unknown path answers 404), in
/// ms, when tracing; none otherwise.
fn rtt_samples(addr: std::net::SocketAddr, tracing: bool) -> Result<Vec<f64>, String> {
    let request = Request::get("/no-such-route");
    (0..if tracing { 100 } else { 0 })
        .map(|_| {
            let reply = request.send(addr).map_err(|e| format!("rtt: {e}"))?;
            if reply.status != 404 {
                return Err(format!("an unknown route answered {}", reply.status));
            }
            Ok(ms(reply.elapsed()))
        })
        .collect()
}

fn rtt(m: &mut Measured, addr: std::net::SocketAddr) -> Result<(), String> {
    for ms in rtt_samples(addr, m.tracer.enabled())? {
        m.sample("rtt", ms);
    }
    Ok(())
}

fn publish(m: &mut Measured, stage: &Stage, set_ups: &SetUps, dir: &Path) -> Result<(), String> {
    let mut next = CLIENTS;
    while m.window_s < set_ups.seconds {
        set_ups.catch_up(m, stage)?;
        // No filter repeats within a round, and every round starts from
        // the set-up's state, so a long run may wrap around the sequence
        // (skipping the set-up's releases) and every op still misses.
        if next + CLIENTS * (PUBLISH_ROUND_OPS + 1) > stage.sequence.len() {
            next = CLIENTS;
        }
        host::link_tree(&stage.pristine, dir).map_err(|e| format!("reset: {e}"))?;
        host::reset_peak_rss().map_err(|e| e.to_string())?;
        let service = start(dir, &stage.dataset)?;
        let addr = service.addr();
        // One release per season pays worker spawn and the index build,
        // untimed, as the set-up's warm-up did.
        let off = Tracer::new(Instant::now(), false);
        for log in publish_positions(addr, &stage.sequence, next..next + CLIENTS, &off) {
            for (p, miss) in log.results {
                miss.map_err(|e| format!("round warm-up release {p}: {e}"))?;
            }
        }
        next += CLIENTS;
        let before = scrape(addr)?;
        let disk = host::tree_bytes(dir).map_err(|e| e.to_string())?;
        let truths = host::tree_bytes(&dir.join("truths")).map_err(|e| e.to_string())?;
        let proc = ProcSample::now().map_err(|e| e.to_string())?;
        let window = Instant::now();
        let range = next..next + CLIENTS * PUBLISH_ROUND_OPS;
        let logs = publish_positions(addr, &stage.sequence, range.clone(), &m.tracer);
        let elapsed = window.elapsed();
        let proc = ProcSample::now().map_err(|e| e.to_string())?.since(&proc);
        next = range.end;
        let after = scrape(addr)?;
        m.round_peaks_mib
            .push(host::peak_rss_mib().map_err(|e| e.to_string())?);
        m.disk_bytes += host::tree_bytes(dir).map_err(|e| e.to_string())? - disk;
        m.truth_bytes += host::tree_bytes(&dir.join("truths")).map_err(|e| e.to_string())? - truths;
        m.registry_bytes = std::fs::metadata(dir.join("releases.json")).map_or(0, |md| md.len());
        rtt(m, addr)?;
        service.shutdown();

        let mut cost_sum = 0.0;
        let mut completed = 0;
        let mut client_cpu_s = 0.0;
        for log in logs {
            client_cpu_s += log.cpu_s;
            m.tracer.absorb(log.tracer);
            for (p, miss) in log.results {
                m.attempted += 1;
                match miss {
                    Ok(miss) => {
                        let planned = stage.sequence[p]
                            .submission()
                            .to_request()
                            .plan()
                            .map(|plan| plan.cost.epsilon)
                            .ok();
                        m.check(planned == Some(miss.cost.epsilon), || {
                            format!(
                                "release {p} charged {} ε, planned {planned:?}",
                                miss.cost.epsilon
                            )
                        });
                        cost_sum += miss.cost.epsilon;
                        completed += 1;
                        m.ops += 1;
                        m.polls += miss.polls;
                        m.polled += 1;
                        m.sample("miss", miss.latency_ms);
                        m.sample("get", miss.complete_get_ms);
                        m.sample("submit", miss.submit_ms);
                        m.sample("queue_to_done", miss.queue_to_done_ms);
                    }
                    Err(e) => {
                        m.failed += 1;
                        m.failures.push(format!("publish op {p}: {e}"));
                    }
                }
            }
        }
        m.add_window(elapsed, proc, client_cpu_s);
        let counts = Counts::between(&before, &after);
        m.counts.add(counts);
        let spent = total_spend(&after) - total_spend(&before);
        m.check((spent - cost_sum).abs() <= 1e-9 * cost_sum.max(1.0), || {
            format!("ε spent grew by {spent} but the completed misses cost {cost_sum}")
        });
        m.check(after.epsilon_spent <= after.epsilon_cap, || {
            format!(
                "spent ε {} exceeds the cap {}",
                after.epsilon_spent, after.epsilon_cap
            )
        });
        m.check(
            counts.truth_computed == completed
                && counts.public_misses == completed
                && counts.enqueued == completed
                && counts.public_hits == 0
                && counts.truth_memory_hits == 0
                && counts.truth_disk_hits == 0,
            || format!("publish ops did not all miss every cache: {counts:?} for {completed} ops"),
        );
    }
    Ok(())
}

/// A GET of a completed release.
struct Read {
    ms: f64,
    /// Content digest of the artifact it answered.
    digest: u64,
    /// When its last byte was read.
    done: Instant,
}

/// GET a completed release and digest its artifact.
fn get_completed(
    addr: std::net::SocketAddr,
    id: u64,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Read, String> {
    let reply = Request::get(&format!("/releases/{id}"))
        .send(addr)
        .map_err(|e| format!("GET of release {id}: {e}"))?;
    tracer.record("op.get", op, None, reply.sent, reply.done);
    let artifact = wire::artifact_bytes(&reply.body);
    match (reply.status, wire::status_field(&reply.body), artifact) {
        (200, Some("complete"), Some(artifact)) => Ok(Read {
            ms: ms(reply.elapsed()),
            digest: wire::fnv1a(artifact),
            done: reply.done,
        }),
        (status, state, _) => Err(format!(
            "GET of release {id} answered {status} with status {state:?}"
        )),
    }
}

/// What one `restart` cycle's client saw.
struct CycleLog {
    first_get: Result<Read, String>,
    first_release: Result<Miss, String>,
    counts: Result<Counts, String>,
    /// One read per pre-populated release, in order.
    reads: Vec<Result<Read, String>>,
    rtt: Result<Vec<f64>, String>,
}

fn restart(m: &mut Measured, stage: &Stage, set_ups: &SetUps, dir: &Path) -> Result<(), String> {
    let released = &stage.released;
    let prepopulated: Vec<Release> = released.iter().map(|r| r.release.clone()).collect();
    // Far more cycles than a run can reach; the loop stops on time.
    let cycles = plan::restart_sequence(set_ups.seed, &prepopulated, 1_000);
    let pristine_bytes = host::tree_bytes(&stage.pristine).map_err(|e| e.to_string())?;
    for (c, cycle) in cycles.iter().enumerate() {
        if m.window_s >= set_ups.seconds {
            break;
        }
        set_ups.catch_up(m, stage)?;
        host::link_tree(&stage.pristine, dir).map_err(|e| format!("reset: {e}"))?;
        let dataset = stage.dataset.clone();
        host::reset_peak_rss().map_err(|e| e.to_string())?;
        let proc = ProcSample::now().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let service = ReleaseService::start(dir, dataset, config())
            .map_err(|e| format!("service start on {}: {e}", dir.display()))?;
        let addr = service.addr();
        let mut tracer = m.tracer.fork();
        let (log, client_cpu_s, tracer) = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let cpu = host::thread_cpu_s().expect("thread CPU readable");
                    let op = c as u64;
                    let first_get =
                        get_completed(addr, released[cycle.first_get].id, &mut tracer, op);
                    let before = scrape(addr);
                    let reuse = &released[cycle.reuse];
                    let first_release = submit_and_wait(
                        addr,
                        &cycle.release,
                        SEASONS[reuse.season],
                        &mut tracer,
                        op,
                        "op.first_release",
                    );
                    let reads = released
                        .iter()
                        .map(|r| get_completed(addr, r.id, &mut tracer, op))
                        .collect();
                    let counts = before.and_then(|b| scrape(addr).map(|a| Counts::between(&b, &a)));
                    let rtt = rtt_samples(addr, tracer.enabled());
                    let cpu_s = host::thread_cpu_s().expect("thread CPU readable") - cpu;
                    (
                        CycleLog {
                            first_get,
                            first_release,
                            counts,
                            reads,
                            rtt,
                        },
                        cpu_s,
                        tracer,
                    )
                })
                .join()
                .expect("restart client panicked")
        });
        service.shutdown();
        let elapsed = started.elapsed();
        let proc = ProcSample::now().map_err(|e| e.to_string())?.since(&proc);
        m.round_peaks_mib
            .push(host::peak_rss_mib().map_err(|e| e.to_string())?);
        m.tracer.absorb(tracer);
        m.disk_bytes += host::tree_bytes(dir).map_err(|e| e.to_string())? - pristine_bytes;
        m.registry_bytes = std::fs::metadata(dir.join("releases.json")).map_or(0, |md| md.len());
        m.attempted += 1;
        let mut ok = true;
        match log.first_get {
            Ok(read) => {
                let target = &released[cycle.first_get];
                m.sample("restart", ms(read.done - started));
                m.tracer
                    .record("op.restart", c as u64, None, started, read.done);
                m.check(read.digest == target.digest, || {
                    format!(
                        "after restart, release {} served another artifact",
                        target.id
                    )
                });
            }
            Err(e) => {
                ok = false;
                m.failures.push(format!("cycle {c}: first GET: {e}"));
            }
        }
        match log.first_release {
            Ok(miss) => {
                m.sample("first_release", miss.latency_ms);
                m.sample("submit", miss.submit_ms);
                m.sample("queue_to_done", miss.queue_to_done_ms);
                m.polls += miss.polls;
                m.polled += 1;
            }
            Err(e) => {
                ok = false;
                m.failures.push(format!("cycle {c}: first release: {e}"));
            }
        }
        match log.counts {
            Ok(counts) => {
                m.counts.add(counts);
                m.check(
                    counts.truth_disk_hits == 1
                        && counts.truth_computed == 0
                        && counts.truth_memory_hits == 0
                        && counts.public_misses == 1
                        && counts.public_hits == 0,
                    || format!("cycle {c}: the first release did not load its truth from disk: {counts:?}"),
                );
            }
            Err(e) => m.failures.push(format!("cycle {c}: {e}")),
        }
        for (read, target) in log.reads.into_iter().zip(released) {
            match read {
                Ok(read) => {
                    m.sample("get", read.ms);
                    m.check(read.digest == target.digest, || {
                        format!("cycle {c}: release {} answered another artifact", target.id)
                    });
                }
                Err(e) => {
                    ok = false;
                    m.failures.push(format!(
                        "cycle {c}: pre-populated release not complete: {e}"
                    ));
                }
            }
        }
        for ms in log.rtt? {
            m.sample("rtt", ms);
        }
        if ok {
            m.ops += 1;
        } else {
            m.failed += 1;
        }
        m.add_window(elapsed, proc, client_cpu_s);
    }
    Ok(())
}
