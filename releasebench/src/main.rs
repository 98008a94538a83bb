//! `releasebench`: the release service measured end to end and layer by
//! layer. See `README.md` beside this package for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path releasebench/Cargo.toml -- \
//!     --workload publish|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! The report goes to standard output; its last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).

mod host;
mod layers;
mod plan;
mod trace;
mod wire;
mod workloads;

use plan::quantile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use trace::Tracer;
use workloads::{Measured, Workload};

const USAGE: &str =
    "usage: releasebench --workload publish|restart --seed N --seconds S --trace 0|1";
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    };
    if values.len() != 4 {
        return Err("unknown flag".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("releasebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("releasebench: {e}");
        std::process::exit(1);
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn run(args: &Args) -> Result<(), String> {
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let epoch = Instant::now();
    let (mut m, stage) = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        &work,
        Tracer::new(epoch, args.trace),
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "releasebench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        out,
        "host: {} vCPU; service: {} clients, closed loop, {} ms polls; flush policy: every fsync \
         the program issues reaches the filesystem holding the checkout",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads::CLIENTS,
        workloads::POLL_INTERVAL.as_millis()
    );
    describe_samples(&m, &mut out);
    let metrics = if args.trace {
        let mut layer = Tracer::new(epoch, true);
        let replayed = layers::replay(args.workload, &stage, args.seed, &work, &mut layer)?;
        let metrics = per_layer(args.workload, &m, &layer, replayed);
        m.tracer.absorb(layer);
        let path = work.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, m.tracer.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            out,
            "spans: {} written to {}",
            m.tracer.spans().len(),
            path.display()
        );
        metrics
    } else {
        end_to_end(args.workload, &m, &mut out)
    };
    let _ = std::fs::remove_dir_all(&stage.pristine);
    for failure in m.failures.iter().take(20) {
        let _ = writeln!(out, "CHECK FAILED: {failure}");
    }
    let _ = writeln!(
        out,
        "checks: {} failed; ops: {} attempted, {} failed",
        m.failures.len(),
        m.attempted,
        m.failed
    );
    let mut correct = m.failures.is_empty() && m.failed == 0;
    let mut json = String::new();
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            correct = false;
            0.0
        };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            metric.unit
        );
    }
    print!("{out}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.attempted.max(1),
        m.failed
    );
    Ok(())
}

fn samples<'a>(m: &'a Measured, op: &str) -> &'a [f64] {
    m.latencies.get(op).map_or(&[], Vec::as_slice)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(f64::NAN)
}

/// Per op type: sample count, median, and the highest percentile that
/// leaves ten samples beyond it.
fn describe_samples(m: &Measured, out: &mut String) {
    for (op, values) in &m.latencies {
        let _ = write!(
            out,
            "op {op}: n={} p50={:.3} ms",
            values.len(),
            median(values)
        );
        if let Some(q) = plan::highest_supported(values.len()).filter(|&q| q > 0.5) {
            let tail = quantile(values, q).unwrap_or(f64::NAN);
            let _ = write!(out, " p{}={tail:.3} ms", (q * 1000.0).round() / 10.0);
        }
        let _ = writeln!(out);
    }
}

/// The workload's primary and secondary op types (see `README.md`).
fn ops_of(workload: Workload) -> (&'static str, &'static str) {
    match workload {
        Workload::Publish => ("miss", "get"),
        Workload::Restart => ("restart", "first_release"),
    }
}

fn end_to_end(workload: Workload, m: &Measured, out: &mut String) -> Vec<Metric> {
    let (primary, secondary) = ops_of(workload);
    let ops = m.ops.max(1) as f64;
    let metrics = vec![
        metric("setup_s", median(&m.setup_s), "s"),
        metric("op_p50_ms", median(samples(m, primary)), "ms"),
        metric("op2_p50_ms", median(samples(m, secondary)), "ms"),
        metric("cpu_ms_per_op", m.service_cpu_s * 1e3 / ops, "ms"),
        metric("peak_rss_mb", median(&m.round_peaks_mib), "MiB"),
        metric("disk_mb_per_op", m.disk_bytes as f64 / ops / MIB, "MiB"),
    ];
    // The op-specific names of the release path, tails, throughput and
    // the noise diagnostics are printed beside the gated metrics.
    let named: &[&str] = match workload {
        Workload::Publish => &["miss", "get"],
        Workload::Restart => &["restart", "first_release", "get"],
    };
    let mut line = String::from("release-path names:");
    for op in named {
        let values = samples(m, op);
        let _ = write!(line, " {op}_p50_ms={:.3}", median(values));
        if plan::supports(values.len(), 0.9) {
            let tail = quantile(values, 0.9).unwrap_or(f64::NAN);
            let _ = write!(line, " {op}_p90_ms={tail:.3}");
        }
    }
    let _ = writeln!(
        line,
        " ops_per_s={:.3} failed_ratio={:.4}",
        m.ops as f64 / m.window_s,
        m.failed as f64 / m.attempted.max(1) as f64
    );
    out.push_str(&line);
    let _ = writeln!(
        out,
        "diagnostics: steal_s={:.2} user_s={:.2} sys_s={:.2} minflt_per_op={:.0} \
         wchar_mb_per_op={:.3} polls_per_release={:.1} window_s={:.2} ops={} \
         peak_rss_mb_by_round={:.1?}",
        m.proc.steal_s,
        m.proc.user_s,
        m.proc.sys_s,
        m.proc.minflt as f64 / ops,
        m.proc.wchar as f64 / ops / MIB,
        m.polls as f64 / m.polled.max(1) as f64,
        m.window_s,
        m.ops,
        m.round_peaks_mib
    );
    let _ = writeln!(
        out,
        "set-ups: setup_s={:.3?} generate_ms={:.0?}",
        m.setup_s, m.generate_ms
    );
    for metric in &metrics {
        let _ = writeln!(out, "{} = {:.4} {}", metric.name, metric.value, metric.unit);
    }
    metrics
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Layers of the layer pass, in the order the season worker calls them.
const LAYERS: [&str; 6] = [
    "tabulate",
    "truths",
    "engine",
    "store",
    "agency",
    "public_cache",
];

/// The layer-pass spans on the workload's primary op, whose self times
/// `service.unattributed_ms` subtracts from the op's median.
fn primary_path(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Publish => &[
            "tabulate.marginal",
            "truths.save",
            "engine.sample",
            "store.record",
            "store.load_artifact",
            "public_cache.save",
        ],
        Workload::Restart => &["agency.open", "public_cache.load"],
    }
}

fn per_layer(workload: Workload, m: &Measured, layer: &Tracer, replayed: usize) -> Vec<Metric> {
    let (primary, _) = ops_of(workload);
    let op_p50 = median(samples(m, primary));
    let replayed = replayed.max(1) as f64;
    let ops = m.ops.max(1) as f64;
    let median_or_zero = |values: Vec<f64>| {
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let self_median = |name: &str| median_or_zero(layer.self_ms(|s| s.name == name));
    let mut metrics = vec![metric("lodes.generate_ms", median(&m.generate_ms), "ms")];
    for name in LAYERS {
        // Only spans inside a replayed op: publish's one index build
        // belongs to the worker's spawn, not to any release.
        let spans = layer.self_ms(|s| {
            s.parent.is_some() && s.name.split_once('.').is_some_and(|(l, _)| l == name)
        });
        let total = spans.iter().fold(0.0, |sum, ms| sum + ms);
        metrics.push(metric(
            &format!("{name}.calls_per_op"),
            spans.len() as f64 / replayed,
            "count",
        ));
        metrics.push(metric(
            &format!("{name}.self_ms"),
            median_or_zero(spans),
            "ms",
        ));
        metrics.push(metric(
            &format!("{name}.share"),
            total / replayed / op_p50,
            "ratio",
        ));
    }
    let attributed: f64 = primary_path(workload)
        .iter()
        .map(|&name| layer.self_ms(|s| s.name == name).len() as f64 / replayed * self_median(name))
        .sum();
    let counts = &m.counts;
    let lookups = (counts.public_hits + counts.public_misses).max(1) as f64;
    metrics.extend([
        metric(
            "tabulate.index_build_ms",
            self_median("tabulate.index_build"),
            "ms",
        ),
        metric(
            "tabulate.marginal_ms",
            self_median("tabulate.marginal"),
            "ms",
        ),
        metric(
            "tabulate.computes_per_op",
            counts.truth_computed as f64 / ops,
            "count",
        ),
        metric("truths.save_ms", self_median("truths.save"), "ms"),
        metric("truths.load_ms", self_median("truths.load"), "ms"),
        metric(
            "truths.disk_hits_per_op",
            counts.truth_disk_hits as f64 / ops,
            "count",
        ),
        metric("truths.mb_per_op", m.truth_bytes as f64 / ops / MIB, "MiB"),
        metric("engine.sample_ms", self_median("engine.sample"), "ms"),
        metric(
            "engine.truth_memory_hits_per_op",
            counts.truth_memory_hits as f64 / ops,
            "count",
        ),
        metric("store.record_ms", self_median("store.record"), "ms"),
        metric(
            "store.load_artifact_ms",
            self_median("store.load_artifact"),
            "ms",
        ),
        metric("store.open_ms", self_median("store.open"), "ms"),
        metric("agency.open_ms", self_median("agency.open"), "ms"),
        metric(
            "public_cache.save_ms",
            self_median("public_cache.save"),
            "ms",
        ),
        metric(
            "public_cache.load_ms",
            self_median("public_cache.load"),
            "ms",
        ),
        metric(
            "public_cache.hit_ratio",
            counts.public_hits as f64 / lookups,
            "ratio",
        ),
        metric("codec.serialize_ms", self_median("codec.serialize"), "ms"),
        metric("codec.parse_ms", self_median("codec.parse"), "ms"),
        metric("http.rtt_us", median(samples(m, "rtt")) * 1e3, "us"),
        metric(
            "http.requests_per_op",
            counts.http_requests as f64 / ops,
            "count",
        ),
        metric("service.submit_ms", median(samples(m, "submit")), "ms"),
        metric(
            "service.queue_to_done_ms",
            quantile(samples(m, "queue_to_done"), 0.5).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "service.registry_kb",
            m.registry_bytes as f64 / 1024.0,
            "KiB",
        ),
        metric("service.unattributed_ms", op_p50 - attributed, "ms"),
        metric(
            "client.polls_per_miss",
            m.polls as f64 / m.polled.max(1) as f64,
            "count",
        ),
        metric("proc.user_s", m.proc.user_s, "s"),
        metric("proc.sys_s", m.proc.sys_s, "s"),
        metric("proc.steal_s", m.proc.steal_s, "s"),
        metric("proc.minflt_per_op", m.proc.minflt as f64 / ops, "count"),
        metric(
            "proc.wchar_mb_per_op",
            m.proc.wchar as f64 / ops / MIB,
            "MiB",
        ),
        metric("trace.op_p50_ms", op_p50, "ms"),
    ]);
    metrics
}
