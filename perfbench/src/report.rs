//! Turns a run into metrics, the host stamp and the result line.

use crate::drive::DriveOut;
use crate::host;
use crate::stats::{
    fast_windows, growth_ratio, mean, median, percentile_of, ratio, spread, WindowRef, TAIL_SAMPLES,
};
use crate::trace::{aggregate, durations, Agg, Span, NO_PARENT};
use crate::workloads::{Figures, Round, RunOut, Window, DATA_PLANE_THREADS};
use std::fmt::Write as _;

/// Share of a run's windows the latency percentiles are read from: the
/// ones replayed in the host's fast periods (see [`latencies`]).
pub const FAST_SHARE: f64 = 0.05;

/// The fast windows are widened until they hold this many samples, so a
/// p99 keeps [`TAIL_SAMPLES`] samples beyond it.
pub const MIN_FAST_SAMPLES: usize = TAIL_SAMPLES * 100;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

fn shards(run: &RunOut) -> impl Iterator<Item = &DriveOut> {
    run.rounds.iter().flat_map(|r| r.shards.iter())
}

/// Submissions sent over all socket rounds.
pub fn attempted(run: &RunOut) -> u64 {
    run.rounds.iter().map(|r| r.submissions() as u64).sum()
}

/// Client-visible failures over all socket rounds.
pub fn failed(run: &RunOut) -> u64 {
    shards(run).map(|o| o.errors.total()).sum()
}

/// Every shard replay's figures, over all socket rounds.
fn replays(run: &RunOut) -> impl Iterator<Item = &Figures> {
    run.rounds.iter().flat_map(|r| r.figures.iter())
}

fn rates(run: &RunOut) -> Vec<f64> {
    replays(run).map(Figures::subs_per_s).collect()
}

/// Every window of every shard replay, over all socket rounds.
fn windows(run: &RunOut) -> impl Iterator<Item = (&Figures, usize, &Window)> {
    replays(run).flat_map(|f| f.windows.iter().enumerate().map(move |(j, w)| (f, j, w)))
}

/// Response and submit percentiles, µs, of a set of windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latencies {
    /// Windows the samples come from.
    pub windows: usize,
    /// Samples (arrivals) pooled.
    pub samples: usize,
    /// p50 and p99 of the response times, µs.
    pub response_us: [f64; 2],
    /// p50 and p99 of the submit times, µs.
    pub submit_us: [f64; 2],
}

fn pooled<'w>(picked: impl Iterator<Item = &'w Window>) -> Latencies {
    let (mut windows, mut response, mut submit) = (0, Vec::new(), Vec::new());
    for w in picked {
        windows += 1;
        response.extend(w.response_ns.iter().map(|&ns| u64::from(ns)));
        submit.extend(w.submit_ns.iter().map(|&ns| u64::from(ns)));
    }
    let p50_p99 = |v: &[u64]| [500, 990].map(|pm| percentile_of(v, pm) as f64 / 1e3);
    Latencies {
        windows,
        samples: response.len(),
        response_us: p50_p99(&response),
        submit_us: p50_p99(&submit),
    }
}

/// The latency percentiles a run reports, read from its fast windows.
///
/// The host alternates between fast and slow spells of 0.1 s to 1 s, and
/// the slow ones stretch every CPU-bound time by 30% to 70%. How much of a
/// run falls in slow spells changes from run to run, so a percentile over
/// all samples wanders with it: a median lands on whichever spell held
/// the majority. Every round replays the same schedules, so each window
/// (a slice of consecutive arrivals) is replayed several times. A window
/// is scored by its busy time over the median busy time of the same slice
/// in the run's other replays, and the percentiles are taken over the
/// samples of the best-scoring [`FAST_SHARE`] of windows (widened to
/// [`MIN_FAST_SAMPLES`]). Scoring against the same slice keeps the chosen
/// windows spread over the schedule, so heavy slices count as often as
/// light ones.
pub fn latencies(run: &RunOut) -> Latencies {
    let all: Vec<&Window> = windows(run).map(|(_, _, w)| w).collect();
    let refs: Vec<WindowRef> = windows(run)
        .map(|(f, j, w)| WindowRef {
            key: (f.shard, j),
            busy_ns: w.busy_ns,
            samples: w.response_ns.len(),
        })
        .collect();
    pooled(fast_windows(&refs, FAST_SHARE, MIN_FAST_SAMPLES).into_iter().map(|i| all[i]))
}

/// The same percentiles over every sample of the run, for comparison.
pub fn all_latencies(run: &RunOut) -> Latencies {
    pooled(windows(run).map(|(_, _, w)| w))
}

/// The oracle's virtual-time outcomes (equal to every round's): attained
/// share, error share, worst shard p99 wait, shed share.
fn virtual_time(run: &RunOut) -> (f64, f64, f64, f64) {
    let sum = |f: fn(&rotary::serve::ServeMetrics) -> u64| run.oracle.iter().map(f).sum::<u64>();
    let subs = sum(|m| m.counters.submissions) as f64;
    let attained = ratio(sum(|m| m.counters.completed_attained) as f64, subs);
    let errors = ratio(failed(run) as f64, attempted(run) as f64);
    let wait_p99 = run.oracle.iter().map(|m| m.p99_wait_ms).max().unwrap_or(0) as f64;
    let shed = ratio(sum(|m| m.counters.shed()) as f64, sum(|m| m.counters.admitted) as f64);
    (attained, errors, wait_p99, shed)
}

/// The end-to-end metrics of a measured (untraced) run.
pub fn end_to_end(run: &RunOut) -> Vec<Metric> {
    let setups: Vec<f64> = run.setups_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let wall_s = replays(run).map(|f| f.wall_ns).sum::<u64>() as f64 / 1e9;
    let fast = latencies(run);
    let (attained, _, _, _) = virtual_time(run);
    vec![
        m("setup_s", "s", median(&setups)),
        m("subs_per_s", "1/s", ratio(attempted(run) as f64, wall_s)),
        m("response_p50_us", "us", fast.response_us[0]),
        m("response_p99_us", "us", fast.response_us[1]),
        m("submit_p50_us", "us", fast.submit_us[0]),
        m("submit_p99_us", "us", fast.submit_us[1]),
        m("peak_rss_mb", "MB", run.peak_rss_mb),
        m("attained_rate", "ratio", attained),
    ]
}

/// End-to-end figures that are zero by design on some workloads (no
/// errors; no queueing or shedding on aqp_paper). They are
/// printed on every run and reported with the per-layer metrics.
pub fn outcome_rates(run: &RunOut) -> Vec<Metric> {
    let (_, errors, wait_p99, shed) = virtual_time(run);
    vec![
        m("error_rate", "ratio", errors),
        m("wait_p99_ms", "ms", wait_p99),
        m("shed_rate", "ratio", shed),
    ]
}

/// The per-layer metrics of a traced run (empty for an untraced one).
pub fn per_layer(run: &RunOut) -> Vec<Metric> {
    let (Some(traced), Some(round)) = (&run.traced, run.rounds.get(1)) else { return Vec::new() };
    let out = &Combined::of(round);
    let spans = &traced.spans;
    let agg = aggregate(spans);
    let oracle = aggregate(&traced.oracle_spans);
    let a = |name: &str| agg.get(name).copied().unwrap_or_default();
    let o = |name: &str| oracle.get(name).copied().unwrap_or_default();
    let per_call = |x: Agg| ratio(x.total_ns as f64, x.count as f64);
    let self_per_call = |x: Agg| ratio(x.self_ns as f64, x.count as f64);
    let subs = out.submissions as f64;
    let (enc, dec, poll) = (a("wire.encode"), a("wire.decode"), a("transport.poll"));
    let (admit, step) = (a("backend.admit"), a("backend.step"));
    let (osub, oadv) = (o("daemon.submit"), o("daemon.advance"));
    let seconds = |name: &str| a(name).total_ns as f64 / 1e9;
    let per_job: Vec<f64> = out
        .snapshot_bytes
        .iter()
        .zip(&out.snapshot_jobs)
        .map(|(&b, &j)| ratio(b as f64, j as f64))
        .collect();
    let per_job_mean = ratio(per_job.iter().sum::<f64>(), per_job.len() as f64);

    let mut metrics = vec![
        m("wire.encode_ns", "ns", per_call(enc)),
        m("wire.decode_ns", "ns", per_call(dec)),
        m("wire.bytes_per_sub", "B", ratio(out.edge.bytes as f64, subs)),
        m("wire.frames_per_sub", "count", ratio(out.edge.frames as f64, subs)),
        m(
            "wire.allocs_per_frame",
            "count",
            ratio((enc.allocs + dec.allocs) as f64, (enc.count + dec.count) as f64),
        ),
        m("transport.poll_self_ns", "ns", self_per_call(poll)),
        m("transport.polls_per_sub", "count", ratio(out.edge.polls as f64, subs)),
        m(
            "transport.idle_poll_share",
            "ratio",
            ratio(out.edge.idle_polls as f64, out.edge.polls as f64),
        ),
        m("transport.allocs_per_sub", "count", ratio(poll.self_allocs as f64, subs)),
        m("daemon.submit_self_ns", "ns", self_per_call(osub)),
        m("daemon.advance_self_ns", "ns", self_per_call(oadv)),
        m("daemon.stats_us", "us", mean(&out.stats_ns) / 1e3),
        m("daemon.queue_depth_p99", "count", percentile_of(&out.queue_depth, 990) as f64),
        m(
            "daemon.allocs_per_sub",
            "count",
            ratio((osub.self_allocs + oadv.self_allocs) as f64, subs),
        ),
        m("backend.validate_ns", "ns", per_call(a("backend.validate"))),
        m("backend.admit_ns", "ns", per_call(admit)),
        m("backend.step_ns", "ns", per_call(step)),
        m("backend.inflight_ns", "ns", per_call(a("backend.inflight"))),
        m("backend.steps_per_job", "count", ratio(step.count as f64, admit.count as f64)),
        m(
            "backend.inflight_calls_per_sub",
            "count",
            ratio(a("backend.inflight").count as f64, subs),
        ),
        m("backend.allocs_per_admit", "count", ratio(admit.allocs as f64, admit.count as f64)),
        m("backend.allocs_per_step", "count", ratio(step.allocs as f64, step.count as f64)),
        m("backend.admit_growth", "ratio", growth_ratio(&durations(spans, "backend.admit"))),
        m("backend.step_growth", "ratio", growth_ratio(&durations(spans, "backend.step"))),
        m("tpch.generate_s", "s", seconds("tpch.generate")),
        m("engine.bind_s", "s", seconds("engine.bind")),
        m("engine.history_s", "s", seconds("engine.history")),
        m("snapshot.records_ms", "ms", per_call(a("snapshot.records")) / 1e6),
        m("snapshot.bytes_per_gen", "B", mean(&out.snapshot_bytes)),
        m("snapshot.bytes_per_job", "B", per_job_mean),
        m("snapshot.generations", "count", out.generations as f64),
        m("store.commit_ms", "ms", per_call(a("store.commit")) / 1e6),
        m("store.restore_s", "s", seconds("store.latest_valid") + seconds("daemon.restore")),
        m("proc.rss_setup_mb", "MB", out.rss_setup_mb),
        m("trace.overhead", "ratio", ratio(out.wall_ns as f64, traced.untraced_wall_ns as f64)),
        m("trace.residue_share", "ratio", residue_share(spans, &round.shards)),
    ];
    metrics.extend(outcome_rates(run));
    metrics
}

/// A traced round's shards summed into one view.
struct Combined {
    submissions: usize,
    wall_ns: u64,
    edge: crate::drive::EdgeTotals,
    stats_ns: Vec<u64>,
    queue_depth: Vec<u64>,
    snapshot_bytes: Vec<u64>,
    snapshot_jobs: Vec<u64>,
    generations: u64,
    rss_setup_mb: f64,
}

impl Combined {
    fn of(round: &Round) -> Combined {
        let shards = &round.shards;
        let mut c = Combined {
            submissions: round.submissions(),
            wall_ns: round.wall_ns(),
            edge: Default::default(),
            stats_ns: Vec::new(),
            queue_depth: Vec::new(),
            snapshot_bytes: Vec::new(),
            snapshot_jobs: Vec::new(),
            generations: 0,
            rss_setup_mb: shards.first().map_or(0.0, |o| o.rss_setup_mb),
        };
        for o in shards {
            c.edge.bytes += o.edge.bytes;
            c.edge.frames += o.edge.frames;
            c.edge.polls += o.edge.polls;
            c.edge.idle_polls += o.edge.idle_polls;
            c.stats_ns.extend_from_slice(&o.stats_ns);
            c.queue_depth.extend_from_slice(&o.queue_depth);
            c.snapshot_bytes.extend_from_slice(&o.snapshot_bytes);
            c.snapshot_jobs.extend_from_slice(&o.snapshot_jobs);
            c.generations += o.generations;
        }
        c
    }
}

/// The share of the shards' drive wall time (first Submit to quiescence)
/// not covered by a top-level span.
pub fn residue_share(spans: &[Span], shards: &[DriveOut]) -> f64 {
    let mut wall = 0u64;
    let mut covered = 0u64;
    for o in shards {
        let end_ns = o.start_ns + o.wall_ns;
        wall += o.wall_ns;
        covered += spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.start_ns >= o.start_ns && s.end_ns <= end_ns)
            .map(Span::dur)
            .sum::<u64>();
    }
    ratio(wall.saturating_sub(covered) as f64, wall as f64)
}

/// Host, workload and process stamp lines; `exit_peak_rss_mb` is VmHWM
/// at exit.
pub fn stamp(run: &RunOut, exit_peak_rss_mb: f64) -> Vec<String> {
    let p = &run.params;
    let s = &run.sizes;
    let rss_setup = shards(run).next().map_or(0.0, |o| o.rss_setup_mb);
    let rates = rates(run);
    vec![
        format!(
            "host nproc={} cpu=\"{}\" data_plane_threads={DATA_PLANE_THREADS}",
            host::nproc(),
            host::cpu_model()
        ),
        format!(
            "run workload={} seed={} trace={} seconds={} rounds={} setups={} shards={} \
             submissions_per_shard={} jobs_per_shard={} scale_factor={} snapshot_every={}",
            p.workload.name(),
            p.seed,
            u8::from(p.trace),
            p.seconds,
            run.rounds.len(),
            run.setups_ns.len(),
            s.shards,
            s.submissions,
            s.jobs,
            s.scale_factor,
            s.snapshot_every
        ),
        format!(
            "process rss_setup_mb={rss_setup:.1} peak_rss_first_round_mb={:.1} \
             peak_rss_exit_mb={exit_peak_rss_mb:.1}",
            run.peak_rss_mb
        ),
        format!("replays subs_per_s={} spread={:.4}", listing(&rates), spread(&rates)),
        latency_line("fast_windows", &latencies(run), windows(run).count()),
        latency_line("all_windows", &all_latencies(run), windows(run).count()),
        format!(
            "setups ms={}",
            listing(&run.setups_ns.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
        ),
    ]
}

fn latency_line(label: &str, l: &Latencies, of: usize) -> String {
    format!(
        "{label} windows={}/{of} samples={} response_p50_us={:.2} response_p99_us={:.2} \
         submit_p50_us={:.2} submit_p99_us={:.2}",
        l.windows, l.samples, l.response_us[0], l.response_us[1], l.submit_us[0], l.submit_us[1]
    )
}

fn listing(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    items.join(",")
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON result.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            number(x.value),
            x.unit
        );
    }
    out.push_str("}}");
    out
}
