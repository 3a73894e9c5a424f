//! The workloads: inputs from the seed, set-up, one replay round,
//! the in-process oracle, and the run loop that repeats rounds for the
//! measuring window.

use crate::drive::{drive, DriveOut, DriveSpec, Durability, Schedule};
use crate::host;
use crate::stats::ratio;
use crate::trace::{now_ns, set_request, set_tracing, span, take_spans, Span, Traced};
use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, WorkloadBuilder};
use rotary::core::SimTime;
use rotary::faults::{FaultPlan, RetryPolicy};
use rotary::serve::{
    aqp_payload, open_schedule, run_schedule, AqpServeBackend, Backend, Daemon, LoadGenConfig,
    LoadMode, ServeConfig, ServeMetrics, SimBackend, Submission, TokenBucketConfig,
};
use rotary::tpch::Generator;
use std::path::{Path, PathBuf};

/// Data-plane worker threads, pinned so the host's `ROTARY_THREADS` does
/// not leak in.
pub const DATA_PLANE_THREADS: usize = 1;

/// A set-up sample repeats set-up back to back for at least this long
/// and reports the mean, so each sample spans several of the host's fast
/// and slow spells (they alternate every 0.1 s to 1 s) instead of landing
/// in one of them.
pub const SETUP_SAMPLE_NS: u64 = 300_000_000;

/// One set-up sample is taken after every measured round, and more at the
/// end until there are at least this many; `setup_s` is their median.
pub const MIN_SETUP_SAMPLES: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `AqpServeBackend` (Rotary policy) on TPC-H, the paper's query mix.
    AqpPaper,
    /// `SimBackend` at about 1.4× capacity: wire, transport and admission.
    FrontDoor,
    /// `SimBackend` below capacity with snapshots and a restart: the
    /// daemon's snapshot seam and the store.
    StoreSoak,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::AqpPaper, Workload::FrontDoor, Workload::StoreSoak];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AqpPaper => "aqp_paper",
            Workload::FrontDoor => "front_door",
            Workload::StoreSoak => "store_soak",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for measurement, tiny for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures at.
    Full,
    /// A few dozen submissions, for smoke tests.
    Tiny,
}

/// Workload sizes, stamped into every report.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Submissions per shard schedule.
    pub submissions: usize,
    /// Jobs in the generated workload (AQP queries or simulated users).
    pub jobs: usize,
    /// TPC-H scale factor (0 when no dataset is generated).
    pub scale_factor: f64,
    /// Snapshot cadence in terminal outcomes (0: snapshots off).
    pub snapshot_every: u64,
    /// The arrival before which the daemon restarts from its store.
    pub restart_at: Option<usize>,
    /// Independent schedules per round, each from its own derived seed,
    /// so one run averages over several draws of the workload.
    pub shards: usize,
}

/// The sizes of `workload` at `scale`.
pub fn sizes(workload: Workload, scale: Scale) -> Sizes {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::AqpPaper => {
            let jobs = if tiny { 24 } else { 1_000 };
            Sizes {
                submissions: jobs,
                jobs,
                scale_factor: if tiny { 0.005 } else { 0.02 },
                snapshot_every: 0,
                restart_at: None,
                shards: if tiny { 2 } else { AQP_SHARDS },
            }
        }
        Workload::FrontDoor => {
            let subs = if tiny { 3_000 } else { 100_000 };
            Sizes {
                submissions: subs,
                jobs: subs,
                scale_factor: 0.0,
                snapshot_every: 0,
                restart_at: None,
                shards: 1,
            }
        }
        Workload::StoreSoak => {
            let subs = if tiny { 2_000 } else { 50_000 };
            Sizes {
                submissions: subs,
                jobs: subs / STORE_SUBS_PER_USER as usize,
                scale_factor: 0.0,
                snapshot_every: subs as u64 / 10,
                restart_at: Some(STORE_RESTART_AT),
                shards: 1,
            }
        }
    }
}

/// Client connections (the host has two cores; client and server share
/// one thread).
const CONNS: usize = 2;
/// One `Stats` round trip per this many submissions.
const STATS_EVERY: usize = 1_000;
/// aqp_paper replays this many 1,000-job schedules per round. One
/// schedule's attainment and engine work vary by about ±10% from seed to
/// seed (an overloaded arbitrator amplifies arrival bursts); averaging
/// three draws keeps run-to-run spread well inside the metric bounds.
const AQP_SHARDS: usize = 3;
/// Front-door arrival rate, about 1.4× the simulated backend's capacity.
const FRONT_DOOR_RATE: f64 = 16_000.0;
/// store_soak arrival rate, about 0.95× capacity: the queue stays short,
/// so snapshot commits and the restore carry the cost, while bursts still
/// shed a little, so attainment is not pinned at 1.
const STORE_SOAK_RATE: f64 = 11_000.0;
/// store_soak restarts before this arrival. `Daemon::restore` costs
/// quadratically in lifetime tickets (0.4 to 0.7 s at 1,000 and more
/// than three minutes at 25,000 on a 2-core Xeon), so the restart comes
/// early.
const STORE_RESTART_AT: usize = 1_000;
/// store_soak users each submit this many times, so tenant state and the
/// ticket table both grow with lifetime.
const STORE_SUBS_PER_USER: u32 = 50;

/// What a run is parameterised by.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every input.
    pub seed: u64,
    /// Length of the measuring window, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of measured run.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Where snapshot generations and span dumps go.
    pub out_dir: PathBuf,
}

/// Windows each shard replay is cut into. A window lasts 10 to 20 ms on
/// every workload, shorter than the host's fast and slow spells, so the
/// report can tell the windows replayed in fast periods from the rest.
/// Finer windows also spread the chosen ones over more of the schedule:
/// on dumped runs, p99 spreads fell from 64 to 256 windows and barely
/// moved from 256 to 512.
pub const WINDOWS_PER_REPLAY: usize = 256;

/// A slice of consecutive arrivals of one shard replay.
#[derive(Debug, Clone)]
pub struct Window {
    /// The window's response times summed: the time the stack spent
    /// serving its arrivals, ns.
    pub busy_ns: u64,
    /// Per arrival: due instant reached → `SubmitResp` decoded, ns
    /// (saturating at `u32::MAX`, about 4.3 s).
    pub response_ns: Vec<u32>,
    /// Per arrival: Submit written → `SubmitResp` decoded, ns (saturating).
    pub submit_ns: Vec<u32>,
}

/// What one shard replay reports; it outlives the replay's other samples.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Which shard of the round.
    pub shard: usize,
    /// Submissions sent.
    pub submissions: usize,
    /// First Submit to quiescence, ns.
    pub wall_ns: u64,
    /// The replay cut into at most [`WINDOWS_PER_REPLAY`] windows of
    /// consecutive arrivals; every replay of a shard is cut the same way.
    pub windows: Vec<Window>,
}

impl Figures {
    fn of(shard: usize, out: &DriveOut) -> Figures {
        let n = out.response_ns.len();
        let parts = WINDOWS_PER_REPLAY.min(n);
        let narrow =
            |v: &[u64]| v.iter().map(|&ns| u32::try_from(ns).unwrap_or(u32::MAX)).collect();
        let windows = (0..parts)
            .map(|j| {
                let range = j * n / parts..(j + 1) * n / parts;
                Window {
                    busy_ns: out.response_ns[range.clone()].iter().sum(),
                    response_ns: narrow(&out.response_ns[range.clone()]),
                    submit_ns: narrow(&out.submit_ns[range]),
                }
            })
            .collect();
        Figures { shard, submissions: n, wall_ns: out.wall_ns, windows }
    }

    /// Submissions per wall second.
    pub fn subs_per_s(&self) -> f64 {
        ratio(self.submissions as f64, self.wall_ns as f64 / 1e9)
    }
}

/// One replay of every shard's schedule.
#[derive(Debug)]
pub struct Round {
    /// Per shard: the socket run.
    pub shards: Vec<DriveOut>,
    /// Per shard: the figures it reports.
    pub figures: Vec<Figures>,
}

impl Round {
    fn of(shards: Vec<DriveOut>) -> Round {
        let figures = shards.iter().enumerate().map(|(k, out)| Figures::of(k, out)).collect();
        Round { shards, figures }
    }

    /// Submissions sent in this round.
    pub fn submissions(&self) -> usize {
        self.figures.iter().map(|f| f.submissions).sum()
    }

    /// First Submit to quiescence, summed over shards, ns.
    pub fn wall_ns(&self) -> u64 {
        self.figures.iter().map(|f| f.wall_ns).sum()
    }

    /// Frees the samples the figures do not need: the report reads the
    /// figures only. The decoded submissions go too unless `keep_stamped`
    /// (the oracle needs the first round's).
    fn release(&mut self, keep_stamped: bool) {
        for out in &mut self.shards {
            out.response_ns = Vec::new();
            out.submit_ns = Vec::new();
            out.stats_ns = Vec::new();
            out.queue_depth = Vec::new();
            if !keep_stamped {
                out.stamped = Vec::new();
            }
        }
    }
}

/// The traced half of a `--trace 1` run.
#[derive(Debug)]
pub struct TracedRun {
    /// Spans of the traced socket round (set-up included).
    pub spans: Vec<Span>,
    /// Spans of the instrumented in-process oracle pass.
    pub oracle_spans: Vec<Span>,
    /// Wall of the untraced round the traced one is compared with, ns.
    pub untraced_wall_ns: u64,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOut {
    /// The parameters.
    pub params: RunParams,
    /// Sizes used.
    pub sizes: Sizes,
    /// Socket rounds (in a traced run: the untraced one, then the traced
    /// one).
    pub rounds: Vec<Round>,
    /// Set-up samples on the run's seed, each a mean per set-up, ns.
    pub setups_ns: Vec<u64>,
    /// Peak resident set (VmHWM) right after the first round, MB: the
    /// program's peak over a full replay, before the harness has kept
    /// more than one round's samples.
    pub peak_rss_mb: f64,
    /// The oracle's metrics, per shard.
    pub oracle: Vec<ServeMetrics>,
    /// Traced-run data.
    pub traced: Option<TracedRun>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

fn serve_config(sizes: &Sizes, workload: Workload) -> ServeConfig {
    match workload {
        // Sized so admission control never perturbs arbitration: the
        // queue holds the whole workload and the caps never bind.
        Workload::AqpPaper => ServeConfig {
            queue_capacity: sizes.jobs.max(1),
            bucket: TokenBucketConfig::per_second(1 << 40, 1 << 40),
            max_tenants: 1,
            max_payload_bytes: 1 << 20,
            max_inflight: sizes.jobs.max(1),
            admission_timeout: SimTime::from_mins(1 << 22),
            retry: RetryPolicy::default(),
            pressure_watermark: 1.0,
            shed_watermark: 1.0,
            resume_watermark: 1.0,
            record_outcomes: true,
            retain_payloads: false,
        },
        // Production-shaped: no ledger, no retained payloads. store_soak
        // keeps both, which durable snapshots and the restart need.
        Workload::FrontDoor | Workload::StoreSoak => ServeConfig {
            queue_capacity: 4096,
            bucket: TokenBucketConfig::per_second(1 << 20, 1 << 20),
            max_tenants: sizes.jobs as u64,
            max_payload_bytes: 4096,
            max_inflight: 64,
            admission_timeout: SimTime::from_secs(30),
            retry: RetryPolicy::default(),
            pressure_watermark: 0.5,
            shed_watermark: 0.875,
            resume_watermark: 0.5,
            record_outcomes: workload == Workload::StoreSoak,
            retain_payloads: workload == Workload::StoreSoak,
        },
    }
}

/// One tenant, strictly increasing sequence numbers, real payload sizes.
fn submission(i: usize, deadline: SimTime, payload: rotary::core::json::Json) -> Submission {
    let bytes = payload.to_pretty().len() as u64;
    Submission {
        tenant: 0,
        seq: i as u64 + 1,
        attempt: 0,
        deadline,
        cost_milli: 1000,
        bytes,
        payload,
    }
}

fn aqp_config() -> AqpSystemConfig {
    AqpSystemConfig {
        threads: DATA_PLANE_THREADS,
        faults: FaultPlan::none(),
        ..AqpSystemConfig::default()
    }
}

fn aqp_schedule(seed: u64, jobs: usize) -> Schedule {
    WorkloadBuilder::paper()
        .jobs(jobs)
        .seed(seed)
        .build()
        .iter()
        .enumerate()
        .map(|(i, spec)| (spec.arrival, submission(i, spec.deadline, aqp_payload(spec))))
        .collect()
}

fn sim_load(seed: u64, users: usize, per_user: u32, rate: f64) -> LoadGenConfig {
    LoadGenConfig {
        seed,
        users: users as u64,
        submissions_per_user: per_user,
        mode: LoadMode::Open { arrivals_per_sec: rate },
        service_ms: (1, 10),
        deadline_slack: (2.0, 30.0),
        cost_milli: 10,
        bytes: 64,
        oversize_bytes: 1 << 20,
        window: SimTime::from_secs(10),
        max_resubmits: 1,
        faults: FaultPlan::none(),
    }
}

/// Drives `backend`, wrapped in the timing decorator when tracing.
fn drive_as<B: Backend>(
    spec: &DriveSpec<'_>,
    backend: B,
    fresh: &mut dyn FnMut() -> Result<B, String>,
) -> Result<DriveOut, String> {
    if crate::trace::tracing() {
        let mut traced_fresh = || fresh().map(Traced);
        drive(spec, Traced(backend), &mut traced_fresh)
    } else {
        drive(spec, backend, fresh)
    }
}

fn no_restart<B>() -> Result<B, String> {
    Err("this workload never restarts".into())
}

fn store_dir(params: &RunParams) -> PathBuf {
    params.out_dir.join(format!("store-{}-{}", params.workload.name(), std::process::id()))
}

fn clear_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The seed of shard `k`; shard 0 uses the run's seed itself.
fn shard_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Sets up and replays every shard once.
fn round(params: &RunParams, sizes: &Sizes) -> Result<Round, String> {
    let shards = (0..sizes.shards)
        .map(|k| shard(params, sizes, shard_seed(params.seed, k), true).map(|(_, out)| out))
        .collect::<Result<_, _>>()?;
    Ok(Round::of(shards))
}

/// One set-up sample: shard 0 set up on the run's seed with nothing
/// replayed, repeated back to back for [`SETUP_SAMPLE_NS`]; the mean per
/// set-up, ns.
fn setup_sample(params: &RunParams, sizes: &Sizes) -> Result<u64, String> {
    let start = now_ns();
    let (mut total, mut count) = (0u64, 0u64);
    while count == 0 || now_ns() - start < SETUP_SAMPLE_NS {
        total += shard(params, sizes, params.seed, false)?.0;
        count += 1;
    }
    Ok(total / count)
}

/// What every workload drives: its schedule (or, for a set-up-only
/// sample, nothing) over [`CONNS`] connections with periodic `Stats`.
fn drive_spec(
    config: ServeConfig,
    schedule: &[(SimTime, Submission)],
    replay: bool,
    durability: Option<Durability>,
) -> DriveSpec<'_> {
    DriveSpec {
        config,
        schedule: if replay { schedule } else { &[] },
        conns: CONNS,
        stats_every: STATS_EVERY,
        durability,
    }
}

/// Sets up one shard and (when `replay`) replays its schedule. Without
/// `replay` the drive runs an empty schedule, so only set-up is measured.
fn shard(
    params: &RunParams,
    sizes: &Sizes,
    seed: u64,
    replay: bool,
) -> Result<(u64, DriveOut), String> {
    let config = serve_config(sizes, params.workload);
    let start = now_ns();
    let (pre_ns, out) = match params.workload {
        Workload::AqpPaper => {
            let data =
                span("tpch.generate", || Generator::new(seed, sizes.scale_factor).generate());
            let schedule = span("setup.schedule", || aqp_schedule(seed, sizes.jobs));
            let mut sys = span("engine.bind", || AqpSystem::new(&data, aqp_config()));
            span("engine.history", || sys.prepopulate_history(seed ^ 0xbeef))
                .map_err(|e| format!("AQP history warm-up: {e}"))?;
            let backend = span("setup.backend", || AqpServeBackend::new(sys, AqpPolicy::Rotary))
                .map_err(|e| format!("AQP backend: {e}"))?;
            let pre_ns = now_ns() - start;
            let spec = drive_spec(config, &schedule, replay, None);
            (pre_ns, drive_as(&spec, backend, &mut no_restart)?)
        }
        Workload::FrontDoor => {
            let load = sim_load(seed, sizes.jobs, 1, FRONT_DOOR_RATE);
            let schedule = span("setup.schedule", || open_schedule(&load))
                .map_err(|e| format!("front-door schedule: {e}"))?;
            let pre_ns = now_ns() - start;
            let spec = drive_spec(config, &schedule, replay, None);
            (pre_ns, drive_as(&spec, SimBackend::new(), &mut no_restart)?)
        }
        Workload::StoreSoak => {
            let load = sim_load(seed, sizes.jobs, STORE_SUBS_PER_USER, STORE_SOAK_RATE);
            let schedule = span("setup.schedule", || open_schedule(&load))
                .map_err(|e| format!("store-soak schedule: {e}"))?;
            let pre_ns = now_ns() - start;
            let dir = store_dir(params);
            clear_dir(&dir);
            let durability = Durability {
                dir: dir.clone(),
                every_terminals: sizes.snapshot_every.max(1),
                restart_at: sizes.restart_at,
            };
            let spec = drive_spec(config, &schedule, replay, Some(durability));
            let out = drive_as(&spec, SimBackend::new(), &mut || Ok(SimBackend::new()));
            clear_dir(&dir);
            (pre_ns, out?)
        }
    };
    Ok((pre_ns + out.setup_ns, out))
}

/// Replays `stamped` in process. Untraced it is `run_schedule` itself;
/// traced it is the same loop spelled out (advance, then submit, per
/// arrival, then finish) so each daemon call sits in its own span.
fn oracle_on<B: Backend>(
    config: ServeConfig,
    backend: B,
    stamped: &[(SimTime, Submission)],
) -> Result<ServeMetrics, String> {
    if !crate::trace::tracing() {
        return run_schedule(config, backend, stamped)
            .map(|r| r.metrics)
            .map_err(|e| format!("oracle: {e}"));
    }
    let mut daemon =
        Daemon::new(config, Traced(backend)).map_err(|e| format!("oracle config: {e}"))?;
    for (i, (at, sub)) in stamped.iter().enumerate() {
        set_request(i as u64);
        span("daemon.advance", || daemon.advance(*at));
        span("daemon.submit", || daemon.submit(*at, sub));
    }
    span("daemon.finish", || daemon.finish());
    Ok(daemon.metrics())
}

/// The oracle for `params.workload` on a freshly set-up backend.
fn oracle_shard(
    params: &RunParams,
    sizes: &Sizes,
    seed: u64,
    stamped: &[(SimTime, Submission)],
) -> Result<ServeMetrics, String> {
    let config = serve_config(sizes, params.workload);
    match params.workload {
        Workload::AqpPaper => {
            let data = Generator::new(seed, sizes.scale_factor).generate();
            let mut sys = AqpSystem::new(&data, aqp_config());
            sys.prepopulate_history(seed ^ 0xbeef).map_err(|e| format!("AQP history: {e}"))?;
            let backend = AqpServeBackend::new(sys, AqpPolicy::Rotary)
                .map_err(|e| format!("AQP backend: {e}"))?;
            oracle_on(config, backend, stamped)
        }
        Workload::FrontDoor | Workload::StoreSoak => oracle_on(config, SimBackend::new(), stamped),
    }
}

/// The oracle for every shard, fed the first round's decoded submissions.
fn oracle(params: &RunParams, sizes: &Sizes, first: &Round) -> Result<Vec<ServeMetrics>, String> {
    first
        .shards
        .iter()
        .enumerate()
        .map(|(k, out)| oracle_shard(params, sizes, shard_seed(params.seed, k), &out.stamped))
        .collect()
}

/// Checks one shard's run against the oracle and the workload's vacuity
/// guard.
fn check_shard(
    workload: Workload,
    out: &DriveOut,
    oracle: &ServeMetrics,
    problems: &mut Vec<String>,
) {
    problems.extend(out.problems.iter().cloned());
    if out.metrics != *oracle {
        problems.push(format!(
            "socket metrics differ from the in-process oracle: {:?} vs {:?}",
            out.metrics, oracle
        ));
    }
    let c = &out.metrics.counters;
    match workload {
        Workload::FrontDoor if c.shed() == 0 => {
            problems.push("front_door shed nothing: the overload metrics are vacuous".into())
        }
        Workload::AqpPaper if c.completed_attained == 0 => {
            problems.push("aqp_paper attained nothing: the arbitration metrics are vacuous".into())
        }
        Workload::StoreSoak if out.generations < 3 || out.restarts != 1 => problems.push(format!(
            "{} committed {} generations and restarted {} times (needs ≥3 and 1)",
            workload.name(),
            out.generations,
            out.restarts
        )),
        _ => {}
    }
}

/// Checks that a later round decoded the same submissions as the first.
fn check_stamped(round: &Round, first: &Round, problems: &mut Vec<String>) {
    if round
        .shards
        .iter()
        .zip(&first.shards)
        .any(|(out, reference)| out.stamped != reference.stamped)
    {
        problems.push("rounds decoded different submissions".into());
    }
}

/// Capacity for the span recorder: generous per submission, so the
/// recorder never grows inside a measured call.
fn span_capacity(sizes: &Sizes) -> usize {
    sizes.shards * sizes.submissions * 48 + (1 << 16)
}

/// Runs a workload: measured rounds for the window (or, traced, one
/// untraced and one traced round), the oracle, and the checks.
pub fn run(params: RunParams) -> Result<RunOut, String> {
    let sizes = sizes(params.workload, params.scale);
    set_tracing(false, 0);
    let mut problems = Vec::new();
    let mut rounds = Vec::new();
    let mut setups_ns = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut traced = None;
    let oracle_metrics;
    if params.trace {
        let untraced = round(&params, &sizes)?;
        let untraced_wall_ns = untraced.wall_ns();
        peak_rss_mb = host::peak_rss_mb();
        rounds.push(untraced);
        set_tracing(true, span_capacity(&sizes));
        let traced_round = round(&params, &sizes);
        let spans = take_spans();
        let traced_round = traced_round?;
        check_stamped(&traced_round, &rounds[0], &mut problems);
        rounds.push(traced_round);
        set_tracing(true, span_capacity(&sizes));
        let metrics = oracle(&params, &sizes, &rounds[0]);
        let oracle_spans = take_spans();
        oracle_metrics = metrics?;
        traced = Some(TracedRun { spans, oracle_spans, untraced_wall_ns });
    } else {
        let window_start = now_ns();
        let window_end = window_start + (params.seconds * 1e9) as u64;
        loop {
            let mut next = round(&params, &sizes)?;
            if let Some(first) = rounds.first() {
                check_stamped(&next, first, &mut problems);
            }
            next.release(rounds.is_empty());
            if rounds.is_empty() {
                peak_rss_mb = host::peak_rss_mb();
            }
            rounds.push(next);
            setups_ns.push(setup_sample(&params, &sizes)?);
            // Stop once another round would end closer past the window
            // than this one ends before it, so a run lasts about
            // `seconds` even when a round takes several seconds.
            let now = now_ns();
            let per_round = (now - window_start) / rounds.len() as u64;
            if now + per_round / 2 >= window_end {
                break;
            }
        }
        while setups_ns.len() < MIN_SETUP_SAMPLES {
            setups_ns.push(setup_sample(&params, &sizes)?);
        }
        oracle_metrics = oracle(&params, &sizes, &rounds[0])?;
    }
    for r in &rounds {
        for (out, oracle) in r.shards.iter().zip(&oracle_metrics) {
            check_shard(params.workload, out, oracle, &mut problems);
        }
    }
    Ok(RunOut {
        params,
        sizes,
        rounds,
        setups_ns,
        peak_rss_mb,
        oracle: oracle_metrics,
        traced,
        problems,
    })
}
