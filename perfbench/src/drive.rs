//! The socket replay loop: replays a schedule over loopback into
//! `Listener` → `Daemon` → backend, one request outstanding, the daemon's
//! clock moved by hand to each arrival's due instant.
//!
//! For every arrival the replay loop moves the clock, polls until the daemon
//! has processed everything due (committing a snapshot or restarting the
//! daemon when the durability plan says so), sends the Submit on its
//! connection and polls until the `SubmitResp` is decoded. After the last
//! arrival it jumps the clock from backend event to backend event until
//! the daemon is quiet. Every submission's bytes are decoded again to
//! recover the exact submission the daemon saw (the decoder stamps
//! `bytes` with the wire length), which is what the in-process oracle is
//! fed.

use crate::client::{encode, Client};
use crate::host;
use crate::trace::{now_ns, set_request, span};
use rotary::core::SimTime;
use rotary::serve::{
    decode_frame, Backend, Clock, ConnClosed, Daemon, Frame, Listener, ManualClock, ServeConfig,
    ServeMetrics, Submission, SubmitResponse, TransportConfig, TransportStats,
};
use rotary::store::SnapshotStore;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A time-ordered submission schedule.
pub type Schedule = Vec<(SimTime, Submission)>;

/// Polls without progress after which a wait is declared hung.
const SPIN_LIMIT: u64 = 1_000_000;

/// Durable snapshots during a run.
#[derive(Debug, Clone)]
pub struct Durability {
    /// Snapshot store directory (created; old generations are the
    /// caller's to remove).
    pub dir: PathBuf,
    /// Commit a generation every this many terminal outcomes.
    pub every_terminals: u64,
    /// Restart the daemon from the store just before this arrival.
    pub restart_at: Option<usize>,
}

/// What one socket run replays and how.
pub struct DriveSpec<'s> {
    /// Daemon configuration (the oracle uses the same).
    pub config: ServeConfig,
    /// Arrivals in time order.
    pub schedule: &'s [(SimTime, Submission)],
    /// Client connections; arrival `i` goes out on connection `i % conns`.
    pub conns: usize,
    /// One `Stats` round trip after every this many submissions (0: none).
    pub stats_every: usize,
    /// Snapshot commits and the mid-run restart, if any.
    pub durability: Option<Durability>,
}

/// Client-visible failures. Typed rejects and sheds are not errors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Errors {
    /// `Failed` completions.
    pub failed: u64,
    /// Frames that failed to decode, on either side.
    pub wire: u64,
    /// Connections closed for an error-class reason.
    pub closes: u64,
    /// Replies the client did not expect, or expected and never got.
    pub protocol: u64,
}

impl Errors {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.failed + self.wire + self.closes + self.protocol
    }
}

/// Edge counters summed over every listener of the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct EdgeTotals {
    /// Bytes read plus bytes flushed by the server.
    pub bytes: u64,
    /// Frames decoded plus frames queued by the server.
    pub frames: u64,
    /// `Listener::poll` calls.
    pub polls: u64,
    /// Polls that reported no progress.
    pub idle_polls: u64,
}

/// Everything one socket run measured and checked.
#[derive(Debug)]
pub struct DriveOut {
    /// The daemon's metrics at quiescence.
    pub metrics: ServeMetrics,
    /// Listener bind and client connects, ns.
    pub setup_ns: u64,
    /// Resident set right after set-up, MB.
    pub rss_setup_mb: f64,
    /// Probe reading at the first Submit, ns.
    pub start_ns: u64,
    /// First Submit to quiescence, ns.
    pub wall_ns: u64,
    /// Per arrival: due instant reached → `SubmitResp` decoded, ns.
    pub response_ns: Vec<u64>,
    /// Per arrival: Submit written → `SubmitResp` decoded, ns.
    pub submit_ns: Vec<u64>,
    /// Per `Stats` frame: written → `StatsResp` decoded, ns.
    pub stats_ns: Vec<u64>,
    /// Admission-queue depth after each submission.
    pub queue_depth: Vec<u64>,
    /// The submissions exactly as the daemon decoded them.
    pub stamped: Schedule,
    /// Failures seen.
    pub errors: Errors,
    /// Edge counters.
    pub edge: EdgeTotals,
    /// Snapshot generations committed.
    pub generations: u64,
    /// Daemon restarts from the store.
    pub restarts: u64,
    /// Encoded record bytes per committed generation.
    pub snapshot_bytes: Vec<u64>,
    /// Lifetime admissions at each commit.
    pub snapshot_jobs: Vec<u64>,
    /// Failed correctness checks, in words.
    pub problems: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    Submit,
    Stats,
}

/// The client's ledger of what it sent and what came back.
struct Book {
    awaiting: Vec<Option<Wait>>,
    /// Admitted tickets still owed a terminal notice → connection.
    open: BTreeMap<u64, usize>,
    errors: Errors,
    problems: Vec<String>,
}

impl Book {
    fn protocol(&mut self, what: String) {
        self.errors.protocol += 1;
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    fn handle(&mut self, conn: usize, frame: Frame) {
        let waiting = self.awaiting.get(conn).copied().flatten();
        match frame {
            Frame::SubmitResp(resp) if waiting == Some(Wait::Submit) => {
                if let SubmitResponse::Admitted { ticket } = resp {
                    if self.open.insert(ticket, conn).is_some() {
                        self.protocol(format!("ticket {ticket} admitted twice"));
                    }
                }
                self.awaiting[conn] = None;
            }
            Frame::StatsResp(_) if waiting == Some(Wait::Stats) => self.awaiting[conn] = None,
            Frame::Notice(notice) => match self.open.remove(&notice.ticket) {
                Some(c) if c == conn => {}
                Some(c) => self.protocol(format!(
                    "notice for ticket {} arrived on connection {conn}, not {c}",
                    notice.ticket
                )),
                None => self.protocol(format!("unexpected notice for ticket {}", notice.ticket)),
            },
            Frame::Bye(reason) => {
                self.protocol(format!("server closed connection {conn}: {}", reason.label()))
            }
            other => self.protocol(format!("unexpected frame on connection {conn}: {other:?}")),
        }
    }
}

/// A listener with its connected clients.
struct Edge<B: Backend> {
    listener: Listener<B, ManualClock>,
    clients: Vec<Client>,
}

/// Transport limits for virtual-time replay: arrival gaps are minutes to
/// hours of virtual time, so the idle and frame deadlines are set far
/// beyond any schedule instead of timing quiet clients out.
fn transport() -> TransportConfig {
    TransportConfig {
        idle_timeout: SimTime::from_mins(1 << 22),
        frame_deadline: SimTime::from_mins(1 << 22),
        ..TransportConfig::small()
    }
}

fn open_edge<B: Backend>(
    daemon: Daemon<B>,
    clock: &ManualClock,
    conns: usize,
) -> Result<Edge<B>, String> {
    let mut listener = span("setup.listener", || {
        Listener::bind("127.0.0.1:0", transport(), daemon, clock.clone())
    })
    .map_err(|e| format!("listener bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("listener address: {e}"))?;
    let clients = span("setup.connect", || {
        (0..conns).map(|_| Client::connect(addr)).collect::<Result<Vec<_>, _>>()
    })?;
    let mut spins = 0;
    while listener.stats().accepted < conns as u64 {
        span("setup.accept", || listener.poll());
        spins += 1;
        if spins > SPIN_LIMIT {
            return Err("the listener never accepted its clients".into());
        }
    }
    Ok(Edge { listener, clients })
}

impl<B: Backend> Edge<B> {
    fn poll(&mut self, edge: &mut EdgeTotals) -> bool {
        let moved = span("transport.poll", || self.listener.poll());
        edge.polls += 1;
        if !moved {
            edge.idle_polls += 1;
        }
        moved
    }

    fn receive(&mut self, book: &mut Book) {
        for (c, client) in self.clients.iter_mut().enumerate() {
            client.receive();
            loop {
                match client.next_frame() {
                    Ok(Some(frame)) => book.handle(c, frame),
                    Ok(None) => break,
                    Err(e) => {
                        book.errors.wire += 1;
                        book.problems.push(e);
                        break;
                    }
                }
            }
        }
    }

    /// Polls until a pass moves nothing, reading replies as they land.
    fn settle(&mut self, book: &mut Book, edge: &mut EdgeTotals) -> Result<(), String> {
        for _ in 0..SPIN_LIMIT {
            let moved = self.poll(edge);
            self.receive(book);
            if !moved {
                return Ok(());
            }
        }
        Err("the daemon never went quiet".into())
    }

    /// Sends `bytes` on `conn` and polls until the awaited reply is in.
    fn round_trip(
        &mut self,
        conn: usize,
        bytes: &[u8],
        wait: Wait,
        book: &mut Book,
        edge: &mut EdgeTotals,
    ) -> Result<(), String> {
        book.awaiting[conn] = Some(wait);
        let client = self.clients.get_mut(conn).ok_or("no such connection")?;
        client.send(bytes)?;
        for _ in 0..SPIN_LIMIT {
            self.poll(edge);
            self.receive(book);
            if book.awaiting[conn].is_none() {
                return Ok(());
            }
            if !self.clients[conn].open {
                return Err(format!("connection {conn} closed while awaiting a reply"));
            }
        }
        Err(format!("no reply on connection {conn}"))
    }

    fn absorb(&self, out: &mut DriveOut) {
        absorb_stats(self.listener.stats(), out);
    }
}

fn absorb_stats(stats: &TransportStats, out: &mut DriveOut) {
    out.edge.bytes += stats.bytes_in + stats.bytes_out;
    out.edge.frames += stats.frames_in + stats.frames_out;
    out.errors.wire += stats.wire_errors;
    out.errors.closes += [
        ConnClosed::IdleTimeout,
        ConnClosed::FrameTooLarge,
        ConnClosed::BadFrame,
        ConnClosed::Overload,
    ]
    .iter()
    .map(|&r| stats.closed_for(r))
    .sum::<u64>();
}

struct Store {
    store: SnapshotStore,
    plan: Durability,
    generation: u64,
    last_terminals: u64,
}

impl Store {
    fn commit<B: Backend>(&mut self, edge: &Edge<B>, out: &mut DriveOut) -> Result<(), String> {
        let daemon = edge.listener.daemon();
        let records = span("snapshot.records", || daemon.snapshot_records())
            .map_err(|e| format!("snapshot records: {e}"))?;
        let bytes: u64 = records.iter().map(|(n, b)| (n.len() + b.len()) as u64).sum();
        self.generation += 1;
        let generation = self.generation;
        let store = &self.store;
        // The commit consumes the records, so freeing them is store time.
        span("store.commit", move || store.commit(generation, &records, None))
            .map_err(|e| format!("snapshot commit: {e}"))?;
        self.last_terminals = daemon.counters().terminals();
        out.generations += 1;
        out.snapshot_bytes.push(bytes);
        out.snapshot_jobs.push(daemon.counters().admitted);
        Ok(())
    }

    fn due(&self, terminals: u64) -> bool {
        terminals.saturating_sub(self.last_terminals) >= self.plan.every_terminals
    }
}

/// Replays `spec.schedule` over loopback against `backend`; `fresh`
/// builds the backend a restarted daemon is restored onto.
pub fn drive<B: Backend>(
    spec: &DriveSpec<'_>,
    backend: B,
    fresh: &mut dyn FnMut() -> Result<B, String>,
) -> Result<DriveOut, String> {
    let conns = spec.conns.max(1);
    let n = spec.schedule.len();
    let setup_start = now_ns();
    let daemon = span("setup.daemon", || Daemon::new(spec.config.clone(), backend))
        .map_err(|e| format!("daemon config: {e}"))?;
    let clock = ManualClock::new();
    let mut edge = open_edge(daemon, &clock, conns)?;
    let setup_ns = now_ns() - setup_start;

    let mut store = match &spec.durability {
        Some(plan) => Some(Store {
            store: SnapshotStore::open(&plan.dir).map_err(|e| format!("snapshot store: {e}"))?,
            plan: plan.clone(),
            generation: 0,
            last_terminals: 0,
        }),
        None => None,
    };
    let mut out = DriveOut {
        metrics: edge.listener.daemon().metrics(),
        setup_ns,
        rss_setup_mb: host::rss_mb(),
        start_ns: 0,
        wall_ns: 0,
        response_ns: Vec::with_capacity(n),
        submit_ns: Vec::with_capacity(n),
        stats_ns: Vec::new(),
        queue_depth: Vec::with_capacity(n),
        stamped: Vec::with_capacity(n),
        errors: Errors::default(),
        edge: EdgeTotals::default(),
        generations: 0,
        restarts: 0,
        snapshot_bytes: Vec::new(),
        snapshot_jobs: Vec::new(),
        problems: Vec::new(),
    };
    let mut book = Book {
        awaiting: vec![None; conns],
        open: BTreeMap::new(),
        errors: Errors::default(),
        problems: Vec::new(),
    };
    let mut totals = EdgeTotals::default();
    let mut carried = 0u64;

    let start = now_ns();
    out.start_ns = start;
    for (i, (at, sub)) in spec.schedule.iter().enumerate() {
        set_request(i as u64);
        let frame = Frame::Submit(sub.clone());
        let due = now_ns();
        if clock.now_ms() < at.as_millis() {
            clock.set_ms(at.as_millis());
        }
        edge.settle(&mut book, &mut totals)?;
        if let Some(st) = store.as_mut() {
            let restart = st.plan.restart_at == Some(i);
            if restart || st.due(edge.listener.daemon().counters().terminals()) {
                st.commit(&edge, &mut out)?;
            }
            if restart {
                edge.absorb(&mut out);
                drop(edge);
                carried += book.open.len() as u64;
                book.open.clear();
                edge = restart_edge(spec, st, fresh, &clock, conns)?;
                out.restarts += 1;
            }
        }
        let bytes = encode(&frame);
        let conn = i % conns;
        let sent = now_ns();
        edge.round_trip(conn, &bytes, Wait::Submit, &mut book, &mut totals)?;
        let replied = now_ns();
        out.response_ns.push(replied - due);
        out.submit_ns.push(replied - sent);
        out.queue_depth.push(edge.listener.daemon().queue_len() as u64);
        match span("wire.decode", || decode_frame(&bytes)) {
            Ok(Some((Frame::Submit(seen), _))) => out.stamped.push((*at, seen)),
            other => out.problems.push(format!("submission {i} does not decode: {other:?}")),
        }
        if spec.stats_every > 0 && (i + 1) % spec.stats_every == 0 {
            let stats = encode(&Frame::Stats);
            let asked = now_ns();
            edge.round_trip(conn, &stats, Wait::Stats, &mut book, &mut totals)?;
            out.stats_ns.push(now_ns() - asked);
        }
    }
    set_request(n as u64);
    // Run the tail out: jump from backend event to backend event.
    loop {
        edge.settle(&mut book, &mut totals)?;
        if let Some(st) = store.as_mut() {
            if st.due(edge.listener.daemon().counters().terminals()) {
                st.commit(&edge, &mut out)?;
            }
        }
        match edge.listener.daemon().backend().peek() {
            Some(t) if t.as_millis() > clock.now_ms() => clock.set_ms(t.as_millis()),
            _ => break,
        }
    }
    out.wall_ns = now_ns() - start;

    edge.absorb(&mut out);
    out.edge.polls = totals.polls;
    out.edge.idle_polls = totals.idle_polls;
    let daemon = edge.listener.daemon();
    out.metrics = daemon.metrics();
    out.errors.failed = out.metrics.counters.completed_failed;
    out.errors.wire += book.errors.wire;
    out.errors.protocol += book.errors.protocol;
    out.problems.append(&mut book.problems);
    check_outcomes(daemon, n as u64, &spec.config, &mut out.problems);
    if !book.open.is_empty() {
        out.errors.protocol += book.open.len() as u64;
        out.problems
            .push(format!("{} admitted tickets never received a terminal notice", book.open.len()));
    }
    if carried > 0 && !spec.config.record_outcomes {
        out.problems.push("tickets carried across a restart need the outcome ledger".into());
    }
    Ok(out)
}

fn restart_edge<B: Backend>(
    spec: &DriveSpec<'_>,
    st: &Store,
    fresh: &mut dyn FnMut() -> Result<B, String>,
    clock: &ManualClock,
    conns: usize,
) -> Result<Edge<B>, String> {
    let (_, records) = span("store.latest_valid", || st.store.latest_valid())
        .map_err(|e| format!("snapshot load: {e}"))?
        .ok_or("the store holds no valid generation")?;
    let backend = span("restart.backend", fresh)?;
    let daemon = span("daemon.restore", || Daemon::restore(spec.config.clone(), backend, &records))
        .map_err(|e| format!("daemon restore: {e}"))?;
    drop(records);
    open_edge(daemon, clock, conns)
}

/// Exactly one terminal outcome per submission, read from the daemon:
/// counters always, the typed ledger when it is kept.
fn check_outcomes<B: Backend>(
    daemon: &Daemon<B>,
    sent: u64,
    config: &ServeConfig,
    problems: &mut Vec<String>,
) {
    let c = daemon.counters();
    if c.submissions != sent {
        problems.push(format!("{sent} submissions sent, daemon saw {}", c.submissions));
    }
    if c.terminals() != c.submissions {
        problems.push(format!(
            "{} terminal outcomes for {} submissions",
            c.terminals(),
            c.submissions
        ));
    }
    if daemon.queue_len() != 0 || daemon.backend().inflight() != 0 {
        problems.push("work left queued or in flight at quiescence".into());
    }
    if config.record_outcomes {
        let mut seen = BTreeSet::new();
        for r in daemon.ledger() {
            if !seen.insert((r.tenant, r.seq)) {
                problems.push(format!("tenant {} seq {} has two outcomes", r.tenant, r.seq));
                break;
            }
        }
        if seen.len() as u64 != sent {
            problems.push(format!("ledger covers {} of {sent} submissions", seen.len()));
        }
    }
}
