//! End-to-end socket benchmark of the Rotary serve stack.
//!
//! One command replays a seeded workload over a real loopback socket into
//! `Listener` → `Daemon` → a real backend (`AqpServeBackend` or the
//! analytic `SimBackend`), checks every outcome
//! against an in-process `run_schedule` oracle, and reports wall-clock
//! and virtual-time metrics. A separate traced run attributes the wall
//! time to layers through spans recorded around public calls only: the
//! program under test is never modified.
//!
//! The daemon lives in virtual time through the transport's injected
//! clock. The replay loop holds a `ManualClock`, moves it to each arrival's
//! due instant, lets the daemon process what is due, then sends the
//! Submit and waits for its response. Arrivals are open-loop in virtual
//! time; in wall time one request is outstanding. Wall-clock metrics
//! therefore measure what the stack costs to serve the schedule, and the
//! virtual-time metrics measure what the arbitrator decided.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload aqp_paper --seed 1 --seconds 10 --trace 0
//! ```

pub mod alloc;
pub mod client;
pub mod drive;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
