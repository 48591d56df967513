//! # fc-serve — the long-running FC / spanner query service
//!
//! The rest of the suite is batch-shaped: every `fc` subcommand parses a
//! formula, compiles a [`fc_logic::Plan`], builds a factor structure, runs
//! once and exits. This crate refactors those entry points around *shared,
//! long-lived engine state* so that the cost of compilation and structure
//! construction is paid once and amortized over an unbounded query stream:
//!
//! - [`engine`]: the [`engine::ServiceEngine`] — a structural-key plan
//!   cache ([`fc_logic::PlanCache`]), a sharded document store
//!   ([`fc_games::ShardedArena`]) interning corpus documents into factor
//!   structures (dense or succinct backend chosen per document), and
//!   thread-safe per-endpoint metrics. Every endpoint (lint, check, solve,
//!   window, extract, game, classify, definable) routes through this one
//!   handle;
//! - [`executor`]: a work-stealing thread pool over *requests*, handing
//!   each worker's scratch state to the requests it runs;
//! - [`server`]: a dependency-free `std::net` TCP server speaking a
//!   newline-delimited JSON protocol (see `docs/SERVE.md`), exposed as
//!   `fc serve`;
//! - [`loadgen`]: deterministic mixed-workload generation and replay —
//!   the `fc-loadgen` binary and the concurrency differential tests both
//!   build on it;
//! - [`json`]: the suite's dependency-free JSON layer (moved here from the
//!   CLI crate; re-exported as `fc_suite::json`).
//!
//! Responses are rendered deterministically (sorted object keys, no
//! timing fields outside the `stats` endpoint), so replaying a workload
//! concurrently is byte-identical to a sequential replay — the invariant
//! the differential suite in `tests/serve_diff.rs` enforces.

pub mod engine;
pub mod executor;
pub mod json;
pub mod loadgen;
pub mod server;

pub use engine::{EngineConfig, Response, ServiceEngine, WorkerScratch};
pub use executor::{Executor, Job};
pub use loadgen::{LoadgenConfig, LoadgenSummary};
pub use server::{Server, ServerConfig};
