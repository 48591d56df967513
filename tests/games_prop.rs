//! The fc-games property suite (fc-games `tests/prop.rs`), run by the
//! root package's `cargo test` so the default test command replays the
//! fingerprint and rank-2 profile refutations against the solver.

#[path = "../crates/core/tests/prop.rs"]
mod suite;
