//! The optimized-solver differential suite (fc-games
//! `tests/differential.rs`), run by the root package's `cargo test` so the
//! default test command pins the exact solver, the cascade's last tier,
//! to the naive reference.

#[path = "../crates/core/tests/differential.rs"]
mod suite;
