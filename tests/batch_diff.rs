//! The batch engine's differential suite (fc-games `tests/batch_diff.rs`),
//! run by the root package's `cargo test` so the default test command
//! guards the verdict cascade, the rank-2 profile path included.

#[path = "../crates/core/tests/batch_diff.rs"]
mod suite;
