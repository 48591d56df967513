//! The transposition-table and canonicalization differential suite
//! (fc-games `tests/table_diff.rs`), run by the root package's `cargo
//! test` so the default test command guards the table-root tier.

#[path = "../crates/core/tests/table_diff.rs"]
mod suite;
