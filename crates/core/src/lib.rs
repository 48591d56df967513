//! # fc-games — Ehrenfeucht-Fraïssé games for FC
//!
//! This crate is the executable form of the paper's primary contribution:
//! EF games over factor structures (§3), strategy composition (§4), and the
//! resulting inexpressibility toolkit.
//!
//! - [`partial_iso`]: Definition 3.1 — partial isomorphisms between factor
//!   structures (equality pattern, constants, concatenation);
//! - [`arena`]: game state shared by the solver and strategies — the two
//!   structures, the constant-seeded pair vector, consistency checks;
//! - [`solver`]: the **exact solver** for `𝔄_w ≡_k 𝔅_v` — memoized
//!   alternating search over Spoiler/Duplicator moves. On any concrete
//!   instance its verdict is ground truth, and every strategy in this crate
//!   is tested against it;
//! - [`strategy`]: the Duplicator-strategy interface, transcripts, and the
//!   exhaustive-adversary validation harness;
//! - [`strategies`]: identity, solver-backed table strategies, the
//!   **Pseudo-Congruence composition** (Lemma 4.4) and the **Primitive
//!   Power strategy** (Lemma 4.9);
//! - [`lemmas`]: executable statements of Lemma 4.2 (short factors force
//!   identical responses) and Lemma 4.3 (prefix/suffix preservation);
//! - [`pow2`]: Lemma 3.6 — witness search for `aᵖ ≡_k a^q`, unary
//!   ≡_k-class tables;
//! - [`hintikka`]: ≡_k-partitions of word sets;
//! - [`batch`]: the bulk ≡_k engine — a [`batch::StructureArena`] building
//!   each word's structure once and a [`batch::BatchSolver`] with verdict
//!   memoization and fingerprint pruning; the drivers behind E03/E24/E15
//!   run on it;
//! - [`certificate`]: the constructive direction of Theorem 3.5 — a
//!   rank-≤ k FC sentence separating `w ≢_k v`, read off the solver's
//!   Spoiler strategy;
//! - [`fingerprint`]: cheap ≡_k-invariant fingerprints used to refute
//!   inequivalent pairs without entering the game;
//! - [`arith`] + [`semilinear`]: the semilinear arithmetic tier —
//!   O(1) `u^p ≡_k u^q` verdicts from per-(k, root) class tables
//!   (unary tables from an audited abstraction-key engine, non-unary
//!   roots from solver-backed exponent tables), the first rank-3
//!   minimal unary pair, and the [`arith::ArithOracle`] consulted by
//!   the batch engine, `fc serve`, and `fc game --fast`
//!   (docs/SOLVER.md §8);
//! - [`fooling`]: the Fooling Lemma (Lemma 4.13) driver — constructs
//!   fooling pairs `(w ∈ L, v ∉ L, w ≡_k v)` and confirms them with the
//!   solver;
//! - [`reference`]: the deliberately naive definitional solver the
//!   optimized one is differentially tested against;
//! - [`existential`]: one-sided (existential-positive) games — the §7
//!   route towards core-spanner inexpressibility;
//! - [`pebble`]: p-pebble games for finite-variable FC (§7);
//! - [`ttable`]: the lock-free, generationally-evicted **transposition
//!   table** shared by parallel workers, the batch engine, and `fc serve`
//!   (docs/SOLVER.md §9);
//! - [`canon`]: alphabet-permutation canonicalization of word pairs, so
//!   memo layers collapse letter-renamed and swapped instances.

pub mod arena;
pub mod arith;
pub mod batch;
pub mod canon;
pub mod certificate;
pub mod existential;
pub mod fingerprint;
pub mod fooling;
pub mod hintikka;
pub mod lemmas;
pub mod partial_iso;
pub mod pebble;
pub mod pow2;
pub mod reference;
pub mod semilinear;
pub mod shards;
pub mod solver;
pub mod strategies;
pub mod strategy;
pub mod ttable;

pub use arena::{GamePair, Side};
pub use arith::{ArithOracle, ArithRoute, ArithVerdict, ARITH_MAX_RANK};
pub use batch::{BatchConfig, BatchSolver, BatchStats, StructureArena, WordId};
pub use fingerprint::Fingerprint;
pub use shards::{ShardRef, ShardedArena};
pub use solver::{EfSolver, SolverStats};
pub use strategy::{validate_strategy, DuplicatorStrategy};
pub use ttable::{TransTable, TransTableStats, DEFAULT_TABLE_CAPACITY};
