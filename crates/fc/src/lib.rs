//! # fc-logic — the logic FC and FC[REG]
//!
//! FC (Freydenberger–Peterfreund) is first-order logic over *factor
//! structures*: a word `w ∈ Σ*` is represented by the τ_Σ-structure 𝔄_w
//! whose universe is `Facs(w) ∪ {⊥}`, with the ternary concatenation
//! relation `R∘ = {(x,y,z) : x = y·z, all factors of w}` and constants for
//! each letter and ε. FC[REG] adds regular constraints `(x ∈̇ γ)`.
//!
//! Modules:
//!
//! - [`formula`]: terms, formulas (with the paper's `x ≐ y·z` atoms and the
//!   wide-equation shorthand), smart constructors, free variables,
//!   quantifier rank, desugaring into pure binary FC;
//! - [`structure`]: the factor structure 𝔄_w with an interned universe,
//!   backed by either dense tables or a succinct suffix automaton
//!   (selected by word length; see `docs/STRUCTURE.md`);
//! - [`eval`]: the model checker — sentences, assignments, ⟦φ⟧(w);
//! - [`plan`]: the compiled evaluation pipeline — lower a formula once
//!   into a slot-frame [`plan::Plan`] (structurally deduplicated DFAs,
//!   guard-directed quantifier blocks) and execute it per word;
//! - [`library`]: the paper's concrete formulas (φ_w, φ_ww, R_copy, the
//!   quantifier-rank-5 formula of Prop 3.7, φ_fib of Prop 4.1, φ_{w*}, …);
//! - [`reg_to_fc`]: Lemma 5.3's translation of bounded regular constraints
//!   into FC (with a documented correction to Claim C.1 for imprimitive
//!   words);
//! - [`language`]: windows `L(φ) ∩ Σ^{≤n}` and relation-definability checks.

pub mod analysis;
pub mod eval;
pub mod foeq;
pub mod formula;
pub mod language;
pub mod library;
pub mod normal_form;
pub mod parser;
pub mod plan;
pub mod reg_to_fc;
pub mod span;
pub mod structure;

pub use eval::{holds, satisfying_assignments, Assignment};
pub use formula::{Formula, Term, VarName};
pub use plan::{EvalStats, Plan, PlanCache, PlanCacheStats};
pub use structure::{
    BackendKind, ConcatOracle, ConcatView, FactorBackend, FactorId, FactorStructure,
    DENSE_MAX_WORD_LEN,
};
