//! Text processing substrate for the Simrank++ reproduction.
//!
//! §9.3 of the paper: *"We then use stemming to filter out duplicate
//! rewrites."* This crate supplies everything that step needs:
//!
//! * [`normalize`] — query canonicalization (case folding, punctuation and
//!   whitespace cleanup) as any production query pipeline performs before
//!   graph construction;
//! * [`mod@tokenize`] — whitespace word splitting over normalized text;
//! * [`porter`] — a complete Porter (1980) stemmer, implemented from the
//!   original paper's step tables;
//! * [`dedup`] — stem-multiset equivalence of whole queries, used to drop
//!   rewrite candidates that only differ by inflection ("running shoe" vs
//!   "running shoes") or word order: a signature id per query, interned
//!   once per graph.

pub mod dedup;
pub mod normalize;
pub mod porter;
pub mod tokenize;

pub use dedup::{stem_signature, StemClasses};
pub use normalize::normalize_query;
pub use porter::stem;
pub use tokenize::tokenize;
