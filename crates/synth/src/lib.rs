//! Synthetic click-graph workload generator.
//!
//! The paper evaluates on a two-week US Yahoo! click graph plus human
//! editorial judgments — neither of which is available. This crate builds
//! the closest synthetic equivalent:
//!
//! * [`powerlaw`] — Zipf/power-law samplers (the paper observes power laws
//!   in ads-per-query, queries-per-ad and clicks-per-edge);
//! * [`topics`] — a latent topic world: topics on a relatedness ring,
//!   intents within topics, morphological query variants;
//! * [`clickmodel`] — position-biased click simulation producing
//!   impressions / clicks / expected click rate per edge (§2's weights);
//! * [`generator`] — assembles the world + click simulation into a
//!   [`ClickGraph`](simrankpp_graph::ClickGraph) and ground-truth [`World`];
//! * [`federation`] — streams many independent worlds into one segmented
//!   on-disk store, one segment per world, for beyond-RAM-scale benches;
//! * [`editorial`] — a deterministic stand-in for Yahoo!'s editorial team:
//!   grades (query, rewrite) pairs 1–4 per Table 6's rubric from the
//!   planted ground truth;
//! * [`bids`] — the bid database used by §9.3's bid-term filtering;
//! * [`traffic`] — popularity-proportional query sampling (the "1200
//!   queries from live traffic" procedure);
//! * [`spam`] — click-spam injection for the §11 robustness extension.

pub mod bids;
pub mod clickmodel;
pub mod editorial;
pub mod federation;
pub mod generator;
pub mod powerlaw;
pub mod spam;
pub mod topics;
pub mod traffic;

pub use clickmodel::ClickModel;
pub use editorial::{EditorialJudge, Grade};
pub use federation::{write_federation, write_store, FederationStats, FEDERATION_SEED_BASE};
pub use generator::{GeneratorConfig, SynthDataset};
pub use powerlaw::ZipfSampler;
pub use topics::World;
