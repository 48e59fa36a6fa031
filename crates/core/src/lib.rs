//! The paper's primary contribution: **association hypergraphs** over
//! multi-valued attribute databases, and everything built on them.
//!
//! Pipeline (Chapters 3–4):
//!
//! 1. Discretize a database `D(A, O, V)` (see `hypermine_data`).
//! 2. [`AssociationModel::build`] constructs the association hypergraph:
//!    nodes = attributes; γ-significant directed edges and 2-to-1 directed
//!    hyperedges weighted by **association confidence values** (ACVs), each
//!    carrying an **association table** (Definition 3.6, Table 3.7).
//! 3. [`AssociationModel::in_similarity`]/[`AssociationModel::out_similarity`]
//!    and [`cluster_attributes`] group attributes with similar association
//!    structure (Section 3.3).
//! 4. [`dominating_adaptation`] / [`set_cover_adaptation`] compute
//!    **leading indicators** (dominators; Section 4.1, Algorithms 5–8).
//! 5. [`AssociationClassifier`] predicts attribute values from a leading
//!    indicator's values (Section 4.2, Algorithm 9).
//!
//! ```
//! use hypermine_core::{AssociationModel, ModelConfig};
//! use hypermine_data::{Database, AttrId};
//!
//! // y copies x; z is noise.
//! let x: Vec<u8> = (0..90).map(|i| (i % 3 + 1) as u8).collect();
//! let z: Vec<u8> = (0..90).map(|i| ((i * 7 / 3) % 3 + 1) as u8).collect();
//! let db = Database::from_columns(
//!     vec!["x".into(), "y".into(), "z".into()], 3,
//!     vec![x.clone(), x, z],
//! ).unwrap();
//!
//! let model = AssociationModel::build(&db, &ModelConfig::c1()).unwrap();
//! let best = model.best_in_edge(AttrId::new(1)).expect("x -> y is kept");
//! assert!(model.acv(best) > 0.9);
//! ```

mod builder;
mod classifier;
mod config;
mod counting;
mod euclid;
mod incremental;
mod leading;
mod mining;
mod model;
mod parallel;
mod phase;
mod rule;
mod simd;
mod simgraph;
mod similarity;
mod table;

pub use classifier::{classify_targets, AssociationClassifier, ClassifierEval, Prediction};
pub use config::{CountStrategy, GammaPreset, ModelConfig, WIDE_PRESET_ATTRS};
pub use counting::{CountingEngine, HeadCounter, KernelPath, PairRows};
pub use euclid::euclidean_similarity;
pub use incremental::{AdvanceError, AdvanceLaps, AdvancePhase, IncrementalStats, WindowShape};
pub use leading::{
    dominating_adaptation, is_dominator, set_cover_adaptation, set_cover_adaptation_filtered,
    DominatorResult, SetCoverOptions, StopRule,
};
pub use mining::{top_rules, MinedRule};
pub use model::{
    attr_of, node_of, AssociationModel, BuildError, ModelExport, ModelStats, ModelTables,
};
pub use phase::{Phase, PhaseLaps, PhaseTimer};
pub use rule::{MvaRule, RuleError};
pub use simd::{SimdLevel, SimdPolicy};
pub use simgraph::{cluster_attributes, similarity_distance_matrix, AttributeClustering};
pub use similarity::{in_similarity_graph, out_similarity_graph};
pub use table::{AssociationTable, AtRow};
