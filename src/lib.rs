//! # hypermine
//!
//! A complete Rust implementation of *Mining Associations Using Directed
//! Hypergraphs* (ICDE 2012): model any multi-valued-attribute database as a
//! weighted directed hypergraph whose nodes are attributes and whose directed
//! hyperedges `(T, H)` capture many-to-one implication strength via an
//! *association confidence value* (ACV).
//!
//! The facade re-exports the workspace crates:
//!
//! - [`hypergraph`] — directed hypergraph substrate.
//! - [`data`] — multi-valued attribute databases `D(A, O, V)` and discretizers.
//! - [`market`] — synthetic S&P 500-style market simulator.
//! - [`approx`] — greedy set cover, dominating set, t-clustering, k-means.
//! - [`ml`] — baseline classifiers (logistic regression, SVM, MLP).
//! - [`core`] — the paper's contribution: association hypergraphs, similarity,
//!   leading indicators, and the association-based classifier.
//! - [`serve`] — concurrent serving: epoch-tagged snapshots published through
//!   a cell each reader caches, queried without allocation while the window
//!   slides.
//! - [`experiments`] — the harness regenerating every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use hypermine::core::{ModelConfig, AssociationModel};
//! use hypermine::data::Database;
//!
//! // Discretized database: 3 attributes, 8 observations, values in 1..=3.
//! let db = Database::from_rows(
//!     vec!["A".into(), "B".into(), "C".into()],
//!     3,
//!     &[
//!         [1, 1, 2], [1, 2, 1], [2, 1, 3], [2, 2, 2],
//!         [1, 1, 2], [3, 3, 3], [2, 2, 2], [1, 1, 2],
//!     ],
//! )
//! .unwrap();
//!
//! let model = AssociationModel::build(&db, &ModelConfig::default()).unwrap();
//! assert!(model.hypergraph().num_nodes() == 3);
//! ```

pub use hypermine_approx as approx;
pub use hypermine_core as core;
pub use hypermine_data as data;
pub use hypermine_experiments as experiments;
pub use hypermine_hypergraph as hypergraph;
pub use hypermine_market as market;
pub use hypermine_ml as ml;
pub use hypermine_serve as serve;
