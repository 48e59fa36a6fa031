//! Baseline classifiers the paper compares against (Sections 2.3.1, 5.5).
//!
//! The paper benchmarks its association-based classifier against Weka's
//! SVM, multilayer perceptron, and logistic regression on one-hot encodings
//! of discretized attribute values. This crate provides from-scratch
//! equivalents, plus the preliminaries the paper reviews:
//!
//! - [`LinearRegression`] — least squares with optional ridge;
//! - [`LogisticRegression`] — multinomial softmax regression;
//! - [`MultiClassSvm`] — one-vs-rest linear SVM (Pegasos);
//! - [`Mlp`] — one-hidden-layer network with softmax output;
//! - [`TabularDataset`] — dense features + labels, with one-hot encoding
//!   from discretized [`hypermine_data::Database`]s;
//! - [`accuracy`] / [`ConfusionMatrix`] — evaluation.

mod dataset;
mod eval;
mod linalg;
mod linreg;
mod logistic;
mod mlp;
mod svm;

pub use dataset::TabularDataset;
pub use eval::{accuracy, ConfusionMatrix};
pub use linalg::{argmax, axpy, dot, gaussian_solve, softmax};
pub use linreg::LinearRegression;
pub use logistic::{LogisticConfig, LogisticRegression};
pub use mlp::{Mlp, MlpConfig};
pub use svm::{LinearSvm, MultiClassSvm, SvmConfig};
