//! Tables 5.3 and 5.4: dominator size / coverage and mean classification
//! confidence of the association-based classifier versus the baselines, at
//! ACV thresholds keeping the top 40/30/20% of edges.

use crate::baselines::{evaluate_baselines, BaselineConfig, BaselineScores};
use crate::paper::{self, PaperDominatorRow};
use crate::scenario::BuiltConfig;
use hypermine_core::{
    attr_of, dominating_adaptation, node_of, set_cover_adaptation, AssociationClassifier,
    SetCoverOptions, StopRule,
};
use hypermine_data::AttrId;
use hypermine_hypergraph::NodeId;
use std::fmt;

/// Which dominator algorithm drives the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominatorAlgorithm {
    /// Algorithm 5 (Table 5.3).
    DominatingSet,
    /// Algorithm 6 with both enhancements (Table 5.4).
    SetCover,
}

/// One measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct DominatorRow {
    pub config: &'static str,
    pub algorithm: DominatorAlgorithm,
    pub top_fraction: f64,
    pub acv_threshold: f64,
    pub dominator_size: usize,
    pub percent_covered: f64,
    pub abc_in_sample: f64,
    pub abc_out_sample: f64,
    pub baselines: BaselineScores,
}

/// Runs one table (5.3 or 5.4) for one built configuration: for each
/// top-edge fraction, filters the model by the corresponding ACV threshold,
/// computes the dominator over all attributes, and evaluates the
/// association-based classifier (in- and out-of-sample) plus the three
/// baselines (out-of-sample) on the non-dominator attributes.
pub fn dominator_table(
    built: &BuiltConfig,
    algorithm: DominatorAlgorithm,
    fractions: &[f64],
    baseline_cfg: &BaselineConfig,
) -> Vec<DominatorRow> {
    let model = &built.model;
    let all_nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    let mut rows = Vec::new();
    for &fraction in fractions {
        let Some(threshold) = model.acv_percentile_threshold(fraction) else {
            continue;
        };
        let filtered = model.filter_by_acv(threshold);
        let result = match algorithm {
            DominatorAlgorithm::DominatingSet => {
                dominating_adaptation(filtered.hypergraph(), &all_nodes, StopRule::NoCrossGain)
            }
            DominatorAlgorithm::SetCover => set_cover_adaptation(
                filtered.hypergraph(),
                &all_nodes,
                &SetCoverOptions::default(),
            ),
        };
        let dominator: Vec<AttrId> = result.dominator.iter().map(|&n| attr_of(n)).collect();
        if dominator.is_empty() {
            continue;
        }
        let targets: Vec<AttrId> = model.attrs().filter(|a| !dominator.contains(a)).collect();
        let clf = AssociationClassifier::new(&filtered, &dominator);
        let abc_in = clf.evaluate(&built.train_db, &targets).mean_confidence();
        let abc_out = clf.evaluate(&built.test_db, &targets).mean_confidence();
        let baselines = evaluate_baselines(
            &built.train_db,
            &built.test_db,
            &dominator,
            &targets,
            baseline_cfg,
        );
        rows.push(DominatorRow {
            config: built.config.name,
            algorithm,
            top_fraction: fraction,
            acv_threshold: threshold,
            dominator_size: dominator.len(),
            percent_covered: result.percent_covered(),
            abc_in_sample: abc_in,
            abc_out_sample: abc_out,
            baselines,
        });
    }
    rows
}

impl DominatorRow {
    /// The paper row this corresponds to, if any.
    pub fn paper_row(&self) -> Option<&'static PaperDominatorRow> {
        let table: &[PaperDominatorRow] = match self.algorithm {
            DominatorAlgorithm::DominatingSet => &paper::TABLE_5_3,
            DominatorAlgorithm::SetCover => &paper::TABLE_5_4,
        };
        table
            .iter()
            .find(|p| p.config == self.config && (p.top_fraction - self.top_fraction).abs() < 1e-9)
    }

    /// The headline shape claims of Tables 5.3/5.4: the ABC beats SVM and
    /// logistic regression out of sample and is at least competitive with
    /// the MLP.
    pub fn abc_wins(&self) -> bool {
        self.abc_out_sample > self.baselines.svm
            && self.abc_out_sample > self.baselines.logistic
            && self.abc_out_sample >= self.baselines.mlp - 0.05
    }
}

impl fmt::Display for DominatorRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} top{:>3.0}% thr {:.3}: |Dom| {:>3} cov {:>5.1}% | ABC in {:.3} out {:.3} | SVM {:.3} MLP {:.3} LogReg {:.3}",
            self.config,
            self.top_fraction * 100.0,
            self.acv_threshold,
            self.dominator_size,
            self.percent_covered * 100.0,
            self.abc_in_sample,
            self.abc_out_sample,
            self.baselines.svm,
            self.baselines.mlp,
            self.baselines.logistic,
        )?;
        if let Some(p) = self.paper_row() {
            write!(
                f,
                "\n          paper: |Dom| {:>3} cov {:>5.1}% | ABC in {:.3} out {:.3} | SVM {:.3} MLP {:.3} LogReg {:.3}",
                p.dominator_size,
                p.percent_covered * 100.0,
                p.abc_in_sample,
                p.abc_out_sample,
                p.svm,
                p.mlp,
                p.logistic,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Configuration, Scale, Scenario};

    fn quick_baselines() -> BaselineConfig {
        BaselineConfig {
            svm: hypermine_ml::SvmConfig {
                lambda: 1e-3,
                iterations: 500,
            },
            mlp: hypermine_ml::MlpConfig {
                hidden: 4,
                lr: 0.1,
                epochs: 3,
                l2: 0.0,
            },
            logistic: hypermine_ml::LogisticConfig {
                lr: 0.1,
                epochs: 3,
                l2: 0.0,
            },
            seed: 7,
        }
    }

    #[test]
    fn table_rows_have_consistent_shape() {
        let s = Scenario::new(Scale::tiny(), 9);
        let b = s.build(&Configuration::c1());
        for algorithm in [
            DominatorAlgorithm::DominatingSet,
            DominatorAlgorithm::SetCover,
        ] {
            let rows = dominator_table(&b, algorithm, &[0.4, 0.2], &quick_baselines());
            assert!(!rows.is_empty(), "{algorithm:?} produced no rows");
            for r in &rows {
                assert!(r.dominator_size > 0);
                assert!(r.dominator_size <= b.model.num_attrs());
                assert!((0.0..=1.0).contains(&r.percent_covered));
                assert!((0.0..=1.0).contains(&r.abc_in_sample));
                assert!((0.0..=1.0).contains(&r.abc_out_sample));
                let _ = r.to_string();
            }
            // Stricter thresholds raise the ACV floor.
            if rows.len() == 2 {
                assert!(rows[1].acv_threshold >= rows[0].acv_threshold);
            }
        }
    }

    #[test]
    fn paper_row_lookup() {
        let row = DominatorRow {
            config: "C1",
            algorithm: DominatorAlgorithm::DominatingSet,
            top_fraction: 0.4,
            acv_threshold: 0.45,
            dominator_size: 13,
            percent_covered: 0.99,
            abc_in_sample: 0.64,
            abc_out_sample: 0.72,
            baselines: BaselineScores {
                svm: 0.5,
                mlp: 0.7,
                logistic: 0.5,
            },
        };
        let p = row.paper_row().expect("C1/40% exists in Table 5.3");
        assert_eq!(p.dominator_size, 13);
        assert!(row.abc_wins());
    }
}
