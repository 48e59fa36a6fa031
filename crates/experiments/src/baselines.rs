//! Baseline classifiers for Tables 5.3/5.4: SVM, multilayer perceptron, and
//! logistic regression over one-hot encodings of dominator values.
//!
//! The paper trains Weka models per target series; its exact training-set
//! construction ("each row in AT(e) as a data point") is ambiguous about
//! prediction-time features, so we use the standard day-level protocol —
//! features are the dominator attributes' discretized values on a day,
//! label is the target's value the same day — trained in-sample and
//! evaluated out-of-sample. This is a substitution for the paper's
//! protocol, so baseline accuracies compare in trend, not in value.

use hypermine_data::{AttrId, Database};
use hypermine_ml::{
    accuracy, LogisticConfig, LogisticRegression, Mlp, MlpConfig, MultiClassSvm, SvmConfig,
    TabularDataset,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mean out-of-sample accuracy per baseline, averaged over targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineScores {
    pub svm: f64,
    pub mlp: f64,
    pub logistic: f64,
}

/// Hyperparameters sized so a full table row (hundreds of targets) runs in
/// seconds rather than hours; accuracy saturates quickly on one-hot inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    pub svm: SvmConfig,
    pub mlp: MlpConfig,
    pub logistic: LogisticConfig,
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            svm: SvmConfig {
                lambda: 1e-3,
                iterations: 8_000,
            },
            mlp: MlpConfig {
                hidden: 10,
                lr: 0.05,
                epochs: 15,
                l2: 1e-5,
            },
            logistic: LogisticConfig {
                lr: 0.1,
                epochs: 20,
                l2: 1e-4,
            },
            seed: 1234,
        }
    }
}

/// Trains all three baselines per target on `train_db` (features = the
/// dominator attributes, one-hot) and returns mean accuracies on `test_db`.
pub fn evaluate_baselines(
    train_db: &Database,
    test_db: &Database,
    dominator: &[AttrId],
    targets: &[AttrId],
    cfg: &BaselineConfig,
) -> BaselineScores {
    assert!(!dominator.is_empty(), "dominator must be non-empty");
    let mut svm_sum = 0.0;
    let mut mlp_sum = 0.0;
    let mut log_sum = 0.0;
    let mut count = 0usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for &target in targets {
        if dominator.contains(&target) {
            continue;
        }
        let train = TabularDataset::one_hot_from_db(train_db, dominator, target);
        let test = TabularDataset::one_hot_from_db(test_db, dominator, target);
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let svm = MultiClassSvm::train(&train, &cfg.svm, &mut rng);
        svm_sum += accuracy(&test, |x| svm.predict(x));
        let mlp = Mlp::train(&train, &cfg.mlp, &mut rng);
        mlp_sum += accuracy(&test, |x| mlp.predict(x));
        let logistic = LogisticRegression::train(&train, &cfg.logistic, &mut rng);
        log_sum += accuracy(&test, |x| logistic.predict(x));
        count += 1;
    }
    let count = count.max(1) as f64;
    BaselineScores {
        svm: svm_sum / count,
        mlp: mlp_sum / count,
        logistic: log_sum / count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_data::Value;

    /// Features perfectly determine the target.
    fn dbs() -> (Database, Database) {
        let mk = |n: usize, offset: usize| {
            let x: Vec<Value> = (0..n).map(|o| ((o + offset) % 3 + 1) as Value).collect();
            let y = x.clone();
            Database::from_columns(vec!["x".into(), "y".into()], 3, vec![x, y]).unwrap()
        };
        (mk(150, 0), mk(60, 1))
    }

    #[test]
    fn baselines_learn_identity_mapping() {
        let (train, test) = dbs();
        let scores = evaluate_baselines(
            &train,
            &test,
            &[AttrId::new(0)],
            &[AttrId::new(1)],
            &BaselineConfig::default(),
        );
        assert!(scores.svm > 0.95, "svm {}", scores.svm);
        assert!(scores.mlp > 0.95, "mlp {}", scores.mlp);
        assert!(scores.logistic > 0.95, "logistic {}", scores.logistic);
    }

    #[test]
    fn targets_inside_dominator_are_skipped() {
        let (train, test) = dbs();
        let scores = evaluate_baselines(
            &train,
            &test,
            &[AttrId::new(0)],
            &[AttrId::new(0)],
            &BaselineConfig::default(),
        );
        // No usable target: all scores zero (count clamps to 1).
        assert_eq!(scores.svm, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dominator_rejected() {
        let (train, test) = dbs();
        evaluate_baselines(&train, &test, &[], &[], &BaselineConfig::default());
    }
}
