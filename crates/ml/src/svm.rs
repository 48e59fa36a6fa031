//! Linear SVM trained with Pegasos (primal stochastic sub-gradient descent
//! on the hinge loss), plus a one-vs-rest multi-class wrapper.

use crate::dataset::TabularDataset;
use crate::linalg::{argmax, dot};
use rand::Rng;

/// Hyperparameters for Pegasos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmConfig {
    /// Regularization strength λ (larger ⇒ larger margin, more bias).
    pub lambda: f64,
    /// Number of stochastic iterations.
    pub iterations: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            lambda: 1e-3,
            iterations: 20_000,
        }
    }
}

/// A binary linear SVM `sign(w·x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Bias (trained unregularized, standard Pegasos extension).
    pub bias: f64,
}

impl LinearSvm {
    /// Pegasos training: at step `t`, sample an example, step size
    /// `η = 1/(λt)`; always shrink `w ← (1 − ηλ)w`, and on margin violation
    /// (`y(w·x + b) < 1`) also add `η y x`.
    ///
    /// # Panics
    /// Panics on empty input or ragged rows.
    pub fn train<R: Rng>(xs: &[&[f64]], ys: &[bool], cfg: &SvmConfig, rng: &mut R) -> Self {
        assert_eq!(xs.len(), ys.len(), "one label per row");
        assert!(!xs.is_empty(), "cannot train on zero examples");
        let d = xs[0].len();
        assert!(xs.iter().all(|r| r.len() == d), "ragged rows");
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        for t in 1..=cfg.iterations {
            let i = rng.gen_range(0..xs.len());
            let y = if ys[i] { 1.0 } else { -1.0 };
            let eta = 1.0 / (cfg.lambda * t as f64);
            let margin = y * (dot(&w, xs[i]) + b);
            let shrink = 1.0 - eta * cfg.lambda;
            for wj in w.iter_mut() {
                *wj *= shrink;
            }
            if margin < 1.0 {
                for (wj, &xj) in w.iter_mut().zip(xs[i]) {
                    *wj += eta * y * xj;
                }
                b += eta * y;
            }
        }
        LinearSvm {
            weights: w,
            bias: b,
        }
    }

    /// The decision value `w·x + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    /// True for the positive class.
    pub fn classify(&self, x: &[f64]) -> bool {
        self.decision(x) > 0.0
    }
}

/// One-vs-rest multi-class linear SVM.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassSvm {
    machines: Vec<LinearSvm>,
}

impl MultiClassSvm {
    /// Trains one binary SVM per class.
    pub fn train<R: Rng>(data: &TabularDataset, cfg: &SvmConfig, rng: &mut R) -> Self {
        let xs: Vec<&[f64]> = (0..data.len()).map(|i| data.row(i)).collect();
        let machines = (0..data.n_classes())
            .map(|c| {
                let ys: Vec<bool> = data.labels().iter().map(|&l| l == c).collect();
                LinearSvm::train(&xs, &ys, cfg, rng)
            })
            .collect();
        MultiClassSvm { machines }
    }

    /// Predicts the class with the highest decision value.
    pub fn predict(&self, x: &[f64]) -> usize {
        let scores: Vec<f64> = self.machines.iter().map(|m| m.decision(x)).collect();
        argmax(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn separates_margins() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec![1.0 + (i / 2) as f64 * 0.1, 0.5]
                } else {
                    vec![-1.0 - (i / 2) as f64 * 0.1, -0.5]
                }
            })
            .collect();
        let xs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let m = LinearSvm::train(&xs, &ys, &SvmConfig::default(), &mut rng);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(m.classify(x), y);
        }
    }

    #[test]
    fn multiclass_grid() {
        let mut ds = TabularDataset::new(2, 3);
        for i in 0..8 {
            let t = i as f64 * 0.02;
            ds.push(&[t, 0.0], 0);
            ds.push(&[4.0 + t, 0.0], 1);
            ds.push(&[2.0 + t, 4.0], 2);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let m = MultiClassSvm::train(&ds, &SvmConfig::default(), &mut rng);
        let acc = (0..ds.len())
            .filter(|&i| m.predict(ds.row(i)) == ds.label(i))
            .count() as f64
            / ds.len() as f64;
        assert!(acc >= 0.95, "training accuracy {acc}");
    }

    #[test]
    fn weights_shrink_with_large_lambda() {
        let rows = [vec![1.0], vec![-1.0]];
        let xs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let ys = [true, false];
        let mut rng = StdRng::seed_from_u64(6);
        let strong = LinearSvm::train(
            &xs,
            &ys,
            &SvmConfig {
                lambda: 10.0,
                iterations: 5000,
            },
            &mut rng,
        );
        let weak = LinearSvm::train(
            &xs,
            &ys,
            &SvmConfig {
                lambda: 1e-4,
                iterations: 5000,
            },
            &mut rng,
        );
        assert!(strong.weights[0].abs() < weak.weights[0].abs());
    }

    #[test]
    #[should_panic(expected = "zero examples")]
    fn empty_input_panics() {
        LinearSvm::train(
            &[],
            &[],
            &SvmConfig::default(),
            &mut StdRng::seed_from_u64(0),
        );
    }
}
