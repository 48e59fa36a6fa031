//! A single-hidden-layer multilayer perceptron with softmax output,
//! trained by stochastic gradient descent with backpropagation.

use crate::dataset::TabularDataset;
use crate::linalg::{argmax, softmax};
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyperparameters for [`Mlp::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f64,
    /// Full passes over the data.
    pub epochs: usize,
    /// L2 penalty.
    pub l2: f64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 16,
            lr: 0.05,
            epochs: 200,
            l2: 1e-5,
        }
    }
}

/// The network: `x → tanh(W₁x + b₁) → softmax(W₂h + b₂)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    d: usize,
    h: usize,
    c: usize,
    w1: Vec<f64>, // h × d
    b1: Vec<f64>, // h
    w2: Vec<f64>, // c × h
    b2: Vec<f64>, // c
}

impl Mlp {
    /// Trains by per-example SGD minimizing cross-entropy.
    ///
    /// # Panics
    /// Panics on an empty dataset or `hidden == 0`.
    pub fn train<R: Rng>(data: &TabularDataset, cfg: &MlpConfig, rng: &mut R) -> Self {
        assert!(!data.is_empty(), "cannot train on zero examples");
        assert!(cfg.hidden > 0, "hidden width must be positive");
        let (d, h, c) = (data.n_features(), cfg.hidden, data.n_classes());
        // Small symmetric-breaking init.
        let scale = 1.0 / (d.max(1) as f64).sqrt();
        let mut init =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-scale..scale)).collect() };
        let mut net = Mlp {
            d,
            h,
            c,
            w1: init(h * d),
            b1: vec![0.0; h],
            w2: init(c * h),
            b2: vec![0.0; c],
        };

        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut hid = vec![0.0; h];
        let mut logits = vec![0.0; c];
        let mut probs = vec![0.0; c];
        let mut dhid = vec![0.0; h];

        for _ in 0..cfg.epochs {
            order.shuffle(rng);
            for &i in &order {
                let x = data.row(i);
                let y = data.label(i);
                net.forward(x, &mut hid, &mut logits);
                softmax(&logits, &mut probs);

                // Hidden gradient through tanh. Must read w2 before the
                // output-layer update below, so both layers step on the
                // gradient of the loss at the *current* parameters.
                for (j, dh) in dhid.iter_mut().enumerate() {
                    let mut g = 0.0;
                    for (cls, &p) in probs.iter().enumerate() {
                        let err = p - if cls == y { 1.0 } else { 0.0 };
                        g += err * net.w2[cls * h + j];
                    }
                    *dh = g * (1.0 - hid[j] * hid[j]);
                }
                // Output layer gradient: dL/dlogit = p − 1[y].
                for (cls, &p) in probs.iter().enumerate() {
                    let err = p - if cls == y { 1.0 } else { 0.0 };
                    net.b2[cls] -= cfg.lr * err;
                    let row = &mut net.w2[cls * h..(cls + 1) * h];
                    for (w, &hj) in row.iter_mut().zip(&hid) {
                        *w -= cfg.lr * (err * hj + cfg.l2 * *w);
                    }
                }
                for (j, &dh) in dhid.iter().enumerate() {
                    net.b1[j] -= cfg.lr * dh;
                    let row = &mut net.w1[j * d..(j + 1) * d];
                    for (w, &xi) in row.iter_mut().zip(x) {
                        *w -= cfg.lr * (dh * xi + cfg.l2 * *w);
                    }
                }
            }
        }
        net
    }

    fn forward(&self, x: &[f64], hid: &mut [f64], logits: &mut [f64]) {
        for (j, hj) in hid.iter_mut().enumerate() {
            let row = &self.w1[j * self.d..(j + 1) * self.d];
            let z: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.b1[j];
            *hj = z.tanh();
        }
        for (cls, logit) in logits.iter_mut().enumerate() {
            let row = &self.w2[cls * self.h..(cls + 1) * self.h];
            *logit = row.iter().zip(hid.iter()).map(|(w, h)| w * h).sum::<f64>() + self.b2[cls];
        }
    }

    /// Class probabilities for `x`.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        let mut hid = vec![0.0; self.h];
        let mut logits = vec![0.0; self.c];
        let mut probs = vec![0.0; self.c];
        self.forward(x, &mut hid, &mut logits);
        softmax(&logits, &mut probs);
        probs
    }

    /// The most probable class for `x`.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut hid = vec![0.0; self.h];
        let mut logits = vec![0.0; self.c];
        self.forward(x, &mut hid, &mut logits);
        argmax(&logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solves_xor() {
        // The canonical non-linearly-separable problem a perceptron cannot
        // solve (paper Section 2.3.1 discussion).
        let mut ds = TabularDataset::new(2, 2);
        for _ in 0..25 {
            ds.push(&[0.0, 0.0], 0);
            ds.push(&[0.0, 1.0], 1);
            ds.push(&[1.0, 0.0], 1);
            ds.push(&[1.0, 1.0], 0);
        }
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = MlpConfig {
            hidden: 8,
            lr: 0.1,
            epochs: 400,
            l2: 0.0,
        };
        let net = Mlp::train(&ds, &cfg, &mut rng);
        assert_eq!(net.predict(&[0.0, 0.0]), 0);
        assert_eq!(net.predict(&[0.0, 1.0]), 1);
        assert_eq!(net.predict(&[1.0, 0.0]), 1);
        assert_eq!(net.predict(&[1.0, 1.0]), 0);
    }

    #[test]
    fn probabilities_normalized() {
        let mut ds = TabularDataset::new(1, 3);
        ds.push(&[0.0], 0);
        ds.push(&[1.0], 1);
        ds.push(&[2.0], 2);
        let net = Mlp::train(&ds, &MlpConfig::default(), &mut StdRng::seed_from_u64(12));
        let p = net.probabilities(&[1.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut ds = TabularDataset::new(1, 2);
        for i in 0..10 {
            ds.push(&[i as f64], (i % 2) as usize);
        }
        let cfg = MlpConfig::default();
        let a = Mlp::train(&ds, &cfg, &mut StdRng::seed_from_u64(1));
        let b = Mlp::train(&ds, &cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "hidden width")]
    fn zero_hidden_rejected() {
        let mut ds = TabularDataset::new(1, 2);
        ds.push(&[0.0], 0);
        Mlp::train(
            &ds,
            &MlpConfig {
                hidden: 0,
                ..MlpConfig::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
    }
}
