//! Tabular datasets for the baseline classifiers.

use hypermine_data::{AttrId, Database};

/// A dense row-major feature matrix with integer class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularDataset {
    n_features: usize,
    n_classes: usize,
    features: Vec<f64>,
    labels: Vec<usize>,
}

impl TabularDataset {
    /// Creates an empty dataset with the given shape.
    ///
    /// # Panics
    /// Panics if `n_classes == 0`.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        assert!(n_classes >= 1, "need at least one class");
        TabularDataset {
            n_features,
            n_classes,
            features: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Appends an example.
    ///
    /// # Panics
    /// Panics on a wrong-width row or out-of-range label.
    pub fn push(&mut self, row: &[f64], label: usize) {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        assert!(label < self.n_classes, "label out of range");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The `i`'th feature row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The `i`'th label.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The majority class and its frequency (`None` when empty); the
    /// baseline any classifier must beat.
    pub fn majority_class(&self) -> Option<(usize, f64)> {
        if self.labels.is_empty() {
            return None;
        }
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        let (cls, &cnt) = counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .expect("n_classes >= 1");
        Some((cls, cnt as f64 / self.labels.len() as f64))
    }

    /// Builds a classification dataset from a discretized [`Database`]:
    /// features are the **one-hot encodings** of the given attributes'
    /// values (`features.len() · k` columns), the label is `target`'s value
    /// minus 1, and `n_classes = k`.
    ///
    /// This is how the paper feeds discrete attribute values to Weka's SVM /
    /// MLP / logistic regression (Section 5.5): dominator attributes as the
    /// feature set, one model per target series.
    pub fn one_hot_from_db(db: &Database, feature_attrs: &[AttrId], target: AttrId) -> Self {
        let k = db.k() as usize;
        let mut ds = TabularDataset::new(feature_attrs.len() * k, k);
        let mut row = vec![0.0; feature_attrs.len() * k];
        for o in 0..db.num_obs() {
            row.iter_mut().for_each(|x| *x = 0.0);
            for (fi, &a) in feature_attrs.iter().enumerate() {
                let v = db.value(a, o) as usize - 1;
                row[fi * k + v] = 1.0;
            }
            ds.push(&row, db.value(target, o) as usize - 1);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_data::Database;

    #[test]
    fn push_and_access() {
        let mut ds = TabularDataset::new(2, 3);
        ds.push(&[1.0, 0.0], 2);
        ds.push(&[0.0, 1.0], 0);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0), &[1.0, 0.0]);
        assert_eq!(ds.label(1), 0);
        assert_eq!(ds.majority_class(), Some((0, 0.5)));
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn wrong_width_rejected() {
        TabularDataset::new(2, 2).push(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_rejected() {
        TabularDataset::new(1, 2).push(&[1.0], 2);
    }

    #[test]
    fn one_hot_encoding() {
        let db = Database::from_rows(
            vec!["f1".into(), "f2".into(), "y".into()],
            3,
            &[[1, 3, 2], [2, 1, 1]],
        )
        .unwrap();
        let ds =
            TabularDataset::one_hot_from_db(&db, &[AttrId::new(0), AttrId::new(1)], AttrId::new(2));
        assert_eq!(ds.n_features(), 6);
        assert_eq!(ds.n_classes(), 3);
        assert_eq!(ds.row(0), &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(ds.label(0), 1);
        assert_eq!(ds.row(1), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
        assert_eq!(ds.label(1), 0);
    }

    #[test]
    fn majority_of_empty_is_none() {
        assert_eq!(TabularDataset::new(1, 2).majority_class(), None);
    }
}
