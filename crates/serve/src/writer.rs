//! The single-writer publisher: owns the live model, republishes a
//! fresh [`ModelSnapshot`] after every window mutation.

use std::sync::Arc;

use hypermine_core::{AdvanceError, AssociationModel};
use hypermine_data::Value;

use crate::cell::{ArcCell, ReaderHandle};
use crate::snapshot::{ModelSnapshot, SnapshotSpec};

/// Owns the live [`AssociationModel`] and an [`ArcCell`] of its latest
/// snapshot. All mutation goes through `&mut self` — the type system
/// enforces the single-writer discipline the serving layer assumes —
/// while any number of [`ReaderHandle`]s read the cell concurrently.
///
/// Every successful mutation ([`ModelServer::advance`],
/// [`ModelServer::advance_batch`], [`ModelServer::retire_oldest`])
/// rebuilds the serving indexes and atomically publishes the new
/// snapshot; failed mutations publish nothing, so readers only ever see
/// windows that actually exist.
#[derive(Debug)]
pub struct ModelServer {
    model: AssociationModel,
    spec: SnapshotSpec,
    cell: Arc<ArcCell<ModelSnapshot>>,
}

impl ModelServer {
    /// Wraps an already-built model and immediately publishes its first
    /// snapshot (so a reader acquired before any advance still gets a
    /// complete view).
    pub fn new(model: AssociationModel, spec: SnapshotSpec) -> Self {
        let snapshot = Arc::new(ModelSnapshot::build(&model, &spec));
        ModelServer {
            model,
            spec,
            cell: Arc::new(ArcCell::new(snapshot)),
        }
    }

    /// A new reader of the published snapshot. Handles are independent
    /// and movable across threads.
    pub fn reader(&self) -> ReaderHandle<ModelSnapshot> {
        self.cell.reader()
    }

    /// The snapshot cell itself, for callers that manage readers
    /// directly (e.g. the stream host hands it to reader threads).
    pub fn cell(&self) -> &Arc<ArcCell<ModelSnapshot>> {
        &self.cell
    }

    /// The live model (the writer's private view; readers must use
    /// snapshots).
    pub fn model(&self) -> &AssociationModel {
        &self.model
    }

    /// The publish-time spec.
    pub fn spec(&self) -> &SnapshotSpec {
        &self.spec
    }

    /// Slides the window one observation forward and publishes. Returns
    /// the published epoch.
    pub fn advance(&mut self, row: &[Value]) -> Result<u64, AdvanceError> {
        self.model.advance(row)?;
        Ok(self.publish())
    }

    /// Slides the window `rows.len()` steps in one batch and publishes
    /// once. Returns the published epoch.
    pub fn advance_batch(&mut self, rows: &[Vec<Value>]) -> Result<u64, AdvanceError> {
        self.model.advance_batch(rows)?;
        Ok(self.publish())
    }

    /// Contracts the window from the old end and publishes. Returns the
    /// published epoch.
    pub fn retire_oldest(&mut self) -> Result<u64, AdvanceError> {
        self.model.retire_oldest()?;
        Ok(self.publish())
    }

    /// Rebuilds the serving indexes from the current model state and
    /// atomically publishes them. Readers switch over at their next
    /// load; a reader that cached the superseded snapshot keeps it alive
    /// until it loads again or is dropped.
    pub fn publish(&mut self) -> u64 {
        let snapshot = ModelSnapshot::build(&self.model, &self.spec);
        let epoch = snapshot.epoch();
        self.cell.store(Arc::new(snapshot));
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_core::ModelConfig;
    use hypermine_data::{AttrId, Database};

    fn db() -> Database {
        let x: Vec<Value> = (0..120).map(|i| (i % 3 + 1) as Value).collect();
        let z: Vec<Value> = (0..120).map(|i| ((i / 7) % 3 + 1) as Value).collect();
        Database::from_columns(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            vec![x.clone(), x, z],
        )
        .unwrap()
    }

    #[test]
    fn mutations_republish_and_errors_do_not() {
        let d = db();
        let model = AssociationModel::build(&d.slice_obs(0..100), &ModelConfig::default()).unwrap();
        let mut server = ModelServer::new(model, SnapshotSpec::default());
        let mut reader = server.reader();
        assert_eq!(reader.load().epoch(), 0);

        let row: Vec<Value> = d.attrs().map(|a| d.value(a, 100)).collect();
        assert_eq!(server.advance(&row).unwrap(), 1);
        assert_eq!(reader.load().epoch(), 1);

        // Invalid row: no publish, reader still sees epoch 1.
        assert!(server.advance(&[1]).is_err());
        assert_eq!(reader.load().epoch(), 1);

        assert_eq!(server.retire_oldest().unwrap(), 2);
        let snap = reader.load();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.database().num_obs(), 99);
        assert_eq!(
            snap.graph().num_edges(),
            server.model().hypergraph().num_edges()
        );
    }

    #[test]
    fn batch_advance_publishes_once_at_the_final_epoch() {
        let d = db();
        let model = AssociationModel::build(&d.slice_obs(0..100), &ModelConfig::default()).unwrap();
        let mut server = ModelServer::new(model, SnapshotSpec::default());
        let rows: Vec<Vec<Value>> = (100..105)
            .map(|o| d.attrs().map(|a| d.value(a, o)).collect())
            .collect();
        assert_eq!(server.advance_batch(&rows).unwrap(), 5);
        let mut reader = server.reader();
        assert_eq!(reader.load().epoch(), 5);
        let _ = AttrId::new(0);
    }
}
