//! Per-worker NUMA-local storage areas.
//!
//! Section 2: "to write NUMA-locally and to avoid synchronization while
//! writing intermediate results the QEPobject allocates a storage area for
//! each such thread/core for each executable pipeline", and "after
//! completion of the entire pipeline the temporary storage areas are
//! logically re-fragmented into equally sized morsels" for the next
//! pipeline. A stolen morsel's output "turns blue": it is written to the
//! *worker's* local area, not the input's node.

use morsel_numa::SocketId;

use crate::batch::Batch;
use crate::schema::Schema;
use crate::value::DataType;

/// An appendable, node-tagged result buffer owned by one worker while a
/// pipeline runs.
#[derive(Debug, Clone)]
pub struct StorageArea {
    node: SocketId,
    data: Batch,
}

impl StorageArea {
    pub fn new(node: SocketId, types: &[DataType]) -> Self {
        StorageArea {
            node,
            data: Batch::empty(types),
        }
    }

    /// An area on `node` holding `data`.
    pub fn holding(node: SocketId, data: Batch) -> Self {
        StorageArea { node, data }
    }

    pub fn node(&self) -> SocketId {
        self.node
    }

    pub fn data(&self) -> &Batch {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut Batch {
        &mut self.data
    }

    pub fn rows(&self) -> usize {
        self.data.rows()
    }
}

/// The frozen output of a completed pipeline: one storage area per worker,
/// ready to be re-fragmented into morsels for the next pipeline.
#[derive(Debug, Clone)]
pub struct AreaSet {
    schema: Schema,
    areas: Vec<StorageArea>,
}

impl AreaSet {
    pub fn new(schema: Schema, areas: Vec<StorageArea>) -> Self {
        AreaSet { schema, areas }
    }

    /// An empty set (pipeline produced nothing).
    pub fn empty(schema: Schema) -> Self {
        AreaSet {
            schema,
            areas: Vec::new(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn areas(&self) -> &[StorageArea] {
        &self.areas
    }

    pub fn area(&self, i: usize) -> &StorageArea {
        &self.areas[i]
    }

    pub fn total_rows(&self) -> usize {
        self.areas.iter().map(StorageArea::rows).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.areas.iter().map(|a| a.data.total_bytes()).sum()
    }

    /// Concatenate all areas into one batch (result delivery, tests).
    pub fn gather(&self) -> Batch {
        let mut out = Batch::empty(&self.schema.data_types());
        for a in &self.areas {
            out.extend_from(&a.data);
        }
        out
    }

    /// Drop empty areas (workers that never produced output).
    pub fn prune_empty(mut self) -> Self {
        self.areas.retain(|a| a.rows() > 0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn schema() -> Schema {
        Schema::new(vec![("x", DataType::I64)])
    }

    #[test]
    fn area_append_and_tag() {
        let mut a = StorageArea::new(SocketId(2), &[DataType::I64]);
        assert_eq!(a.node(), SocketId(2));
        a.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64(vec![1, 2, 3])]));
        assert_eq!(a.rows(), 3);
    }

    #[test]
    fn area_set_gather_concatenates_in_area_order() {
        let mut a0 = StorageArea::new(SocketId(0), &[DataType::I64]);
        a0.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64(vec![1, 2])]));
        let mut a1 = StorageArea::new(SocketId(1), &[DataType::I64]);
        a1.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64(vec![3])]));
        let set = AreaSet::new(schema(), vec![a0, a1]);
        assert_eq!(set.total_rows(), 3);
        assert_eq!(set.gather().column(0).as_i64(), &[1, 2, 3]);
    }

    #[test]
    fn prune_empty_removes_idle_workers() {
        let a0 = StorageArea::new(SocketId(0), &[DataType::I64]);
        let mut a1 = StorageArea::new(SocketId(1), &[DataType::I64]);
        a1.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64(vec![3])]));
        let set = AreaSet::new(schema(), vec![a0, a1]).prune_empty();
        assert_eq!(set.areas().len(), 1);
        assert_eq!(set.area(0).node(), SocketId(1));
    }

    #[test]
    fn empty_set() {
        let set = AreaSet::empty(schema());
        assert_eq!(set.total_rows(), 0);
        assert_eq!(set.gather().rows(), 0);
        assert_eq!(set.total_bytes(), 0);
    }
}
