//! Pipeline input sources: base relations and materialized intermediates.

use std::ops::Range;

use morsel_core::ChunkMeta;
use morsel_numa::SocketId;
use morsel_storage::{AreaSet, Batch, DataType, Encoding, Relation};

/// Anything a pipeline can scan morsel-wise: provides chunk metadata for
/// the dispatcher and chunk data for the operators.
pub trait InputSource: Send + Sync {
    /// The node chunk `idx` lives on, and the pieces rows `range` of it
    /// cover, in row order: a batch and the rows of it each. A chunk of a
    /// grouped relation is several partitions; any other chunk is one
    /// batch.
    fn pieces(&self, idx: usize, range: Range<usize>) -> (SocketId, Vec<(&Batch, Range<usize>)>);
    fn chunk_meta(&self) -> Vec<ChunkMeta>;
    fn types(&self) -> Vec<DataType>;
    /// The encoding of each column, when the source fixes one: a
    /// relation's ([`Relation::encoding`]); an area set fixes none.
    fn encodings(&self) -> &[Encoding] {
        &[]
    }
    fn total_rows(&self) -> usize;
}

impl InputSource for Relation {
    fn pieces(&self, idx: usize, range: Range<usize>) -> (SocketId, Vec<(&Batch, Range<usize>)>) {
        (self.chunk(idx).0, self.chunk_pieces(idx, range))
    }

    fn chunk_meta(&self) -> Vec<ChunkMeta> {
        (0..self.chunk_count())
            .map(|i| {
                let (node, rows) = self.chunk(i);
                ChunkMeta { node, rows }
            })
            .collect()
    }

    fn types(&self) -> Vec<DataType> {
        self.schema().data_types()
    }

    fn encodings(&self) -> &[Encoding] {
        Relation::encodings(self)
    }

    fn total_rows(&self) -> usize {
        Relation::total_rows(self)
    }
}

impl InputSource for AreaSet {
    fn pieces(&self, idx: usize, range: Range<usize>) -> (SocketId, Vec<(&Batch, Range<usize>)>) {
        let a = self.area(idx);
        (a.node(), vec![(a.data(), range)])
    }

    fn chunk_meta(&self) -> Vec<ChunkMeta> {
        self.areas()
            .iter()
            .map(|a| ChunkMeta {
                node: a.node(),
                rows: a.rows(),
            })
            .collect()
    }

    fn types(&self) -> Vec<DataType> {
        self.schema().data_types()
    }

    fn total_rows(&self) -> usize {
        AreaSet::total_rows(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Column, PartitionBy, Schema, StorageArea};

    #[test]
    fn relation_source() {
        let t = Topology::nehalem_ex();
        let data = Batch::from_columns(vec![Column::I64((0..100).collect())]);
        let schema = Schema::new(vec![("k", DataType::I64)]);
        let r = Relation::partitioned(
            schema,
            &data,
            PartitionBy::Chunks,
            4,
            Placement::FirstTouch,
            &t,
        );
        let meta = r.chunk_meta();
        assert_eq!(meta.len(), 4);
        assert_eq!(meta.iter().map(|c| c.rows).sum::<usize>(), 100);
        let (node, pieces) = r.pieces(1, 0..25);
        assert_eq!(pieces.len(), 1);
        assert_eq!((pieces[0].0.rows(), pieces[0].1.clone()), (25, 0..25));
        assert_eq!(node, SocketId(1));
        assert_eq!(InputSource::types(&r), vec![DataType::I64]);
        assert_eq!(InputSource::total_rows(&r), 100);
    }

    #[test]
    fn area_set_source() {
        let mut a0 = StorageArea::new(SocketId(2), &[DataType::I64]);
        a0.data_mut()
            .extend_from(&Batch::from_columns(vec![Column::I64(vec![1, 2])]));
        let set = AreaSet::new(Schema::new(vec![("x", DataType::I64)]), vec![a0]);
        let meta = set.chunk_meta();
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].node, SocketId(2));
        assert_eq!(meta[0].rows, 2);
        let (node, pieces) = set.pieces(0, 1..2);
        assert_eq!((pieces[0].0.rows(), pieces[0].1.clone()), (2, 1..2));
        assert_eq!(node, SocketId(2));
    }
}
