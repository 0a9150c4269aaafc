//! NUMA-partitioned base relations.
//!
//! Section 4.3: relations are distributed over the memory nodes, either
//! round-robin or — better — hash-partitioned on an "important" attribute
//! so that co-partitioned joins mostly find their partners NUMA-locally.
//! Section 5.1: HyPer partitions each relation on the first attribute of
//! the primary key into 64 partitions. A partition lives entirely on one
//! node; morsels never span partitions.

use std::sync::{Arc, OnceLock};

use morsel_numa::{Placement, SocketId, Topology};

use crate::batch::Batch;
use crate::hash::hash_i64;
use crate::schema::Schema;
use crate::stats::TableStats;

/// One NUMA-resident fragment of a relation.
///
/// The row data is reference-counted: partitions are immutable once
/// built, so a re-placed relation, an MVCC snapshot or a merged base
/// shares every partition it did not change by cloning the handle
/// (`Arc::ptr_eq` on `data` tells shared from re-materialised).
#[derive(Debug, Clone)]
pub struct Partition {
    pub node: SocketId,
    pub data: Arc<Batch>,
    /// Statistics of `data`, shared along with it. Filled only through
    /// relations the write path builds ([`Relation::from_partitions`]):
    /// 1 KiB of HLL registers per column and partition is visible in a
    /// small read-only catalog's footprint, and a load-time relation
    /// needs only its merged [`TableStats`].
    stats: Arc<OnceLock<TableStats>>,
}

impl Partition {
    pub fn new(node: SocketId, data: Batch) -> Self {
        Partition {
            node,
            data: Arc::new(data),
            stats: Arc::default(),
        }
    }
}

/// How rows are assigned to partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionBy {
    /// Hash of an `i64` key column (the paper's preferred scheme).
    Hash { column: usize },
    /// Contiguous chunks in row order (round-robin across nodes).
    Chunks,
}

/// A base relation: schema plus NUMA-resident partitions.
///
/// Row/byte totals are computed once at construction, and catalog
/// statistics ([`TableStats`]) are computed lazily on first use and
/// cached — the planner's estimator hits both repeatedly.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    partitions: Vec<Partition>,
    total_rows: usize,
    total_bytes: u64,
    stats: OnceLock<Arc<TableStats>>,
    /// Whether [`Relation::stats`] keeps per-partition statistics in the
    /// partitions' shared slots (see [`Partition`]).
    keeps_partition_stats: bool,
}

impl Relation {
    fn from_parts(schema: Schema, partitions: Vec<Partition>) -> Self {
        let total_rows = partitions.iter().map(|p| p.data.rows()).sum();
        let total_bytes = partitions.iter().map(|p| p.data.total_bytes()).sum();
        Relation {
            schema,
            partitions,
            total_rows,
            total_bytes,
            stats: OnceLock::new(),
            keeps_partition_stats: false,
        }
    }

    /// Build a relation from already-placed partitions, some of them
    /// typically shared with the relation they were taken from. Row/byte
    /// totals and the merged stats are this instance's own, which is the
    /// write path's staleness guarantee: a snapshot or merge that
    /// changes row data must construct a *new* `Relation` through here
    /// (never mutate one in place), so the planner can never cost
    /// against pre-write `total_rows`/`total_bytes`/`stats()` values.
    /// What carries over is per partition: [`Relation::stats`] of a
    /// relation built here computes a partition's statistics once for
    /// every relation sharing that partition, so a post-commit snapshot
    /// recomputes only the partitions the commit changed.
    pub fn from_partitions(schema: Schema, partitions: Vec<Partition>) -> Self {
        assert!(
            !partitions.is_empty(),
            "a relation needs at least one partition"
        );
        Relation {
            keeps_partition_stats: true,
            ..Relation::from_parts(schema, partitions)
        }
    }
}

impl Relation {
    /// Partition `data` into `partition_count` fragments and place them on
    /// nodes according to `placement`.
    ///
    /// With [`Placement::FirstTouch`] partitions go round-robin over nodes
    /// (each is "first touched" by the loader thread of its node); with
    /// [`Placement::OsDefault`] everything lands on node 0 (paper,
    /// footnote 6); with [`Placement::Interleaved`] partitions go
    /// round-robin as well (per-page interleaving and per-partition
    /// round-robin are equivalent at morsel granularity);
    /// [`Placement::OnNode`] pins all partitions to one node.
    pub fn partitioned(
        schema: Schema,
        data: &Batch,
        by: PartitionBy,
        partition_count: usize,
        placement: Placement,
        topology: &Topology,
    ) -> Self {
        assert!(partition_count > 0, "need at least one partition");
        let sockets = topology.sockets();
        let types = schema.data_types();
        let mut parts: Vec<Batch> = (0..partition_count).map(|_| Batch::empty(&types)).collect();

        match by {
            PartitionBy::Hash { column } => {
                let keys = data.column(column).as_i64();
                let mut sel: Vec<Vec<u32>> = vec![Vec::new(); partition_count];
                for (i, &k) in keys.iter().enumerate() {
                    // The *lowest* bits of the same hash the join hash
                    // table will use its highest bits of (Section 4.3).
                    let p = (hash_i64(k) % partition_count as u64) as usize;
                    sel[p].push(i as u32);
                }
                for (p, s) in parts.iter_mut().zip(&sel) {
                    p.extend_selected(data, s);
                }
            }
            PartitionBy::Chunks => {
                let n = data.rows();
                let per = n.div_ceil(partition_count);
                for (pi, part) in parts.iter_mut().enumerate() {
                    let from = (pi * per).min(n);
                    let to = ((pi + 1) * per).min(n);
                    if from < to {
                        let sel: Vec<u32> = (from as u32..to as u32).collect();
                        part.extend_selected(data, &sel);
                    }
                }
            }
        }

        let partitions = parts
            .into_iter()
            .enumerate()
            .map(|(i, data)| {
                Partition::new(
                    placement.node_for(i, SocketId((i % sockets as usize) as u16), sockets),
                    data,
                )
            })
            .collect();
        Relation::from_parts(schema, partitions)
    }

    /// A single-partition relation on node 0 (for tests and tiny tables).
    pub fn single(schema: Schema, data: Batch) -> Self {
        Relation::from_parts(schema, vec![Partition::new(SocketId(0), data)])
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    pub fn partition(&self, i: usize) -> &Partition {
        &self.partitions[i]
    }

    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Merged catalog statistics, computed per partition on first use and
    /// cached for the planner's repeated lookups.
    pub fn stats(&self) -> Arc<TableStats> {
        Arc::clone(self.stats.get_or_init(|| {
            if !self.keeps_partition_stats {
                return Arc::new(TableStats::from_partitions(
                    self.partitions.iter().map(|p| &*p.data),
                ));
            }
            let mut parts = self
                .partitions
                .iter()
                .map(|p| p.stats.get_or_init(|| TableStats::from_batch(&p.data)));
            let mut acc = parts
                .next()
                .expect("a relation has at least one partition")
                .clone();
            acc.merge_all(parts);
            Arc::new(acc)
        }))
    }

    /// Re-place the partitions under a different policy without copying
    /// row data (used by the Section 5.3 placement comparison).
    pub fn with_placement(&self, placement: Placement, topology: &Topology) -> Relation {
        let sockets = topology.sockets();
        let partitions = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| Partition {
                node: placement.node_for(i, SocketId((i % sockets as usize) as u16), sockets),
                ..p.clone()
            })
            .collect();
        Relation {
            schema: self.schema.clone(),
            partitions,
            total_rows: self.total_rows,
            total_bytes: self.total_bytes,
            // Placement does not change the data, so the stats carry over
            // (including an already-computed cache).
            stats: self.stats.clone(),
            keeps_partition_stats: self.keeps_partition_stats,
        }
    }

    /// Concatenate all partitions back into one batch, with dictionary
    /// columns decoded to plain strings (tests/verification — callers
    /// compare raw values).
    pub fn gather(&self) -> Batch {
        let mut out = Batch::empty(&self.schema.data_types());
        for p in &self.partitions {
            out.extend_from(&p.data);
        }
        out.decoded()
    }

    /// Dictionary-encode every low-cardinality string column (one sorted
    /// dictionary per column, shared by all partitions). The load-time
    /// step that turns string predicates, group-bys, and sorts into
    /// integer-code kernels; columns whose domain fails
    /// [`crate::dict::worth_encoding`] stay plain. Row counts are
    /// unchanged; byte totals shrink to the 4-byte-code accounting.
    pub fn dict_encoded(mut self) -> Relation {
        let str_cols: Vec<usize> = (0..self.schema.len())
            .filter(|&i| self.schema.dtype(i) == crate::value::DataType::Str)
            .collect();
        for c in str_cols {
            let fragments: Vec<&crate::column::Column> =
                self.partitions.iter().map(|p| p.data.column(c)).collect();
            if let Some((_dict, encoded)) = crate::column::encode_fragments(&fragments) {
                for (p, col) in self.partitions.iter_mut().zip(encoded) {
                    Arc::make_mut(&mut p.data).replace_column(c, col);
                    p.stats = Arc::default();
                }
            }
        }
        Relation::from_parts(self.schema, self.partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::DataType;

    fn sample_batch(n: usize) -> Batch {
        Batch::from_columns(vec![
            Column::I64((0..n as i64).collect()),
            Column::I64((0..n as i64).map(|x| x * 10).collect()),
        ])
    }

    fn schema() -> Schema {
        Schema::new(vec![("k", DataType::I64), ("v", DataType::I64)])
    }

    #[test]
    fn hash_partitioning_preserves_all_rows() {
        let t = Topology::nehalem_ex();
        let data = sample_batch(1000);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Hash { column: 0 },
            64,
            Placement::FirstTouch,
            &t,
        );
        assert_eq!(r.partitions().len(), 64);
        assert_eq!(r.total_rows(), 1000);
        // Key k must be in the partition hash says it is.
        for p in r.partitions() {
            for &k in p.data.column(0).as_i64() {
                assert_eq!((hash_i64(k) % 64) as usize % 4, p.node.0 as usize % 4);
            }
        }
    }

    #[test]
    fn hash_partitioning_is_roughly_balanced() {
        let t = Topology::nehalem_ex();
        let data = sample_batch(6400);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Hash { column: 0 },
            64,
            Placement::FirstTouch,
            &t,
        );
        let avg = 100.0;
        for p in r.partitions() {
            let n = p.data.rows() as f64;
            assert!(
                n > avg * 0.5 && n < avg * 1.7,
                "partition size {n} too far from {avg}"
            );
        }
    }

    #[test]
    fn chunk_partitioning_keeps_order() {
        let t = Topology::laptop();
        let data = sample_batch(10);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Chunks,
            3,
            Placement::FirstTouch,
            &t,
        );
        assert_eq!(r.partition(0).data.column(0).as_i64(), &[0, 1, 2, 3]);
        assert_eq!(r.partition(2).data.column(0).as_i64(), &[8, 9]);
        assert_eq!(
            r.gather().column(0).as_i64(),
            sample_batch(10).column(0).as_i64()
        );
    }

    #[test]
    fn os_default_places_everything_on_node0() {
        let t = Topology::nehalem_ex();
        let data = sample_batch(100);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Chunks,
            8,
            Placement::OsDefault,
            &t,
        );
        assert!(r.partitions().iter().all(|p| p.node == SocketId(0)));
    }

    #[test]
    fn first_touch_spreads_over_nodes() {
        let t = Topology::nehalem_ex();
        let data = sample_batch(100);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Chunks,
            8,
            Placement::FirstTouch,
            &t,
        );
        let nodes: std::collections::HashSet<u16> =
            r.partitions().iter().map(|p| p.node.0).collect();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn replacement_changes_nodes_not_data() {
        let t = Topology::nehalem_ex();
        let data = sample_batch(100);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Chunks,
            8,
            Placement::FirstTouch,
            &t,
        );
        let r2 = r.with_placement(Placement::OsDefault, &t);
        assert!(r2.partitions().iter().all(|p| p.node == SocketId(0)));
        assert_eq!(r2.total_rows(), r.total_rows());
        for (p, p2) in r.partitions().iter().zip(r2.partitions()) {
            assert!(Arc::ptr_eq(&p.data, &p2.data), "row data is shared");
        }
    }

    #[test]
    fn stats_merge_partitions_and_cache() {
        let t = Topology::nehalem_ex();
        let data = sample_batch(1000);
        let r = Relation::partitioned(
            schema(),
            &data,
            PartitionBy::Hash { column: 0 },
            16,
            Placement::FirstTouch,
            &t,
        );
        let s = r.stats();
        assert_eq!(s.rows, 1000);
        assert_eq!(s.bytes, r.total_bytes());
        assert_eq!(s.column(0).min, Some(crate::value::Value::I64(0)));
        assert_eq!(s.column(0).max, Some(crate::value::Value::I64(999)));
        let err = (s.column(0).ndv - 1000.0).abs() / 1000.0;
        assert!(err < 0.08, "ndv {}", s.column(0).ndv);
        // Cached: same Arc on the second call, carried across re-placement.
        assert!(Arc::ptr_eq(&s, &r.stats()));
        let r2 = r.with_placement(Placement::OsDefault, &t);
        assert!(Arc::ptr_eq(&s, &r2.stats()));
    }

    #[test]
    fn dict_encoding_shares_dictionary_across_partitions() {
        use crate::column::Column;
        use crate::value::{DataType, Value};
        let t = Topology::nehalem_ex();
        let n = 400usize;
        let data = Batch::from_columns(vec![
            Column::I64((0..n as i64).collect()),
            Column::Str((0..n).map(|i| format!("tag{}", i % 7)).collect()),
            // High-cardinality column stays plain.
            Column::Str((0..n).map(|i| format!("unique-{i}")).collect()),
        ]);
        let schema = Schema::new(vec![
            ("k", DataType::I64),
            ("tag", DataType::Str),
            ("note", DataType::Str),
        ]);
        let plain = Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            8,
            Placement::FirstTouch,
            &t,
        );
        let rows_before = plain.total_rows();
        let gathered_before = plain.gather();
        let r = plain.dict_encoded();
        assert_eq!(r.total_rows(), rows_before);
        // All partitions of the encoded column share one dictionary.
        let dicts: Vec<_> = r
            .partitions()
            .iter()
            .map(|p| p.data.column(1).as_dict().expect("tag should encode"))
            .collect();
        assert!(dicts.windows(2).all(|w| w[0].same_dict(w[1])));
        assert_eq!(dicts[0].dict().len(), 7);
        assert!(r
            .partitions()
            .iter()
            .all(|p| p.data.column(2).as_dict().is_none()));
        // Encoded bytes shrink; decoded gather is unchanged.
        assert!(r.total_bytes() < rows_before as u64 * 100);
        assert_eq!(r.gather(), gathered_before);
        // Stats over codes expose the dictionary and the true NDV.
        let s = r.stats();
        assert!(s.column(1).dict.is_some());
        assert!((s.column(1).ndv - 7.0).abs() < 1.0);
        assert_eq!(s.column(1).min, Some(Value::Str("tag0".into())));
        assert_eq!(s.column(1).max, Some(Value::Str("tag6".into())));
    }

    #[test]
    fn single_partition_relation() {
        let r = Relation::single(schema(), sample_batch(5));
        assert_eq!(r.partitions().len(), 1);
        assert_eq!(r.total_rows(), 5);
        assert!(r.total_bytes() > 0);
    }
}
