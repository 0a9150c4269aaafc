//! NUMA-partitioned base relations.
//!
//! Section 4.3: relations are distributed over the memory nodes, either
//! round-robin or — better — hash-partitioned on an "important" attribute
//! so that co-partitioned joins mostly find their partners NUMA-locally.
//! Section 5.1: HyPer partitions each relation on the first attribute of
//! the primary key into 64 partitions. A partition lives entirely on one
//! node; morsels never span partitions.
//!
//! Relations the write path builds ([`Relation::from_partitions`]) also
//! keep a merge tree over their partitions' statistics, whose nodes a
//! snapshot or merge shares with the relation it was derived from, so
//! [`Relation::stats`] of a new version re-merges only what its commit
//! changed. The nodes belong to the relations sharing them and go when
//! the last of those does.

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

/// Partitions a leaf of the statistics merge tree covers.
const LEAF_PARTITIONS: usize = 8;

/// A node of a relation's statistics merge tree: the combined, not
/// finalized [`TableStats`] of an aligned range of partitions, filled on
/// first use and shared by every relation whose tree took the node over.
type StatsNode = Arc<OnceLock<TableStats>>;

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
    /// The statistics merge tree of a relation the write path builds
    /// ([`Relation::from_partitions`]); empty for a load-time relation,
    /// which keeps only its merged stats. `tree[0]` holds the leaves,
    /// leaf `k` over partitions `[8k, 8k + 8)`; node `k` of `tree[l + 1]`
    /// combines nodes `2k` and `2k + 1` of `tree[l]`, each range clipped to
    /// the partition count; the last level is the root.
    tree: Vec<Vec<StatsNode>>,
    /// Whether the last partition is one a merge appended, which the next
    /// merge may fold its rows into (`DeltaStore::merge`). Never set on a
    /// load-time relation, so a load-time partition is never folded into.
    merge_tail: bool,
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
            tree: Vec::new(),
            merge_tail: false,
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
    /// every relation sharing that partition, and combines them through a
    /// merge tree whose nodes the write path shares between versions.
    pub fn from_partitions(schema: Schema, partitions: Vec<Partition>) -> Self {
        Relation::sharing(schema, partitions, None, false)
    }

    /// [`Relation::from_partitions`], taking over from `donor` every node
    /// of its merge tree whose range is the same here: same bounds, and
    /// every partition in it the donor's (`Arc::ptr_eq` on `data`) — for
    /// an inner node, both children taken over. A snapshot or merge that
    /// rebuilt k partitions therefore re-merges only the O(k log P) nodes
    /// above them. `merge_tail` marks the last partition as a merge's.
    pub(crate) fn sharing(
        schema: Schema,
        partitions: Vec<Partition>,
        donor: Option<&Relation>,
        merge_tail: bool,
    ) -> Self {
        assert!(
            !partitions.is_empty(),
            "a relation needs at least one partition"
        );
        let tree = stats_tree(&partitions, donor);
        Relation {
            tree,
            merge_tail,
            ..Relation::from_parts(schema, partitions)
        }
    }

    /// Whether the last partition is a merge's (see [`Relation::sharing`]).
    pub(crate) fn has_merge_tail(&self) -> bool {
        self.merge_tail
    }
}

/// The merge tree over `parts`, sharing `donor`'s nodes where
/// [`Relation::sharing`] allows it.
fn stats_tree(parts: &[Partition], donor: Option<&Relation>) -> Vec<Vec<StatsNode>> {
    let n = parts.len();
    let (donor_parts, donor_tree) =
        donor.map_or((&[][..], &[][..]), |d| (&d.partitions[..], &d.tree[..]));
    // Node `k` of a level whose nodes cover `width` partitions ends at the
    // same partition here as in the donor.
    let same_end = |width: usize, k: usize| {
        ((k + 1) * width).min(n) == ((k + 1) * width).min(donor_parts.len())
    };
    let mut width = LEAF_PARTITIONS;
    let mut taken: Vec<bool> = (0..n.div_ceil(width))
        .map(|k| {
            same_end(width, k)
                && (k * width..((k + 1) * width).min(n))
                    .all(|i| Arc::ptr_eq(&parts[i].data, &donor_parts[i].data))
        })
        .collect();
    let mut tree: Vec<Vec<StatsNode>> = Vec::new();
    loop {
        let donor_level = donor_tree.get(tree.len()).map_or(&[][..], |l| &l[..]);
        tree.push(
            (taken.iter().enumerate())
                .map(|(k, &t)| match donor_level.get(k) {
                    Some(node) if t => Arc::clone(node),
                    _ => StatsNode::default(),
                })
                .collect(),
        );
        if taken.len() == 1 {
            return tree;
        }
        width *= 2;
        taken = (0..taken.len().div_ceil(2))
            .map(|k| same_end(width, k) && taken[2 * k] && taken.get(2 * k + 1) != Some(&false))
            .collect();
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
    /// cached for the planner's repeated lookups. A write-path relation
    /// finalizes the root of its merge tree, filling only the nodes no
    /// earlier relation sharing them has filled.
    pub fn stats(&self) -> Arc<TableStats> {
        Arc::clone(self.stats.get_or_init(|| {
            let Some(root) = self.tree.len().checked_sub(1) else {
                return Arc::new(TableStats::from_partitions(
                    self.partitions.iter().map(|p| &*p.data),
                ));
            };
            let mut stats = self.node(root, 0).clone();
            stats.finalize();
            Arc::new(stats)
        }))
    }

    /// Node `k` of merge-tree level `level`, combined on first use.
    fn node(&self, level: usize, k: usize) -> &TableStats {
        self.tree[level][k].get_or_init(|| {
            let mut acc: Option<TableStats> = None;
            let mut add = |s: &TableStats| match &mut acc {
                Some(acc) => acc.combine(s),
                None => acc = Some(s.clone()),
            };
            if level == 0 {
                let range =
                    k * LEAF_PARTITIONS..((k + 1) * LEAF_PARTITIONS).min(self.partitions.len());
                for p in &self.partitions[range] {
                    add(p.stats.get_or_init(|| TableStats::from_batch(&p.data)));
                }
            } else {
                for child in 2 * k..(2 * k + 2).min(self.tree[level - 1].len()) {
                    add(self.node(level - 1, child));
                }
            }
            acc.expect("a merge-tree node covers at least one partition")
        })
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
            // (including an already-computed cache), and so does the
            // merge tree.
            stats: self.stats.clone(),
            tree: self.tree.clone(),
            merge_tail: self.merge_tail,
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

    /// Dictionary-encode every string column with a small domain (one
    /// sorted dictionary per column, shared by all partitions). The load-time
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

    /// Nodes of `new`'s merge tree that are not the node at the same
    /// place in `old`'s.
    fn fresh_nodes(new: &Relation, old: &Relation) -> usize {
        (new.tree.iter().enumerate())
            .flat_map(|(l, level)| level.iter().enumerate().map(move |(k, n)| (l, k, n)))
            .filter(|&(l, k, n)| {
                old.tree
                    .get(l)
                    .and_then(|level| level.get(k))
                    .is_none_or(|o| !Arc::ptr_eq(o, n))
            })
            .count()
    }

    fn write_path_relation(parts: usize) -> Relation {
        let partitions = (0..parts)
            .map(|i| Partition::new(SocketId(0), sample_batch(i % 5 + 1)))
            .collect();
        Relation::from_partitions(schema(), partitions)
    }

    fn from_scratch(rel: &Relation) -> TableStats {
        TableStats::from_partitions(rel.partitions().iter().map(|p| &*p.data))
    }

    #[test]
    fn a_one_partition_edit_re_merges_one_path_of_the_tree() {
        let old = write_path_relation(141);
        assert_eq!(old.tree[0].len(), 18, "leaves of 8 partitions");
        assert_eq!(*old.stats(), from_scratch(&old));
        for edit in [0, 70, 140] {
            let mut parts = old.partitions().to_vec();
            parts[edit] = Partition::new(SocketId(0), sample_batch(9));
            let new = Relation::sharing(schema(), parts, Some(&old), false);
            // ⌈log2(141 / 8)⌉ + 1 levels, one node of each re-created.
            assert_eq!(new.tree.len(), 6);
            assert!(fresh_nodes(&new, &old) <= 6, "edit {edit}");
            assert_eq!(*new.stats(), from_scratch(&new));
            // The donor's cached stats are untouched by the new relation.
            assert_eq!(*old.stats(), from_scratch(&old));
        }
        // The same partitions share the whole tree, the filled nodes too.
        let same = Relation::sharing(schema(), old.partitions().to_vec(), Some(&old), false);
        assert_eq!(fresh_nodes(&same, &old), 0);
        assert!(same.tree.iter().flatten().all(|n| n.get().is_some()));
        // Appending a partition re-creates the right edge only, and a
        // load-time donor (no tree) or none shares nothing.
        let mut parts = old.partitions().to_vec();
        parts.push(Partition::new(SocketId(0), sample_batch(3)));
        let longer = Relation::sharing(schema(), parts, Some(&old), false);
        assert!(fresh_nodes(&longer, &old) <= 6);
        assert_eq!(*longer.stats(), from_scratch(&longer));
        let loaded = Relation::partitioned(
            schema(),
            &sample_batch(100),
            PartitionBy::Chunks,
            16,
            Placement::FirstTouch,
            &Topology::laptop(),
        );
        assert!(loaded.tree.is_empty());
        let copied =
            Relation::sharing(schema(), loaded.partitions().to_vec(), Some(&loaded), false);
        assert_eq!(copied.tree.iter().flatten().count(), 2 + 1);
        assert_eq!(*copied.stats(), *loaded.stats());
    }

    #[test]
    fn dict_encoding_shares_dictionary_across_partitions() {
        use crate::column::Column;
        use crate::value::{DataType, Value};
        let t = Topology::nehalem_ex();
        // More rows than the dictionary bound, so the unique column is a
        // domain too large to encode.
        let n = crate::dict::DICT_MAX_UNIQUE + 100;
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
