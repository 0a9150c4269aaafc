//! # morsel-storage
//!
//! NUMA-partitioned columnar storage for the morsel-driven engine:
//! [`value::Value`]/[`value::DataType`] scalars, [`column::Column`] typed
//! columns (plain strings as offsets into one buffer,
//! [`str_column::StrColumn`], and sorted per-relation string
//! [`dict::Dictionary`]s behind the same logical string type), [`batch::Batch`] row batches, hash- or
//! chunk-partitioned [`relation::Relation`]s placed across memory nodes,
//! and per-worker [`area::StorageArea`]s that hold pipeline
//! intermediates NUMA-locally.
//!
//! Morsels are *views*: a morsel is a `(partition/area, row-range)` pair cut
//! out by the dispatcher; no storage type here owns scheduling state.

pub mod area;
pub mod batch;
pub mod catalog;
pub mod column;
pub mod delta;
pub mod dict;
pub mod hash;
pub mod recovery;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod str_column;
pub mod value;
pub mod wal;

pub use area::{AreaSet, StorageArea};
pub use batch::Batch;
pub use catalog::Catalog;
pub use column::{encode_fragments, Column, Encoding};
pub use delta::{delta_row_id, rebased, row_bytes, DeltaStore, DELTA_ROW_BIT};
pub use dict::{DictColumn, Dictionary};
pub use hash::{hash64, hash_bytes, hash_combine, hash_i64};
pub use recovery::{read_wal, WalReader, WalScan};
pub use relation::{Partition, PartitionBy, Relation};
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, TableStats};
pub use str_column::StrColumn;
pub use value::{date, date_parts, decimal, format_date, DataType, Value, ValueRef, DECIMAL_SCALE};
pub use wal::{Wal, WalError, WalFaults, WalOp, WalRecord, WalStats};
