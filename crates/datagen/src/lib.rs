//! # morsel-datagen
//!
//! Deterministic, scale-factor-driven data generators standing in for the
//! TPC-H `dbgen` and SSB `dbgen` tools (DESIGN.md §2): schema-faithful
//! tables with the value distributions, correlations, and referential
//! integrity the benchmark queries' selectivities depend on, partitioned
//! NUMA-aware on the first primary-key attribute exactly as the paper's
//! Section 5.1 describes.

pub mod ssb;
pub mod text;
pub mod tpch;

use morsel_numa::Placement;

/// Partitions per large relation: the paper's Section 5.1 setup splits
/// each relation into 64 partitions, one per hardware thread. At a small
/// scale factor that leaves partitions of a few hundred rows; a static
/// `Session` scans a grouped view of each relation
/// (`Relation::grouped`), whose chunks run over as many same-node
/// partitions as it takes to reach `relation::FLOOR` rows, so its
/// morsels do not shrink with the partitions.
const PARTITIONS: usize = 64;

/// Where generated partitions live; [`TpchDb::with_placement`]
/// re-places a generated database.
const PLACEMENT: Placement = Placement::FirstTouch;

pub use ssb::{generate as generate_ssb, SsbConfig, SsbDb};
pub use tpch::{generate as generate_tpch, TpchConfig, TpchDb};
