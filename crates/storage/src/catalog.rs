//! A name → relation catalog: the binding surface between a text front
//! end and the storage layer.
//!
//! The engine's relations carry their own [`Schema`]s and
//! statistics; a [`Catalog`] only adds the table-name level on top so
//! that a SQL binder (or any other front end that works with names
//! instead of `Arc<Relation>` handles) can resolve `FROM` clauses. It is
//! deliberately a thin, immutable snapshot: benchmarks build one per
//! generated database and hand it to whoever needs name resolution.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::relation::Relation;
use crate::schema::Schema;

/// An ordered table-name → [`Relation`] map.
#[derive(Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Relation>>,
    version: u64,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register `relation` under `name` (replacing any previous entry).
    /// Every registration advances [`Catalog::version`].
    pub fn add(&mut self, name: &str, relation: Arc<Relation>) {
        self.tables.insert(name.to_owned(), relation);
        self.version += 1;
    }

    /// Monotonic change counter: advances on every [`Catalog::add`] (and
    /// through [`Catalog::set_version`]). The plan cache keys on this so
    /// plans bound against a stale snapshot are invalidated instead of
    /// served.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Force the version to `v` (must not move backwards). Transactional
    /// snapshot catalogs are rebuilt from scratch per snapshot, so their
    /// `add`-counted versions would restart low; the transaction layer
    /// stamps them with its own monotonic counter instead so the
    /// downstream plan cache sees a strictly advancing version across
    /// commits and merges.
    pub fn set_version(&mut self, v: u64) {
        assert!(
            v >= self.version,
            "catalog version must be monotonic ({} -> {v})",
            self.version
        );
        self.version = v;
    }

    /// Builder-style [`Catalog::add`].
    pub fn with_table(mut self, name: &str, relation: Arc<Relation>) -> Self {
        self.add(name, relation);
        self
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Relation>> {
        self.tables.get(name)
    }

    /// The schema of a named table, if present.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.tables.get(name).map(|r| r.schema())
    }

    /// Registered table names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterate `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Relation>)> {
        self.tables.iter().map(|(n, r)| (n.as_str(), r))
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Column;
    use crate::value::DataType;

    fn rel(names: &[&str]) -> Arc<Relation> {
        let schema = Schema::new(names.iter().map(|&n| (n, DataType::I64)).collect());
        let data = Batch::from_columns(names.iter().map(|_| Column::I64(vec![1, 2])).collect());
        Arc::new(Relation::single(schema, data))
    }

    #[test]
    fn lookup_and_listing() {
        let cat = Catalog::new()
            .with_table("t2", rel(&["b"]))
            .with_table("t1", rel(&["a"]));
        assert_eq!(cat.names(), vec!["t1", "t2"], "names sorted");
        assert_eq!(cat.len(), 2);
        assert!(!cat.is_empty());
        assert_eq!(cat.schema("t1").unwrap().names(), vec!["a"]);
        assert!(cat.get("missing").is_none());
        assert_eq!(cat.iter().count(), 2);
    }

    #[test]
    fn add_replaces_existing_entry() {
        let mut cat = Catalog::new();
        cat.add("t", rel(&["a"]));
        cat.add("t", rel(&["b"]));
        assert_eq!(cat.schema("t").unwrap().names(), vec!["b"]);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn version_advances_on_change() {
        let mut cat = Catalog::new();
        assert_eq!(cat.version(), 0);
        cat.add("t", rel(&["a"]));
        assert_eq!(cat.version(), 1);
        cat.add("t", rel(&["b"]));
        assert_eq!(cat.version(), 2, "replacement is a change too");
        cat.set_version(3);
        let snapshot = cat.clone();
        assert_eq!(snapshot.version(), 3, "clones carry the version");
        cat.add("u", rel(&["c"]));
        assert_eq!(cat.version(), 4);
        assert_eq!(snapshot.version(), 3, "snapshots stay pinned");
    }
}
