//! A name → relation catalog: the binding surface between a text front
//! end and the storage layer.
//!
//! The engine's relations carry their own [`Schema`]s and
//! statistics; a [`Catalog`] only adds the table-name level on top so
//! that a SQL binder (or any other front end that works with names
//! instead of `Arc<Relation>` handles) can resolve `FROM` clauses. It is
//! deliberately a thin, immutable snapshot: benchmarks build one per
//! generated database and hand it to whoever needs name resolution.
//!
//! A catalog carries no version. A writer that changes a table's rows
//! registers a new `Arc<Relation>` for it and keeps every other table's
//! `Arc`, so the relations themselves say what changed between two
//! snapshots; the service's plan cache guards on exactly that.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::relation::Relation;
use crate::schema::Schema;

/// An ordered table-name → [`Relation`] map.
#[derive(Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Relation>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register `relation` under `name` (replacing any previous entry).
    pub fn add(&mut self, name: &str, relation: Arc<Relation>) {
        self.tables.insert(name.to_owned(), relation);
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
}
