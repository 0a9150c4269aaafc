//! Relation schemas.

use crate::value::DataType;

/// One attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

/// An ordered list of named, typed attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<(&str, DataType)>) -> Self {
        Schema {
            fields: fields
                .into_iter()
                .map(|(name, dtype)| Field {
                    name: name.to_owned(),
                    dtype,
                })
                .collect(),
        }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn dtype(&self, i: usize) -> DataType {
        self.fields[i].dtype
    }

    pub fn name(&self, i: usize) -> &str {
        &self.fields[i].name
    }

    /// Index of the attribute called `name`.
    ///
    /// # Panics
    /// Panics if no such attribute exists — looking up an unknown column is
    /// a query construction bug.
    pub fn index_of(&self, name: &str) -> usize {
        self.position(name)
            .unwrap_or_else(|| panic!("no column named {name:?} in schema {:?}", self.names()))
    }

    /// Index of the attribute called `name`, if there is one.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Schema with a subset of columns, in the given order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }

    pub fn data_types(&self) -> Vec<DataType> {
        self.fields.iter().map(|f| f.dtype).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ("a", DataType::I64),
            ("b", DataType::Str),
            ("c", DataType::F64),
        ])
    }

    #[test]
    fn lookup() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("b"), 1);
        assert_eq!(s.dtype(2), DataType::F64);
        assert_eq!(s.name(0), "a");
        assert_eq!(s.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn projection() {
        let s = sample().project(&[2, 0]);
        assert_eq!(s.names(), vec!["c", "a"]);
        assert_eq!(s.data_types(), vec![DataType::F64, DataType::I64]);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        sample().index_of("zz");
    }
}
