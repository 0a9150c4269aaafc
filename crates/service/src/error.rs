//! The service crate's unified error type.
//!
//! Everything [`Session`](crate::Session) can fail with — `SqlError`
//! from parse/bind, `TxnError` from the write path, and the
//! non-`Completed` [`QueryOutcome`]s of a query that was refused,
//! cancelled or failed — is one `#[non_exhaustive]` kinded type with
//! source-chained diagnostics: `error.kind()` routes
//! programmatic handling, `Display` renders the full story, and
//! [`std::error::Error::source`] walks down to the underlying
//! parse/bind/transaction error when one exists.

use std::fmt;

use morsel_core::{FailReason, QueryOutcome, RejectReason};
use morsel_sql::SqlError;
use morsel_txn::TxnError;

/// What went wrong, at the coarsest useful granularity.
///
/// `#[non_exhaustive]`: new kinds may appear as the service grows;
/// match with a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Lexing, parsing, binding, or planning failed (the query never
    /// reached admission). Source is the underlying `SqlError`.
    Sql,
    /// The transactional write path refused the statement (conflict,
    /// WAL fault, schema or budget violation). Source is the underlying
    /// `TxnError`.
    Txn,
    /// Admission control refused the query; it never dispatched.
    Rejected(RejectReason),
    /// The query was cancelled at a morsel boundary (explicit cancel or
    /// deadline expiry).
    Cancelled,
    /// The query dispatched and failed; the fault was contained.
    Failed(FailReason),
}

/// The unified service error. See the [module docs](self).
#[derive(Debug)]
pub struct Error {
    kind: ErrorKind,
    /// Human context: the query name, the failure message the executor
    /// rendered, etc.
    context: String,
    source: Option<Box<dyn std::error::Error + Send + Sync + 'static>>,
}

impl Error {
    /// The coarse kind, for programmatic routing.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// Build an error from a non-`Completed` outcome. Returns `None`
    /// for `Completed` (which is not an error).
    pub fn from_outcome(name: &str, outcome: &QueryOutcome) -> Option<Self> {
        let kind = match outcome {
            QueryOutcome::Completed => return None,
            QueryOutcome::Cancelled => ErrorKind::Cancelled,
            QueryOutcome::Rejected(r) => ErrorKind::Rejected(*r),
            QueryOutcome::Failed(f) => ErrorKind::Failed(*f),
        };
        Some(Error {
            kind,
            context: format!("query {name:?}"),
            source: None,
        })
    }

    /// Render the full diagnostic for `sql`: parse/bind errors produce
    /// the caret-annotated source snippet, everything else the
    /// `Display` form.
    pub fn render(&self, sql: &str) -> String {
        if let Some(e) = self
            .source
            .as_deref()
            .and_then(|s| (s as &dyn std::error::Error).downcast_ref::<SqlError>())
        {
            return e.render(sql);
        }
        self.to_string()
    }

    pub(crate) fn sql(e: SqlError) -> Self {
        Error {
            kind: ErrorKind::Sql,
            context: String::new(),
            source: Some(Box::new(e)),
        }
    }

    pub(crate) fn txn(e: TxnError) -> Self {
        Error {
            kind: ErrorKind::Txn,
            context: String::new(),
            source: Some(Box::new(e)),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::Sql => write!(f, "sql error")?,
            ErrorKind::Txn => write!(f, "transaction error")?,
            ErrorKind::Rejected(r) => write!(f, "rejected: {r}")?,
            ErrorKind::Cancelled => write!(f, "cancelled")?,
            ErrorKind::Failed(r) => write!(f, "failed: {r}")?,
        }
        if !self.context.is_empty() {
            write!(f, " ({})", self.context)?;
        }
        if let Some(s) = &self.source {
            write!(f, ": {s}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|s| s as &(dyn std::error::Error + 'static))
    }
}

impl From<SqlError> for Error {
    fn from(e: SqlError) -> Self {
        Error::sql(e)
    }
}

impl From<TxnError> for Error {
    fn from(e: TxnError) -> Self {
        Error::txn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_map_to_kinds() {
        assert!(Error::from_outcome("q", &QueryOutcome::Completed).is_none());
        let e = Error::from_outcome("q", &QueryOutcome::Cancelled).unwrap();
        assert_eq!(*e.kind(), ErrorKind::Cancelled);
        assert!(e.to_string().contains("cancelled"));
        let e =
            Error::from_outcome("q", &QueryOutcome::Failed(FailReason::ResourceExhausted)).unwrap();
        assert!(matches!(e.kind(), ErrorKind::Failed(_)));
        assert!(e.to_string().contains("resource exhausted"), "{e}");
        let e = Error::from_outcome("q", &QueryOutcome::Rejected(RejectReason::QueueFull)).unwrap();
        assert!(matches!(e.kind(), ErrorKind::Rejected(_)));
    }

    #[test]
    fn sources_chain() {
        let sql_err = morsel_sql::parse("SELEC 1").expect_err("bad sql");
        let e: Error = sql_err.into();
        assert_eq!(*e.kind(), ErrorKind::Sql);
        assert!(std::error::Error::source(&e).is_some(), "chained source");
        assert!(!e.to_string().is_empty());
    }
}
