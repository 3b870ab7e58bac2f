//! Error types of the CODS evolution platform.

use cods_storage::StorageError;
use std::fmt;

/// Errors raised while planning or executing a schema modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvolutionError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// The requested decomposition is not lossless-join.
    LossyDecomposition(String),
    /// The data violates the functional dependency a decomposition relies on
    /// (Property 2 of Section 2.4).
    FdViolation(String),
    /// Key–foreign-key mergence requested, but a foreign-key value of the
    /// reusable side has no match in the key side.
    ForeignKeyViolation(String),
    /// The operator's inputs are malformed (missing columns, empty specs…).
    InvalidOperator(String),
    /// The two mergence inputs share no columns.
    NoCommonColumns(String),
}

impl fmt::Display for EvolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvolutionError::Storage(e) => write!(f, "storage error: {e}"),
            EvolutionError::LossyDecomposition(m) => {
                write!(f, "decomposition is not lossless-join: {m}")
            }
            EvolutionError::FdViolation(m) => {
                write!(f, "functional dependency violated: {m}")
            }
            EvolutionError::ForeignKeyViolation(m) => {
                write!(f, "key-foreign key mergence violated: {m}")
            }
            EvolutionError::InvalidOperator(m) => write!(f, "invalid operator: {m}"),
            EvolutionError::NoCommonColumns(m) => {
                write!(f, "mergence inputs share no columns: {m}")
            }
        }
    }
}

impl std::error::Error for EvolutionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvolutionError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EvolutionError {
    fn from(e: StorageError) -> Self {
        EvolutionError::Storage(e)
    }
}

/// A statement the grammar refuses, in the token cursor's words.
impl From<String> for EvolutionError {
    fn from(msg: String) -> Self {
        EvolutionError::InvalidOperator(msg)
    }
}

impl cods_storage::Retryable for EvolutionError {
    /// Only an optimistic catalog-commit loss is transient; every other
    /// evolution error (validation, data, persistence) is deterministic
    /// and would fail again identically.
    fn should_retry(&self) -> bool {
        matches!(self, EvolutionError::Storage(StorageError::Conflict(_)))
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, EvolutionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EvolutionError::FdViolation("employee -> address".into());
        assert!(e.to_string().contains("functional dependency"));
        let s: EvolutionError = StorageError::UnknownTable("x".into()).into();
        assert!(std::error::Error::source(&s).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
