//! Engine error type.

use std::fmt;

/// Any error produced while lexing, parsing, planning or executing SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    message: String,
    /// Set when a dependent statement's hole raised the kernel language's
    /// own error (`no cell [0].c`, `division by zero`), kept through every
    /// annotation.
    program: Option<String>,
}

impl SqlError {
    /// Generic error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        SqlError {
            message: message.into(),
            program: None,
        }
    }

    /// The kernel language's error `message`, raised where a hole of a
    /// dependent statement renders (see [`crate::stmt::Hole`]).
    pub fn program(message: impl Into<String>) -> Self {
        let message = message.into();
        SqlError {
            program: Some(message.clone()),
            message,
        }
    }

    /// This error restated as `message`, still the program's error it was.
    pub fn annotated(&self, message: impl Into<String>) -> Self {
        SqlError {
            message: message.into(),
            program: self.program.clone(),
        }
    }

    /// The kernel language's error, when a hole raised this one.
    pub fn program_error(&self) -> Option<&str> {
        self.program.as_deref()
    }

    /// Lex error annotated with the source position.
    pub fn lex(sql: &str, pos: usize, message: &str) -> Self {
        SqlError::new(format!("lex error at byte {pos}: {message} in {sql:?}"))
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sql error: {}", self.message)
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_annotated_missing_cell_keeps_its_cell() {
        let e = SqlError::program("no cell [0].k").annotated("batch failed");
        assert_eq!(e.message(), "batch failed");
        assert_eq!(e.program_error(), Some("no cell [0].k"));
        assert_eq!(SqlError::new("no cell [0].k").program_error(), None);
    }

    #[test]
    fn display_includes_message() {
        let e = SqlError::new("no such table: foo");
        assert!(e.to_string().contains("no such table"));
    }
}
