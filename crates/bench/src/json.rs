//! The small JSON writer behind [`crate::throughput::report_json`] and
//! [`crate::server::stats_json`]. Hand-rolled: the repo takes no serde
//! dependency.
//!
//! It writes one fixed layout: one member per line, two spaces of indent
//! per level, `"key": value`, and a trailing newline after the document.

use std::fmt::{Display, Write as _};

/// Builds one JSON object document member by member.
pub(crate) struct JsonWriter {
    out: String,
    depth: usize,
    /// No member has been written at the current level yet.
    first: bool,
}

impl JsonWriter {
    /// Starts the top-level object.
    pub(crate) fn new() -> JsonWriter {
        JsonWriter {
            out: String::from("{"),
            depth: 1,
            first: true,
        }
    }

    /// Starts a new member: a comma after the previous one, then a new
    /// indented line.
    fn member(&mut self, key: Option<&str>) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
        if let Some(key) = key {
            let _ = write!(self.out, "\"{key}\": ");
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// A member whose value is written as is: a number, or a pre-formatted
    /// literal.
    pub(crate) fn raw(&mut self, key: &str, value: impl Display) -> &mut JsonWriter {
        self.member(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// A string member. Keys and string values are written verbatim: the
    /// reports only carry fixed identifiers (schema tags, kernel names,
    /// hex checksums), none of which needs escaping.
    pub(crate) fn string(&mut self, key: &str, value: &str) -> &mut JsonWriter {
        self.member(Some(key));
        let _ = write!(self.out, "\"{value}\"");
        self
    }

    /// Opens an object (`'{'`) or array (`'['`); `key` is `None` for an
    /// array element.
    pub(crate) fn open(&mut self, key: Option<&str>, bracket: char) -> &mut JsonWriter {
        self.member(key);
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    /// Closes the innermost object (`'}'`) or array (`']'`).
    pub(crate) fn close(&mut self, bracket: char) -> &mut JsonWriter {
        self.depth -= 1;
        self.newline();
        self.out.push(bracket);
        self.first = false;
        self
    }

    /// Closes the top-level object and returns the document.
    pub(crate) fn finish(mut self) -> String {
        self.close('}');
        self.out.push('\n');
        self.out
    }
}

