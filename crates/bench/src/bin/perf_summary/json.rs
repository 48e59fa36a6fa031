//! The summary's one JSON writer. An entry is an [`Obj`] written on one
//! line, its members in the order they were added and each number at the
//! precision of its kind; a section's entries go through [`Entries`],
//! which lays them out one per line and logs each to stderr as it lands;
//! [`document`] joins the sections' top-level members. No caller writes
//! a separator, a brace or a precision of its own.

use std::fmt::{self, Display, Write as _};

/// One JSON object on one line.
#[derive(Default)]
pub(crate) struct Obj(String);

impl Obj {
    /// An entry of a timed sweep: `k` and `strategy` lead it.
    pub(crate) fn entry(k: u8, strategy: &str) -> Obj {
        Obj::default().val("k", k).str("strategy", strategy)
    }

    /// A member written as its value displays: an integer, a boolean,
    /// `null`, or a nested object or list.
    pub(crate) fn val(mut self, key: &str, value: impl Display) -> Obj {
        let sep = if self.0.is_empty() { "" } else { ", " };
        write!(self.0, "{sep}\"{key}\": {value}").expect("writing to a String cannot fail");
        self
    }

    /// A string member.
    pub(crate) fn str(self, key: &str, value: impl Display) -> Obj {
        self.val(key, format_args!("\"{value}\""))
    }

    /// A time (milliseconds, or microseconds where the key says so), at
    /// 3 decimals.
    pub(crate) fn ms(self, key: &str, value: f64) -> Obj {
        self.val(key, format_args!("{value:.3}"))
    }

    /// A ratio or a per-edge figure, at 2 decimals.
    pub(crate) fn ratio(self, key: &str, value: f64) -> Obj {
        self.val(key, format_args!("{value:.2}"))
    }

    /// A share of a whole, at 4 decimals.
    pub(crate) fn share(self, key: &str, value: f64) -> Obj {
        self.val(key, format_args!("{value:.4}"))
    }

    /// A stage split (`phases_ms`) and the share of the wall time it
    /// covers (`phases_cover`).
    pub(crate) fn phases(self, phases: Obj, cover: f64) -> Obj {
        self.val("phases_ms", phases).share("phases_cover", cover)
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// A section's list of entries, one per line.
pub(crate) struct Entries {
    section: &'static str,
    list: Vec<Obj>,
}

impl Entries {
    pub(crate) fn new(section: &'static str) -> Entries {
        Entries {
            section,
            list: Vec::new(),
        }
    }

    /// Adds `entry` and logs it, so a long run shows its progress.
    pub(crate) fn push(&mut self, entry: Obj) {
        eprintln!("{}: {entry}", self.section);
        self.list.push(entry);
    }
}

impl Display for Entries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, entry) in self.list.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}\n    {entry}")?;
        }
        f.write_str("\n  ]")
    }
}

/// The summary document: the top-level `(key, value)` members in order.
pub(crate) fn document(members: &[(&str, String)]) -> String {
    let members: Vec<String> = members
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", members.join(",\n"))
}
