//! The workspace's one stats schema.
//!
//! Each counter struct is declared through [`counters!`](crate::counters),
//! which writes its counters out once, as struct fields and as the
//! [`Counters`] listing. Every sink reads the listing: field-wise sums and
//! differences, the zero test, JSON members ([`Writer::counters`]) and
//! the JSON reader ([`Counters::from_json`]). A counter added to the
//! declaration therefore reaches every report and protocol frame.
//!
//! [`Writer::counters`]: crate::json::Writer::counters

use crate::json::Json;

/// Declares a struct of `pub` counters (`name: type,` each, any integer
/// type) and implements [`Counters`] for it from the same field list.
/// Fields after a `;` are plain `pub` fields outside the listing.
#[macro_export]
macro_rules! counters {
    (
        $(#[$m:meta])*
        pub struct $name:ident {
            $($(#[$fm:meta])* $f:ident: $t:ty,)*
            $(; $($(#[$xm:meta])* $x:ident: $xt:ty,)*)?
        }
    ) => {
        $(#[$m])*
        pub struct $name {
            $($(#[$fm])* pub $f: $t,)*
            $($($(#[$xm])* pub $x: $xt,)*)?
        }

        impl $crate::stats::Counters for $name {
            fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($f), self.$f as u64)),*].into_iter()
            }

            fn map_counters(&mut self, mut f: impl FnMut(&'static str, u64) -> u64) {
                $(self.$f = f(stringify!($f), self.$f as u64) as $t;)*
            }
        }
    };
}

/// A struct whose counters are listed once, by [`counters!`](crate::counters).
/// The provided methods are the generic sinks.
pub trait Counters: Default {
    /// Every counter as `(name, value)`, in declaration order.
    fn counters(&self) -> impl Iterator<Item = (&'static str, u64)>;

    /// Sets every counter to `f(name, value)`, in declaration order.
    fn map_counters(&mut self, f: impl FnMut(&'static str, u64) -> u64);

    /// Field-wise sum (for aggregating per-task or per-request counters).
    fn add(&mut self, other: &Self) {
        let mut theirs = other.counters();
        self.map_counters(|_, v| v + theirs.next().map_or(0, |(_, w)| w));
    }

    /// Field-wise difference from an earlier snapshot of the same counters.
    fn since(&self, earlier: &Self) -> Self {
        let mut pairs = self.counters().zip(earlier.counters());
        let mut out = Self::default();
        out.map_counters(|_, _| pairs.next().map_or(0, |((_, now), (_, then))| now - then));
        out
    }

    /// True when every counter is zero (nothing to report).
    fn is_empty(&self) -> bool {
        self.counters().all(|(_, v)| v == 0)
    }

    /// Reads each counter from `obj`'s member named `prefix` followed by
    /// the counter's name. A missing or non-integer member reads 0, so a
    /// frame from a peer that predates a counter still parses.
    fn from_json(obj: &Json, prefix: &str) -> Self {
        let mut out = Self::default();
        out.map_counters(|name, _| {
            obj.get(&format!("{prefix}{name}")).and_then(Json::as_usize).map_or(0, |n| n as u64)
        });
        out
    }
}

/// `"{value} {name}"` for each pair, joined by `, `: the shape of the
/// human-readable summary lines.
pub fn text<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> String {
    pairs.map(|(name, v)| format!("{v} {name}")).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Writer};

    crate::counters! {
        /// Test counters.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Sample {
            /// First.
            a: u64,
            /// Second.
            b: usize,
            ;
            /// Outside the listing.
            names: Vec<String>,
        }
    }

    #[test]
    fn sums_and_differences_are_field_wise_and_keep_other_fields() {
        let mut s = Sample { a: 5, b: 7, names: vec!["x".to_owned()] };
        s.add(&Sample { a: 1, b: 2, names: vec!["y".to_owned()] });
        assert_eq!(s, Sample { a: 6, b: 9, names: vec!["x".to_owned()] });
        let d = s.since(&Sample { a: 6, b: 4, names: vec![] });
        assert_eq!(d, Sample { a: 0, b: 5, names: vec![] });
        assert!(!d.is_empty());
        assert!(Sample { names: vec!["n".to_owned()], ..Sample::default() }.is_empty());
        assert_eq!(text(s.counters()), "6 a, 9 b");
    }

    #[test]
    fn json_members_round_trip_under_a_prefix() {
        let s = Sample { a: 3, b: 4, names: vec![] };
        let line = Writer::obj().bool("ok", true).counters("p_", &s).done();
        assert_eq!(line, r#"{"ok":true,"p_a":3,"p_b":4}"#);
        let v = parse(&line).unwrap();
        assert_eq!(Sample::from_json(&v, "p_"), s);
        // Missing members read 0.
        assert_eq!(Sample::from_json(&parse(r#"{"p_b":4}"#).unwrap(), "p_").a, 0);
    }
}
