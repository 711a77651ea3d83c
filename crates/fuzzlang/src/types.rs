//! The DSL's argument type system.

use std::fmt;

/// A resource kind, e.g. `"fd:/dev/tcpc0"` or `"hal:composer:layer"`.
///
/// Kinds form a prefix hierarchy separated by `:`; a consumer asking for
/// `"fd"` accepts anything a producer labels `"fd:…"`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceKind(pub String);

impl ResourceKind {
    /// Builds a kind from a string.
    pub fn new(kind: impl Into<String>) -> Self {
        Self(kind.into())
    }

    /// Whether a resource of kind `produced` satisfies this (possibly more
    /// general) wanted kind.
    ///
    /// ```
    /// use fuzzlang::types::ResourceKind;
    /// let wanted = ResourceKind::new("fd");
    /// assert!(wanted.accepts(&ResourceKind::new("fd:/dev/ion")));
    /// assert!(wanted.accepts(&ResourceKind::new("fd")));
    /// assert!(!wanted.accepts(&ResourceKind::new("handle:ion")));
    /// ```
    pub fn accepts(&self, produced: &ResourceKind) -> bool {
        produced
            .0
            .strip_prefix(self.0.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(':'))
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ResourceKind {
    fn from(s: &str) -> Self {
        Self(s.to_owned())
    }
}

/// The type of one call argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDesc {
    /// Integer in `[min, max]` (inclusive).
    Int {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// One of an enumerated set of meaningful values.
    Choice {
        /// The meaningful values.
        values: Vec<u64>,
    },
    /// Bitwise OR of a random subset of these flags.
    Flags {
        /// Individual flag bits.
        values: Vec<u64>,
    },
    /// Byte buffer with length in `[min_len, max_len]`.
    Buffer {
        /// Minimum length.
        min_len: usize,
        /// Maximum length.
        max_len: usize,
    },
    /// A string drawn from known choices (device paths, parameter keys).
    Str {
        /// Candidate strings.
        choices: Vec<String>,
    },
    /// A resource produced by an earlier call.
    Resource {
        /// Wanted kind (prefix-matched against producers).
        kind: ResourceKind,
    },
}

impl TypeDesc {
    /// Convenience constructor for a full-range 32-bit int.
    pub fn any_u32() -> Self {
        TypeDesc::Int { min: 0, max: u64::from(u32::MAX) }
    }

    /// Whether this argument consumes a resource.
    pub fn is_resource(&self) -> bool {
        matches!(self, TypeDesc::Resource { .. })
    }

    /// The wanted resource kind, if any.
    pub fn resource_kind(&self) -> Option<&ResourceKind> {
        match self {
            TypeDesc::Resource { kind } => Some(kind),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating rule `accepts` replaced, kept as its oracle.
    fn accepts_reference(wanted: &str, produced: &str) -> bool {
        produced == wanted || produced.starts_with(&format!("{wanted}:"))
    }

    #[test]
    fn accepts_matches_reference_on_edge_cases() {
        let kinds =
            ["", ":", "fd", "fdx", "fd:", "fd::", "fd:x", "a:b:c", "a:b", "a:b:", "a:bc", "b:c"];
        for wanted in kinds {
            for produced in kinds {
                assert_eq!(
                    ResourceKind::new(wanted).accepts(&produced.into()),
                    accepts_reference(wanted, produced),
                    "wanted {wanted:?}, produced {produced:?}"
                );
            }
        }
    }

    proptest! {
        /// Random kinds over a tiny alphabet (so prefixes and separators
        /// collide often) agree with the reference rule.
        #[test]
        fn accepts_matches_reference(wanted in "[ab:]{0,4}", produced in "[ab:]{0,6}") {
            let expected = accepts_reference(&wanted, &produced);
            let kind = ResourceKind::new(wanted.as_str());
            prop_assert_eq!(kind.accepts(&produced.as_str().into()), expected);
            // Extending a wanted kind by a separator suffix always matches.
            prop_assert!(kind.accepts(&format!("{wanted}:{produced}").as_str().into()));
        }
    }

    #[test]
    fn resource_prefix_matching() {
        let fd = ResourceKind::new("fd");
        assert!(fd.accepts(&"fd:/dev/video0".into()));
        assert!(!fd.accepts(&"fdx".into()), "prefix must end at separator");
        let exact = ResourceKind::new("fd:/dev/video0");
        assert!(exact.accepts(&"fd:/dev/video0".into()));
        assert!(!exact.accepts(&"fd:/dev/video1".into()));
    }

    #[test]
    fn type_desc_resource_introspection() {
        let t = TypeDesc::Resource { kind: "handle:ion".into() };
        assert!(t.is_resource());
        assert_eq!(t.resource_kind().unwrap().0, "handle:ion");
        assert!(!TypeDesc::any_u32().is_resource());
        assert!(TypeDesc::any_u32().resource_kind().is_none());
    }
}
