//! Typed index identifiers.
//!
//! Simulation state is held in flat vectors (sites, hosts, links, jobs, …) and
//! referenced by index. Using raw `usize` everywhere invites mixing up a host
//! index with a site index; the [`define_id!`](crate::define_id!) macro
//! stamps out zero-cost newtype wrappers with the trait surface the rest of
//! the workspace needs (ordering, hashing, `Display`, `usize` conversion).

/// Defines a newtype identifier around `usize`.
///
/// ```
/// cgsim_des::define_id!(ExampleId, "example");
/// let id = ExampleId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(format!("{id}"), "example#3");
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $label:literal) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            Eq,
            PartialOrd,
            Ord,
            Hash,
            serde::Serialize,
            serde::Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub usize);

        impl $name {
            /// Creates an identifier from a raw index.
            #[inline]
            pub fn new(index: usize) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(index: usize) -> Self {
                Self(index)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($label, "#{}"), self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    define_id!(TestId, "test");

    #[test]
    fn roundtrip_and_display() {
        let id = TestId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(TestId::from(42), id);
        assert_eq!(format!("{id}"), "test#42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(TestId::new(1) < TestId::new(2));
        assert_eq!(TestId::new(7), TestId::new(7));
    }

    #[test]
    fn usable_as_map_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(TestId::new(1), "one");
        assert_eq!(m[&TestId::new(1)], "one");
    }
}
