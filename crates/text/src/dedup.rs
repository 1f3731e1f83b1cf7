//! Stem-based duplicate filtering of rewrite candidates (§9.3).
//!
//! Two queries are considered duplicates when their stemmed token multisets
//! are equal — "digital cameras" duplicates "digital camera", and
//! "camera digital" duplicates both (word order does not change ad intent
//! for bid matching). [`stem_signature`] is that equivalence as a string;
//! [`StemClasses`] is the same equivalence as one signature id per query,
//! interned once per graph, so the funnel that dedups the candidates of every
//! row compares integers and never stems a name twice.

use crate::normalize::normalize_query;
use crate::tokenize::stemmed_tokens;
use simrankpp_util::FxHashMap;

/// Canonical signature of a query: sorted, stemmed tokens joined by spaces.
///
/// Equal signatures ⇔ duplicate queries under the §9.3 stemming filter.
pub fn stem_signature(query: &str) -> String {
    let normalized = normalize_query(query);
    let mut stems = stemmed_tokens(&normalized);
    stems.sort_unstable();
    stems.join(" ")
}

/// One stem-signature class per query id: two named ids carry the same
/// class exactly when their [`stem_signature`]s are equal. Built by stemming
/// each name once; only the class column outlives the build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StemClasses {
    classes: Vec<u32>,
}

impl StemClasses {
    /// The class of an id that has no name (or lies outside the table): it
    /// has no signature, so it duplicates nothing — not even another unnamed
    /// id.
    pub const UNNAMED: u32 = u32::MAX;

    /// Interns the signature of every name, in id order; `None` marks an
    /// unnamed id. Classes are numbered by first appearance.
    pub fn from_names<'a>(names: impl IntoIterator<Item = Option<&'a str>>) -> StemClasses {
        let mut interned: FxHashMap<String, u32> = FxHashMap::default();
        let classes = names
            .into_iter()
            .map(|name| match name {
                None => Self::UNNAMED,
                Some(name) => {
                    let next = interned.len() as u32;
                    *interned.entry(stem_signature(name)).or_insert(next)
                }
            })
            .collect();
        StemClasses { classes }
    }

    /// The class of `id`; [`StemClasses::UNNAMED`] for an unnamed or
    /// out-of-table id, so an empty table dedups nothing.
    #[inline]
    pub fn class(&self, id: u32) -> u32 {
        self.classes
            .get(id as usize)
            .copied()
            .unwrap_or(Self::UNNAMED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_collapses_inflection() {
        assert_eq!(
            stem_signature("digital camera"),
            stem_signature("digital cameras")
        );
        assert_eq!(
            stem_signature("running shoe"),
            stem_signature("running shoes")
        );
    }

    #[test]
    fn signature_is_order_insensitive() {
        assert_eq!(
            stem_signature("camera digital"),
            stem_signature("digital camera")
        );
    }

    #[test]
    fn distinct_queries_have_distinct_signatures() {
        assert_ne!(stem_signature("camera"), stem_signature("digital camera"));
        assert_ne!(stem_signature("pc"), stem_signature("tv"));
    }

    #[test]
    fn classes_are_equal_exactly_when_signatures_are() {
        let names = [
            Some("digital camera"),
            Some("digital cameras"),
            None,
            Some("cameras digital"),
            Some("camera"),
            None,
            Some("Digital, CAMERAS!"),
        ];
        let table = StemClasses::from_names(names);
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                let same_class = table.class(i as u32) == table.class(j as u32);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(same_class, stem_signature(a) == stem_signature(b))
                    }
                    (None, None) => assert!(same_class),
                    _ => assert!(!same_class, "{a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn unnamed_and_out_of_table_ids_share_the_sentinel() {
        let table = StemClasses::from_names([Some("flowers"), None]);
        assert_ne!(table.class(0), StemClasses::UNNAMED);
        assert_eq!(table.class(1), StemClasses::UNNAMED);
        assert_eq!(table.class(2), StemClasses::UNNAMED);
        assert_eq!(table.class(u32::MAX), StemClasses::UNNAMED);
        assert_eq!(StemClasses::default().class(0), StemClasses::UNNAMED);
    }

    #[test]
    fn normalization_applies_before_stemming() {
        assert_eq!(
            stem_signature("Digital, CAMERAS!"),
            stem_signature("digital camera")
        );
    }
}
