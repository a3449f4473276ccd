//! Edge types of the Wikipedia schema (paper Fig. 1).

/// The relation an edge encodes, following the schema in Fig. 1 of the
/// paper.
///
/// * `Link` — an article's wiki-link to another article (directed;
///   reciprocal pairs form the paper's length-2 cycles).
/// * `Belongs` — article → category membership (every non-redirect
///   article has at least one).
/// * `Inside` — category → parent-category (the category "tree").
/// * `Redirect` — redirect article → main article. Redirect edges never
///   participate in cycles (paper §4): a redirect has no categories and
///   carries no other outgoing relation, so it cannot close a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EdgeType {
    /// Article → article wiki-link.
    Link = 0,
    /// Article → category membership.
    Belongs = 1,
    /// Category → parent category.
    Inside = 2,
    /// Redirect article → main article.
    Redirect = 3,
}

impl EdgeType {
    /// True for edge types that may participate in cycles. Redirect edges
    /// are excluded per §4 of the paper.
    #[inline]
    pub(crate) fn cycle_eligible(self) -> bool {
        !matches!(self, EdgeType::Redirect)
    }

    /// Discriminant as `u8` (used by the compact CSR encoding).
    #[inline]
    pub(crate) fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EdgeType::as_u8`].
    #[inline]
    pub(crate) fn from_u8(v: u8) -> Option<EdgeType> {
        match v {
            0 => Some(EdgeType::Link),
            1 => Some(EdgeType::Belongs),
            2 => Some(EdgeType::Inside),
            3 => Some(EdgeType::Redirect),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_redirect_is_cycle_ineligible() {
        assert!(EdgeType::Link.cycle_eligible());
        assert!(EdgeType::Belongs.cycle_eligible());
        assert!(EdgeType::Inside.cycle_eligible());
        assert!(!EdgeType::Redirect.cycle_eligible());
    }

    #[test]
    fn u8_round_trips() {
        for v in 0..4u8 {
            let t = EdgeType::from_u8(v).expect("0..4 are the discriminants");
            assert_eq!(t.as_u8(), v);
        }
        assert_eq!(EdgeType::from_u8(9), None);
    }
}
