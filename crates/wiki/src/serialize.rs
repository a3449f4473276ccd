//! Persistence for knowledge bases.
//!
//! Two formats are provided:
//!
//! * a line-oriented **text format** (`save_text` / `load_text`) that is
//!   diffable and independent of serde — one record per line, tab
//!   separated, with a versioned header;
//! * a serde-facing [`KbData`] snapshot (`to_data` / `from_data`) for
//!   JSON/binary serialization through any serde format.
//!
//! Both round-trip exactly (titles keep their original casing; relation
//! order is preserved as recorded).

use crate::builder::{KbBuilder, KbValidationError};
use crate::kb::KnowledgeBase;
use crate::schema::{ArticleId, CategoryId};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Magic first line of the text format.
pub(crate) const TEXT_HEADER: &str = "#querygraph-wiki\tv1";

/// Errors from [`load_text`].
#[derive(Debug)]
pub enum LoadError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line that does not parse, with its 1-based number.
    BadLine(usize, String),
    /// The parsed entities violate a schema invariant.
    Invalid(KbValidationError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadHeader => write!(f, "missing or invalid header line"),
            LoadError::BadLine(n, l) => write!(f, "unparsable line {n}: {l:?}"),
            LoadError::Invalid(e) => write!(f, "schema violation: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<KbValidationError> for LoadError {
    fn from(e: KbValidationError) -> Self {
        LoadError::Invalid(e)
    }
}

/// Serialize `kb` to the line-oriented text format.
///
/// Record kinds, in emission order:
/// ```text
/// #querygraph-wiki\tv1
/// a\t<title>                 # article (id = running index over a/r)
/// r\t<main-id>\t<title>      # redirect article
/// c\t<name>                  # category (separate id space)
/// l\t<from>\t<to>            # link
/// b\t<article>\t<category>   # belongs
/// i\t<child>\t<parent>       # inside
/// ```
pub fn save_text(kb: &KnowledgeBase) -> String {
    let mut out = String::new();
    out.push_str(TEXT_HEADER);
    out.push('\n');
    for a in kb.articles() {
        let art = kb.article(a);
        match art.redirect_to {
            None => {
                let _ = writeln!(out, "a\t{}", art.title);
            }
            Some(m) => {
                let _ = writeln!(out, "r\t{}\t{}", m.0, art.title);
            }
        }
    }
    for c in kb.category_ids() {
        let _ = writeln!(out, "c\t{}", kb.category_name(c));
    }
    for &(x, y) in kb.links() {
        let _ = writeln!(out, "l\t{}\t{}", x.0, y.0);
    }
    for &(a, c) in kb.belongs() {
        let _ = writeln!(out, "b\t{}\t{}", a.0, c.0);
    }
    for &(c, p) in kb.inside() {
        let _ = writeln!(out, "i\t{}\t{}", c.0, p.0);
    }
    out
}

/// Parse the text format back into a validated [`KnowledgeBase`].
pub fn load_text(text: &str) -> Result<KnowledgeBase, LoadError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == TEXT_HEADER => {}
        _ => return Err(LoadError::BadHeader),
    }
    let mut b = KbBuilder::new();
    for (idx, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || LoadError::BadLine(idx + 1, line.to_owned());
        let mut parts = line.splitn(3, '\t');
        let kind = parts.next().ok_or_else(bad)?;
        match kind {
            "a" => {
                let title = parts.next().ok_or_else(bad)?;
                b.add_article(title);
            }
            "r" => {
                let main: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let title = parts.next().ok_or_else(bad)?;
                b.add_redirect(title, ArticleId(main));
            }
            "c" => {
                let name = parts.next().ok_or_else(bad)?;
                b.add_category(name);
            }
            "l" => {
                let x: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let y: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                b.link(ArticleId(x), ArticleId(y));
            }
            "b" => {
                let a: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let c: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                b.belongs(ArticleId(a), CategoryId(c));
            }
            "i" => {
                let c: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let p: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                b.inside(CategoryId(c), CategoryId(p));
            }
            _ => return Err(bad()),
        }
    }
    Ok(b.build()?)
}

/// A serde-friendly snapshot of a knowledge base. Relation tuples use raw
/// `u32` ids to keep the serialized form compact and stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KbData {
    /// `(title, redirect_target)` per article, in id order.
    pub(crate) articles: Vec<(String, Option<u32>)>,
    /// Category names in id order.
    pub(crate) categories: Vec<String>,
    /// Link pairs.
    pub(crate) links: Vec<(u32, u32)>,
    /// Belongs pairs (article, category).
    pub(crate) belongs: Vec<(u32, u32)>,
    /// Inside pairs (child, parent).
    pub(crate) inside: Vec<(u32, u32)>,
}

/// Snapshot `kb` into serde-serializable [`KbData`].
pub fn to_data(kb: &KnowledgeBase) -> KbData {
    KbData {
        articles: kb
            .articles()
            .map(|a| {
                let art = kb.article(a);
                (art.title.clone(), art.redirect_to.map(|m| m.0))
            })
            .collect(),
        categories: kb
            .category_ids()
            .map(|c| kb.category_name(c).to_owned())
            .collect(),
        links: kb.links().iter().map(|&(a, b)| (a.0, b.0)).collect(),
        belongs: kb.belongs().iter().map(|&(a, c)| (a.0, c.0)).collect(),
        inside: kb.inside().iter().map(|&(c, p)| (c.0, p.0)).collect(),
    }
}

/// Rebuild (and re-validate) a knowledge base from a snapshot.
pub fn from_data(data: &KbData) -> Result<KnowledgeBase, KbValidationError> {
    let mut b = KbBuilder::new();
    for (title, redir) in &data.articles {
        match redir {
            None => {
                b.add_article(title.clone());
            }
            Some(m) => {
                b.add_redirect(title.clone(), ArticleId(*m));
            }
        }
    }
    for name in &data.categories {
        b.add_category(name.clone());
    }
    for &(x, y) in &data.links {
        b.link(ArticleId(x), ArticleId(y));
    }
    for &(a, c) in &data.belongs {
        b.belongs(ArticleId(a), CategoryId(c));
    }
    for &(c, p) in &data.inside {
        b.inside(CategoryId(c), CategoryId(p));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::venice_mini_wiki;

    #[test]
    fn text_round_trip() {
        let kb = venice_mini_wiki();
        let text = save_text(&kb);
        let kb2 = load_text(&text).unwrap();
        assert_eq!(kb.num_articles(), kb2.num_articles());
        assert_eq!(kb.num_categories(), kb2.num_categories());
        for a in kb.articles() {
            assert_eq!(kb.title(a), kb2.title(a));
            assert_eq!(kb.is_redirect(a), kb2.is_redirect(a));
        }
        assert_eq!(kb.links(), kb2.links());
        assert_eq!(kb.belongs(), kb2.belongs());
        assert_eq!(kb.inside(), kb2.inside());
        // And the double round-trip is byte-identical.
        assert_eq!(text, save_text(&kb2));
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(
            load_text("a\tVenice\n"),
            Err(LoadError::BadHeader)
        ));
    }

    #[test]
    fn rejects_garbage_line() {
        let text = format!("{TEXT_HEADER}\nz\twhat\n");
        assert!(matches!(load_text(&text), Err(LoadError::BadLine(2, _))));
    }

    #[test]
    fn rejects_bad_ids() {
        let text = format!("{TEXT_HEADER}\na\tVenice\nl\t0\tnotanumber\n");
        assert!(matches!(load_text(&text), Err(LoadError::BadLine(3, _))));
    }

    #[test]
    fn rejects_invalid_schema() {
        // Article without category.
        let text = format!("{TEXT_HEADER}\na\tVenice\n");
        assert!(matches!(load_text(&text), Err(LoadError::Invalid(_))));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = format!("{TEXT_HEADER}\n# comment\n\na\tVenice\nc\tCities\nb\t0\t0\n");
        let kb = load_text(&text).unwrap();
        assert_eq!(kb.num_articles(), 1);
    }

    #[test]
    fn kbdata_round_trip_via_json() {
        let kb = venice_mini_wiki();
        let data = to_data(&kb);
        let json = serde_json::to_string(&data).unwrap();
        let back: KbData = serde_json::from_str(&json).unwrap();
        assert_eq!(back, data);
        let kb2 = from_data(&back).unwrap();
        assert_eq!(kb2.num_articles(), kb.num_articles());
        assert_eq!(kb2.graph().edge_count(), kb.graph().edge_count());
    }
}
