//! Validated construction of a [`KnowledgeBase`].
//!
//! The builder enforces the schema invariants of the paper's Fig. 1 at
//! `build()` time:
//!
//! * titles and category names are unique after normalization (the title
//!   is the matching key of the entity-linking step, §2.1);
//! * every *non-redirect* article belongs to at least one category
//!   ("Articles … must belong to, at least, one Category");
//! * redirect articles carry no links and no categories, and redirect
//!   targets are themselves non-redirect articles (no redirect chains);
//! * the category `inside` relation is acyclic ("tree-like structure");
//! * no article links to itself.

use crate::kb::KnowledgeBase;
use crate::schema::{Article, ArticleId, Category, CategoryId};
use querygraph_text::normalize;
use std::collections::HashMap;
use std::fmt;

/// Errors reported by [`KbBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbValidationError {
    /// Two articles normalize to the same title.
    DuplicateTitle(String),
    /// Two categories normalize to the same name.
    DuplicateCategoryName(String),
    /// A non-redirect article has no category.
    ArticleWithoutCategory(ArticleId, String),
    /// A redirect article was given links or categories.
    RedirectWithRelations(ArticleId, String),
    /// A redirect points to another redirect.
    RedirectChain(ArticleId, String),
    /// The category graph has a cycle through this category.
    CategoryCycle(CategoryId, String),
    /// An id is out of range.
    UnknownId(String),
    /// A title normalizes to the empty string and could never be linked.
    EmptyTitle(String),
}

impl fmt::Display for KbValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbValidationError::DuplicateTitle(t) => write!(f, "duplicate article title {t:?}"),
            KbValidationError::DuplicateCategoryName(n) => {
                write!(f, "duplicate category name {n:?}")
            }
            KbValidationError::ArticleWithoutCategory(id, t) => {
                write!(f, "article {id} {t:?} has no category")
            }
            KbValidationError::RedirectWithRelations(id, t) => {
                write!(f, "redirect article {id} {t:?} has links or categories")
            }
            KbValidationError::RedirectChain(id, t) => {
                write!(f, "redirect article {id} {t:?} points to another redirect")
            }
            KbValidationError::CategoryCycle(id, n) => {
                write!(f, "category graph has a cycle through {id} {n:?}")
            }
            KbValidationError::UnknownId(what) => write!(f, "unknown id: {what}"),
            KbValidationError::EmptyTitle(t) => {
                write!(f, "title {t:?} normalizes to the empty string")
            }
        }
    }
}

impl std::error::Error for KbValidationError {}

/// Incremental builder for a [`KnowledgeBase`].
#[derive(Debug, Default, Clone)]
pub struct KbBuilder {
    articles: Vec<Article>,
    categories: Vec<Category>,
    links: Vec<(ArticleId, ArticleId)>,
    link_set: std::collections::HashSet<(ArticleId, ArticleId)>,
    belongs: Vec<(ArticleId, CategoryId)>,
    inside: Vec<(CategoryId, CategoryId)>,
}

impl KbBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a plain article; returns its id.
    pub fn add_article(&mut self, title: impl Into<String>) -> ArticleId {
        let id = ArticleId(self.articles.len() as u32);
        self.articles.push(Article::new(title));
        id
    }

    /// Add a redirect article pointing at `main`; returns its id.
    pub fn add_redirect(&mut self, title: impl Into<String>, main: ArticleId) -> ArticleId {
        let id = ArticleId(self.articles.len() as u32);
        self.articles.push(Article::redirect(title, main));
        id
    }

    /// Add a category; returns its id.
    pub fn add_category(&mut self, name: impl Into<String>) -> CategoryId {
        let id = CategoryId(self.categories.len() as u32);
        self.categories.push(Category::new(name));
        id
    }

    /// Record a wiki-link `from → to`.
    pub(crate) fn link(&mut self, from: ArticleId, to: ArticleId) {
        self.links.push((from, to));
        self.link_set.insert((from, to));
    }

    /// Record reciprocal wiki-links between `a` and `b` (the pattern that
    /// creates the paper's length-2 cycles).
    pub(crate) fn link_reciprocal(&mut self, a: ArticleId, b: ArticleId) {
        self.link(a, b);
        self.link(b, a);
    }

    /// Whether `from → to` has already been recorded. Generators use
    /// this to keep *accidental* reciprocal pairs from inflating the
    /// calibrated reciprocity.
    pub(crate) fn has_link(&self, from: ArticleId, to: ArticleId) -> bool {
        self.link_set.contains(&(from, to))
    }

    /// Record that `article` belongs to `category`.
    pub fn belongs(&mut self, article: ArticleId, category: CategoryId) {
        self.belongs.push((article, category));
    }

    /// Record that `child` is inside `parent`.
    pub(crate) fn inside(&mut self, child: CategoryId, parent: CategoryId) {
        self.inside.push((child, parent));
    }

    /// The staged (pre-build) title of `a`. Used by generators that need
    /// to derive alias titles from articles they just added.
    ///
    /// # Panics
    /// If `a` has not been added to this builder.
    pub(crate) fn staged_title(&self, a: ArticleId) -> &str {
        &self.articles[a.index()].title
    }

    /// Validate and freeze. See the module docs for the invariants.
    pub fn build(self) -> Result<KnowledgeBase, KbValidationError> {
        let n_articles = self.articles.len() as u32;
        let n_categories = self.categories.len() as u32;

        // Id range checks.
        for &(a, b) in &self.links {
            if a.0 >= n_articles || b.0 >= n_articles {
                return Err(KbValidationError::UnknownId(format!("link {a}→{b}")));
            }
        }
        for &(a, c) in &self.belongs {
            if a.0 >= n_articles || c.0 >= n_categories {
                return Err(KbValidationError::UnknownId(format!("belongs {a}→{c}")));
            }
        }
        for &(c, p) in &self.inside {
            if c.0 >= n_categories || p.0 >= n_categories {
                return Err(KbValidationError::UnknownId(format!("inside {c}→{p}")));
            }
        }
        for (i, art) in self.articles.iter().enumerate() {
            if let Some(m) = art.redirect_to {
                if m.0 >= n_articles {
                    return Err(KbValidationError::UnknownId(format!("redirect a{i}→{m}")));
                }
            }
        }

        // Unique normalized titles / names, non-empty.
        let mut title_index: HashMap<String, ArticleId> = HashMap::new();
        for (i, art) in self.articles.iter().enumerate() {
            let norm = normalize(&art.title);
            if norm.is_empty() {
                return Err(KbValidationError::EmptyTitle(art.title.clone()));
            }
            if title_index.insert(norm, ArticleId(i as u32)).is_some() {
                return Err(KbValidationError::DuplicateTitle(art.title.clone()));
            }
        }
        let mut name_seen: HashMap<String, CategoryId> = HashMap::new();
        for (i, cat) in self.categories.iter().enumerate() {
            let norm = normalize(&cat.name);
            if norm.is_empty() {
                return Err(KbValidationError::EmptyTitle(cat.name.clone()));
            }
            if name_seen.insert(norm, CategoryId(i as u32)).is_some() {
                return Err(KbValidationError::DuplicateCategoryName(cat.name.clone()));
            }
        }

        // Redirect invariants.
        for (i, art) in self.articles.iter().enumerate() {
            if let Some(m) = art.redirect_to {
                if self.articles[m.index()].is_redirect() {
                    return Err(KbValidationError::RedirectChain(
                        ArticleId(i as u32),
                        art.title.clone(),
                    ));
                }
            }
        }
        for &(a, b) in &self.links {
            let _ = b;
            if self.articles[a.index()].is_redirect() {
                return Err(KbValidationError::RedirectWithRelations(
                    a,
                    self.articles[a.index()].title.clone(),
                ));
            }
        }
        for &(a, _) in &self.belongs {
            if self.articles[a.index()].is_redirect() {
                return Err(KbValidationError::RedirectWithRelations(
                    a,
                    self.articles[a.index()].title.clone(),
                ));
            }
        }

        // Every non-redirect article has ≥1 category.
        let mut has_cat = vec![false; self.articles.len()];
        for &(a, _) in &self.belongs {
            has_cat[a.index()] = true;
        }
        for (i, art) in self.articles.iter().enumerate() {
            if !art.is_redirect() && !has_cat[i] {
                return Err(KbValidationError::ArticleWithoutCategory(
                    ArticleId(i as u32),
                    art.title.clone(),
                ));
            }
        }

        // Category `inside` acyclicity (iterative three-color DFS).
        let mut children_of: Vec<Vec<u32>> = vec![Vec::new(); self.categories.len()];
        for &(c, p) in &self.inside {
            children_of[p.index()].push(c.0);
        }
        let mut color = vec![0u8; self.categories.len()]; // 0 white 1 gray 2 black
        for start in 0..self.categories.len() {
            if color[start] != 0 {
                continue;
            }
            // Stack of (node, next-child-index).
            let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
            color[start] = 1;
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if *next < children_of[u as usize].len() {
                    let child = children_of[u as usize][*next];
                    *next += 1;
                    match color[child as usize] {
                        0 => {
                            color[child as usize] = 1;
                            stack.push((child, 0));
                        }
                        1 => {
                            return Err(KbValidationError::CategoryCycle(
                                CategoryId(child),
                                self.categories[child as usize].name.clone(),
                            ));
                        }
                        _ => {}
                    }
                } else {
                    color[u as usize] = 2;
                    stack.pop();
                }
            }
        }

        Ok(KnowledgeBase::from_parts(
            self.articles,
            self.categories,
            self.links,
            self.belongs,
            self.inside,
            title_index,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> KbBuilder {
        let mut b = KbBuilder::new();
        let a = b.add_article("Venice");
        let c = b.add_category("Cities");
        b.belongs(a, c);
        b
    }

    #[test]
    fn minimal_builds() {
        let kb = minimal().build().unwrap();
        assert_eq!(kb.num_articles(), 1);
        assert_eq!(kb.num_categories(), 1);
    }

    #[test]
    fn duplicate_titles_rejected() {
        let mut b = minimal();
        let a2 = b.add_article("VENICE!"); // same normalized form
        let c = CategoryId(0);
        b.belongs(a2, c);
        assert!(matches!(
            b.build(),
            Err(KbValidationError::DuplicateTitle(_))
        ));
    }

    #[test]
    fn duplicate_category_names_rejected() {
        let mut b = minimal();
        b.add_category("CITIES");
        assert!(matches!(
            b.build(),
            Err(KbValidationError::DuplicateCategoryName(_))
        ));
    }

    #[test]
    fn article_without_category_rejected() {
        let mut b = minimal();
        b.add_article("Orphan");
        assert!(matches!(
            b.build(),
            Err(KbValidationError::ArticleWithoutCategory(_, _))
        ));
    }

    #[test]
    fn redirects_need_no_category() {
        let mut b = minimal();
        b.add_redirect("La Serenissima", ArticleId(0));
        let kb = b.build().unwrap();
        assert_eq!(kb.num_articles(), 2);
    }

    #[test]
    fn redirect_with_category_rejected() {
        let mut b = minimal();
        let r = b.add_redirect("La Serenissima", ArticleId(0));
        b.belongs(r, CategoryId(0));
        assert!(matches!(
            b.build(),
            Err(KbValidationError::RedirectWithRelations(_, _))
        ));
    }

    #[test]
    fn redirect_with_link_rejected() {
        let mut b = minimal();
        let a2 = b.add_article("Gondola");
        b.belongs(a2, CategoryId(0));
        let r = b.add_redirect("La Serenissima", ArticleId(0));
        b.link(r, a2);
        assert!(matches!(
            b.build(),
            Err(KbValidationError::RedirectWithRelations(_, _))
        ));
    }

    #[test]
    fn redirect_chain_rejected() {
        let mut b = minimal();
        let r1 = b.add_redirect("Alias One", ArticleId(0));
        b.add_redirect("Alias Two", r1);
        assert!(matches!(
            b.build(),
            Err(KbValidationError::RedirectChain(_, _))
        ));
    }

    #[test]
    fn category_cycle_rejected() {
        let mut b = minimal();
        let c0 = CategoryId(0);
        let c1 = b.add_category("Geography");
        let c2 = b.add_category("Places");
        b.inside(c0, c1);
        b.inside(c1, c2);
        b.inside(c2, c0);
        assert!(matches!(
            b.build(),
            Err(KbValidationError::CategoryCycle(_, _))
        ));
    }

    #[test]
    fn category_dag_is_allowed() {
        // "Tree-like" per the paper, but a category may sit inside two
        // parents (a DAG) — Wikipedia allows that.
        let mut b = minimal();
        let c0 = CategoryId(0);
        let c1 = b.add_category("Geography");
        let c2 = b.add_category("Places");
        b.inside(c0, c1);
        b.inside(c0, c2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn out_of_range_link_rejected() {
        let mut b = minimal();
        b.link(ArticleId(0), ArticleId(99));
        assert!(matches!(b.build(), Err(KbValidationError::UnknownId(_))));
    }

    #[test]
    fn empty_title_rejected() {
        let mut b = minimal();
        let a = b.add_article("!!!");
        b.belongs(a, CategoryId(0));
        assert!(matches!(b.build(), Err(KbValidationError::EmptyTitle(_))));
    }

    #[test]
    fn self_link_allowed_at_build_but_deduped_in_graph() {
        // Wikipedia articles occasionally self-link; the graph layer
        // rejects self-loops, so the KB filters them during projection.
        let mut b = minimal();
        b.link(ArticleId(0), ArticleId(0));
        let kb = b.build().unwrap();
        assert_eq!(kb.graph().edge_count(), 1); // belongs only
    }
}
