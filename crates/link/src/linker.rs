//! The greedy leftmost-longest entity linker with synonym-phrase
//! refinement (§2.1).
//!
//! ## Base pass
//!
//! The input is normalized and tokenized; at each token the linker tries
//! windows of decreasing width (bounded by the longest title in the
//! dictionary). The first window that matches a title becomes a mention
//! and the scan resumes after it — "the set of the largest substrings in
//! the input … that matches with the title of an article". Windows
//! consisting solely of stopwords are never linked.
//!
//! ## Synonym pass
//!
//! For every base-pass mention, each synonym surface form of its main
//! article (derived from redirects) is substituted into the token stream
//! and the neighbourhood re-scanned. A substitution can complete a
//! longer title — e.g. `"regata of valdria"` only matches the article
//! `"Regatta of Valdria"` after `regata → regatta`. New articles found
//! this way are reported with `via_synonym = true`.

use crate::dictionary::TitleDictionary;
use crate::mention::Mention;
use crate::synonyms::synonyms_for_term;
use querygraph_text::{is_stopword, tokenize};
use querygraph_wiki::{ArticleId, KnowledgeBase};

/// The entity linker. Borrows the knowledge base; build once per KB and
/// reuse (dictionary construction is the expensive part).
pub struct EntityLinker<'kb> {
    kb: &'kb KnowledgeBase,
    dict: TitleDictionary,
    use_synonyms: bool,
}

impl<'kb> EntityLinker<'kb> {
    /// Linker with the paper's behaviour: synonym phrases on, redirect
    /// mentions resolved to their main articles.
    pub fn new(kb: &'kb KnowledgeBase) -> Self {
        EntityLinker {
            kb,
            dict: TitleDictionary::build(kb),
            use_synonyms: true,
        }
    }

    /// Disable the synonym pass (ablation studies).
    pub fn without_synonyms(mut self) -> Self {
        self.use_synonyms = false;
        self
    }

    /// The underlying dictionary.
    pub fn dictionary(&self) -> &TitleDictionary {
        &self.dict
    }

    /// Link `text`, returning mentions in token order (synonym-derived
    /// mentions after base mentions).
    pub(crate) fn link(&self, text: &str) -> Vec<Mention> {
        let tokens = tokenize(text);
        let mut mentions = self.scan(&tokens, false);

        if self.use_synonyms {
            let mut extra = Vec::new();
            let seen: Vec<ArticleId> = mentions.iter().map(|m| self.final_article(m)).collect();
            for m in &mentions {
                let main = self.kb.resolve_redirect(m.article);
                let surface = tokens[m.start..m.end()].join(" ");
                for syn in synonyms_for_term(self.kb, &surface) {
                    let syn_tokens = tokenize(&syn);
                    if syn_tokens.is_empty() {
                        continue;
                    }
                    // Substitute and rescan the whole variant stream —
                    // a substitution can complete titles that span the
                    // replaced region.
                    let mut variant: Vec<String> =
                        Vec::with_capacity(tokens.len() - m.len + syn_tokens.len());
                    variant.extend_from_slice(&tokens[..m.start]);
                    variant.extend(syn_tokens.iter().cloned());
                    variant.extend_from_slice(&tokens[m.end()..]);
                    for vm in self.scan(&variant, true) {
                        let fa = self.final_article(&vm);
                        if fa == main || seen.contains(&fa) {
                            continue;
                        }
                        if extra.iter().any(|e: &Mention| self.final_article(e) == fa) {
                            continue;
                        }
                        // Report the mention at the site of the original
                        // surface form.
                        extra.push(Mention {
                            article: vm.article,
                            start: m.start,
                            len: m.len,
                            via_synonym: true,
                        });
                    }
                }
            }
            mentions.extend(extra);
        }
        mentions
    }

    /// The distinct articles mentioned in `text` — the paper's `L(·)`.
    /// Redirects are resolved (unless configured otherwise) and the
    /// output is sorted by article id.
    pub fn link_articles(&self, text: &str) -> Vec<ArticleId> {
        let mut out: Vec<ArticleId> = self
            .link(text)
            .iter()
            .map(|m| self.final_article(m))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn final_article(&self, m: &Mention) -> ArticleId {
        self.kb.resolve_redirect(m.article)
    }

    /// Greedy leftmost-longest scan of a token stream.
    fn scan(&self, tokens: &[String], via_synonym: bool) -> Vec<Mention> {
        let mut mentions = Vec::new();
        let max_w = self.dict.max_tokens();
        let mut i = 0;
        while i < tokens.len() {
            if !self.dict.could_start_title(&tokens[i]) {
                i += 1;
                continue;
            }
            let mut matched = false;
            let widest = max_w.min(tokens.len() - i);
            for w in (1..=widest).rev() {
                let window = &tokens[i..i + w];
                if window.iter().all(|t| is_stopword(t)) {
                    continue;
                }
                let phrase = window.join(" ");
                if let Some(article) = self.dict.get(&phrase) {
                    mentions.push(Mention {
                        article,
                        start: i,
                        len: w,
                        via_synonym,
                    });
                    i += w;
                    matched = true;
                    break;
                }
            }
            if !matched {
                i += 1;
            }
        }
        mentions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_wiki::fixture::venice_mini_wiki;
    use querygraph_wiki::KbBuilder;

    fn titles(kb: &KnowledgeBase, arts: &[ArticleId]) -> Vec<String> {
        arts.iter().map(|&a| kb.title(a).to_owned()).collect()
    }

    #[test]
    fn links_the_paper_query() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb);
        let arts = linker.link_articles("gondola in venice");
        let t = titles(&kb, &arts);
        assert!(t.contains(&"Gondola".to_string()));
        assert!(t.contains(&"Venice".to_string()));
        assert_eq!(arts.len(), 2, "'in' must not link: {t:?}");
    }

    #[test]
    fn longest_match_wins() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb);
        // "grand canal venice" is a full title; must not split into
        // pieces.
        let mentions = linker.link("the grand canal venice at dawn");
        let full = mentions
            .iter()
            .find(|m| kb.title(m.article) == "Grand Canal (Venice)");
        assert!(full.is_some(), "expected full-title match");
        assert_eq!(full.unwrap().len, 3);
    }

    #[test]
    fn multiword_title_with_stopword_inside() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb);
        let arts = linker.link_articles("the bridge of sighs at night");
        let t = titles(&kb, &arts);
        assert!(t.contains(&"Bridge of Sighs".to_string()));
    }

    #[test]
    fn redirect_mentions_resolve_to_main() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb);
        let arts = linker.link_articles("ponte dei sospiri in spring");
        let t = titles(&kb, &arts);
        assert!(t.contains(&"Bridge of Sighs".to_string()));
        assert!(!t.contains(&"Ponte dei Sospiri".to_string()));
    }

    #[test]
    fn stopword_only_windows_never_link() {
        let mut b = KbBuilder::new();
        let a = b.add_article("The Wall"); // contains a stopword, but not only
        let c = b.add_category("Albums");
        b.belongs(a, c);
        let kb = b.build().unwrap();
        let linker = EntityLinker::new(&kb);
        // Stopword-only text must not match anything.
        assert!(linker.link_articles("the and of the it").is_empty());
        assert_eq!(linker.link_articles("the wall played").len(), 1);
    }

    #[test]
    fn all_stopword_titles_are_unreachable() {
        // A title consisting solely of stopwords can never be linked —
        // the deliberate trade-off of the stopword guard.
        let mut b = KbBuilder::new();
        let a = b.add_article("The Who");
        let c = b.add_category("Bands");
        b.belongs(a, c);
        let kb = b.build().unwrap();
        let linker = EntityLinker::new(&kb);
        assert!(linker.link_articles("the who played").is_empty());
    }

    #[test]
    fn no_mentions_in_unrelated_text() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb);
        assert!(linker
            .link_articles("completely unrelated words here")
            .is_empty());
        assert!(linker.link_articles("").is_empty());
    }

    #[test]
    fn mentions_do_not_overlap_in_base_pass() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb).without_synonyms();
        let mentions = linker.link("venice gondola grand canal venice bridge of sighs");
        for (i, a) in mentions.iter().enumerate() {
            for b in &mentions[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn synonym_substitution_completes_longer_title() {
        // Build a KB where "regata of valdria" only matches after the
        // synonym regata → regatta is substituted.
        let mut b = KbBuilder::new();
        let regatta = b.add_article("Regatta");
        let rov = b.add_article("Regatta of Valdria");
        let c = b.add_category("Events");
        b.belongs(regatta, c);
        b.belongs(rov, c);
        b.add_redirect("Regata", regatta);
        let kb = b.build().unwrap();

        let with = EntityLinker::new(&kb);
        let arts = with.link_articles("regata of valdria");
        let t = titles(&kb, &arts);
        assert!(
            t.contains(&"Regatta of Valdria".to_string()),
            "synonym pass should complete the long title, got {t:?}"
        );

        let without = EntityLinker::new(&kb).without_synonyms();
        let arts2 = without.link_articles("regata of valdria");
        let t2 = titles(&kb, &arts2);
        assert!(
            !t2.contains(&"Regatta of Valdria".to_string()),
            "without synonyms the long title is unreachable, got {t2:?}"
        );
    }

    #[test]
    fn synonym_mentions_are_flagged() {
        let mut b = KbBuilder::new();
        let regatta = b.add_article("Regatta");
        let rov = b.add_article("Regatta of Valdria");
        let c = b.add_category("Events");
        b.belongs(regatta, c);
        b.belongs(rov, c);
        b.add_redirect("Regata", regatta);
        let kb = b.build().unwrap();
        let linker = EntityLinker::new(&kb);
        let mentions = linker.link("regata of valdria");
        assert!(mentions.iter().any(|m| m.via_synonym));
        assert!(mentions.iter().any(|m| !m.via_synonym));
    }

    #[test]
    fn link_articles_is_sorted_dedup() {
        let kb = venice_mini_wiki();
        let linker = EntityLinker::new(&kb);
        let arts = linker.link_articles("venice venice venice gondola venice");
        assert_eq!(arts.len(), 2);
        assert!(arts.windows(2).all(|w| w[0] < w[1]));
    }
}
