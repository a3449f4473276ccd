//! A hand-built mini-Wikipedia reproducing the paper's worked examples.
//!
//! The fixture models the neighbourhood of query #90 of ImageCLEF 2011 —
//! **"gondola in venice"** — whose query graph the paper draws in Fig. 3,
//! with the three example cycles of Fig. 4:
//!
//! * length 2 (Fig. 4a): `Venice ↔ Cannaregio` reciprocal links;
//! * length 3 (Fig. 4b): `Venice – Grand Canal (Venice) – Palazzo Bembo`;
//! * length 4 (Fig. 4c): `Venice – (cat) Venice – (cat) Visitor
//!   attractions in Venice – Bridge of Sighs`;
//!
//! plus the category-free trap of Fig. 8, `Sheep – Quarantine – Anthrax`:
//! a length-3 cycle of pure links with **no** category, which introduces
//! semantically distant expansion features ("sheep" from "anthrax") that
//! diminish retrieval quality — the paper's motivating counter-example
//! for its ≈30 % category-ratio finding.
//!
//! The node names follow Fig. 3 where possible.

use crate::builder::KbBuilder;
use crate::kb::KnowledgeBase;

/// The query keywords of ImageCLEF query #90 as used in the paper.
pub const VENICE_QUERY: &str = "gondola in venice";

/// Build the Venice mini-Wikipedia. Deterministic: no randomness, stable
/// ids (articles in insertion order).
///
/// The fixture holds 22 articles (5 of them redirects) and 14 categories,
/// wired so that the cycle census around the query articles matches the
/// paper's qualitative observations (dense short cycles with categories
/// around good features; a category-free cycle around the trap).
pub fn venice_mini_wiki() -> KnowledgeBase {
    let mut b = KbBuilder::new();

    // ---------------- articles (Fig. 3 node names) ----------------
    let venice = b.add_article("Venice");
    let gondola = b.add_article("Gondola");
    let cannaregio = b.add_article("Cannaregio");
    let grand_canal = b.add_article("Grand Canal (Venice)");
    let palazzo_bembo = b.add_article("Palazzo Bembo");
    let bridge_of_sighs = b.add_article("Bridge of Sighs");
    let cannaregio_canal = b.add_article("Cannaregio Canal");
    let regatta = b.add_article("Regatta");
    let canaletto = b.add_article("Canaletto");
    let gondolier = b.add_article("Gondolier");
    let windsurfing = b.add_article("Windsurfing");
    let mekhitarist = b.add_article("Mekhitarist Order");
    let sheep = b.add_article("Sheep");
    let quarantine = b.add_article("Quarantine");
    let anthrax = b.add_article("Anthrax");
    let hand_colouring = b.add_article("Hand-colouring of photographs");
    let copying = b.add_article("Copying");

    // ---------------- categories ----------------
    let cat_venice = b.add_category("Venice");
    let cat_attractions = b.add_category("Visitor attractions in Venice");
    let cat_transport = b.add_category("Transport in Venice");
    let cat_canals = b.add_category("Canals in Italy");
    let cat_bridges = b.add_category("Bridges in Venice");
    let cat_sestieri = b.add_category("Sestieri of Venice");
    let cat_boats = b.add_category("Boat types");
    let cat_people = b.add_category("People from Venice (city)");
    let cat_painters = b.add_category("Venetian painters");
    let cat_regattas = b.add_category("Sailing regattas");
    let cat_cities = b.add_category("Cities and towns in Veneto");
    let cat_animals = b.add_category("Domesticated animals");
    let cat_health = b.add_category("Public health");
    let cat_diseases = b.add_category("Infectious diseases");

    // ---------------- category tree ----------------
    b.inside(cat_attractions, cat_venice);
    b.inside(cat_transport, cat_venice);
    b.inside(cat_sestieri, cat_venice);
    b.inside(cat_bridges, cat_attractions);
    b.inside(cat_people, cat_venice);

    // ---------------- belongs ----------------
    b.belongs(venice, cat_venice);
    b.belongs(venice, cat_cities);
    b.belongs(gondola, cat_boats);
    b.belongs(gondola, cat_transport);
    b.belongs(cannaregio, cat_sestieri);
    b.belongs(cannaregio, cat_venice);
    b.belongs(grand_canal, cat_canals);
    b.belongs(grand_canal, cat_transport);
    b.belongs(palazzo_bembo, cat_attractions);
    b.belongs(bridge_of_sighs, cat_attractions);
    b.belongs(bridge_of_sighs, cat_bridges);
    b.belongs(cannaregio_canal, cat_canals);
    b.belongs(cannaregio_canal, cat_sestieri);
    b.belongs(regatta, cat_regattas);
    b.belongs(regatta, cat_transport);
    b.belongs(canaletto, cat_painters);
    b.belongs(canaletto, cat_people);
    b.belongs(gondolier, cat_transport);
    b.belongs(gondolier, cat_people);
    b.belongs(windsurfing, cat_regattas);
    b.belongs(mekhitarist, cat_venice);
    b.belongs(sheep, cat_animals);
    b.belongs(quarantine, cat_health);
    b.belongs(anthrax, cat_diseases);
    b.belongs(hand_colouring, cat_people); // loose attachment, as in Fig. 3
    b.belongs(copying, cat_health); // arbitrary distant category

    // ---------------- links ----------------
    // Fig. 4a: length-2 cycle via reciprocal links.
    b.link_reciprocal(venice, cannaregio);
    // Fig. 4b: length-3 cycle venice – grand canal – palazzo bembo.
    b.link(venice, grand_canal);
    b.link(grand_canal, palazzo_bembo);
    b.link(palazzo_bembo, venice);
    // Fig. 4c: length-4 cycle closes through the two categories; the
    // article-level edge is venice → bridge of sighs.
    b.link(venice, bridge_of_sighs);
    // Query-article wiring.
    b.link_reciprocal(gondola, venice);
    b.link(gondola, gondolier);
    b.link(gondolier, gondola); // reciprocal by parts
    b.link(gondola, grand_canal);
    b.link(gondola, regatta);
    b.link(cannaregio, cannaregio_canal);
    b.link(cannaregio_canal, grand_canal);
    b.link(canaletto, venice);
    b.link(canaletto, grand_canal);
    b.link(regatta, windsurfing);
    b.link(mekhitarist, venice);
    // Fig. 8 trap: category-free link triangle.
    b.link(sheep, quarantine);
    b.link(quarantine, anthrax);
    b.link(anthrax, sheep);
    // Distant chain touching the trap.
    b.link(copying, hand_colouring);
    b.link(hand_colouring, canaletto);

    // ---------------- redirects ----------------
    b.add_redirect("Ponte dei Sospiri", bridge_of_sighs);
    b.add_redirect("Regata", regatta);
    b.add_redirect("The Canal", grand_canal);
    b.add_redirect("La Serenissima", venice);
    b.add_redirect("Gondoliere", gondolier);

    b.build()
        .expect("venice fixture must satisfy all schema invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_graph::cycles::CycleFinder;

    #[test]
    fn builds_and_counts() {
        let kb = venice_mini_wiki();
        assert_eq!(kb.num_articles(), 22);
        assert_eq!(kb.num_categories(), 14);
        assert_eq!(kb.main_articles().count(), 17);
    }

    #[test]
    fn query_articles_resolve() {
        let kb = venice_mini_wiki();
        // The two query articles L(q.k) of query #90.
        for t in ["Gondola", "Venice"] {
            assert!(kb.article_by_title(t).is_some(), "missing {t}");
        }
    }

    #[test]
    fn fig_4a_two_cycle_exists() {
        let kb = venice_mini_wiki();
        let venice = kb.article_by_title("Venice").unwrap();
        let cann = kb.article_by_title("Cannaregio").unwrap();
        assert!(
            kb.graph()
                .pair_multiplicity(kb.article_node(venice), kb.article_node(cann))
                >= 2
        );
    }

    #[test]
    fn fig_4b_three_cycle_exists() {
        let kb = venice_mini_wiki();
        let v = kb.article_node(kb.article_by_title("Venice").unwrap());
        let gc = kb.article_node(kb.article_by_title("Grand Canal (Venice)").unwrap());
        let pb = kb.article_node(kb.article_by_title("Palazzo Bembo").unwrap());
        let cycles = CycleFinder::new(kb.graph())
            .min_len(3)
            .max_len(3)
            .find_all();
        assert!(
            cycles.iter().any(|c| {
                let mut n = c.nodes.clone();
                n.sort_unstable();
                let mut want = vec![v, gc, pb];
                want.sort_unstable();
                n == want
            }),
            "triangle venice–grand canal–palazzo bembo not found"
        );
    }

    #[test]
    fn fig_4c_four_cycle_exists() {
        let kb = venice_mini_wiki();
        let v = kb.article_node(kb.article_by_title("Venice").unwrap());
        let bs = kb.article_node(kb.article_by_title("Bridge of Sighs").unwrap());
        let cv = kb.category_node(
            kb.category_ids()
                .find(|&c| kb.category_name(c) == "Venice")
                .unwrap(),
        );
        let ca = kb.category_node(
            kb.category_ids()
                .find(|&c| kb.category_name(c) == "Visitor attractions in Venice")
                .unwrap(),
        );
        let cycles = CycleFinder::new(kb.graph())
            .min_len(4)
            .max_len(4)
            .find_all();
        assert!(
            cycles.iter().any(|c| {
                let mut n = c.nodes.clone();
                n.sort_unstable();
                let mut want = vec![v, bs, cv, ca];
                want.sort_unstable();
                n == want
            }),
            "4-cycle of Fig. 4c not found"
        );
    }

    #[test]
    fn fig_8_trap_is_category_free() {
        let kb = venice_mini_wiki();
        let s = kb.article_node(kb.article_by_title("Sheep").unwrap());
        let q = kb.article_node(kb.article_by_title("Quarantine").unwrap());
        let a = kb.article_node(kb.article_by_title("Anthrax").unwrap());
        let cycles = CycleFinder::new(kb.graph())
            .min_len(3)
            .max_len(3)
            .find_all();
        let trap = cycles.iter().find(|c| {
            let mut n = c.nodes.clone();
            n.sort_unstable();
            let mut want = vec![s, q, a];
            want.sort_unstable();
            n == want
        });
        let trap = trap.expect("sheep–quarantine–anthrax cycle must exist");
        assert!(
            trap.nodes.iter().all(|&u| kb.node_is_article(u)),
            "the trap cycle must contain no category"
        );
    }

    #[test]
    fn redirects_resolve_to_mains() {
        let kb = venice_mini_wiki();
        let pairs = [
            ("Ponte dei Sospiri", "Bridge of Sighs"),
            ("Regata", "Regatta"),
            ("The Canal", "Grand Canal (Venice)"),
            ("La Serenissima", "Venice"),
            ("Gondoliere", "Gondolier"),
        ];
        for (alias, main) in pairs {
            let r = kb.article_by_title(alias).unwrap();
            let m = kb.article_by_title(main).unwrap();
            assert!(kb.is_redirect(r));
            assert_eq!(kb.resolve_redirect(r), m, "{alias} → {main}");
        }
    }

    #[test]
    fn synonym_titles_flow_from_redirects() {
        let kb = venice_mini_wiki();
        let venice = kb.article_by_title("Venice").unwrap();
        let syns: Vec<&str> = kb
            .redirects_of(venice)
            .iter()
            .map(|&r| kb.title(r))
            .collect();
        assert_eq!(syns, vec!["La Serenissima"]);
    }

    #[test]
    fn deterministic_construction() {
        let a = venice_mini_wiki();
        let b = venice_mini_wiki();
        assert_eq!(a.num_articles(), b.num_articles());
        for id in a.articles() {
            assert_eq!(a.title(id), b.title(id));
        }
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }
}
