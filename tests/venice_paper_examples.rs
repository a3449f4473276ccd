//! Integration tests for the paper's worked examples (Figs. 3, 4, 8) on
//! the Venice fixture, crossing the wiki, link, graph and core crates.

use querygraph::core::cycle_analysis::enumerate_cycles;
use querygraph::core::expansion::{cycle_features, CycleExpanderConfig};
use querygraph::core::query_graph::assemble;
use querygraph::link::EntityLinker;
use querygraph::wiki::fixture::{venice_mini_wiki, VENICE_QUERY};

#[test]
fn query_90_links_to_gondola_and_venice() {
    let kb = venice_mini_wiki();
    let linker = EntityLinker::new(&kb);
    let lqk = linker.link_articles(VENICE_QUERY);
    let titles: Vec<&str> = lqk.iter().map(|&a| kb.title(a)).collect();
    assert_eq!(titles.len(), 2);
    assert!(titles.contains(&"Gondola"));
    assert!(titles.contains(&"Venice"));
}

#[test]
fn fig4_cycles_all_present_in_assembled_graph() {
    let kb = venice_mini_wiki();
    let linker = EntityLinker::new(&kb);
    let lqk = linker.link_articles(VENICE_QUERY);
    let expansion: Vec<_> = [
        "Grand Canal (Venice)",
        "Palazzo Bembo",
        "Bridge of Sighs",
        "Cannaregio",
    ]
    .iter()
    .map(|t| kb.article_by_title(t).unwrap())
    .collect();
    let qg = assemble(&kb, &lqk, &expansion);
    let cycles = enumerate_cycles(&qg, &kb, 5, usize::MAX);

    // Fig. 4a: a 2-cycle containing venice & cannaregio.
    let venice = kb.article_by_title("Venice").unwrap();
    let cannaregio = kb.article_by_title("Cannaregio").unwrap();
    assert!(cycles
        .iter()
        .any(|c| c.len == 2 && c.articles.contains(&venice) && c.articles.contains(&cannaregio)));

    // Fig. 4b: a 3-cycle with grand canal & palazzo bembo.
    let canal = kb.article_by_title("Grand Canal (Venice)").unwrap();
    let bembo = kb.article_by_title("Palazzo Bembo").unwrap();
    assert!(cycles
        .iter()
        .any(|c| c.len == 3 && c.articles.contains(&canal) && c.articles.contains(&bembo)));

    // Fig. 4c: a 4-cycle with bridge of sighs and two categories.
    let bridge = kb.article_by_title("Bridge of Sighs").unwrap();
    assert!(cycles
        .iter()
        .any(|c| c.len == 4 && c.categories == 2 && c.articles.contains(&bridge)));
}

#[test]
fn redirects_never_close_cycles() {
    // §4: "redirects are never considered as an expansion feature since
    // they can never close a cycle".
    let kb = venice_mini_wiki();
    let ponte = kb.article_by_title("Ponte dei Sospiri").unwrap();
    let bridge = kb.article_by_title("Bridge of Sighs").unwrap();
    let venice = kb.article_by_title("Venice").unwrap();
    let qg = assemble(&kb, &[venice], &[ponte, bridge]);
    for c in enumerate_cycles(&qg, &kb, 5, usize::MAX) {
        assert!(
            !c.articles.contains(&ponte),
            "redirect article appeared inside a cycle: {c:?}"
        );
    }
}

#[test]
fn category_band_blocks_fig8_trap() {
    let kb = venice_mini_wiki();
    let sheep = vec![kb.article_by_title("Sheep").unwrap()];
    let anthrax = kb.article_by_title("Anthrax").unwrap();

    let feats = cycle_features(&kb, &CycleExpanderConfig::default(), &sheep);
    assert!(
        !feats.contains(&anthrax),
        "the ≈30% category band must reject the category-free trap"
    );

    let unbanded = CycleExpanderConfig {
        category_ratio_band: (0.0, 1.0),
        ..CycleExpanderConfig::default()
    };
    let feats = cycle_features(&kb, &unbanded, &sheep);
    assert!(
        feats.contains(&anthrax),
        "without the band the trap must leak through"
    );
}

#[test]
fn two_cycles_never_contain_categories() {
    // Schema consequence stated in §3: only cycles of length ≥ 3 can
    // contain categories.
    let kb = venice_mini_wiki();
    let linker = EntityLinker::new(&kb);
    let lqk = linker.link_articles(VENICE_QUERY);
    let all: Vec<_> = kb.main_articles().collect();
    let qg = assemble(&kb, &lqk, &all);
    for c in enumerate_cycles(&qg, &kb, 5, usize::MAX) {
        if c.len == 2 {
            assert_eq!(c.categories, 0);
        }
    }
}

#[test]
fn expansion_ratio_matches_manual_count() {
    let kb = venice_mini_wiki();
    let venice = kb.article_by_title("Venice").unwrap();
    let gondola = kb.article_by_title("Gondola").unwrap();
    let canal = kb.article_by_title("Grand Canal (Venice)").unwrap();
    let qg = assemble(&kb, &[venice, gondola], &[canal]);
    let stats = qg.lcc_stats();
    // All three articles are connected: ratio = 3 X-articles / 2 query.
    assert!((stats.expansion_ratio - 1.5).abs() < 1e-12);
}
