//! Ablation: compare query-expansion strategies end to end — the paper's
//! conclusions operationalized (DESIGN.md §5). Every row is served by
//! the `QueryExpander` facade, the pipeline `qgx` serves.
//!
//! Strategies:
//! * `none` — the unexpanded keyword query;
//! * `direct-links` — link-neighbourhood features (the related-work
//!   strategy of [1, 2, 3] in the paper);
//! * `cycles` — the paper's prescription: dense cycles with a ≈30 %
//!   category ratio;
//! * `cycles-nofilter` — cycles without the category-ratio band, which
//!   lets Fig.-8-style category-free traps through.
//!
//! `cargo run --release -p querygraph-bench --bin repro_ablation [-- --quick]`

use querygraph_core::expansion::CycleExpanderConfig;
use querygraph_core::experiment::Experiment;
use querygraph_core::service::{ExpansionStrategy, QueryExpander};
use querygraph_retrieval::metrics::precisions;

fn main() {
    let config = querygraph_bench::config_from_args();
    eprintln!(
        "# strategy ablation over {} queries",
        config.corpus.num_queries
    );
    let exp = Experiment::build(&config);
    let nofilter = CycleExpanderConfig {
        category_ratio_band: (0.0, 1.0),
        ..CycleExpanderConfig::default()
    };
    let strategies = [
        ("none", ExpansionStrategy::None),
        (
            "direct-links",
            ExpansionStrategy::DirectLinks { max_features: 8 },
        ),
        ("cycles", ExpansionStrategy::default()),
        ("cycles-nofilter", ExpansionStrategy::Cycles(nofilter)),
    ];

    println!("Strategy ablation — mean precision (top-1 top-5 top-10 top-15)");
    for (label, strategy) in strategies {
        let expander = QueryExpander::builder()
            .strategy(strategy)
            .retrieve_top(15)
            .build(&exp.wiki.kb, &exp.engine);
        let mut sums = [0.0f64; 4];
        for query in exp.corpus.queries.iter() {
            // An unlinkable query has nothing to search for.
            let hits = expander
                .expand_text(&query.keywords)
                .map(|response| response.hits)
                .unwrap_or_default();
            let relevant: Vec<u32> = query.relevant.iter().map(|d| d.0).collect();
            let p = precisions(&hits, &relevant);
            for i in 0..4 {
                sums[i] += p[i];
            }
        }
        let n = exp.corpus.queries.len() as f64;
        println!(
            "  {label:<16} [{:.3} {:.3} {:.3} {:.3}]",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n,
            sums[3] / n
        );
    }
}
