//! Using the library as a downstream system: compare query-expansion
//! strategies on a synthetic benchmark — the paper's conclusions as a
//! served strategy versus the related-work baseline — each through the
//! `QueryExpander` facade a server would run.
//!
//! ```text
//! cargo run --release --example expander_comparison
//! ```

use querygraph::core::expansion::CycleExpanderConfig;
use querygraph::core::experiment::{Experiment, ExperimentConfig};
use querygraph::core::service::{ExpansionStrategy, QueryExpander};
use querygraph::retrieval::metrics::{average_quality, precisions};

fn main() {
    let experiment = Experiment::build(&ExperimentConfig::tiny());
    let no_band = CycleExpanderConfig {
        category_ratio_band: (0.0, 1.0),
        ..CycleExpanderConfig::default()
    };
    let strategies = [
        ("none", ExpansionStrategy::None),
        (
            "direct-links",
            ExpansionStrategy::DirectLinks { max_features: 8 },
        ),
        ("cycles (paper)", ExpansionStrategy::default()),
        (
            "cycles, no category band",
            ExpansionStrategy::Cycles(no_band),
        ),
    ];

    println!(
        "Strategy comparison over {} queries\n",
        experiment.corpus.queries.len()
    );
    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "strategy", "O", "P@1", "P@5", "P@10", "P@15"
    );
    for (name, strategy) in strategies {
        let expander = QueryExpander::builder()
            .strategy(strategy)
            .retrieve_top(15)
            .build(&experiment.wiki.kb, &experiment.engine);
        let mut o_sum = 0.0;
        let mut p_sum = [0.0f64; 4];
        for query in experiment.corpus.queries.iter() {
            // An unlinkable query has nothing to search for.
            let hits = expander
                .expand_text(&query.keywords)
                .map(|response| response.hits)
                .unwrap_or_default();
            let relevant: Vec<u32> = query.relevant.iter().map(|d| d.0).collect();
            o_sum += average_quality(&hits, &relevant);
            let p = precisions(&hits, &relevant);
            for i in 0..4 {
                p_sum[i] += p[i];
            }
        }
        let n = experiment.corpus.queries.len() as f64;
        println!(
            "{:<26} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name,
            o_sum / n,
            p_sum[0] / n,
            p_sum[1] / n,
            p_sum[2] / n,
            p_sum[3] / n
        );
    }

    println!(
        "\nThe cycle strategy operationalizes the paper's finding: dense cycles\n\
         with a category ratio around 30% carry the best expansion features;\n\
         dropping the category-ratio band lets Fig. 8-style traps through."
    );
}
