//! The in-process oracle: the same worlds the served binaries boot,
//! built through the library crates, and the byte-exact `/expand` body
//! each request must come back with.

use crate::load::Traffic;
use querygraph_core::cache::{config_fingerprint, WorldOptions};
use querygraph_core::http::expand_error_body;
use querygraph_core::service::{
    ExpansionRequest, ExpansionStrategy, QueryExpander, QueryExpanderBuilder, ServingWorld,
};
use querygraph_core::ExperimentConfig;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::{segstore, AnyEngine, ArtifactSource, ShardedEngine};
use querygraph_wiki::synth::SynthWiki;
use std::path::Path;

/// The world tiers the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The paper-scale seed world (no flag).
    Paper,
    /// `--stress`: 112k articles, 31k documents.
    Stress,
    /// `--track`: the stress knowledge base over 236k documents.
    Track,
}

impl Tier {
    /// The tier's experiment configuration.
    pub fn config(self) -> ExperimentConfig {
        match self {
            Tier::Paper => ExperimentConfig::default_paper(),
            Tier::Stress => ExperimentConfig::stress(),
            Tier::Track => ExperimentConfig::track(),
        }
    }

    /// The `qgx` flag selecting the tier.
    pub fn flag(self) -> Option<&'static str> {
        match self {
            Tier::Paper => None,
            Tier::Stress => Some("--stress"),
            Tier::Track => Some("--track"),
        }
    }
}

/// The serving knobs a workload runs with, as the CLI names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// `--strategy` value: `cycles` or `links`.
    pub strategy: &'static str,
    /// `top_k` carried by every request.
    pub top_k: usize,
}

impl Knobs {
    /// The expander builder `qgx serve --strategy <s>` would use.
    pub fn builder(&self) -> QueryExpanderBuilder {
        let strategy = ExpansionStrategy::parse(self.strategy).expect("a strategy qgx knows");
        QueryExpander::builder().strategy(strategy)
    }

    /// The request for query `text`.
    pub fn request(&self, text: &str) -> ExpansionRequest {
        ExpansionRequest::new(text).with_retrieval(self.top_k)
    }

    /// The serialized request bodies for `pool`.
    pub fn bodies(&self, pool: &[String]) -> Vec<String> {
        pool.iter()
            .map(|text| serde_json::to_string(&self.request(text)).expect("request serializes"))
            .collect()
    }
}

/// The monolithic in-memory world `qgx serve [tier flag]` boots: the
/// oracle for every workload served from a fixed collection (a shard
/// fleet must answer byte-identically to it).
pub fn mono_world(tier: Tier) -> ServingWorld {
    ServingWorld::open_with_options(
        &tier.config(),
        None,
        LmParams::default(),
        &WorldOptions::default(),
    )
    .0
}

/// The engine over a segment store's current generation, as
/// `qgx serve --segstore` assembles it.
pub fn segstore_engine(tier: Tier, dir: &Path) -> Result<(AnyEngine, segstore::Manifest), String> {
    let fingerprint = config_fingerprint(&tier.config());
    let generation = segstore::load_generation(dir, fingerprint, ArtifactSource::Read)
        .map_err(|e| format!("load {}: {e}", dir.display()))?
        .ok_or_else(|| format!("{} has never published", dir.display()))?;
    let manifest = generation.manifest.clone();
    let lm = LmParams::default();
    let engine = ShardedEngine::from_shards(generation.into_engines(lm), lm);
    Ok((AnyEngine::Sharded(engine), manifest))
}

/// The status and body `/expand` must answer `text` with: the
/// in-process response serialized, as one newline-terminated line (the
/// line `qgx replay --json` prints).
pub fn expected(expander: &QueryExpander<'_>, knobs: &Knobs, text: &str) -> (u16, String) {
    let (status, mut body) = match expander.expand(&knobs.request(text)) {
        Ok(response) => (
            200,
            serde_json::to_string(&response).expect("response serializes"),
        ),
        Err(error) => (
            querygraph_core::http::status_for(&error),
            expand_error_body(text.trim(), &error),
        ),
    };
    body.push('\n');
    (status, body)
}

/// The outcome of comparing served bodies with the oracle's.
pub struct Verdict {
    /// Pool entries compared (those the server was asked about).
    pub checked: usize,
    /// Entries whose served body differs from the oracle's.
    pub wrong: usize,
    /// The first difference, for the run's notes.
    pub first_difference: Option<String>,
}

/// Compare the first body the server sent for every pool entry it was
/// asked about with the oracle's.
pub fn verify(
    traffic: &Traffic,
    pool: &[String],
    wiki: &SynthWiki,
    engine: &AnyEngine,
    knobs: &Knobs,
) -> Verdict {
    let expander = knobs.builder().build(&wiki.kb, engine);
    let asked: Vec<usize> = (0..pool.len())
        .filter(|&i| traffic.first_body(i).is_some())
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let differences = querygraph_retrieval::parallel_map(asked.len(), threads, |j| {
        let i = asked[j];
        let (status, want) = expected(&expander, knobs, &pool[i]);
        let got = traffic.first_body(i).unwrap_or_default();
        (status != 200 || got != want.as_bytes()).then(|| {
            // Show both sides from just before where they part.
            let at = got
                .iter()
                .zip(want.as_bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            let clip = |bytes: &[u8]| {
                let from = at.saturating_sub(40).min(bytes.len());
                let to = (at + 80).min(bytes.len());
                String::from_utf8_lossy(&bytes[from..to]).into_owned()
            };
            format!(
                "query {:?} differs at byte {at}: served {} bytes …{:?}, oracle ({status}) {} bytes …{:?}",
                pool[i],
                got.len(),
                clip(got),
                want.len(),
                clip(want.as_bytes())
            )
        })
    });
    Verdict {
        checked: asked.len(),
        wrong: differences.iter().flatten().count(),
        first_difference: differences.into_iter().flatten().next(),
    }
}
