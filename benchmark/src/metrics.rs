//! Metric names and units (the same lists `BENCHMARK.json` declares —
//! a test keeps the two in step) and the run report.

use serde::Value;

/// The five workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "cold_stress",
    "hot_paper",
    "fleet_links",
    "ingest_swap",
    "repro_batch",
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not pass through reports 0: no calls, no
/// time.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("link.linker.link_us", "us"),
    ("link.linker.entities_per_query", "count"),
    ("graph.traversal.ball_us", "us"),
    ("graph.traversal.ball_nodes", "count"),
    ("graph.subgraph.induce_us", "us"),
    ("graph.cycles.enumerate_us", "us"),
    ("graph.cycles.found_per_query", "count"),
    ("core.expansion.expand_us", "us"),
    ("core.expansion.features_per_query", "count"),
    ("core.expansion.empty_share", "share"),
    ("retrieval.query_lang.build_us", "us"),
    ("retrieval.engine.search_us", "us"),
    ("retrieval.engine.search_pruned_us", "us"),
    ("retrieval.engine.search_first_touch_us", "us"),
    ("retrieval.engine.hits_per_query", "count"),
    ("retrieval.sharded.search_us", "us"),
    ("retrieval.remote.search_us", "us"),
    ("retrieval.remote.rpc_us", "us"),
    ("retrieval.remote.failures", "count"),
    ("retrieval.index.build_docs_per_s", "1/s"),
    ("retrieval.ondisk.save_s", "s"),
    ("retrieval.ondisk.load_s", "s"),
    ("retrieval.segstore.commit_ms", "ms"),
    ("retrieval.segstore.compact_s", "s"),
    ("retrieval.segstore.load_generation_ms", "ms"),
    ("retrieval.segstore.segments_peak", "count"),
    ("retrieval.segstore.publish_to_serve_ms", "ms"),
    ("retrieval.segstore.ingest_docs_per_s", "1/s"),
    ("retrieval.segstore.index_bytes_per_doc", "bytes"),
    ("retrieval.backend.swap_us", "us"),
    ("corpus.ingest.parse_docs_per_s", "1/s"),
    ("corpus.ingest.peak_buffer_bytes", "bytes"),
    ("corpus.synth.dump_docs_per_s", "1/s"),
    ("core.service.expand_us", "us"),
    ("core.service.self_us", "us"),
    ("core.service.serialize_us", "us"),
    ("core.service.response_bytes", "bytes"),
    ("core.expcache.hit_rate", "share"),
    ("core.expcache.hit_us", "us"),
    ("core.expcache.miss_us", "us"),
    ("core.http.hit_roundtrip_us", "us"),
    ("core.http.fresh_conn_roundtrip_us", "us"),
    ("core.http.parse_head_us", "us"),
    ("core.http.server_p50_us", "us"),
    ("core.http.server_p99_us", "us"),
    ("core.http.connections", "count"),
    ("core.http.shed", "count"),
    ("core.http.timeouts", "count"),
    ("core.cache.world_synth_s", "s"),
    ("core.cache.index_build_s", "s"),
    ("core.pipeline.link_s", "s"),
    ("core.pipeline.ground_truth_s", "s"),
    ("core.pipeline.graph_assembly_s", "s"),
    ("core.pipeline.cycle_enum_s", "s"),
    ("core.pipeline.contributions_s", "s"),
    ("core.pipeline.table4_s", "s"),
    ("core.pipeline.correlation_s", "s"),
    ("core.ground_truth.evaluations", "count"),
    ("core.ground_truth.memo_hit_rate", "share"),
    ("bench.reader.latency_p50_us", "us"),
    ("bench.reader.latency_p95_us", "us"),
    ("bench.generator.lag_p99_us", "us"),
    ("bench.rounds.spread_pct", "%"),
    ("bench.slo.rounds_met", "count"),
    ("bench.setup.prepare_s", "s"),
    ("bench.setup.boot_s", "s"),
    ("bench.setup.warmup_s", "s"),
    ("bench.trace.overhead_pct", "%"),
];

/// One measured value with what it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value reported (the best or the median of `rounds` when there
    /// are any).
    pub value: f64,
    /// Samples the value rests on (requests, calls, invocations…).
    pub samples: u64,
    /// The per-round values `value` was taken from, in round order.
    pub rounds: Vec<f64>,
}

impl Metric {
    /// A single measured value resting on `samples` samples.
    pub fn single(value: f64, samples: u64) -> Metric {
        Metric {
            value,
            samples,
            rounds: Vec::new(),
        }
    }

    /// The best of per-round values: the highest when `higher_is_better`,
    /// else the lowest. A neighbour on the host, a vCPU that has to be
    /// woken, a burst of steal: whatever disturbs a round only ever makes
    /// it slower, so the best round is the one nearest the program's own
    /// speed, and it is what the timed metrics of the windowed workloads
    /// report.
    pub fn best_of(rounds: Vec<f64>, samples: u64, higher_is_better: bool) -> Metric {
        let pick = if higher_is_better { f64::max } else { f64::min };
        Metric {
            value: rounds
                .iter()
                .copied()
                .reduce(pick)
                .expect("at least one round"),
            samples,
            rounds,
        }
    }

    /// The median of per-round values.
    pub fn median_of(rounds: Vec<f64>, samples: u64) -> Metric {
        Metric {
            value: crate::stats::median(&rounds),
            samples,
            rounds,
        }
    }
}

/// Requests of one phase of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCount {
    /// Phase name (`warmup`, `closed`, `open`, `probe`…).
    pub phase: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (any reason).
    pub failed: u64,
    /// Of the failed: shed with 503.
    pub shed: u64,
    /// Of the failed: timed out with 408.
    pub timeouts: u64,
}

impl PhaseCount {
    /// An empty count for `phase`.
    pub fn new(phase: &'static str) -> PhaseCount {
        PhaseCount {
            phase,
            attempted: 0,
            failed: 0,
            shed: 0,
            timeouts: 0,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// Whether every output matched its oracle.
    pub correct: bool,
    /// Per-phase request counts.
    pub phases: Vec<PhaseCount>,
    /// `(name, metric)` in the declared order.
    pub metrics: Vec<(String, Metric)>,
    /// Free-form lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Record `metric` under `name`.
    pub fn set(&mut self, name: &str, metric: Metric) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = metric,
            None => self.metrics.push((name.to_string(), metric)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Operations attempted in measured phases (at least 1 once a run
    /// measured anything).
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations failed, warm-up included.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The metrics of `declared`, in declared order; a declared metric
    /// the run did not measure is 0 (per-layer lists only — every
    /// workload measures every end-to-end metric).
    fn declared(&self, declared: &[(&str, &str)]) -> Vec<(String, Value)> {
        declared
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).map_or(0.0, |m| m.value);
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect()
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self, trace: bool) -> String {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let object = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::UInt(self.attempted().max(1)),
            ),
            ("failed".to_string(), Value::UInt(self.failed())),
            (
                "metrics".to_string(),
                Value::Object(self.declared(declared)),
            ),
        ]);
        serde_json::to_string(&object).expect("a value tree serializes")
    }

    /// The full record `--out` archives and `compare` reads: every
    /// measured metric with its rounds and sample count.
    pub fn archive(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let rounds = m.rounds.iter().map(|&r| Value::Float(r)).collect();
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("samples".to_string(), Value::UInt(m.samples)),
                    ("rounds".to_string(), Value::Array(rounds)),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Value::Object(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted())),
            ("failed".to_string(), Value::UInt(self.failed())),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// The human-readable summary (stderr).
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}) — {}\n",
            self.workload,
            self.seed,
            if self.correct {
                "outputs correct"
            } else {
                "OUTPUTS WRONG"
            }
        );
        for p in &self.phases {
            out.push_str(&format!(
                "   {:<8} attempted {:>7}  failed {} (shed {}, timeouts {})\n",
                p.phase, p.attempted, p.failed, p.shed, p.timeouts
            ));
        }
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        for (name, m) in &self.metrics {
            out.push_str(&format!(
                "   {:<44} {:>14.4} {:<6} n={}",
                name,
                m.value,
                unit_of(name),
                m.samples
            ));
            if (2..=12).contains(&m.rounds.len()) {
                out.push_str(&format!(
                    "  rounds {:?} spread {:.1}%",
                    m.rounds
                        .iter()
                        .map(|r| (r * 100.0).round() / 100.0)
                        .collect::<Vec<_>>(),
                    100.0 * crate::stats::spread(&m.rounds)
                ));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("   # {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        let entries = benchmark.as_object().unwrap();
        let list = &entries.iter().find(|(k, _)| k == key).unwrap().1;
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let fields = m.as_object().unwrap();
                let text = |name: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == name)
                        .and_then(|(_, v)| v.as_str())
                        .unwrap_or("")
                        .to_string()
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&benchmark, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&benchmark, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = declared(&benchmark, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn best_of_rounds_follows_the_metric_direction() {
        let rounds = vec![3.0, 1.5, 2.0];
        let fastest = Metric::best_of(rounds.clone(), 7, false);
        assert_eq!((fastest.value, fastest.samples), (1.5, 7));
        assert_eq!(Metric::best_of(rounds.clone(), 7, true).value, 3.0);
        assert_eq!(fastest.rounds, rounds);
        assert_eq!(Metric::median_of(rounds, 7).value, 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            workload: "hot_paper".into(),
            correct: true,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.set(name, Metric::single(1.25, 3));
        }
        let line = report.result_line(false);
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"attempted\":1,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert_eq!(
            report.result_line(true).matches("\"unit\"").count(),
            PER_LAYER.len()
        );
    }
}
