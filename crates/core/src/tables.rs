//! Result containers and plain-text rendering for every table and
//! figure of the paper.
//!
//! Each struct mirrors one artifact of the evaluation section; the
//! `render()` methods print the same rows/series the paper reports, so
//! every `repro_*` binary shares one format. The
//! paper's published values are embedded as `PAPER_*` constants so every
//! rendering shows paper-vs-measured side by side.

use querygraph_retrieval::stats::FiveNumber;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Paper values of Table 2 (ground-truth precision): min, q1, median,
/// q3, max per cutoff 1/5/10/15.
pub(crate) const PAPER_TABLE2: [[f64; 5]; 4] = [
    [0.0, 1.0, 1.0, 1.0, 1.0],
    [0.0, 1.0, 1.0, 1.0, 1.0],
    [0.2, 0.6, 0.9, 1.0, 1.0],
    [0.2, 0.65, 0.8, 0.85, 1.0],
];

/// Paper values of Table 3 (largest-component statistics): rows are
/// %size, %query nodes, %articles, %categories, expansion ratio.
pub(crate) const PAPER_TABLE3: [[f64; 5]; 5] = [
    [0.164, 0.477, 0.587, 0.688, 1.0],
    [0.0, 1.0, 1.0, 1.0, 1.0],
    [0.025, 0.148, 0.217, 0.269, 0.5],
    [0.5, 0.731, 0.783, 0.852, 0.975],
    [0.0, 2.125, 4.5, 23.750, 176.0],
];

/// Paper values of Table 4 (precision by cycle-length configuration).
pub(crate) const PAPER_TABLE4: [(&str, [f64; 4]); 7] = [
    ("2", [0.826, 0.539, 0.539, 0.552]),
    ("3", [0.833, 0.578, 0.519, 0.513]),
    ("4", [0.703, 0.589, 0.541, 0.494]),
    ("5", [0.788, 0.624, 0.588, 0.547]),
    ("2&3", [0.944, 0.656, 0.583, 0.621]),
    ("2&3&4", [0.944, 0.667, 0.594, 0.629]),
    ("2&3&4&5", [0.944, 0.667, 0.622, 0.658]),
];

/// Paper values of Fig. 5: average contribution (%) per cycle length
/// 2..=5.
pub(crate) const PAPER_FIG5: [f64; 4] = [50.53, 24.38, 32.74, 32.31];

/// Paper values of Fig. 6: average number of cycles per length 2..=5.
pub(crate) const PAPER_FIG6: [f64; 4] = [1.56, 9.1, 35.22, 136.84];

/// Paper values of Fig. 7a: average category ratio per length 3..=5.
pub(crate) const PAPER_FIG7A: [f64; 3] = [0.366, 0.375, 0.382];

/// Paper values of Fig. 7b: average density of extra edges per length
/// 3..=5.
pub(crate) const PAPER_FIG7B: [f64; 3] = [0.289, 0.38, 0.333];

/// Paper scalars of §3: average TPR of the largest components, link
/// reciprocity, and average query-graph size.
pub(crate) const PAPER_TPR: f64 = 0.3;
/// Link reciprocity the paper measures on Wikipedia.
pub(crate) const PAPER_RECIPROCITY: f64 = 0.1147;
/// Average query-graph size (nodes) reported in §4.
pub(crate) const PAPER_QG_NODES: f64 = 208.22;

/// Table 2: ground-truth precision summary per cutoff.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// One five-number summary per cutoff (1, 5, 10, 15).
    pub rows: [FiveNumber; 4],
}

impl Table2 {
    /// Render paper-vs-measured.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Table 2 — ground-truth precision (min q1 med q3 max)");
        let labels = ["top-1", "top-5", "top-10", "top-15"];
        for (i, label) in labels.iter().enumerate() {
            let p = PAPER_TABLE2[i];
            let m = self.rows[i].row();
            let _ = writeln!(
                s,
                "  {label:<7} paper {} | measured {}",
                fmt_row(&p),
                fmt_row(&m)
            );
        }
        s
    }
}

/// Table 3: largest-connected-component statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// %size of the LCC.
    pub(crate) size: FiveNumber,
    /// % of L(q.k) captured by the LCC.
    pub(crate) query_nodes: FiveNumber,
    /// Article share of the LCC.
    pub articles: FiveNumber,
    /// Category share of the LCC.
    pub categories: FiveNumber,
    /// Expansion ratio |X(q)|/|L(q.k)| within the LCC.
    pub(crate) expansion_ratio: FiveNumber,
}

impl Table3 {
    /// Render paper-vs-measured.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 3 — largest connected component (min q1 med q3 max)"
        );
        let rows = [
            ("%size", &self.size, PAPER_TABLE3[0]),
            ("%query nodes", &self.query_nodes, PAPER_TABLE3[1]),
            ("%articles", &self.articles, PAPER_TABLE3[2]),
            ("%categories", &self.categories, PAPER_TABLE3[3]),
            ("expansion ratio", &self.expansion_ratio, PAPER_TABLE3[4]),
        ];
        for (label, five, paper) in rows {
            let _ = writeln!(
                s,
                "  {label:<16} paper {} | measured {}",
                fmt_row(&paper),
                fmt_row(&five.row())
            );
        }
        s
    }
}

/// Table 4: average precision by cycle-length configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// `(configuration label, [P@1, P@5, P@10, P@15])`.
    pub(crate) rows: Vec<(String, [f64; 4])>,
}

impl Table4 {
    /// Render paper-vs-measured.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 4 — precision by cycle lengths (top-1 top-5 top-10 top-15)"
        );
        for (label, measured) in &self.rows {
            let paper = PAPER_TABLE4
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v);
            match paper {
                Some(p) => {
                    let _ = writeln!(
                        s,
                        "  {label:<8} paper {} | measured {}",
                        fmt4(&p),
                        fmt4(measured)
                    );
                }
                None => {
                    let _ = writeln!(s, "  {label:<8} measured {}", fmt4(measured));
                }
            }
        }
        s
    }
}

/// A per-cycle-length series (Figs. 5, 6, 7a, 7b). Index = cycle
/// length; entries below the series' first length are `None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LengthSeries {
    /// Figure label.
    pub(crate) label: String,
    /// `values[len]` = measured mean for that cycle length.
    pub values: Vec<Option<f64>>,
    /// Paper values aligned to `first_len`.
    pub(crate) paper: Vec<f64>,
    /// Cycle length of `paper[0]`.
    pub(crate) first_len: usize,
}

impl LengthSeries {
    /// Render paper-vs-measured per length.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.label);
        for (i, &p) in self.paper.iter().enumerate() {
            let len = self.first_len + i;
            let m = self.values.get(len).copied().flatten();
            match m {
                Some(v) => {
                    let _ = writeln!(s, "  len {len}: paper {p:>8.3} | measured {v:>8.3}");
                }
                None => {
                    let _ = writeln!(s, "  len {len}: paper {p:>8.3} | measured      n/a");
                }
            }
        }
        s
    }
}

/// Fig. 9: density of extra edges vs. contribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9 {
    /// Binned means: `(bin centre density, mean contribution, count)`.
    pub(crate) bins: Vec<(f64, f64, usize)>,
    /// OLS trend `(slope, intercept)` over the raw points.
    pub(crate) trend: Option<(f64, f64)>,
    /// Number of raw (density, contribution) points.
    pub(crate) points: usize,
}

impl Fig9 {
    /// Render the trend and bins. The paper shows a positive trend
    /// ("the denser the cycle, the better its contribution").
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Fig. 9 — density of extra edges vs contribution");
        match self.trend {
            Some((slope, intercept)) => {
                let _ = writeln!(
                    s,
                    "  trend: contribution ≈ {slope:.2}·density + {intercept:.2}  \
                     (paper: positive slope) over {} cycles",
                    self.points
                );
            }
            None => {
                let _ = writeln!(s, "  trend undefined ({} points)", self.points);
            }
        }
        for &(centre, mean, count) in &self.bins {
            let _ = writeln!(
                s,
                "  density {centre:>4.2}: mean contribution {mean:>8.2}%  (n={count})"
            );
        }
        s
    }
}

/// §3/§4 scalar statistics, paper-vs-measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalarStats {
    /// Mean TPR of the largest components (paper ≈ 0.3).
    pub(crate) tpr_mean: f64,
    /// Link reciprocity of the knowledge base (paper 0.1147).
    pub(crate) link_reciprocity: f64,
    /// Mean query-graph size in nodes (paper 208.22).
    pub(crate) avg_query_graph_nodes: f64,
    /// Mean cycles per query graph.
    pub(crate) avg_cycles_per_query: f64,
}

impl ScalarStats {
    /// Render paper-vs-measured.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "§3 scalar statistics");
        let _ = writeln!(
            s,
            "  TPR of LCCs:          paper ≈{PAPER_TPR:.3} | measured {:.3}",
            self.tpr_mean
        );
        let _ = writeln!(
            s,
            "  link reciprocity:     paper {PAPER_RECIPROCITY:.4} | measured {:.4}",
            self.link_reciprocity
        );
        let _ = writeln!(
            s,
            "  query-graph nodes:    paper {PAPER_QG_NODES:.2} | measured {:.2}",
            self.avg_query_graph_nodes
        );
        let _ = writeln!(
            s,
            "  cycles per query:     measured {:.2}",
            self.avg_cycles_per_query
        );
        s
    }
}

fn fmt_row(v: &[f64; 5]) -> String {
    format!(
        "[{:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>7.3}]",
        v[0], v[1], v[2], v[3], v[4]
    )
}

fn fmt4(v: &[f64; 4]) -> String {
    format!("[{:>5.3} {:>5.3} {:>5.3} {:>5.3}]", v[0], v[1], v[2], v[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_retrieval::stats::five_number;

    fn fv(values: &[f64]) -> FiveNumber {
        five_number(values).unwrap()
    }

    #[test]
    fn table2_renders_both_columns() {
        let t = Table2 {
            rows: [fv(&[1.0]), fv(&[0.8]), fv(&[0.6]), fv(&[0.5])],
        };
        let out = t.render();
        assert!(out.contains("top-1"));
        assert!(out.contains("paper"));
        assert!(out.contains("measured"));
    }

    #[test]
    fn table4_includes_all_paper_rows() {
        let rows = PAPER_TABLE4
            .iter()
            .map(|(l, v)| (l.to_string(), *v))
            .collect();
        let out = Table4 { rows }.render();
        for (label, _) in PAPER_TABLE4 {
            assert!(out.contains(label), "missing {label}");
        }
    }

    #[test]
    fn length_series_renders_na_for_missing() {
        let s = LengthSeries {
            label: "Fig. 5".into(),
            values: vec![None, None, Some(42.0)],
            paper: PAPER_FIG5.to_vec(),
            first_len: 2,
        };
        let out = s.render();
        assert!(out.contains("42.000"));
        assert!(out.contains("n/a"));
    }

    #[test]
    fn fig9_renders_trend() {
        let f = Fig9 {
            bins: vec![(0.1, 20.0, 5)],
            trend: Some((30.0, 10.0)),
            points: 5,
        };
        let out = f.render();
        assert!(out.contains("30.00"));
        assert!(out.contains("n=5"));
    }

    #[test]
    fn scalar_stats_render() {
        let s = ScalarStats {
            tpr_mean: 0.31,
            link_reciprocity: 0.12,
            avg_query_graph_nodes: 150.0,
            avg_cycles_per_query: 80.0,
        };
        let out = s.render();
        assert!(out.contains("0.310"));
        assert!(out.contains("0.1147"));
    }

    #[test]
    fn serde_round_trip() {
        let t = Table2 {
            rows: [fv(&[1.0]), fv(&[0.8]), fv(&[0.6]), fv(&[0.5])],
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: Table2 = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows[0].max, t.rows[0].max);
    }
}
