//! TREC-style relevance judgments (qrels) import/export.
//!
//! The ImageCLEF track distributes its ground truth in the classic TREC
//! qrels format: `query-id 0 doc-id relevance`, one judgment per line.
//! Only binary relevance is used here (the paper's result sets are
//! sets).

use crate::query::{DocId, Query, QuerySet};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a query set as TREC qrels (relevant documents only, relevance
/// grade 1).
pub fn to_qrels(queries: &QuerySet) -> String {
    let mut out = String::new();
    for q in queries.iter() {
        for &d in &q.relevant {
            let _ = writeln!(out, "{} 0 {} 1", q.id, d.0);
        }
    }
    out
}

/// Errors from [`parse_qrels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QrelsError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Description.
    pub(crate) message: String,
}

impl std::fmt::Display for QrelsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "qrels line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QrelsError {}

/// Parse TREC qrels into per-query relevant-document lists. Keywords are
/// not part of the qrels format, so queries come back with empty keyword
/// strings; callers merge them with a topic file.
pub fn parse_qrels(text: &str) -> Result<QuerySet, QrelsError> {
    let mut by_query: BTreeMap<u32, Vec<DocId>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = |msg: &str| QrelsError {
            line: i + 1,
            message: msg.to_owned(),
        };
        let qid: u32 = parts
            .next()
            .ok_or_else(|| bad("missing query id"))?
            .parse()
            .map_err(|_| bad("bad query id"))?;
        let _iter = parts.next().ok_or_else(|| bad("missing iteration field"))?;
        let did: u32 = parts
            .next()
            .ok_or_else(|| bad("missing doc id"))?
            .parse()
            .map_err(|_| bad("bad doc id"))?;
        let rel: i32 = parts
            .next()
            .ok_or_else(|| bad("missing relevance"))?
            .parse()
            .map_err(|_| bad("bad relevance"))?;
        if rel > 0 {
            by_query.entry(qid).or_default().push(DocId(did));
        } else {
            by_query.entry(qid).or_default();
        }
    }
    Ok(QuerySet {
        queries: by_query
            .into_iter()
            .map(|(id, docs)| Query::new(id, String::new(), docs))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let qs = QuerySet {
            queries: vec![
                Query::new(1, "", vec![DocId(10), DocId(11)]),
                Query::new(90, "", vec![DocId(3)]),
            ],
        };
        let text = to_qrels(&qs);
        let back = parse_qrels(&text).unwrap();
        assert_eq!(back, qs);
    }

    #[test]
    fn nonrelevant_lines_keep_query_visible() {
        let qs = parse_qrels("7 0 1 0\n7 0 2 1\n").unwrap();
        let q = qs.by_id(7).unwrap();
        assert_eq!(q.relevant, vec![DocId(2)]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let qs = parse_qrels("# header\n\n1 0 5 1\n").unwrap();
        assert_eq!(qs.len(), 1);
    }

    #[test]
    fn reports_line_numbers() {
        let e = parse_qrels("1 0 5 1\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn queries_sorted_by_id() {
        let qs = parse_qrels("9 0 1 1\n2 0 1 1\n").unwrap();
        let ids: Vec<u32> = qs.iter().map(|q| q.id).collect();
        assert_eq!(ids, vec![2, 9]);
    }
}
