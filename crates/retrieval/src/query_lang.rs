//! The INDRI-like query language: parser and AST.
//!
//! Supported subset (everything the paper's pipeline emits, §2.2):
//!
//! ```text
//! query    := node+                      (implicit #combine)
//! node     := term
//!           | '#1(' term+ ')'            exact phrase
//!           | '#combine(' node+ ')'      average of log-beliefs
//!           | '#weight(' (num node)+ ')' weighted average
//! ```
//!
//! Terms are normalized with the shared text pipeline, so `#1(Grand
//! Canal)` and `#1(grand canal)` are the same query.

use querygraph_text::tokenize;
use std::fmt;

/// Parsed query AST.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryNode {
    /// A single term.
    Term(String),
    /// `#1(...)`: exact phrase of ≥1 terms.
    Phrase(Vec<String>),
    /// `#combine(...)`: uniform average of children's log-beliefs.
    Combine(Vec<QueryNode>),
    /// `#weight(w1 n1 w2 n2 …)`: weighted average.
    Weight(Vec<(f64, QueryNode)>),
}

impl QueryNode {
    /// Build the paper's ground-truth query: a `#combine` of exact title
    /// phrases ("we use their titles to internally write a query in the
    /// INDRI query language, based on exact phrase matching").
    /// Empty-after-normalization titles are skipped.
    pub fn phrases_of_titles<S: AsRef<str>>(titles: &[S]) -> QueryNode {
        let children: Vec<QueryNode> = titles
            .iter()
            .filter_map(|t| {
                let words = tokenize(t.as_ref());
                if words.is_empty() {
                    None
                } else {
                    Some(QueryNode::Phrase(words))
                }
            })
            .collect();
        QueryNode::Combine(children)
    }
}

impl fmt::Display for QueryNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryNode::Term(t) => write!(f, "{t}"),
            QueryNode::Phrase(words) => write!(f, "#1({})", words.join(" ")),
            QueryNode::Combine(children) => {
                write!(f, "#combine(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            QueryNode::Weight(children) => {
                write!(f, "#weight(")?;
                for (i, (w, c)) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{w} {c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub(crate) offset: usize,
    /// Description.
    pub(crate) message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn parse_word(&mut self) -> Option<&'a str> {
        let start = self.pos;
        for (i, c) in self.input[self.pos..].char_indices() {
            if c.is_whitespace() || c == '(' || c == ')' || c == '#' {
                self.pos = start + i;
                return (i > 0).then(|| &self.input[start..start + i]);
            }
        }
        self.pos = self.input.len();
        (self.pos > start).then(|| &self.input[start..])
    }

    fn parse_operator(&mut self) -> Result<QueryNode, ParseError> {
        // Called on '#'.
        self.pos += 1;
        let name = self.parse_word().unwrap_or("");
        self.skip_ws();
        if !self.eat('(') {
            return self.error(format!("expected '(' after #{name}"));
        }
        let node = match name {
            "1" => {
                let mut words = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat(')') {
                        break;
                    }
                    match self.parse_word() {
                        Some(w) => {
                            for normalized in tokenize(w) {
                                words.push(normalized);
                            }
                        }
                        None => return self.error("expected term inside #1(...)"),
                    }
                }
                if words.is_empty() {
                    return self.error("#1() needs at least one term");
                }
                QueryNode::Phrase(words)
            }
            "combine" => {
                let children = self.parse_children()?;
                if children.is_empty() {
                    return self.error("#combine() needs at least one child");
                }
                QueryNode::Combine(children)
            }
            "weight" => {
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat(')') {
                        break;
                    }
                    let w = match self.parse_word() {
                        Some(word) => word.parse::<f64>().map_err(|_| ParseError {
                            offset: self.pos,
                            message: format!("expected weight number, found {word:?}"),
                        })?,
                        None => return self.error("expected weight number"),
                    };
                    self.skip_ws();
                    let child = self.parse_node()?;
                    pairs.push((w, child));
                }
                if pairs.is_empty() {
                    return self.error("#weight() needs at least one pair");
                }
                QueryNode::Weight(pairs)
            }
            other => return self.error(format!("unknown operator #{other}")),
        };
        Ok(node)
    }

    fn parse_children(&mut self) -> Result<Vec<QueryNode>, ParseError> {
        let mut children = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(')') {
                return Ok(children);
            }
            if self.pos >= self.input.len() {
                return self.error("unterminated operator, expected ')'");
            }
            children.push(self.parse_node()?);
        }
    }

    fn parse_node(&mut self) -> Result<QueryNode, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('#') => self.parse_operator(),
            Some(')') => self.error("unexpected ')'"),
            Some(_) => {
                let word = self.parse_word().expect("peeked non-empty");
                let mut toks = tokenize(word);
                match toks.len() {
                    0 => self.error(format!("term {word:?} normalizes to nothing")),
                    1 => Ok(QueryNode::Term(toks.pop().expect("len 1"))),
                    _ => Ok(QueryNode::Phrase(toks)),
                }
            }
            None => self.error("unexpected end of query"),
        }
    }
}

/// Parse a query string. A bare sequence of nodes becomes an implicit
/// `#combine`.
pub fn parse(input: &str) -> Result<QueryNode, ParseError> {
    let mut p = Parser { input, pos: 0 };
    let mut nodes = Vec::new();
    loop {
        p.skip_ws();
        if p.pos >= input.len() {
            break;
        }
        nodes.push(p.parse_node()?);
    }
    match nodes.len() {
        0 => Err(ParseError {
            offset: 0,
            message: "empty query".into(),
        }),
        1 => Ok(nodes.pop().expect("len 1")),
        _ => Ok(QueryNode::Combine(nodes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_terms_become_combine() {
        let q = parse("gondola venice").unwrap();
        assert_eq!(
            q,
            QueryNode::Combine(vec![
                QueryNode::Term("gondola".into()),
                QueryNode::Term("venice".into()),
            ])
        );
    }

    #[test]
    fn single_term() {
        assert_eq!(parse("venice").unwrap(), QueryNode::Term("venice".into()));
    }

    #[test]
    fn phrase_operator() {
        let q = parse("#1(grand canal)").unwrap();
        assert_eq!(q, QueryNode::Phrase(vec!["grand".into(), "canal".into()]));
    }

    #[test]
    fn nested_combine() {
        let q = parse("#combine(#1(grand canal) gondola #combine(a b))").unwrap();
        let term = |t: &str| QueryNode::Term(t.into());
        assert_eq!(
            q,
            QueryNode::Combine(vec![
                QueryNode::Phrase(vec!["grand".into(), "canal".into()]),
                term("gondola"),
                QueryNode::Combine(vec![term("a"), term("b")]),
            ])
        );
    }

    #[test]
    fn weight_operator() {
        let q = parse("#weight(0.7 venice 0.3 #1(grand canal))").unwrap();
        match q {
            QueryNode::Weight(pairs) => {
                assert_eq!(pairs.len(), 2);
                assert!((pairs[0].0 - 0.7).abs() < 1e-12);
                assert_eq!(
                    pairs[1].1,
                    QueryNode::Phrase(vec!["grand".into(), "canal".into()])
                );
            }
            other => panic!("expected #weight, got {other:?}"),
        }
    }

    #[test]
    fn terms_are_normalized() {
        let q = parse("#1(Grand CANAL)").unwrap();
        assert_eq!(q, QueryNode::Phrase(vec!["grand".into(), "canal".into()]));
    }

    #[test]
    fn hyphenated_bare_word_becomes_phrase() {
        let q = parse("hand-colouring").unwrap();
        assert_eq!(
            q,
            QueryNode::Phrase(vec!["hand".into(), "colouring".into()])
        );
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("#1()").is_err());
        assert!(parse("#combine()").is_err());
        assert!(parse("#bogus(a)").is_err());
        assert!(parse("#combine(a").is_err());
        assert!(parse(")").is_err());
        assert!(parse("#weight(x venice)").is_err());
    }

    #[test]
    fn phrases_of_titles_builds_ground_truth_query() {
        let q = QueryNode::phrases_of_titles(&["Grand Canal (Venice)", "Gondola", "!!!"]);
        assert_eq!(
            q,
            QueryNode::Combine(vec![
                QueryNode::Phrase(vec!["grand".into(), "canal".into(), "venice".into()]),
                QueryNode::Phrase(vec!["gondola".into()]),
            ])
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for s in [
            "#combine(#1(grand canal) gondola)",
            "#weight(0.5 a 0.5 #1(b c))",
            "#1(bridge of sighs)",
        ] {
            let q = parse(s).unwrap();
            let q2 = parse(&q.to_string()).unwrap();
            assert_eq!(q, q2, "display round trip failed for {s}");
        }
    }
}
