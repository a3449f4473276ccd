//! A minimal XML parser and writer.
//!
//! The allowed dependency set has no XML crate, so this module implements
//! the subset of XML that the ImageCLEF metadata files use (and that the
//! synthetic corpus emits): elements with attributes, text content,
//! self-closing tags, comments, XML declarations, CDATA, and the five
//! predefined entities plus numeric character references.
//!
//! Two layers:
//! * [`Tokenizer`] — a pull tokenizer yielding [`XmlToken`]s;
//! * [`parse_element`] — builds an [`Element`] tree (the corpus files are
//!   small, a DOM is the simplest interface for extraction).

use std::fmt;

/// Parse errors with byte offsets into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where the error was detected.
    pub(crate) offset: usize,
    /// Human-readable description.
    pub(crate) message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, XmlError> {
    Err(XmlError {
        offset,
        message: message.into(),
    })
}

/// Size limits enforced while tokenizing/parsing.
///
/// Real dumps are adversarial in boring ways: a missing `</description>`
/// can fuse megabytes of following documents into one "text run", and a
/// corrupted length field upstream can produce absurd attribute values.
/// Limits turn those into typed [`XmlError`]s instead of unbounded
/// allocations. The defaults are far above anything a well-formed
/// ImageCLEF record produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct XmlLimits {
    /// Maximum byte length of one text run (or CDATA section).
    pub(crate) max_text_bytes: usize,
    /// Maximum byte length of one attribute value.
    pub(crate) max_attr_bytes: usize,
    /// Maximum byte length of a tag or attribute name.
    pub(crate) max_name_bytes: usize,
    /// Maximum number of attributes on one tag.
    pub(crate) max_attrs: usize,
    /// Maximum element nesting depth in [`parse_element_with`].
    pub(crate) max_depth: usize,
}

impl Default for XmlLimits {
    fn default() -> Self {
        XmlLimits {
            max_text_bytes: 4 << 20,
            max_attr_bytes: 64 << 10,
            max_name_bytes: 1 << 10,
            max_attrs: 64,
            max_depth: 64,
        }
    }
}

/// One XML token from the [`Tokenizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum XmlToken {
    /// `<name attr="v">`
    StartTag {
        /// Element name.
        name: String,
        /// Attributes in document order, values entity-decoded.
        attrs: Vec<(String, String)>,
    },
    /// `</name>`
    EndTag {
        /// Element name.
        name: String,
    },
    /// `<name/>`
    SelfClosing {
        /// Element name.
        name: String,
        /// Attributes in document order.
        attrs: Vec<(String, String)>,
    },
    /// Character data between tags (entity-decoded, whitespace kept).
    Text(String),
}

/// Decode the predefined entities and numeric character references in
/// `raw`.
pub(crate) fn decode_entities(raw: &str) -> Result<String, XmlError> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Advance one UTF-8 char.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&raw[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        let semi = raw[i..].find(';').ok_or(XmlError {
            offset: i,
            message: "unterminated entity".into(),
        })? + i;
        let ent = &raw[i + 1..semi];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16).map_err(|_| XmlError {
                    offset: i,
                    message: format!("bad hex char ref &{ent};"),
                })?;
                out.push(char::from_u32(code).ok_or(XmlError {
                    offset: i,
                    message: format!("invalid char ref &{ent};"),
                })?);
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..].parse().map_err(|_| XmlError {
                    offset: i,
                    message: format!("bad char ref &{ent};"),
                })?;
                out.push(char::from_u32(code).ok_or(XmlError {
                    offset: i,
                    message: format!("invalid char ref &{ent};"),
                })?);
            }
            _ => {
                return err(i, format!("unknown entity &{ent};"));
            }
        }
        i = semi + 1;
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Escape text content for emission.
pub(crate) fn escape_text(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape an attribute value for emission inside double quotes.
pub(crate) fn escape_attr(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Pull tokenizer over an XML string. Skips declarations, processing
/// instructions and comments; yields [`XmlToken`]s.
pub(crate) struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    limits: XmlLimits,
}

impl<'a> Tokenizer<'a> {
    /// Tokenizer over `input` with explicit limits.
    pub(crate) fn with_limits(input: &'a str, limits: XmlLimits) -> Self {
        Tokenizer {
            input,
            pos: 0,
            limits,
        }
    }

    /// Current byte offset (for error reporting).
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Next token, or `Ok(None)` at end of input.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn next(&mut self) -> Result<Option<XmlToken>, XmlError> {
        loop {
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            let rest = self.rest();
            if let Some(stripped) = rest.strip_prefix("<!--") {
                let end = stripped.find("-->").ok_or(XmlError {
                    offset: self.pos,
                    message: "unterminated comment".into(),
                })?;
                self.pos += 4 + end + 3;
                continue;
            }
            if let Some(cdata) = rest.strip_prefix("<![CDATA[") {
                let body_start = self.pos + 9;
                let end = cdata.find("]]>").ok_or(XmlError {
                    offset: self.pos,
                    message: "unterminated CDATA".into(),
                })?;
                if end > self.limits.max_text_bytes {
                    return err(
                        self.pos,
                        format!(
                            "CDATA section of {end} bytes exceeds limit of {}",
                            self.limits.max_text_bytes
                        ),
                    );
                }
                let text = self.input[body_start..body_start + end].to_owned();
                self.pos = body_start + end + 3;
                return Ok(Some(XmlToken::Text(text)));
            }
            if rest.starts_with("<?") {
                let end = rest.find("?>").ok_or(XmlError {
                    offset: self.pos,
                    message: "unterminated declaration".into(),
                })?;
                self.pos += end + 2;
                continue;
            }
            if rest.starts_with("<!") {
                // DOCTYPE and friends: skip to matching '>'.
                let end = rest.find('>').ok_or(XmlError {
                    offset: self.pos,
                    message: "unterminated <! construct".into(),
                })?;
                self.pos += end + 1;
                continue;
            }
            if let Some(after) = rest.strip_prefix("</") {
                let end = after.find('>').ok_or(XmlError {
                    offset: self.pos,
                    message: "unterminated end tag".into(),
                })?;
                let name = after[..end].trim().to_owned();
                if name.is_empty() {
                    return err(self.pos, "empty end-tag name");
                }
                if name.len() > self.limits.max_name_bytes {
                    return err(
                        self.pos,
                        format!(
                            "end-tag name of {} bytes exceeds limit of {}",
                            name.len(),
                            self.limits.max_name_bytes
                        ),
                    );
                }
                self.pos += 2 + end + 1;
                return Ok(Some(XmlToken::EndTag { name }));
            }
            if rest.starts_with('<') {
                return self.parse_start_tag();
            }
            // Text run up to the next '<'.
            let end = rest.find('<').unwrap_or(rest.len());
            let raw = &rest[..end];
            let start_offset = self.pos;
            self.pos += end;
            if raw.trim().is_empty() {
                continue; // inter-tag whitespace
            }
            if raw.len() > self.limits.max_text_bytes {
                return err(
                    start_offset,
                    format!(
                        "text run of {} bytes exceeds limit of {}",
                        raw.len(),
                        self.limits.max_text_bytes
                    ),
                );
            }
            let decoded = decode_entities(raw).map_err(|e| XmlError {
                offset: start_offset + e.offset,
                message: e.message,
            })?;
            return Ok(Some(XmlToken::Text(decoded)));
        }
    }

    fn parse_start_tag(&mut self) -> Result<Option<XmlToken>, XmlError> {
        let tag_start = self.pos;
        let rest = self.rest();
        let end = rest.find('>').ok_or(XmlError {
            offset: tag_start,
            message: "unterminated start tag".into(),
        })?;
        let inner = &rest[1..end];
        let self_closing = inner.ends_with('/');
        let inner = inner.trim_end_matches('/').trim();
        self.pos += end + 1;

        let name_end = inner
            .find(|c: char| c.is_whitespace())
            .unwrap_or(inner.len());
        let name = inner[..name_end].to_owned();
        if name.is_empty() {
            return err(tag_start, "empty tag name");
        }
        if name.len() > self.limits.max_name_bytes {
            return err(
                tag_start,
                format!(
                    "tag name of {} bytes exceeds limit of {}",
                    name.len(),
                    self.limits.max_name_bytes
                ),
            );
        }
        let mut attrs = Vec::new();
        let mut attr_str = inner[name_end..].trim_start();
        while !attr_str.is_empty() {
            if attrs.len() >= self.limits.max_attrs {
                return err(
                    tag_start,
                    format!("more than {} attributes in <{name}>", self.limits.max_attrs),
                );
            }
            let eq = attr_str.find('=').ok_or(XmlError {
                offset: tag_start,
                message: format!("attribute without value in <{name}>"),
            })?;
            let key = attr_str[..eq].trim().to_owned();
            if key.len() > self.limits.max_name_bytes {
                return err(
                    tag_start,
                    format!(
                        "attribute name of {} bytes exceeds limit of {}",
                        key.len(),
                        self.limits.max_name_bytes
                    ),
                );
            }
            let after_eq = attr_str[eq + 1..].trim_start();
            let quote = after_eq.chars().next().ok_or(XmlError {
                offset: tag_start,
                message: "missing attribute value".into(),
            })?;
            if quote != '"' && quote != '\'' {
                return err(tag_start, format!("unquoted attribute value in <{name}>"));
            }
            let close = after_eq[1..].find(quote).ok_or(XmlError {
                offset: tag_start,
                message: "unterminated attribute value".into(),
            })?;
            let raw_val = &after_eq[1..1 + close];
            if raw_val.len() > self.limits.max_attr_bytes {
                return err(
                    tag_start,
                    format!(
                        "attribute value of {} bytes exceeds limit of {}",
                        raw_val.len(),
                        self.limits.max_attr_bytes
                    ),
                );
            }
            attrs.push((key, decode_entities(raw_val)?));
            attr_str = after_eq[1 + close + 1..].trim_start();
        }
        Ok(Some(if self_closing {
            XmlToken::SelfClosing { name, attrs }
        } else {
            XmlToken::StartTag { name, attrs }
        }))
    }
}

/// A DOM element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Element {
    /// Tag name.
    pub(crate) name: String,
    /// Attributes in document order.
    pub(crate) attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub(crate) children: Vec<Node>,
}

/// A DOM node: element or text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Node {
    /// Child element.
    Element(Element),
    /// Text content.
    Text(String),
}

impl Element {
    /// Attribute value by name.
    pub(crate) fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Child elements with the given tag name.
    pub(crate) fn children_named<'e>(
        &'e self,
        name: &str,
    ) -> impl Iterator<Item = &'e Element> + 'e {
        let name = name.to_owned();
        self.children.iter().filter_map(move |n| match n {
            Node::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// Concatenated text of all *direct* text children.
    pub(crate) fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }
}

/// Parse a document with a single root element into that [`Element`],
/// using default [`XmlLimits`].
pub(crate) fn parse_element(input: &str) -> Result<Element, XmlError> {
    parse_element_with(input, XmlLimits::default())
}

/// Parse a document with a single root element under explicit limits.
pub(crate) fn parse_element_with(input: &str, limits: XmlLimits) -> Result<Element, XmlError> {
    let mut tok = Tokenizer::with_limits(input, limits);
    let mut stack: Vec<Element> = Vec::new();
    let mut root: Option<Element> = None;
    while let Some(token) = tok.next()? {
        match token {
            XmlToken::StartTag { name, attrs } => {
                if stack.len() >= limits.max_depth {
                    return err(
                        tok.offset(),
                        format!("element nesting deeper than {}", limits.max_depth),
                    );
                }
                stack.push(Element {
                    name,
                    attrs,
                    children: Vec::new(),
                });
            }
            XmlToken::SelfClosing { name, attrs } => {
                let el = Element {
                    name,
                    attrs,
                    children: Vec::new(),
                };
                match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(el)),
                    None if root.is_none() => root = Some(el),
                    None => return err(tok.offset(), "multiple root elements"),
                }
            }
            XmlToken::EndTag { name } => {
                let el = stack.pop().ok_or(XmlError {
                    offset: tok.offset(),
                    message: format!("unmatched </{name}>"),
                })?;
                if el.name != name {
                    return err(
                        tok.offset(),
                        format!("mismatched </{name}>, expected </{}>", el.name),
                    );
                }
                match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(el)),
                    None if root.is_none() => root = Some(el),
                    None => return err(tok.offset(), "multiple root elements"),
                }
            }
            XmlToken::Text(t) => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Text(t));
                }
                // Top-level stray text is ignored (whitespace was already
                // filtered; anything else is lenient-parsed away).
            }
        }
    }
    if !stack.is_empty() {
        return err(
            tok.offset(),
            format!("unclosed <{}>", stack.last().unwrap().name),
        );
    }
    root.ok_or(XmlError {
        offset: 0,
        message: "no root element".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_document() {
        let mut t = Tokenizer::with_limits("<a x=\"1\"><b/>hello</a>", XmlLimits::default());
        assert_eq!(
            t.next().unwrap().unwrap(),
            XmlToken::StartTag {
                name: "a".into(),
                attrs: vec![("x".into(), "1".into())]
            }
        );
        assert_eq!(
            t.next().unwrap().unwrap(),
            XmlToken::SelfClosing {
                name: "b".into(),
                attrs: vec![]
            }
        );
        assert_eq!(t.next().unwrap().unwrap(), XmlToken::Text("hello".into()));
        assert_eq!(
            t.next().unwrap().unwrap(),
            XmlToken::EndTag { name: "a".into() }
        );
        assert_eq!(t.next().unwrap(), None);
    }

    #[test]
    fn skips_declaration_and_comments() {
        let mut t = Tokenizer::with_limits(
            "<?xml version=\"1.0\" encoding=\"UTF-8\" ?><!-- c --><r/>",
            XmlLimits::default(),
        );
        assert_eq!(
            t.next().unwrap().unwrap(),
            XmlToken::SelfClosing {
                name: "r".into(),
                attrs: vec![]
            }
        );
    }

    #[test]
    fn decodes_entities() {
        assert_eq!(decode_entities("a &amp; b &lt;c&gt;").unwrap(), "a & b <c>");
        assert_eq!(
            decode_entities("&quot;q&quot; &apos;a&apos;").unwrap(),
            "\"q\" 'a'"
        );
        assert_eq!(decode_entities("&#65;&#x42;").unwrap(), "AB");
        assert!(decode_entities("&bogus;").is_err());
        assert!(decode_entities("&amp").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a & b < c > d \" e";
        assert_eq!(decode_entities(&escape_text(nasty)).unwrap(), nasty);
        assert_eq!(decode_entities(&escape_attr(nasty)).unwrap(), nasty);
    }

    #[test]
    fn parses_tree() {
        let e = parse_element("<image id=\"8\"><name>x.jpg</name><text xml:lang=\"en\"><description>A b</description></text></image>").unwrap();
        assert_eq!(e.name, "image");
        assert_eq!(e.attr("id"), Some("8"));
        assert_eq!(e.children_named("name").next().unwrap().text(), "x.jpg");
        let text = e.children_named("text").next().unwrap();
        assert_eq!(text.attr("xml:lang"), Some("en"));
        assert_eq!(
            text.children_named("description").next().unwrap().text(),
            "A b"
        );
    }

    #[test]
    fn children_named_filters() {
        let e = parse_element("<r><c>1</c><d/><c>2</c></r>").unwrap();
        let texts: Vec<String> = e.children_named("c").map(|c| c.text()).collect();
        assert_eq!(texts, vec!["1", "2"]);
        assert!(e.children_named("missing").next().is_none());
    }

    #[test]
    fn cdata_is_text() {
        let e = parse_element("<r><![CDATA[x < y & z]]></r>").unwrap();
        assert_eq!(e.text(), "x < y & z");
    }

    #[test]
    fn single_quoted_attributes() {
        let e = parse_element("<r a='v1' b=\"v2\"/>").unwrap();
        assert_eq!(e.attr("a"), Some("v1"));
        assert_eq!(e.attr("b"), Some("v2"));
    }

    #[test]
    fn error_on_mismatched_tags() {
        assert!(parse_element("<a><b></a></b>").is_err());
        assert!(parse_element("<a>").is_err());
        assert!(parse_element("").is_err());
        assert!(parse_element("<a/><b/>").is_err());
    }

    #[test]
    fn attribute_entities_decoded() {
        let e = parse_element("<r t=\"a &amp; b\"/>").unwrap();
        assert_eq!(e.attr("t"), Some("a & b"));
    }

    #[test]
    fn unicode_text_survives() {
        let e = parse_element("<r>Bouches-du-Rhône — été</r>").unwrap();
        assert_eq!(e.text(), "Bouches-du-Rhône — été");
    }

    fn tight_limits() -> XmlLimits {
        XmlLimits {
            max_text_bytes: 16,
            max_attr_bytes: 8,
            max_name_bytes: 4,
            max_attrs: 2,
            max_depth: 3,
        }
    }

    #[test]
    fn oversized_fields_are_typed_errors() {
        let l = tight_limits();
        let text = format!("<r>{}</r>", "x".repeat(17));
        assert!(parse_element_with(&text, l)
            .unwrap_err()
            .message
            .contains("exceeds limit"));
        let cdata = format!("<r><![CDATA[{}]]></r>", "x".repeat(17));
        assert!(parse_element_with(&cdata, l)
            .unwrap_err()
            .message
            .contains("exceeds limit"));
        let attr = format!("<r a=\"{}\"/>", "x".repeat(9));
        assert!(parse_element_with(&attr, l)
            .unwrap_err()
            .message
            .contains("exceeds limit"));
        let name = "<toolong/>";
        assert!(parse_element_with(name, l)
            .unwrap_err()
            .message
            .contains("exceeds limit"));
        let end_name = "<r></toolongname>";
        assert!(parse_element_with(end_name, l)
            .unwrap_err()
            .message
            .contains("exceeds limit"));
        let attrs = "<r a=\"1\" b=\"2\" c=\"3\"/>";
        assert!(parse_element_with(attrs, l)
            .unwrap_err()
            .message
            .contains("attributes"));
        let deep = "<a><b><c><d>x</d></c></b></a>";
        assert!(parse_element_with(deep, l)
            .unwrap_err()
            .message
            .contains("nesting"));
        // The same documents parse fine under default limits.
        assert!(parse_element(&text).is_ok());
        assert!(parse_element(deep).is_ok());
    }

    /// A representative document exercising every token kind.
    fn fuzz_fixture() -> String {
        concat!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\" ?>\n",
            "<!-- leading comment -->\n",
            "<image id=\"42\" file=\"caf\u{e9}.jpg\">\n",
            "  <name>caf\u{e9} &amp; cr\u{e8}me.jpg</name>\n",
            "  <text xml:lang=\"en\">\n",
            "    <description>A &lt;tagged&gt; caption &#65;</description>\n",
            "    <comment><![CDATA[raw < & > bytes]]></comment>\n",
            "  </text>\n",
            "  <license/>\n",
            "</image>\n",
        )
        .to_string()
    }

    /// Truncating a valid document at every byte offset must yield
    /// `Ok(_)` or a typed error — never a panic. Byte offsets inside a
    /// multi-byte character are exercised via lossy decoding, matching
    /// what a streaming reader would hand us.
    #[test]
    fn every_byte_truncation_never_panics() {
        let doc = fuzz_fixture();
        let bytes = doc.as_bytes();
        for cut in 0..=bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            let _ = parse_element(&prefix);
            let mut tok = Tokenizer::with_limits(&prefix, XmlLimits::default());
            while let Ok(Some(_)) = tok.next() {}
        }
    }

    /// Corrupting any single byte to a metacharacter must also never
    /// panic (unbalanced tags, stray '&', split entities, ...).
    #[test]
    fn single_byte_corruption_never_panics() {
        let doc = fuzz_fixture();
        for (i, _) in doc.char_indices() {
            for junk in ['<', '>', '&', '"', '/'] {
                let mut bad = String::with_capacity(doc.len());
                for (j, c) in doc.char_indices() {
                    bad.push(if j == i { junk } else { c });
                }
                let _ = parse_element(&bad);
            }
        }
    }

    #[test]
    fn unbalanced_tags_are_typed_errors() {
        for bad in [
            "<a><b></b>",
            "<a></b>",
            "</a>",
            "<a><b></a></b>",
            "<a><![CDATA[x]]>",
            "<a><!-- never closed",
            "<a b=\"unterminated",
            "<a b=unquoted/>",
        ] {
            let e = parse_element(bad).unwrap_err();
            assert!(!e.message.is_empty(), "{bad:?} should be a typed error");
        }
    }
}
