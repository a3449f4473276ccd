//! Serialize an `ImageDoc` back to ImageCLEF-shaped XML.
//!
//! Used by the synthetic corpus generator (documents are materialized as
//! XML and re-parsed, so the parser path is exercised end to end) and for
//! writing corpora to disk.

use crate::document::ImageDoc;
use crate::xml::{escape_attr, escape_text};
use std::fmt::Write as _;

/// Render `doc` as an ImageCLEF metadata XML string.
pub fn to_xml(doc: &ImageDoc) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\" ?>\n");
    let _ = writeln!(
        out,
        "<image id=\"{}\" file=\"{}\">",
        escape_attr(&doc.id),
        escape_attr(&doc.file)
    );
    let _ = writeln!(out, "  <name>{}</name>", escape_text(&doc.name));
    for s in &doc.texts {
        let _ = writeln!(out, "  <text xml:lang=\"{}\">", escape_attr(&s.lang));
        let _ = writeln!(
            out,
            "    <description>{}</description>",
            escape_text(&s.description)
        );
        if s.comment.is_empty() {
            out.push_str("    <comment />\n");
        } else {
            let _ = writeln!(out, "    <comment>{}</comment>", escape_text(&s.comment));
        }
        for c in &s.captions {
            let _ = writeln!(
                out,
                "    <caption article=\"{}\">{}</caption>",
                escape_attr(&c.article),
                escape_text(&c.text)
            );
        }
        out.push_str("  </text>\n");
    }
    if doc.comment.is_empty() {
        out.push_str("  <comment />\n");
    } else {
        let _ = writeln!(out, "  <comment>{}</comment>", escape_text(&doc.comment));
    }
    let _ = writeln!(out, "  <license>{}</license>", escape_text(&doc.license));
    out.push_str("</image>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{Caption, LangSection};
    use crate::imageclef::parse_image_doc;

    fn sample() -> ImageDoc {
        ImageDoc {
            id: "42".into(),
            file: "images/4/42.jpg".into(),
            name: "Gondola & canal <view>.jpg".into(),
            texts: vec![LangSection {
                lang: "en".into(),
                description: "A gondola on the Grand Canal.".into(),
                comment: "note".into(),
                captions: vec![Caption {
                    article: "text/en/1/1".into(),
                    text: "Venice \"proper\".".into(),
                }],
            }],
            comment: "({{Information |Description= Canal photo |Source= X }})".into(),
            license: "GFDL".into(),
        }
    }

    #[test]
    fn round_trips_through_parser() {
        let doc = sample();
        let xml = to_xml(&doc);
        let back = parse_image_doc(&xml).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn escapes_special_characters() {
        let xml = to_xml(&sample());
        assert!(xml.contains("Gondola &amp; canal &lt;view&gt;.jpg"));
    }

    #[test]
    fn empty_sections_render_self_closing() {
        let mut doc = sample();
        doc.comment.clear();
        doc.texts[0].comment.clear();
        let xml = to_xml(&doc);
        assert!(xml.contains("<comment />"));
        let back = parse_image_doc(&xml).unwrap();
        assert_eq!(back, doc);
    }
}
