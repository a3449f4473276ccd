//! Parsing ImageCLEF XML metadata and the paper's linking-text
//! extraction (§2.1, Fig. 2).
//!
//! Given a metadata document, the paper extracts and concatenates:
//!
//! 1. the file **name** without its extension;
//! 2. the **English** text section (description, captions, comment) —
//!    German and French sections are ignored;
//! 3. the **Description** field of the general wiki-markup comment
//!    (`{{Information |Description= … |Source= …}}`).
//!
//! The result is the string on which entity linking runs.

use crate::document::{Caption, ImageDoc, LangSection};
use crate::xml::{parse_element, Element, XmlError};

/// Parse one ImageCLEF metadata file into an `ImageDoc`.
///
/// Lenient where the real collection is messy: missing sections default
/// to empty, unknown elements are ignored.
pub fn parse_image_doc(xml: &str) -> Result<ImageDoc, XmlError> {
    let root = parse_element(xml)?;
    if root.name != "image" {
        return Err(XmlError {
            offset: 0,
            message: format!("expected <image> root, found <{}>", root.name),
        });
    }
    let mut doc = ImageDoc {
        id: root.attr("id").unwrap_or_default().to_owned(),
        file: root.attr("file").unwrap_or_default().to_owned(),
        ..ImageDoc::default()
    };
    for child in &root.children {
        let el = match child {
            crate::xml::Node::Element(e) => e,
            crate::xml::Node::Text(_) => continue,
        };
        match el.name.as_str() {
            "name" => doc.name = el.text().trim().to_owned(),
            "text" => doc.texts.push(parse_section(el)),
            "comment" => doc.comment = el.text().trim().to_owned(),
            "license" => doc.license = el.text().trim().to_owned(),
            _ => {}
        }
    }
    Ok(doc)
}

fn parse_section(el: &Element) -> LangSection {
    let mut s = LangSection {
        lang: el.attr("xml:lang").unwrap_or_default().to_owned(),
        ..LangSection::default()
    };
    for d in el.children_named("description") {
        s.description = d.text().trim().to_owned();
    }
    for c in el.children_named("comment") {
        s.comment = c.text().trim().to_owned();
    }
    for c in el.children_named("caption") {
        s.captions.push(Caption {
            article: c.attr("article").unwrap_or_default().to_owned(),
            text: c.text().trim().to_owned(),
        });
    }
    s
}

/// Extract the `|Description=` field from a wiki `{{Information …}}`
/// comment — region ③ of Fig. 2. Returns an empty string when the
/// pattern is absent.
pub(crate) fn extract_comment_description(comment: &str) -> &str {
    let Some(pos) = comment.find("|Description=") else {
        return "";
    };
    let after = &comment[pos + "|Description=".len()..];
    let end = after
        .find('|')
        .unwrap_or_else(|| after.find("}}").unwrap_or(after.len()));
    after[..end].trim()
}

/// Build the linking text of a document: regions ①–③ of Fig. 2 joined
/// with periods (sentence separators keep phrase matching from spanning
/// field boundaries).
pub fn linking_text(doc: &ImageDoc) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(doc.name_without_extension().to_owned());
    if let Some(en) = doc.section("en") {
        if !en.description.is_empty() {
            parts.push(en.description.clone());
        }
        if !en.comment.is_empty() {
            parts.push(en.comment.clone());
        }
        for c in &en.captions {
            if !c.text.is_empty() {
                parts.push(c.text.clone());
            }
        }
    }
    let cd = extract_comment_description(&doc.comment);
    if !cd.is_empty() {
        parts.push(cd.to_owned());
    }
    parts.join(" . ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example document of the paper's Fig. 2 (abridged).
    const FIG2: &str = r#"<?xml version="1.0" encoding="UTF-8" ?>
<image id="82531" file="images/9/82531.jpg">
   <name>Field Hamois Belgium Luc Viatour.jpg</name>
  <text xml:lang="en">
         <description>Summer field in Belgium (Hamois). The blue flower is Centaurea cyanus.</description>
          <comment />
          <caption article="text/en/1/302887">Summer field in Belgium (Hamois).</caption>
          <caption article="text/en/1/303807">A field in summer.</caption>
 </text>
 <text xml:lang="de">
          <description>Ein blühendes Feld in Belgien.</description>
          <comment />
          <caption article="text/de/1/404730">Ein Feld im Sommer</caption>
 </text>
 <text xml:lang="fr">
          <description>Un champ en été en Belgique (Hamois).</description>
          <comment />
          <caption article="text/fr/4/535372">un champ en été </caption>
 </text>
 <comment>({{Information |Description= Flowers in Belgium |Source= Flickr |Date= 1/1/85 |Author= JA |Permission= GFDL |other_versions= }})</comment>
 <license>GFDL</license>
</image>"#;

    #[test]
    fn parses_fig2_document() {
        let d = parse_image_doc(FIG2).unwrap();
        assert_eq!(d.id, "82531");
        assert_eq!(d.file, "images/9/82531.jpg");
        assert_eq!(d.name, "Field Hamois Belgium Luc Viatour.jpg");
        assert_eq!(d.texts.len(), 3);
        assert_eq!(d.section("en").unwrap().captions.len(), 2);
        assert_eq!(d.section("de").unwrap().captions.len(), 1);
        assert_eq!(d.license, "GFDL");
        assert!(d.comment.contains("{{Information"));
    }

    #[test]
    fn comment_description_field() {
        let d = parse_image_doc(FIG2).unwrap();
        assert_eq!(
            extract_comment_description(&d.comment),
            "Flowers in Belgium"
        );
        assert_eq!(extract_comment_description("no markup here"), "");
        assert_eq!(
            extract_comment_description("{{Information |Description= Only field }}"),
            "Only field"
        );
    }

    #[test]
    fn linking_text_takes_regions_1_2_3() {
        let d = parse_image_doc(FIG2).unwrap();
        let text = linking_text(&d);
        // ① name without extension.
        assert!(text.contains("Field Hamois Belgium Luc Viatour"));
        assert!(!text.contains(".jpg"));
        // ② English section only.
        assert!(text.contains("Summer field in Belgium"));
        assert!(text.contains("A field in summer"));
        assert!(!text.contains("blühendes"), "German must be excluded");
        assert!(!text.contains("champ"), "French must be excluded");
        // ③ comment description only (not Source/Author).
        assert!(text.contains("Flowers in Belgium"));
        assert!(!text.contains("Flickr"));
    }

    #[test]
    fn rejects_non_image_root() {
        assert!(parse_image_doc("<other/>").is_err());
    }

    #[test]
    fn tolerates_missing_sections() {
        let d =
            parse_image_doc("<image id=\"1\" file=\"f.jpg\"><name>n.jpg</name></image>").unwrap();
        assert_eq!(linking_text(&d), "n");
        assert!(d.section("en").is_none());
    }

    #[test]
    fn english_comment_is_included() {
        let xml = r#"<image id="2" file="f.jpg"><name>x.png</name>
            <text xml:lang="en"><description>D</description><comment>English note</comment></text>
        </image>"#;
        let d = parse_image_doc(xml).unwrap();
        let text = linking_text(&d);
        assert!(text.contains("English note"));
    }
}
