//! The ImageCLEF image-metadata document model (paper Fig. 2).
//!
//! Each document describes one image: a numeric id, the image file path,
//! a human-readable file `name`, one text section per language
//! (description, comment, captions), a general wiki-markup `comment`, and
//! a license tag.

use serde::{Deserialize, Serialize};

/// A caption inside a language section; `article` is the path of the
/// Wikipedia article the caption was harvested from (kept verbatim).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct Caption {
    /// Source article path, e.g. `text/en/1/302887`.
    pub(crate) article: String,
    /// Caption text.
    pub(crate) text: String,
}

/// One `<text xml:lang="…">` section.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct LangSection {
    /// Language code (`en`, `de`, `fr`, …).
    pub(crate) lang: String,
    /// `<description>` content.
    pub(crate) description: String,
    /// `<comment>` content (often empty).
    pub(crate) comment: String,
    /// `<caption>` entries in document order.
    pub(crate) captions: Vec<Caption>,
}

/// One image-metadata document.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImageDoc {
    /// The `id` attribute of `<image>`.
    pub id: String,
    /// The `file` attribute (image path).
    pub file: String,
    /// `<name>`: image file name including extension.
    pub(crate) name: String,
    /// Language sections in document order.
    pub(crate) texts: Vec<LangSection>,
    /// The general `<comment>` (wiki `{{Information …}}` markup).
    pub(crate) comment: String,
    /// `<license>` content.
    pub(crate) license: String,
}

impl ImageDoc {
    /// The language section for `lang`, if present.
    pub(crate) fn section(&self, lang: &str) -> Option<&LangSection> {
        self.texts.iter().find(|s| s.lang == lang)
    }

    /// The file name without its extension — region ① of the paper's
    /// Fig. 2 extraction.
    pub(crate) fn name_without_extension(&self) -> &str {
        match self.name.rfind('.') {
            Some(dot) if dot > 0 => &self.name[..dot],
            _ => &self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> ImageDoc {
        ImageDoc {
            id: "82531".into(),
            file: "images/9/82531.jpg".into(),
            name: "Field Hamois Belgium Luc Viatour.jpg".into(),
            texts: vec![
                LangSection {
                    lang: "en".into(),
                    description: "Summer field in Belgium (Hamois).".into(),
                    comment: String::new(),
                    captions: vec![Caption {
                        article: "text/en/1/302887".into(),
                        text: "Summer field in Belgium (Hamois).".into(),
                    }],
                },
                LangSection {
                    lang: "de".into(),
                    description: "Ein blühendes Feld in Belgien.".into(),
                    comment: String::new(),
                    captions: vec![],
                },
            ],
            comment: "({{Information |Description= Flowers in Belgium |Source= Flickr }})".into(),
            license: "GFDL".into(),
        }
    }

    #[test]
    fn section_lookup() {
        let d = doc();
        assert_eq!(d.section("en").unwrap().captions.len(), 1);
        assert_eq!(d.section("de").unwrap().lang, "de");
        assert!(d.section("fr").is_none());
    }

    #[test]
    fn name_without_extension_strips_last_dot() {
        let d = doc();
        assert_eq!(
            d.name_without_extension(),
            "Field Hamois Belgium Luc Viatour"
        );
    }

    #[test]
    fn name_without_extension_edge_cases() {
        let mut d = doc();
        d.name = "noextension".into();
        assert_eq!(d.name_without_extension(), "noextension");
        d.name = "archive.tar.gz".into();
        assert_eq!(d.name_without_extension(), "archive.tar");
        d.name = ".hidden".into();
        assert_eq!(d.name_without_extension(), ".hidden");
    }
}
