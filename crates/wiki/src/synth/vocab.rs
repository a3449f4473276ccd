//! Deterministic word pools for the synthetic Wikipedia generator.
//!
//! Four **disjoint** pools guarantee title uniqueness by construction:
//! every article title of topic *t* contains that topic's unique noun,
//! and the combining words (adjectives, objects, places) never collide
//! with topic nouns. A fifth pool of alias prefixes is reserved for
//! redirect titles and appears nowhere else.

/// One unique noun per topic; the pool size caps the number of topics.
pub(crate) const TOPIC_NOUNS: &[&str] = &[
    "harbor",
    "temple",
    "glacier",
    "orchard",
    "violin",
    "falcon",
    "lagoon",
    "castle",
    "meadow",
    "comet",
    "reactor",
    "bazaar",
    "monastery",
    "lighthouse",
    "vineyard",
    "tundra",
    "geyser",
    "citadel",
    "canyon",
    "jungle",
    "abbey",
    "fjord",
    "savanna",
    "volcano",
    "archipelago",
    "cathedral",
    "observatory",
    "aqueduct",
    "amphitheater",
    "fortress",
    "marsh",
    "plateau",
    "dune",
    "reef",
    "estuary",
    "quarry",
    "windmill",
    "forge",
    "loom",
    "kiln",
    "telescope",
    "compass",
    "galleon",
    "zeppelin",
    "tramway",
    "funicular",
    "ferry",
    "caravan",
    "pagoda",
    "ziggurat",
    "mosaic",
    "fresco",
    "tapestry",
    "organ",
    "carillon",
    "harpsichord",
    "mandolin",
    "accordion",
    "bagpipe",
    "didgeridoo",
    "obelisk",
    "sundial",
    "astrolabe",
    "sextant",
    "barometer",
    "chronometer",
    "printing",
    "papermill",
    "tannery",
    "brewery",
    "distillery",
    "apiary",
    "falconry",
    "topiary",
    "bonsai",
    "ikebana",
    "origami",
    "calligraphy",
    "heraldry",
    "numismatics",
    "philately",
    "cartography",
    "seismology",
    "meteorology",
    "oceanography",
    "speleology",
    "ornithology",
    "entomology",
    "mycology",
    "lichenology",
    "glaciology",
    "volcanology",
    "archery",
    "fencing",
    "rowing",
    "curling",
    "biathlon",
    "decathlon",
    "marathon",
    "velodrome",
    "regencia",
    "gondolier2",
    "acropolis",
    "parthenon",
    "colosseum",
    "catacomb",
    "necropolis",
    "menhir",
    "dolmen",
    "cairn",
    "barrow",
    "henge",
    "petroglyph",
    "geoglyph",
    "stelae",
    "cloister",
    "scriptorium",
    "refectory",
    "cellarium",
    "almonry",
    "gatehouse",
];

/// Adjectives used in `"{adjective} {noun}"` titles.
pub(crate) const ADJECTIVES: &[&str] = &[
    "northern",
    "southern",
    "eastern",
    "western",
    "central",
    "upper",
    "lower",
    "greater",
    "lesser",
    "inner",
    "outer",
    "coastal",
    "alpine",
    "royal",
    "imperial",
    "sacred",
    "hidden",
    "sunken",
    "floating",
    "winding",
    "granite",
    "marble",
    "timber",
    "copper",
    "silver",
    "golden",
    "crimson",
    "azure",
    "emerald",
    "amber",
    "ivory",
    "obsidian",
    "painted",
    "carved",
    "terraced",
    "fortified",
    "abandoned",
    "restored",
    "celebrated",
    "legendary",
];

/// Objects used in `"{noun} {object}"` titles.
pub(crate) const OBJECTS: &[&str] = &[
    "gate",
    "tower",
    "market",
    "festival",
    "museum",
    "archive",
    "garden",
    "terrace",
    "pavilion",
    "workshop",
    "guild",
    "council",
    "chronicle",
    "atlas",
    "codex",
    "ledger",
    "charter",
    "expedition",
    "pilgrimage",
    "procession",
    "ceremony",
    "tournament",
    "harvest",
    "auction",
    "foundry",
    "quay",
    "esplanade",
    "promenade",
    "causeway",
    "viaduct",
    "cistern",
    "granary",
    "stable",
    "armory",
    "belfry",
    "crypt",
    "rotunda",
    "portico",
    "colonnade",
    "balustrade",
];

/// Places used in `"{noun} of {place}"` titles.
pub(crate) const PLACES: &[&str] = &[
    "valdria",
    "montreux",
    "karelia",
    "andalus",
    "bohemia",
    "silesia",
    "dalmatia",
    "galicia",
    "umbria",
    "liguria",
    "navarre",
    "aragon",
    "brittany",
    "flanders",
    "saxony",
    "bavaria",
    "tyrol",
    "carinthia",
    "moravia",
    "wallachia",
    "thrace",
    "anatolia",
    "cappadocia",
    "phrygia",
    "lydia",
    "illyria",
    "pannonia",
    "dacia",
    "scythia",
    "sogdiana",
];

/// Alias prefixes reserved for redirect titles (never in other pools).
pub(crate) const ALIAS_PREFIXES: &[&str] =
    &["former", "historic", "ancient", "medieval", "classical"];

/// Suffixes for category names: `"{noun} {suffix}"`.
pub(crate) const CATEGORY_SUFFIXES: &[&str] = &[
    "history",
    "culture",
    "architecture",
    "people",
    "events",
    "geography",
    "economy",
    "traditions",
    "landmarks",
    "crafts",
];

/// Filler vocabulary for document body text (never matches any title on
/// its own — disjoint from all pools above).
pub const FILLER_WORDS: &[&str] = &[
    "image",
    "photograph",
    "view",
    "scene",
    "detail",
    "overview",
    "panorama",
    "closeup",
    "morning",
    "evening",
    "summer",
    "winter",
    "spring",
    "autumn",
    "light",
    "shadow",
    "color",
    "texture",
    "pattern",
    "structure",
    "background",
    "foreground",
    "taken",
    "showing",
    "depicting",
    "near",
    "beside",
    "during",
    "famous",
    "notable",
    "typical",
    "traditional",
    "regional",
    "local",
    "annual",
    "daily",
    "public",
    "private",
    "general",
    "special",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn as_set<'a>(words: &[&'a str]) -> HashSet<&'a str> {
        words.iter().copied().collect()
    }

    #[test]
    fn pools_have_no_internal_duplicates() {
        for (name, pool) in [
            ("TOPIC_NOUNS", TOPIC_NOUNS),
            ("ADJECTIVES", ADJECTIVES),
            ("OBJECTS", OBJECTS),
            ("PLACES", PLACES),
            ("ALIAS_PREFIXES", ALIAS_PREFIXES),
            ("CATEGORY_SUFFIXES", CATEGORY_SUFFIXES),
            ("FILLER_WORDS", FILLER_WORDS),
        ] {
            assert_eq!(as_set(pool).len(), pool.len(), "{name} has duplicates");
        }
    }

    #[test]
    fn pools_are_pairwise_disjoint() {
        let pools = [
            ("TOPIC_NOUNS", as_set(TOPIC_NOUNS)),
            ("ADJECTIVES", as_set(ADJECTIVES)),
            ("OBJECTS", as_set(OBJECTS)),
            ("PLACES", as_set(PLACES)),
            ("ALIAS_PREFIXES", as_set(ALIAS_PREFIXES)),
            ("CATEGORY_SUFFIXES", as_set(CATEGORY_SUFFIXES)),
            ("FILLER_WORDS", as_set(FILLER_WORDS)),
        ];
        for i in 0..pools.len() {
            for j in (i + 1)..pools.len() {
                let inter: Vec<_> = pools[i].1.intersection(&pools[j].1).collect();
                assert!(
                    inter.is_empty(),
                    "{} ∩ {} = {:?}",
                    pools[i].0,
                    pools[j].0,
                    inter
                );
            }
        }
    }

    #[test]
    fn words_are_normalization_stable() {
        // Each word must survive normalization unchanged so generated
        // titles match themselves after normalize().
        for pool in [
            TOPIC_NOUNS,
            ADJECTIVES,
            OBJECTS,
            PLACES,
            ALIAS_PREFIXES,
            CATEGORY_SUFFIXES,
            FILLER_WORDS,
        ] {
            for w in pool {
                assert_eq!(&querygraph_text::normalize(w), w, "unstable word {w:?}");
            }
        }
    }

    #[test]
    fn pool_sizes_support_defaults() {
        assert!(TOPIC_NOUNS.len() >= 100, "need ≥100 topics available");
        assert!(ADJECTIVES.len() >= 40);
        assert!(OBJECTS.len() >= 40);
        assert!(PLACES.len() >= 30);
    }

    #[test]
    fn no_stopwords_in_content_pools() {
        for pool in [TOPIC_NOUNS, ADJECTIVES, OBJECTS, PLACES] {
            for w in pool {
                assert!(
                    !querygraph_text::is_stopword(w),
                    "{w:?} is a stopword and would break linking"
                );
            }
        }
    }
}
