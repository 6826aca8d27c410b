//! The experiment implementations, one module per paper artifact.

pub mod ablations;
pub mod extensions;
pub mod fig6;
pub mod fig7;
pub mod listings;

/// Shared corpus builders at the scales used by `repro`.
pub mod corpora {
    use ncq_core::Database;
    use ncq_datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};

    /// The Figure 1 example database.
    pub fn figure1() -> Database {
        Database::from_xml_str(ncq_datagen::FIGURE1_XML).expect("figure 1 parses")
    }

    /// The DBLP substitute at the paper's case-study scale (~1200 ICDE
    /// papers over 1984–1999).
    pub fn dblp_case_study() -> (Database, DblpCorpus) {
        let corpus = DblpCorpus::generate(&DblpConfig {
            papers_per_edition: 75,
            journal_articles_per_year: 12,
            ..DblpConfig::default()
        });
        (Database::from_document(&corpus.document), corpus)
    }

    /// A smaller DBLP for quick runs and tests.
    pub fn dblp_small() -> (Database, DblpCorpus) {
        let corpus = DblpCorpus::generate(&DblpConfig {
            papers_per_edition: 8,
            journal_articles_per_year: 3,
            ..DblpConfig::default()
        });
        (Database::from_document(&corpus.document), corpus)
    }

    /// The multimedia substitute used by Figure 6.
    pub fn multimedia(noise_items: usize) -> (Database, MultimediaCorpus) {
        let corpus = MultimediaCorpus::generate(&MultimediaConfig {
            noise_items,
            ..MultimediaConfig::default()
        });
        (Database::from_document(&corpus.document), corpus)
    }
}
