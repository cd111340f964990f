//! Backend mode selection (paper Fig. 2).

use eudoxus_stream::Environment;

/// The three backend modes of the unified algorithm (paper Fig. 4) —
/// the estimator registry's own enum under its selection-side name.
pub use eudoxus_backend::BackendMode as Mode;

/// Selects the mode an environment prefers (the affinity the paper
/// establishes in Sec. III): registration indoors with a map, SLAM
/// indoors without, VIO (with GPS) outdoors — with or without a map,
/// since VIO Pareto-dominates there (Fig. 3c/d).
pub fn for_environment(env: Environment) -> Mode {
    match env {
        Environment::IndoorUnknown => Mode::Slam,
        Environment::IndoorKnown => Mode::Registration,
        Environment::OutdoorUnknown | Environment::OutdoorKnown => Mode::Vio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_matches_figure2() {
        assert_eq!(for_environment(Environment::IndoorUnknown), Mode::Slam);
        assert_eq!(
            for_environment(Environment::IndoorKnown),
            Mode::Registration
        );
        assert_eq!(for_environment(Environment::OutdoorUnknown), Mode::Vio);
        assert_eq!(for_environment(Environment::OutdoorKnown), Mode::Vio);
    }

    #[test]
    fn display_names() {
        assert_eq!(Mode::Slam.to_string(), "slam");
        assert_eq!(Mode::ALL.len(), 3);
    }
}
