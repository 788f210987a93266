//! Cross-crate integration tests live in `tests/tests/`.
//!
//! Shared helpers for those tests.

use dfl_trace::MeasurementSet;
use dfl_workflows::engine::{run, RunConfig, RunResult};
use dfl_workflows::spec::WorkflowSpec;

/// Runs a spec on a small GPU cluster and returns the result.
pub fn quick_run(spec: &WorkflowSpec, nodes: usize) -> RunResult {
    run(spec, &RunConfig::default_gpu(nodes)).expect("simulation succeeds")
}

/// Asserts two measurement sets are identical via their canonical JSON.
pub fn assert_same_measurements(a: &MeasurementSet, b: &MeasurementSet) {
    assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
}

/// Seed matrix from an environment variable: `var` as a comma-separated
/// `u64` list (whitespace and empty items tolerated), falling back to
/// `default` when unset. This is how CI fans one suite out over seeds —
/// `DFL_FAULT_SEEDS`, `DFL_CHAOS_SEEDS`, and `DFL_CORRUPT_SEEDS` all parse
/// through here.
///
/// # Panics
/// Panics (failing the calling test loudly) when the variable is set but
/// contains a non-integer item, or when it is set and yields no seeds at
/// all (e.g. `DFL_FAULT_SEEDS=" , "`) — a typo'd matrix should never
/// silently shrink coverage, and an empty one would make every seeded
/// suite pass vacuously.
pub fn seed_matrix(var: &str, default: &str) -> Vec<u64> {
    let from_env = std::env::var(var).ok();
    let raw = from_env.clone().unwrap_or_else(|| default.to_owned());
    let seeds: Vec<u64> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap_or_else(|_| panic!("{var} must be a u64 list, got '{s}'")))
        .collect();
    if seeds.is_empty() && from_env.is_some() {
        panic!("{var} is set but contains no seeds (got '{raw}'); refusing to run zero-seed suites");
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::seed_matrix;

    #[test]
    fn seed_matrix_parses_env_default_and_overrides() {
        // Defaults apply when the variable is unset.
        assert_eq!(seed_matrix("DFL_TEST_SEEDS_UNSET", "1,42,7"), vec![1, 42, 7]);
        // Whitespace and empty items are tolerated; order is preserved.
        std::env::set_var("DFL_TEST_SEEDS_SET", " 20260806, 3 ,,11 ");
        assert_eq!(seed_matrix("DFL_TEST_SEEDS_SET", "1"), vec![20260806, 3, 11]);
        std::env::remove_var("DFL_TEST_SEEDS_SET");
    }

    #[test]
    #[should_panic(expected = "must be a u64 list")]
    fn seed_matrix_rejects_non_integer_items() {
        std::env::set_var("DFL_TEST_SEEDS_BAD", "1,banana");
        let _ = seed_matrix("DFL_TEST_SEEDS_BAD", "1");
    }

    #[test]
    #[should_panic(expected = "contains no seeds")]
    fn seed_matrix_rejects_set_but_empty_list() {
        // A var set to only separators/whitespace must not silently yield
        // zero seeds (every seeded suite would pass vacuously).
        std::env::set_var("DFL_TEST_SEEDS_EMPTY", " , ,");
        let _ = seed_matrix("DFL_TEST_SEEDS_EMPTY", "1");
    }
}
