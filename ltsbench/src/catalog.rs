//! Every metric the benchmark prints, with its unit, as `BENCHMARK.json`
//! lists them: that file is the one list of names and units. Per-level
//! metrics carry a `.lK` suffix for K below [`LEVEL_SLOTS`]; a level a
//! workload does not have reads 0, as does a layer the workload does not
//! run.

use lts_obs::Json;

/// Per-level metric slots: the trench mesh has four LTS levels.
pub const LEVEL_SLOTS: usize = 4;

/// The benchmark's definition, compiled in so the binary needs no file.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn benchmark() -> Json {
    Json::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of the metrics listed under `key`, in file order.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a {key} metric lacks {k}"))
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of the untraced run's end-to-end metrics.
pub fn end_to_end() -> Vec<(String, String)> {
    listed("end_to_end")
}

/// `(name, unit)` of the traced run's per-layer metrics.
pub fn per_layer() -> Vec<(String, String)> {
    listed("per_layer")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name as the result format allows it.
    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit as the result format allows it.
    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut all: Vec<(String, String)> = end_to_end().into_iter().chain(per_layer()).collect();
        for (n, u) in &all {
            assert!(valid_name(n), "metric name {n:?}");
            assert!(valid_unit(u), "unit {u:?} of {n}");
        }
        let n = all.len();
        all.sort();
        all.dedup_by(|a, b| a.0 == b.0);
        assert_eq!(all.len(), n, "duplicate metric name");
        assert!(!valid_name(".l0") && !valid_name("a b") && !valid_unit("m s"));
    }

    #[test]
    fn per_level_metrics_cover_every_level_slot() {
        let layers = per_layer();
        for (n, _) in &layers {
            if let Some((base, l)) = n.rsplit_once(".l") {
                for k in 0..LEVEL_SLOTS {
                    let want = format!("{base}.l{k}");
                    assert!(layers.iter().any(|(m, _)| *m == want), "{want} missing");
                }
                assert!(l.parse::<usize>().unwrap() < LEVEL_SLOTS, "{n}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_benchmarks_workloads() {
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        let doc = benchmark();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lacks workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, ours);
    }
}
