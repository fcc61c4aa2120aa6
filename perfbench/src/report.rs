//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of its kind: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. The catalogue
//! below is the single source of names, units and directions; a unit test
//! keeps `BENCHMARK.json` in step with it.

use std::collections::BTreeMap;

use fp_stats::json::{self, JsonObject};

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Untraced run; gated by `bound`.
    EndToEnd { bound: f64 },
    /// Traced run.
    PerLayer,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        kind: Kind::PerLayer,
    }
}

const LOWER: bool = true;
const HIGHER: bool = false;

/// All metrics, end-to-end first, in `BENCHMARK.json` order.
pub const CATALOGUE: &[Metric] = &[
    e2e("setup_s", "s", LOWER, 0.25),
    e2e("peak_rss_mib", "MiB", LOWER, 0.1),
    e2e("sim_latency_ns", "ns", LOWER, 0.1),
    e2e("sim_exec_ns_per_req", "ns", LOWER, 0.1),
    e2e("sim_energy_nj_per_req", "nJ", LOWER, 0.1),
    layer("host_req_per_s", "1/s", HIGHER),
    layer("server_cpu_us_per_req", "us", LOWER),
    layer("lat_p50_ms", "ms", LOWER),
    layer("lat_p99_ms", "ms", LOWER),
    layer("slo_rps", "1/s", HIGHER),
    layer("gen.lateness_p99_ms", "ms", LOWER),
    layer("gen.send_us", "us", LOWER),
    layer("net.bytes_per_req", "B", LOWER),
    layer("net.wire_cpu_us_per_req", "us", LOWER),
    layer("net.busy_rejections", "count", LOWER),
    layer("net.protocol_errors", "count", LOWER),
    layer("service.rejected_busy", "count", LOWER),
    layer("service.queue_high_water", "count", LOWER),
    layer("service.shard_skew", "ratio", LOWER),
    layer("service.sim_latency_p99_us", "us", LOWER),
    layer("service.replay_cpu_us_per_req", "us", LOWER),
    layer("service.replay_accesses_per_req", "ratio", LOWER),
    layer("core.engine_replay_cpu_us_per_req", "us", LOWER),
    layer("core.engine_replay_accesses_per_req", "ratio", LOWER),
    layer("crypto.cpu_us_per_req", "us", LOWER),
    layer("core.process_one_us", "us", LOWER),
    layer("workloads.on_complete_us", "us", LOWER),
    layer("core.accesses_per_req", "ratio", LOWER),
    layer("core.dummy_ratio", "ratio", LOWER),
    layer("core.dummy_replace_ratio", "ratio", HIGHER),
    layer("core.read_levels_skipped_per_access", "ratio", HIGHER),
    layer("core.sched_ready_reals_per_round", "ratio", HIGHER),
    layer("core.mac_hit_ratio", "ratio", HIGHER),
    layer("path_oram.buckets_read_per_access", "ratio", LOWER),
    layer("path_oram.buckets_written_per_access", "ratio", LOWER),
    layer("path_oram.stash_high_water", "count", LOWER),
    layer("path_oram.stash_hit_ratio", "ratio", HIGHER),
    layer("path_oram.created_blocks", "count", LOWER),
    layer("dram.blocks_per_access", "ratio", LOWER),
    layer("dram.row_hit_rate", "ratio", HIGHER),
    layer("dram.busy_ns_per_access", "ns", LOWER),
    layer("dram.acts_per_access", "ratio", LOWER),
    layer("workloads.gen_s", "s", LOWER),
    layer("trace.overhead_ratio", "ratio", LOWER),
    layer("host.steal_ratio", "ratio", LOWER),
    layer("fail_ratio", "ratio", LOWER),
];

/// Looks a metric up by name.
///
/// # Panics
///
/// Panics for a name missing from [`CATALOGUE`] (a benchmark bug).
pub fn metric(name: &str) -> &'static Metric {
    CATALOGUE
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not catalogued"))
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, or LLC requests simulated).
    pub attempted: u64,
    /// Operations that failed: non-Ok or missing responses.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Output-check violations, for the log.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        metric(name);
        self.values.insert(name, value);
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The result object for `traced` (per-layer) or untraced runs: every
    /// metric of that kind, in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of that kind was not measured.
    pub fn to_json(&self, traced: bool) -> String {
        let mut metrics = JsonObject::new();
        for m in CATALOGUE
            .iter()
            .filter(|m| matches!(m.kind, Kind::PerLayer) == traced)
        {
            let value = *self
                .values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            metrics.field_raw(
                m.name,
                &JsonObject::new()
                    .field_f64("value", value)
                    .field_str("unit", m.unit)
                    .finish(),
            );
        }
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted.max(1))
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        let line = o.finish();
        json::validate(&line).expect("result line is valid JSON");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(traced: bool) -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in CATALOGUE {
            if matches!(m.kind, Kind::PerLayer) == traced {
                o.set(m.name, 1.25);
            }
        }
        o
    }

    #[test]
    fn report_passes_the_json_validator() {
        for traced in [false, true] {
            let line = full(traced).to_json(traced);
            assert!(json::validate(&line).is_ok());
            assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
            assert!(line.contains("\"setup_s\"") != traced);
            assert!(
                line.contains("\"core.dummy_ratio\":{\"value\":1.25,\"unit\":\"ratio\"}") == traced
            );
        }
    }

    #[test]
    fn a_violation_makes_the_run_incorrect() {
        let mut o = full(false);
        o.check(false, || "stale read".into());
        assert!(o.to_json(false).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        for (i, m) in CATALOGUE.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                CATALOGUE[..i].iter().all(|o| o.name != m.name),
                "{}",
                m.name
            );
            if let Kind::EndToEnd { bound } = m.kind {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
    }

    /// `BENCHMARK.json` lists exactly the catalogue, one metric per line.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert!(json::validate(&text).is_ok());
        for m in CATALOGUE {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let line = match m.kind {
                Kind::EndToEnd { bound } => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {bound}}}",
                    m.name, m.unit
                ),
                Kind::PerLayer => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                    m.name, m.unit
                ),
            };
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(text.matches("\"unit\":").count(), CATALOGUE.len());
    }
}
