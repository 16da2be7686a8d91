//! The metric catalogue: every metric the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

/// One named metric of the catalogue.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the engine sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("run_s", "s"),
    def("comm_mib", "MiB"),
    def("peak_mem_mib", "MiB"),
    def("setup_s", "s"),
];

/// One figure per layer, named after the module it measures; measured in the
/// traced run. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("graph.partition_ms", "ms"),
    def("plan.optimize_us", "us"),
    def("graph.kernels.intersect_ns", "ns"),
    def("graph.kernels.merge_share", "ratio"),
    def("graph.kernels.gallop_share", "ratio"),
    def("graph.kernels.bitmap_share", "ratio"),
    def("core.scan.rows_per_s", "rows/s"),
    def("core.pull_extend.rows_per_s", "rows/s"),
    def("core.pull_extend.count_rows_per_s", "rows/s"),
    def("core.pull_extend.fetch_share", "ratio"),
    def("comm.rpc.get_nbrs_mib_per_s", "MiB/s"),
    def("cache.lrbu.insert_seal_ns", "ns"),
    def("cache.lrbu.read_ns", "ns"),
    def("cache.hit_rate", "ratio"),
    def("core.shuffle.partition_rows_per_s", "rows/s"),
    def("comm.batch.to_rows_mib_per_s", "MiB/s"),
    def("comm.router.push_recv_mib_per_s", "MiB/s"),
    def("core.join.build_rows_per_s", "rows/s"),
    def("core.join.probe_rows_per_s", "rows/s"),
    def("core.join.spill_mib_per_s", "MiB/s"),
    def("governor.transitions", "count"),
    def("governor.spilled_mib", "MiB"),
    def("governor.throttled_batches", "count"),
    def("governor.peak_over_budget", "ratio"),
    def("core.queue.push_pop_ns", "ns"),
    def("cluster.traced_run_s", "s"),
    def("trace.overhead_ratio", "ratio"),
    def("cluster.k1_run_s", "s"),
    def("cluster.k2_speedup", "ratio"),
    def("cluster.busy_share", "ratio"),
    def("cluster.wait_share", "ratio"),
    def("cluster.fetch_share", "ratio"),
    def("cluster.machine_imbalance", "ratio"),
    def("cluster.steal_batches", "count"),
    def("cluster.pulled_mib", "MiB"),
    def("cluster.pushed_mib", "MiB"),
    def("cluster.stolen_mib", "MiB"),
    def("host.calib_ms", "ms"),
    def("host.calib_spread", "ratio"),
];

/// The measured values of one catalogue, in catalogue order.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    /// Every metric of `defs`, reading 0 until set.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Records a value. Non-finite values (a rate over zero time) read 0.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalogue: that is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names_in("per_layer"), layers);
        let workloads: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_in("workloads"), workloads);
    }

    #[test]
    fn unset_metrics_read_zero_and_non_finite_is_clamped() {
        let mut m = Metrics::new(END_TO_END);
        m.set("run_s", 1.5);
        m.set("comm_mib", f64::NAN);
        let got: Vec<f64> = m.iter().map(|(_, v)| v).collect();
        assert_eq!(got, [1.5, 0.0, 0.0, 0.0]);
    }
}
