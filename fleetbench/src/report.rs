//! Metric names, units and the one-line JSON result.

/// End-to-end metrics, reported by every timed run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("execs_per_s", "1/s"),
    ("cpu_s_per_kexec", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("union_coverage", "blocks"),
    ("crashes", "count"),
    ("exec_ok_share", "ratio"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("setup.boot_ms", "ms"),
    ("setup.probe_ms", "ms"),
    ("setup.models_ms", "ms"),
    ("engine.slice_s", "s"),
    ("engine.us_per_exec", "us"),
    ("engine.admit_share", "ratio"),
    ("fleet.barrier_wait_s", "s"),
    ("fleet.slice_wall_s", "s"),
    ("fleet.restart_ms", "ms"),
    ("generate.us_per_prog", "us"),
    ("mutate.us_per_prog", "us"),
    ("analysis.lint_us_per_prog", "us"),
    ("analysis.absint_us_per_prog", "us"),
    ("exec.us_per_prog", "us"),
    ("feedback.us_per_exec", "us"),
    ("minimize.us_per_seed", "us"),
    ("minimize.checks_per_seed", "count"),
    ("analysis.absint_repaired_share", "ratio"),
    ("analysis.absint_rejected_share", "ratio"),
    ("analysis.lint_repaired_share", "ratio"),
    ("supervisor.faults_per_kexec", "count"),
    ("supervisor.retries_per_kexec", "count"),
    ("supervisor.hangs_per_kexec", "count"),
    ("supervisor.reprovisions", "count"),
    ("supervisor.restarts", "count"),
    ("shard.prepare_update_ms", "ms"),
    ("hub.apply_update_ms", "ms"),
    ("hub.accept_share", "ratio"),
    ("hub.sync_crashes_ms", "ms"),
    ("shard.pull_ms", "ms"),
    ("shard.pull_accept_share", "ratio"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.to_text_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("store.on_round_ms", "ms"),
    ("store.on_checkpoint_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.syncs", "count"),
    ("store.recover_ms", "ms"),
    ("store.records_replayed", "count"),
    ("net.frames", "count"),
    ("net.bytes_per_round", "bytes"),
    ("net.send_ms", "ms"),
    ("net.recv_wait_ms", "ms"),
    ("net.decode_us_per_msg", "us"),
    ("net.encode_us_per_msg", "us"),
    ("trace.accounted_share", "ratio"),
    ("trace.execs_per_s", "1/s"),
    ("trace.untraced_execs_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.gauge_ms", "ms"),
    ("trace.campaigns", "count"),
    ("trace.executions", "count"),
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One benchmark run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Campaigns run (warm-up and references included).
    pub attempted: u64,
    /// Campaigns whose output check failed.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The result as one JSON object. Panics on a metric missing from
    /// the name tables or on a non-finite value — both are bugs here.
    pub fn to_json(&self) -> String {
        let units = END_TO_END.iter().chain(PER_LAYER.iter());
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = units
                    .clone()
                    .find(|(n, _)| *n == name)
                    .map(|(_, u)| *u)
                    .expect("registered metric");
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
