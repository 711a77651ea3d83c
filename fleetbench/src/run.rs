//! The two kinds of run: a timed run (tracing off) that reports the
//! end-to-end metrics, and a traced run that reports the per-layer ones.
//! Both start with the process warm-up — campaign 0 of the default seed,
//! checked against its pinned outcome — and check every campaign they
//! run.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use droidfuzz::fleet::{FleetSnapshot, FleetStore, DEFAULT_KEEP};
use droidfuzz::store::SimMedium;
use droidfuzz::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;
use simdevice::catalog;
use simdevice::FirmwareSpec;

use crate::driver::{boot_shards, run_traced, LayerTimes};
use crate::probes::{hot_loop, setup_stages};
use crate::recipe::{
    campaign_base, check_outcome, in_process_reference, pinned, run_untraced, strip_wire_counters,
    Outcome, Workload, CAMPAIGNS_PER_SEED, DEFAULT_SEED,
};
use crate::report::Report;
use crate::sys::{cpu_seconds, gauge, median, peak_rss_mb, release_free_memory, GAUGE_REF};
use crate::wire::{run_durable, WireTrace};

/// Set-up samples taken before each timed campaign run.
const SETUP_REPS_PER_CAMPAIGN: usize = 12;

/// Check outcomes accumulated over a run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    fn report(self, metrics: Vec<(&'static str, f64)>) -> Report {
        for failure in &self.failures {
            eprintln!("check failed: {failure}");
        }
        Report {
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            metrics,
        }
    }
}

/// Runs the warm-up campaign (discarded timing) and checks it against
/// the pinned outcome.
fn warm_up(workload: Workload, spec: &FirmwareSpec, checks: &mut Checks) -> Result<(), String> {
    let (outcome, _) = run_untraced(workload, spec, campaign_base(DEFAULT_SEED, 0))?;
    checks.record(check_outcome(
        "warm-up vs pinned",
        &outcome,
        &pinned(workload),
    ));
    Ok(())
}

/// Appends `reps` set-up samples, in seconds. One sample boots every
/// shard as `Fleet::launch` does, plus the durable store for
/// `durable_wire`.
pub fn sample_setup(
    workload: Workload,
    spec: &FirmwareSpec,
    base: u64,
    reps: usize,
    samples: &mut Vec<f64>,
) {
    for _ in 0..reps {
        let t = Instant::now();
        let engines = boot_shards(workload, spec, base);
        let store = (workload == Workload::DurableWire)
            .then(|| FleetStore::create(SimMedium::new(), DEFAULT_KEEP).expect("fresh medium"));
        samples.push(t.elapsed().as_secs_f64());
        drop((engines, store));
    }
}

/// A timed run: the end-to-end metrics. The seed's campaigns run round
/// robin until `seconds` have passed (each at least twice); every run
/// after a campaign's first must reproduce the first exactly. Set-up is
/// sampled before every campaign, so set-up and campaigns see the same
/// stretch of machine time. The machine gauge is read before every
/// campaign run and once at the end; each timing is scaled to the
/// reference machine speed by the gauge readings around it, and every
/// timing is a median.
pub fn timed(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let spec = catalog::device_a1();
    let mut checks = Checks::default();
    warm_up(workload, &spec, &mut checks)?;

    let bases: Vec<u64> = (0..CAMPAIGNS_PER_SEED)
        .map(|i| campaign_base(seed, i))
        .collect();
    let mut first: Vec<Option<Outcome>> = vec![None; bases.len()];
    let mut reference: Vec<Option<Outcome>> = vec![None; bases.len()];
    if workload == Workload::DurableWire {
        for (slot, &base) in reference.iter_mut().zip(&bases) {
            *slot = Some(in_process_reference(&spec, base)?);
        }
    }

    // Per campaign run, in order: (campaign, wall s, CPU s), and the
    // gauge reading taken before it (plus one after the last run).
    let mut runs: Vec<(usize, f64, f64)> = Vec::new();
    let mut gauges = Vec::new();
    let mut setup = Vec::new();
    let mut crash_titles = BTreeSet::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while runs.len() < 2 * bases.len() || start.elapsed() < budget {
        let i = runs.len() % bases.len();
        let base = bases[i];
        release_free_memory();
        let reading = gauge();
        gauges.push(reading);
        let from = setup.len();
        sample_setup(workload, &spec, base, SETUP_REPS_PER_CAMPAIGN, &mut setup);
        setup[from..]
            .iter_mut()
            .for_each(|s| *s *= GAUGE_REF.0 / reading.0);
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let (outcome, snapshot) = run_untraced(workload, &spec, base)?;
        runs.push((i, t0.elapsed().as_secs_f64(), cpu_seconds() - c0));
        let label = format!("campaign {base}, run {}", runs.len() / bases.len());
        checks.record(match (&first[i], &reference[i]) {
            (Some(want), _) => check_outcome(&format!("{label} vs its first run"), &outcome, want),
            (None, Some(want)) => {
                check_outcome(&format!("{label} vs the in-process run"), &outcome, want)
            }
            (None, None) => Ok(()),
        });
        if first[i].is_none() {
            let snap = FleetSnapshot::parse(&snapshot)?;
            crash_titles.extend(snap.crashes.into_iter().map(|c| c.title));
            first[i] = Some(outcome);
        }
    }
    gauges.push(gauge());

    // Each campaign counts once, at the median of its runs.
    let (mut walls, mut cpus) = (vec![Vec::new(); bases.len()], vec![Vec::new(); bases.len()]);
    let (mut raw_walls, mut raw_cpus) = (walls.clone(), cpus.clone());
    for (k, &(i, wall, cpu)) in runs.iter().enumerate() {
        let (before, after) = (gauges[k], gauges[k + 1]);
        walls[i].push(wall * GAUGE_REF.0 / ((before.0 + after.0) / 2.0));
        cpus[i].push(cpu * GAUGE_REF.1 / ((before.1 + after.1) / 2.0));
        raw_walls[i].push(wall);
        raw_cpus[i].push(cpu);
    }
    let total = |per_campaign: &[Vec<f64>]| per_campaign.iter().map(|v| median(v)).sum::<f64>();
    let outcomes: Vec<&Outcome> = first
        .iter()
        .map(|o| o.as_ref().expect("every campaign ran"))
        .collect();
    let executions = outcomes.iter().map(|o| o.executions).sum::<u64>() as f64;
    let failed: u64 = outcomes.iter().map(|o| o.failed_ops).sum();
    let coverage: usize = outcomes.iter().map(|o| o.union_coverage).sum();
    eprintln!(
        "{}: unscaled execs_per_s {:.1}, cpu_s_per_kexec {:.5}; machine gauge median {:.2} ms \
         (reference {:.2} ms) over {} campaign runs",
        workload.name(),
        executions / total(&raw_walls),
        total(&raw_cpus) / (executions / 1000.0),
        median(&gauges.iter().map(|g| g.0).collect::<Vec<_>>()) * 1e3,
        GAUGE_REF.0 * 1e3,
        runs.len(),
    );
    let metrics = vec![
        ("execs_per_s", executions / total(&walls)),
        ("cpu_s_per_kexec", total(&cpus) / (executions / 1000.0)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss_mb()),
        ("union_coverage", coverage as f64 / outcomes.len() as f64),
        ("crashes", crash_titles.len() as f64),
        ("exec_ok_share", 1.0 - failed as f64 / executions),
    ];
    Ok(checks.report(metrics))
}

/// A traced run: the per-layer metrics.
pub fn traced(workload: Workload, seed: u64) -> Result<Report, String> {
    let spec = catalog::device_a1();
    let mut checks = Checks::default();
    warm_up(workload, &spec, &mut checks)?;

    let bases: Vec<u64> = (0..CAMPAIGNS_PER_SEED)
        .map(|i| campaign_base(seed, i))
        .collect();
    let wire_trace = Arc::new(WireTrace::default());
    let mut times = LayerTimes::default();
    let (mut execs, mut untraced_wall, mut traced_wall) = (0u64, 0.0f64, 0.0f64);
    let mut faults = FaultCounters::default();
    let mut lint = LintCounters::default();
    let (mut restarts, mut snapshot_bytes, mut wire_rounds) = (0u64, 0u64, 0u64);
    let mut last_hub = None;
    let mut gauges = Vec::new();
    for &base in &bases {
        gauges.push(gauge().0);
        let t0 = Instant::now();
        let (outcome, snapshot) = run_untraced(workload, &spec, base)?;
        untraced_wall += t0.elapsed().as_secs_f64();
        execs += outcome.executions;

        let make_config = |s| workload.engine_config(base + s);
        let run = match workload {
            Workload::Campaign | Workload::HostileStatic => {
                let t0 = Instant::now();
                let run = run_traced(&workload.fleet_config(), &spec, &make_config, None, None);
                traced_wall += t0.elapsed().as_secs_f64();
                checks.record(if run.snapshot == snapshot {
                    Ok(())
                } else {
                    Err(format!(
                        "campaign {base}: traced driver snapshot differs from Fleet::run"
                    ))
                });
                run
            }
            Workload::DurableWire => {
                let t0 = Instant::now();
                let durable = run_durable(&spec, base, Some(&wire_trace))?;
                traced_wall += t0.elapsed().as_secs_f64();
                wire_rounds += durable.rounds as u64;
                checks.record(check_outcome(
                    &format!("campaign {base}: traced vs untraced"),
                    &durable.outcome,
                    &outcome,
                ));
                // The in-process half of the recipe, through the traced
                // round loop: the engine and sync layers are timed here.
                let cfg = workload.fleet_config();
                let killed =
                    run_traced(&cfg, &spec, &make_config, Some(workload.kill_round()), None);
                let snap = FleetSnapshot::parse(&killed.snapshot)?;
                let mut run = run_traced(&cfg, &spec, &make_config, None, Some(&snap));
                checks.record(
                    if strip_wire_counters(&run.snapshot) == strip_wire_counters(&snapshot) {
                        Ok(())
                    } else {
                        Err(format!(
                            "campaign {base}: in-process traced recipe differs from the wire run"
                        ))
                    },
                );
                run.times.absorb(&killed.times);
                run
            }
        };
        if !run.finished {
            return Err(format!("campaign {base}: traced campaign did not finish"));
        }
        times.absorb(&run.times);
        faults.absorb(&run.faults);
        lint.absorb(&run.lint);
        restarts += run.restarts;
        snapshot_bytes += run.snapshot.len() as u64;
        last_hub = Some((run.hub, run.table, base));
    }

    let (hub, table, base) = last_hub.expect("at least one campaign");
    let stages = setup_stages(workload, &spec);
    let hot = hot_loop(workload, &spec, &table, &hub, base);
    let (decode_us, encode_us) = wire_trace.codec_probe()?;

    let n = bases.len() as f64;
    let ex = execs as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let load = |c: &AtomicU64| c.load(Relaxed) as f64;
    let ms_per_campaign = |s: f64| s * 1e3 / n;
    let w = &wire_trace;
    let traced_eps = ex / traced_wall;
    let untraced_eps = ex / untraced_wall;
    let metrics = vec![
        ("setup.boot_ms", stages.boot_ms),
        ("setup.probe_ms", stages.probe_ms),
        ("setup.models_ms", stages.models_ms),
        ("engine.slice_s", times.slice_busy_s / n),
        ("engine.us_per_exec", times.slice_busy_s * 1e6 / ex),
        ("engine.admit_share", times.offered as f64 / ex),
        ("fleet.barrier_wait_s", times.barrier_wait_s / n),
        ("fleet.slice_wall_s", times.slice_wall_s / n),
        ("fleet.restart_ms", ms_per_campaign(times.restart_s)),
        ("generate.us_per_prog", hot.generate_us),
        ("mutate.us_per_prog", hot.mutate_us),
        ("analysis.lint_us_per_prog", hot.lint_us),
        ("analysis.absint_us_per_prog", hot.absint_us),
        ("exec.us_per_prog", hot.exec_us),
        ("feedback.us_per_exec", hot.feedback_us),
        ("minimize.us_per_seed", hot.minimize_us),
        ("minimize.checks_per_seed", hot.minimize_checks),
        (
            "analysis.absint_repaired_share",
            lint.absint_repaired as f64 / ex,
        ),
        (
            "analysis.absint_rejected_share",
            lint.absint_rejected as f64 / ex,
        ),
        ("analysis.lint_repaired_share", lint.repaired as f64 / ex),
        (
            "supervisor.faults_per_kexec",
            faults.injected as f64 * 1e3 / ex,
        ),
        (
            "supervisor.retries_per_kexec",
            faults.transient_retries as f64 * 1e3 / ex,
        ),
        ("supervisor.hangs_per_kexec", faults.hangs as f64 * 1e3 / ex),
        ("supervisor.reprovisions", faults.reprovisions as f64 / n),
        ("supervisor.restarts", restarts as f64 / n),
        ("shard.prepare_update_ms", ms_per_campaign(times.prepare_s)),
        ("hub.apply_update_ms", ms_per_campaign(times.apply_s)),
        (
            "hub.accept_share",
            ratio(times.accepted as f64, times.offered as f64),
        ),
        ("hub.sync_crashes_ms", ms_per_campaign(times.crash_sync_s)),
        ("shard.pull_ms", ms_per_campaign(times.pull_s)),
        (
            "shard.pull_accept_share",
            ratio(times.pulled as f64, times.delivered as f64),
        ),
        ("snapshot.capture_ms", ms_per_campaign(times.capture_s)),
        ("snapshot.to_text_ms", ms_per_campaign(times.to_text_s)),
        ("snapshot.bytes", snapshot_bytes as f64 / n),
        ("store.on_round_ms", load(&w.on_round_ns) / 1e6 / n),
        (
            "store.on_checkpoint_ms",
            load(&w.on_checkpoint_ns) / 1e6 / n,
        ),
        ("store.bytes_written", load(&w.store_bytes) / n),
        ("store.syncs", load(&w.store_syncs) / n),
        ("store.recover_ms", load(&w.recover_ns) / 1e6 / n),
        ("store.records_replayed", load(&w.replayed) / n),
        ("net.frames", load(&w.frames) / n),
        (
            "net.bytes_per_round",
            ratio(load(&w.bytes), wire_rounds as f64),
        ),
        ("net.send_ms", load(&w.send_ns) / 1e6 / n),
        ("net.recv_wait_ms", load(&w.recv_wait_ns) / 1e6 / n),
        ("net.decode_us_per_msg", decode_us),
        ("net.encode_us_per_msg", encode_us),
        ("trace.accounted_share", times.accounted_share()),
        ("trace.execs_per_s", traced_eps),
        ("trace.untraced_execs_per_s", untraced_eps),
        ("trace.overhead_share", 1.0 - traced_eps / untraced_eps),
        ("trace.gauge_ms", median(&gauges) * 1e3),
        ("trace.campaigns", n),
        ("trace.executions", ex / n),
    ];
    Ok(checks.report(metrics))
}
