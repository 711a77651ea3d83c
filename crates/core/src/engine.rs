//! The Fuzzing Engine (§IV-A): per-device generate → execute → analyze
//! loop over a virtual clock.
//!
//! Virtual time models the host↔device pipeline of the paper's setup: an
//! ADB round trip plus executor session per test case, per-call device
//! time, and a multi-second reboot penalty after every bug (the paper
//! reboots on *any* bug). Campaign lengths ("48 hours") are expressed in
//! this virtual time, so coverage-versus-time curves have the same shape
//! drivers as the physical experiment without wall-clock cost.

use crate::arena::RoundArena;
use crate::config::FuzzerConfig;
use crate::corpus::Corpus;
use crate::crashes::CrashDb;
use crate::descs::{build_difuze_table, build_syscall_table, ioctl_only_view};
use crate::exec::Broker;
use crate::feedback::{
    signals_from_execution_into, Signal, SignalScratch, SignalSet, SyscallIdTable,
};
use crate::generate::{random_generate, relational_generate};
use crate::minimize::minimize_with;
use crate::probe::{add_hal_descs, probe_device, ProbeReport};
use crate::relation::RelationGraph;
use crate::stats::Series;
use crate::supervisor::{FailureClass, FaultCounters, Supervisor, SupervisorConfig};
use droidfuzz_analysis::{check_prog, gate_prog, gate_prog_static, LintCounters, ModelSet};
use fuzzlang::desc::DescTable;
use fuzzlang::mutate::{crossover, mutate_n};
use fuzzlang::prog::Prog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdevice::faults::FaultPlan;
use simdevice::{AdbLink, Device};
use simkernel::coverage::{Block, CoverageMap};

/// Virtual µs per executor session (ADB shell + kcov setup + teardown).
pub const EXEC_SESSION_US: u64 = 1_500_000;
/// Virtual µs of device time charged per executed call.
pub const PER_CALL_US: u64 = 2_000;
/// Coverage series sampling interval (15 virtual minutes).
pub const SAMPLE_INTERVAL_US: u64 = 15 * 60 * 1_000_000;
/// Virtual µs in one hour.
pub const HOUR_US: u64 = 3_600_000_000;

/// The per-device fuzzing engine.
#[derive(Debug)]
pub struct FuzzingEngine {
    device: Device,
    config: FuzzerConfig,
    table: DescTable,
    graph: RelationGraph,
    corpus: Corpus,
    crash_db: CrashDb,
    signals: SignalSet,
    id_table: SyscallIdTable,
    broker: Broker,
    adb: AdbLink,
    supervisor: Supervisor,
    lint: LintCounters,
    /// Static interface models (DroidFuzz-S only): drives the relation
    /// prior, the abstract-interpretation gate, and seed-energy depth.
    models: Option<ModelSet>,
    rng: StdRng,
    clock_us: u64,
    executions: u64,
    series: Series,
    /// Device-wide kernel coverage across all boots — the evaluation
    /// metric (Figs. 4/5, Table III), measured out-of-band from feedback.
    observed_kernel: CoverageMap,
    /// The same blocks in first-observation order: an append-only log so
    /// fleet shards can publish only the suffix since their last sync.
    cov_log: Vec<Block>,
    /// Reusable buffers for the per-execution signal conversion.
    sig_scratch: SignalScratch,
    sig_buf: Vec<Signal>,
    /// Round arena: recycled program slots and minimizer scratch, reset
    /// per execution round (see [`RoundArena`]).
    arena: RoundArena,
    probe_report: Option<ProbeReport>,
    driver_regions: Vec<(String, u64)>,
    last_sample_us: u64,
}

impl FuzzingEngine {
    /// Boots an engine on `device` with `config`: builds the syscall
    /// vocabulary, runs the pre-testing HAL probing pass (when HAL access
    /// is enabled), applies the ioctl-only restriction (when configured),
    /// and initializes the relation graph with `E = ∅`.
    pub fn new(mut device: Device, config: FuzzerConfig) -> Self {
        let mut table = if config.vendor_ioctl_descs {
            build_difuze_table(device.kernel())
        } else {
            let full_table = build_syscall_table(device.kernel());
            if config.ioctl_only {
                ioctl_only_view(&full_table)
            } else {
                full_table
            }
        };
        let probe_report = if config.hal_enabled {
            let report = probe_device(&mut device);
            add_hal_descs(&mut table, &report);
            Some(report)
        } else {
            None
        };
        device.set_ioctl_only(config.ioctl_only);
        let id_table = SyscallIdTable::compile(device.kernel());
        let mut graph = RelationGraph::new(&table);
        // DroidFuzz-S: collect the drivers' self-described state machines
        // and seed the relation graph with their produces/consumes pairs
        // before the first execution (a warm start no runtime learning
        // has to discover).
        let models = config.static_models.then(|| ModelSet::for_kernel(device.kernel()));
        if let Some(models) = &models {
            if config.relations {
                graph.seed_prior(&models.prior_pairs(&table));
            }
        }
        let driver_regions = device.kernel().driver_regions();
        let adb = if device.spec().meta.id.starts_with('C') {
            AdbLink::tcp()
        } else {
            AdbLink::usb()
        };
        let rng = StdRng::seed_from_u64(config.seed ^ 0xD501D); // per-config stream
        // The fault plan gets its own stream: fault schedules never
        // perturb generation, so `Reliable` is behavior-identical to a
        // fault-free build and faulty campaigns stay seed-deterministic.
        let fault_seed = config.seed ^ 0xFA017;
        let plan = match config.fault_rates {
            Some(rates) => FaultPlan::with_rates(rates, fault_seed),
            None => FaultPlan::for_profile(config.fault_profile, fault_seed),
        };
        let supervisor = Supervisor::new(plan, SupervisorConfig::default());
        Self {
            device,
            config,
            table,
            graph,
            corpus: Corpus::new(),
            crash_db: CrashDb::new(),
            signals: SignalSet::new(),
            id_table,
            broker: Broker::new(),
            adb,
            supervisor,
            lint: LintCounters::default(),
            models,
            rng,
            clock_us: 0,
            executions: 0,
            series: Series::new(),
            observed_kernel: CoverageMap::new(),
            cov_log: Vec::new(),
            sig_scratch: SignalScratch::default(),
            sig_buf: Vec::new(),
            arena: RoundArena::new(),
            probe_report,
            driver_regions,
            last_sample_us: 0,
        }
    }

    fn next_prog(&mut self) -> Prog {
        let use_corpus = self.config.feedback
            && !self.corpus.is_empty()
            && self.rng.gen_bool(self.config.mutate_prob);
        if use_corpus {
            // Arena slot instead of a fresh clone: `assign_from` overwrites
            // the recycled program in place, reusing its call and byte
            // buffers. Neither the slot swap nor `assign_from` consumes
            // RNG, so the campaign's random stream is unchanged.
            let mut prog = self.arena.take_prog();
            prog.assign_from(self.corpus.pick(&mut self.rng).expect("non-empty corpus"));
            if self.rng.gen_bool(0.15) {
                if let Some(other) = self.corpus.pick_uniform(&mut self.rng) {
                    // Crossover borrows both parents directly; the replaced
                    // seed slot goes back to the arena.
                    let crossed = crossover(&prog, other, &mut self.rng);
                    self.arena.put_prog(std::mem::replace(&mut prog, crossed));
                }
            }
            let n = self.rng.gen_range(1..=3);
            mutate_n(&mut prog, &self.table, n, &mut self.rng);
            if prog.is_empty() || !self.lint_gate(&mut prog) {
                self.arena.put_prog(prog);
                return self.generate_fresh();
            }
            prog
        } else {
            self.generate_fresh()
        }
    }

    fn generate_fresh(&mut self) -> Prog {
        let mut prog = if self.config.relations {
            relational_generate(&self.table, &self.graph, self.config.max_prog_calls, &mut self.rng)
        } else {
            random_generate(&self.table, self.config.max_prog_calls, &mut self.rng)
        };
        if !self.lint_gate(&mut prog) {
            // Unrepairable fresh program (generator soundness bug): skip
            // the iteration rather than execute it.
            return Prog::new();
        }
        prog
    }

    /// Runs the static-analysis gate over `prog` in place: `true` lets the
    /// (possibly repaired) program through, `false` means it carried
    /// unrepairable errors. With static models loaded (DroidFuzz-S) the
    /// same gate also checks reachability: programs whose modeled driver
    /// calls all provably fail get prerequisite transitions inserted, and
    /// unfixable ones are rejected. The gate is deterministic and consumes
    /// no RNG, so gated campaigns replay identically. A disabled gate
    /// passes everything.
    fn lint_gate(&mut self, prog: &mut Prog) -> bool {
        if !self.config.lint_gate {
            return true;
        }
        match &self.models {
            Some(models) => gate_prog_static(prog, &self.table, models, &mut self.lint),
            None => gate_prog(prog, &self.table, &mut self.lint),
        }
    }

    /// Extra seed energy from the static depth score (DroidFuzz-S):
    /// programs that provably advance driver state machines get mutated
    /// more often. Zero without models.
    fn static_energy_bonus(&self, prog: &Prog) -> usize {
        self.models
            .as_ref()
            .map_or(0, |models| check_prog(prog, &self.table, Some(models)).depth as usize * 4)
    }

    /// Runs exactly one fuzzing iteration, advancing the virtual clock.
    ///
    /// Every execution goes through the [`Supervisor`]: faults drawn
    /// from the configured profile are injected and recovered from
    /// (retry with backoff, watchdog abort, device re-provisioning), and
    /// the whole episode's virtual cost lands on the clock. A
    /// permanently lost device makes this a no-op — the fleet layer
    /// detects that and restarts the shard from hub state.
    pub fn step(&mut self) {
        if self.supervisor.device_lost() {
            return;
        }
        let prog = self.next_prog();
        if prog.is_empty() {
            self.arena.put_prog(prog);
            return;
        }
        self.step_exec(prog);
    }

    /// The execute→analyze half of [`step`](Self::step). Owns the program
    /// slot and returns it to the arena on every exit path.
    fn step_exec(&mut self, prog: Prog) {
        let mut run = self.supervisor.supervise(
            &mut self.broker,
            &mut self.device,
            &mut self.adb,
            &self.table,
            &prog,
        );
        self.clock_us += run.cost_us;
        self.executions += run.attempts;
        // Crash state survives every fault: reports from discarded
        // attempts are salvaged even when the feedback was not.
        for report in &run.salvaged_bugs {
            if self.crash_db.record(report, self.clock_us) {
                self.crash_db.attach_repro(&report.title, &prog, &self.table);
            }
        }
        let Some(outcome) = run.outcome.take() else {
            if run.failure == Some(FailureClass::Hang) {
                // A hanging program is worthless mutation material; a
                // quarantined one is also barred from re-admission.
                self.corpus.remove_prog(&prog);
            }
            self.arena.put_prog(prog);
            self.sample_if_due();
            return;
        };
        for &b in &outcome.observed_new_blocks {
            if self.observed_kernel.insert(b) {
                self.cov_log.push(b);
            }
        }

        let mut sigs = std::mem::take(&mut self.sig_buf);
        signals_from_execution_into(
            &outcome.kcov,
            &outcome.hal_events,
            &mut self.id_table,
            self.config.hal_coverage,
            &mut self.sig_scratch,
            &mut sigs,
        );

        let had_bug = !outcome.bugs.is_empty();
        if self.config.feedback {
            let (new_count, kernel_new) = self.signals.count_new_split(&sigs);
            // Crashing executions are reported, not seeded: their
            // coverage is tainted and mutating them would re-trigger the
            // same bug (and pay the reboot) forever.
            if new_count > 0 && !had_bug {
                if kernel_new > 0 {
                    // New kernel coverage: minimize, learn relations from
                    // the essential sequence, and seed the corpus.
                    let mut admitted = if self.config.minimize && prog.len() > 2 && new_count <= 64
                    {
                        self.minimize_interesting(&prog, &sigs)
                    } else {
                        prog.clone()
                    };
                    // Gate the (possibly minimized) program before it can
                    // teach the relation graph or seed the corpus:
                    // minimization can strip a producer whose consumer
                    // survived, and repair re-points or re-inserts it.
                    if self.lint_gate(&mut admitted) {
                        if self.config.relations {
                            self.learn_from(&admitted);
                        }
                        if !self.supervisor.is_prog_quarantined(&admitted, &self.table) {
                            let energy = kernel_new * 8
                                + (new_count - kernel_new)
                                + self.static_energy_bonus(&admitted);
                            self.corpus.admit(admitted, energy);
                        }
                    }
                } else if self.config.relations {
                    // New *HAL behaviour* only (directional coverage, §IV-D):
                    // this is how cross-boundary feedback "assist[s] in
                    // further input generation" — it refines the relation
                    // graph with the freshly observed valid sequence (only
                    // pairs whose calls both succeeded; failed calls are
                    // noise, not dependencies), and keeps a light corpus
                    // presence as mutation material for climbing HAL state
                    // ladders.
                    self.learn_from_successes(&prog, &outcome.call_results);
                    if self.rng.gen_bool(0.5)
                        && !self.supervisor.is_prog_quarantined(&prog, &self.table)
                    {
                        let energy = new_count.min(8) + self.static_energy_bonus(&prog);
                        self.corpus.admit(prog.clone(), energy);
                    }
                }
            }
            self.signals.merge(&sigs);
        } else {
            // Difuze-style: still track coverage for reporting, but do not
            // let it influence generation.
            self.signals.merge(&sigs);
        }
        self.sig_buf = sigs;

        for report in &outcome.bugs {
            if self.crash_db.record(report, self.clock_us) {
                self.crash_db.attach_repro(&report.title, &prog, &self.table);
            }
        }
        self.broker.recycle(outcome);
        self.arena.put_prog(prog);
        if (had_bug && self.config.reboot_on_bug) || self.device.is_wedged() {
            self.device.reboot();
            self.clock_us += self.adb.reboot_cost();
        }

        if self.config.relations && self.executions.is_multiple_of(self.config.decay_interval) {
            self.graph.decay(self.config.decay_factor);
        }
        self.sample_if_due();
    }

    /// Minimizes a coverage-increasing program against the device; the
    /// oracle replays candidates (each replay charged to the clock) and
    /// keeps reductions that preserve most of the new signals.
    fn minimize_interesting(&mut self, prog: &Prog, sigs: &[Signal]) -> Prog {
        // All minimizer working memory comes from the arena: the target
        // and candidate signal buffers are taken/restored, and candidate
        // programs are built inside the recycled `MinimizeScratch` — the
        // replay hot loop allocates nothing once the buffers are warm.
        let mut target = std::mem::take(&mut self.arena.min_target);
        target.clear();
        target.extend(sigs.iter().copied().filter(|s| !self.signals.covers(&[*s])));
        let required = target.len().div_ceil(2);
        let device = &mut self.device;
        let broker = &mut self.broker;
        let table = &self.table;
        let id_table = &mut self.id_table;
        let sig_scratch = &mut self.sig_scratch;
        let hal_cov = self.config.hal_coverage;
        let mut replay_cost = 0u64;
        let mut rebooted = false;
        let mut cand_sigs = std::mem::take(&mut self.arena.cand_sigs);
        let (minimized, checks) = minimize_with(prog, &mut self.arena.min_scratch, |candidate| {
            let outcome = broker.execute(device, table, candidate);
            replay_cost += EXEC_SESSION_US / 2 + outcome.calls_executed as u64 * PER_CALL_US;
            if !outcome.bugs.is_empty() || device.is_wedged() {
                device.reboot();
                rebooted = true;
            }
            signals_from_execution_into(
                &outcome.kcov,
                &outcome.hal_events,
                id_table,
                hal_cov,
                sig_scratch,
                &mut cand_sigs,
            );
            let hits = target
                .iter()
                .filter(|t| cand_sigs.contains(t))
                .count();
            broker.recycle(outcome);
            hits >= required
        });
        let _ = checks;
        self.arena.min_target = target;
        self.arena.cand_sigs = cand_sigs;
        self.clock_us += replay_cost;
        if rebooted {
            self.clock_us += self.adb.reboot_cost();
        }
        minimized
    }

    /// Learns relation edges from the adjacent call pairs of a minimized,
    /// coverage-increasing program (§IV-C).
    fn learn_from(&mut self, prog: &Prog) {
        for pair in prog.calls.windows(2) {
            self.graph.learn(pair[0].desc, pair[1].desc);
        }
    }

    /// Learns only from adjacent pairs where both calls succeeded — the
    /// cheap validity filter used for unminimized, HAL-novel programs.
    fn learn_from_successes(&mut self, prog: &Prog, results: &[bool]) {
        for (i, pair) in prog.calls.windows(2).enumerate() {
            if results.get(i).copied().unwrap_or(false)
                && results.get(i + 1).copied().unwrap_or(false)
            {
                self.graph.learn(pair[0].desc, pair[1].desc);
            }
        }
    }

    fn sample_if_due(&mut self) {
        if self.clock_us - self.last_sample_us >= SAMPLE_INTERVAL_US {
            self.last_sample_us = self.clock_us;
            self.series.push(self.clock_us, self.observed_kernel.len() as f64);
        }
    }

    /// Runs until the virtual clock reaches `target_us`, or until the
    /// device is permanently lost (a lost device can no longer advance
    /// the clock; the fleet layer restarts such shards from hub state).
    ///
    /// Steps run in broker batches of `config.exec_batch`: one persistent
    /// trace session and one arena round per batch. Batch boundaries draw
    /// no RNG and charge no virtual time, so results are bit-identical at
    /// every batch size.
    pub fn run_until(&mut self, target_us: u64) {
        let batch = self.config.exec_batch.max(1);
        while self.clock_us < target_us && !self.supervisor.device_lost() {
            self.arena.begin_round();
            let open = self.supervisor.begin_batch(&mut self.broker, &mut self.device);
            for _ in 0..batch {
                if self.clock_us >= target_us || self.supervisor.device_lost() {
                    break;
                }
                self.step();
            }
            if open {
                self.supervisor.end_batch(&mut self.broker, &mut self.device);
            }
        }
        self.series.push(self.clock_us, self.observed_kernel.len() as f64);
    }

    /// Runs for `hours` of virtual time from the current clock.
    pub fn run_for_virtual_hours(&mut self, hours: f64) {
        let target = self.clock_us + (hours * HOUR_US as f64) as u64;
        self.run_until(target);
    }

    /// Runs exactly `n` iterations, batched like [`run_until`](Self::run_until).
    pub fn run_iterations(&mut self, n: u64) {
        let batch = self.config.exec_batch.max(1) as u64;
        let mut done = 0;
        while done < n {
            self.arena.begin_round();
            let open = self.supervisor.begin_batch(&mut self.broker, &mut self.device);
            let chunk = batch.min(n - done);
            for _ in 0..chunk {
                self.step();
            }
            if open {
                self.supervisor.end_batch(&mut self.broker, &mut self.device);
            }
            done += chunk;
        }
    }

    /// Distinct kernel coverage blocks observed device-wide (the Fig. 4/5
    /// metric, from the evaluation's kernel instrumentation — independent
    /// of what the fuzzer's feedback loop sees).
    pub fn kernel_coverage(&self) -> usize {
        self.observed_kernel.len()
    }

    /// Total feedback signals (kernel + HAL-directional).
    pub fn total_signals(&self) -> usize {
        self.signals.len()
    }

    /// The crash database.
    pub fn crash_db(&self) -> &CrashDb {
        &self.crash_db
    }

    /// The learned relation graph.
    pub fn relation_graph(&self) -> &RelationGraph {
        &self.graph
    }

    /// Merges a peer engine's relation graph into this one (fleet
    /// relation sync; Eq. 1 normalization keeps in-weights a valid
    /// distribution). No-op for variants that don't learn relations.
    pub fn merge_relations(&mut self, peer: &RelationGraph) {
        if self.config.relations {
            self.graph.merge_from(peer);
        }
    }

    /// The kernel blocks observed device-wide, sorted (deterministic
    /// order for fleet union-coverage accounting and snapshots).
    pub fn observed_blocks(&self) -> Vec<simkernel::coverage::Block> {
        // The paged-bitmap map iterates in ascending block order already.
        self.observed_kernel.iter().collect()
    }

    /// Length of the first-observation block log — a monotonic cursor for
    /// [`observed_blocks_since`](Self::observed_blocks_since).
    pub fn observed_blocks_len(&self) -> usize {
        self.cov_log.len()
    }

    /// The blocks first observed at log position `since` or later, in
    /// observation order. Fleet shards publish this suffix each sync
    /// instead of re-sending the whole coverage map.
    pub fn observed_blocks_since(&self, since: usize) -> &[Block] {
        &self.cov_log[since.min(self.cov_log.len())..]
    }

    /// The seed corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The call-description vocabulary in use.
    pub fn desc_table(&self) -> &DescTable {
        &self.table
    }

    /// Serializes the seed corpus (the daemon's persistent data, §IV-A).
    pub fn export_corpus(&self) -> String {
        self.corpus.export(&self.table)
    }

    /// Serializes only the seeds admitted after sequence `min_seq` — the
    /// shard-side half of batched hub sync. `corpus_seq` is the matching
    /// cursor source.
    ///
    /// [`corpus_seq`]: Self::corpus_seq
    pub fn export_corpus_since(&self, min_seq: u64) -> String {
        self.corpus.export_since(&self.table, min_seq)
    }

    /// The corpus admission-sequence tip (monotonic across evictions).
    pub fn corpus_seq(&self) -> u64 {
        self.corpus.admitted()
    }

    /// Restores seeds from a previous session's [`export_corpus`] dump;
    /// returns `(accepted, rejected)` against the current vocabulary.
    /// With the lint gate enabled, seeds carrying fixable defects are
    /// auto-repaired instead of dropped (counted in
    /// [`lint_counters`](Self::lint_counters)).
    ///
    /// [`export_corpus`]: Self::export_corpus
    pub fn import_corpus(&mut self, text: &str) -> (usize, usize) {
        if self.config.lint_gate {
            self.corpus.import_gated(text, &self.table, &mut self.lint)
        } else {
            self.corpus.import(text, &self.table)
        }
    }

    /// The probing-pass report (None for HAL-less baselines).
    pub fn probe_report(&self) -> Option<&ProbeReport> {
        self.probe_report.as_ref()
    }

    /// The static interface models (None unless `static_models` is set —
    /// i.e. outside DroidFuzz-S).
    pub fn model_set(&self) -> Option<&ModelSet> {
        self.models.as_ref()
    }

    /// Virtual time elapsed, µs.
    pub fn virtual_time_us(&self) -> u64 {
        self.clock_us
    }

    /// Test cases executed.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Cumulative fault-injection and recovery counters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.supervisor.counters()
    }

    /// Cumulative lint-gate outcomes (`rejected` / `repaired`). Zero on a
    /// healthy campaign: the generator and mutators are sound under the
    /// linter, so the gate only fires on imported or minimized programs
    /// that actually carried defects.
    pub fn lint_counters(&self) -> LintCounters {
        self.lint
    }

    /// Whether the device has been permanently lost (re-provisioning
    /// exhausted). A lost engine can no longer make progress.
    pub fn device_lost(&self) -> bool {
        self.supervisor.device_lost()
    }

    /// Programs quarantined for repeatedly hanging the device.
    pub fn quarantined_programs(&self) -> usize {
        self.supervisor.quarantined_count()
    }

    /// The coverage-over-time series.
    pub fn coverage_series(&self) -> &Series {
        &self.series
    }

    /// The device under test.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Per-driver kernel coverage: `(driver name, distinct blocks)`.
    pub fn per_driver_coverage(&self) -> Vec<(String, usize)> {
        self.driver_regions
            .iter()
            .map(|(name, base)| (name.clone(), self.observed_kernel.count_in_region(*base)))
            .collect::<Vec<_>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdevice::catalog;

    fn quick_engine(config: FuzzerConfig) -> FuzzingEngine {
        FuzzingEngine::new(catalog::device_a1().boot(), config)
    }

    #[test]
    fn engine_makes_progress_and_tracks_time() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(7));
        engine.run_iterations(300);
        assert_eq!(engine.executions(), 300);
        assert!(engine.kernel_coverage() > 50, "got {}", engine.kernel_coverage());
        assert!(engine.virtual_time_us() > 300 * EXEC_SESSION_US);
        assert!(!engine.corpus().is_empty());
    }

    #[test]
    fn relations_are_learned_during_fuzzing() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(3));
        engine.run_iterations(400);
        assert!(
            engine.relation_graph().edge_count() > 5,
            "edges: {}",
            engine.relation_graph().edge_count()
        );
    }

    #[test]
    fn syzkaller_variant_has_no_hal_vocabulary() {
        let engine = quick_engine(FuzzerConfig::syzkaller(5));
        assert!(engine.desc_table().hal_ids().is_empty());
        assert!(engine.probe_report().is_none());
    }

    #[test]
    fn droidfuzz_has_hal_vocabulary_from_probe() {
        let engine = quick_engine(FuzzerConfig::droidfuzz(5));
        assert!(!engine.desc_table().hal_ids().is_empty());
        assert!(engine.probe_report().unwrap().interface_count() > 30);
    }

    #[test]
    fn run_until_reaches_virtual_target() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(9));
        engine.run_for_virtual_hours(0.25);
        assert!(engine.virtual_time_us() >= HOUR_US / 4);
        assert!(!engine.coverage_series().is_empty());
    }

    #[test]
    fn shallow_bug_found_quickly_on_device_e() {
        // Bug #12 (v4l_querycap) is one ioctl deep; any variant finds it
        // within a modest budget.
        let mut engine =
            FuzzingEngine::new(catalog::device_e().boot(), FuzzerConfig::droidfuzz(21));
        engine.run_iterations(3000);
        let titles: Vec<&str> = engine
            .crash_db()
            .records()
            .iter()
            .map(|r| r.title.as_str())
            .collect();
        assert!(
            titles.iter().any(|t| t.contains("v4l_querycap")),
            "expected querycap warning, got {titles:?}"
        );
    }

    #[test]
    fn corpus_persists_across_engine_sessions() {
        let mut first = quick_engine(FuzzerConfig::droidfuzz(31));
        first.run_iterations(150);
        let dump = first.export_corpus();
        assert!(!dump.is_empty());
        let mut second = quick_engine(FuzzerConfig::droidfuzz(32));
        let (restored, rejected) = second.import_corpus(&dump);
        assert!(restored > 0, "seeds should survive a restart");
        assert_eq!(rejected, 0, "a clean dump has no rejects");
        assert_eq!(second.corpus().len(), restored);
    }

    #[test]
    fn lint_gate_is_silent_on_a_healthy_campaign() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(7));
        engine.run_iterations(300);
        assert_eq!(
            engine.lint_counters().total(),
            0,
            "generator/mutator output should pass the linter untouched: {:?}",
            engine.lint_counters()
        );
    }

    #[test]
    fn lint_gate_repairs_defective_imported_seeds() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(41));
        // A close of a resource nothing produced: repair inserts the
        // missing producer instead of dropping the seed.
        let (accepted, rejected) = engine.import_corpus("# seed 0 signals=4\nr0 = close(r9)\n");
        assert_eq!((accepted, rejected), (1, 0));
        assert_eq!(engine.lint_counters().repaired, 1);
        assert_eq!(engine.corpus().len(), 1);
        let seed = &engine.corpus().seeds()[0];
        assert!(seed.prog.validate(engine.desc_table()).is_ok());
        assert_eq!(seed.prog.len(), 2, "producer inserted before the close");
    }

    #[test]
    fn disabled_lint_gate_rejects_instead_of_repairing() {
        let config = FuzzerConfig::droidfuzz(41).with_lint_gate(false);
        let mut engine = quick_engine(config);
        let (accepted, rejected) = engine.import_corpus("# seed 0 signals=4\nr0 = close(r9)\n");
        assert_eq!((accepted, rejected), (0, 1), "ungated import drops the defective seed");
        assert_eq!(engine.lint_counters().total(), 0);
    }

    #[test]
    fn droidfuzz_s_seeds_priors_and_makes_progress() {
        let engine = quick_engine(FuzzerConfig::droidfuzz_s(7));
        let models = engine.model_set().expect("DroidFuzz-S loads models");
        assert!(!models.is_empty());
        assert!(!models.audit().has_errors(), "catalog models must audit clean");
        assert!(
            engine.relation_graph().edge_count() > 0,
            "model priors seed the graph before round 0"
        );
        assert_eq!(engine.relation_graph().learn_events(), 0, "priors are not observations");
        let mut engine = engine;
        engine.run_iterations(300);
        assert!(engine.kernel_coverage() > 50, "got {}", engine.kernel_coverage());
        assert!(!engine.corpus().is_empty());
    }

    #[test]
    fn droidfuzz_s_campaign_is_seed_deterministic() {
        let run = |seed| {
            let mut engine = quick_engine(FuzzerConfig::droidfuzz_s(seed));
            engine.run_iterations(250);
            (
                engine.kernel_coverage(),
                engine.total_signals(),
                engine.virtual_time_us(),
                engine.lint_counters(),
                engine.relation_graph().edge_count(),
            )
        };
        assert_eq!(run(13), run(13), "the absint gate must not break determinism");
    }

    #[test]
    fn plain_droidfuzz_loads_no_models() {
        let engine = quick_engine(FuzzerConfig::droidfuzz(7));
        assert!(engine.model_set().is_none());
    }

    #[test]
    fn reliable_profile_injects_nothing() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(7));
        engine.run_iterations(200);
        assert_eq!(engine.fault_counters().total(), 0);
        assert!(!engine.device_lost());
        assert_eq!(engine.quarantined_programs(), 0);
    }

    #[test]
    fn flaky_campaign_is_deterministic_and_makes_progress() {
        use simdevice::faults::FaultProfile;
        let run = |seed| {
            let mut engine = quick_engine(
                FuzzerConfig::droidfuzz(seed).with_fault_profile(FaultProfile::Flaky),
            );
            engine.run_for_virtual_hours(0.3);
            (
                engine.kernel_coverage(),
                engine.executions(),
                engine.virtual_time_us(),
                engine.fault_counters(),
            )
        };
        let a = run(13);
        let b = run(13);
        assert_eq!(a, b, "same (seed, profile) must replay identically");
        assert!(a.0 > 30, "faults degrade but must not stop progress: {}", a.0);
        assert!(a.3.injected > 0, "a flaky device faults over 0.3 h");
    }

    #[test]
    fn hostile_campaign_completes_with_recoveries() {
        use simdevice::faults::FaultProfile;
        let mut engine = quick_engine(
            FuzzerConfig::droidfuzz(5).with_fault_profile(FaultProfile::Hostile),
        );
        engine.run_for_virtual_hours(0.5);
        let c = engine.fault_counters();
        assert!(c.injected > 0);
        assert!(engine.executions() > 0);
        assert!(engine.kernel_coverage() > 0);
        assert!(
            engine.virtual_time_us() >= HOUR_US / 2 || engine.device_lost(),
            "a hostile campaign either finishes its budget or loses the device"
        );
    }

    #[test]
    fn hal_death_mid_campaign_is_recovered() {
        use simdevice::faults::{FaultProfile, FaultRates};
        // Degradation seam: HAL services keep dying silently mid-campaign
        // (hal_alive flips false without any crash report). The supervisor
        // must detect each loss, re-provision, and keep the campaign going.
        let rates = FaultRates {
            hal_death: 0.05,
            ..FaultRates::for_profile(FaultProfile::Reliable)
        };
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(11).with_fault_rates(rates));
        engine.run_iterations(150);
        let c = engine.fault_counters();
        assert!(c.device_lost > 0, "deaths must have been detected");
        assert!(c.reprovisions >= c.device_lost, "each loss pays a re-provision");
        assert!(!engine.device_lost());
        let device = engine.device();
        assert!(device.all_hal_alive(), "campaign ends with every service revived");
        assert!(engine.kernel_coverage() > 0);
    }

    #[test]
    fn double_reboot_before_boot_is_harmless() {
        // Degradation seam: a device that rebooted twice in a row (e.g. a
        // boot-loop blip) before the engine attached must fuzz normally.
        let mut device = catalog::device_a1().boot();
        device.reboot();
        device.reboot();
        assert_eq!(device.boot_count(), 3);
        let mut engine = FuzzingEngine::new(device, FuzzerConfig::droidfuzz(17));
        engine.run_iterations(100);
        assert!(engine.kernel_coverage() > 0);
        assert!(!engine.corpus().is_empty());
    }

    #[test]
    fn constant_hangs_never_poison_the_corpus() {
        use simdevice::faults::{FaultProfile, FaultRates};
        let rates = FaultRates {
            hang: 1.0,
            hang_extra_us: 120_000_000,
            ..FaultRates::for_profile(FaultProfile::Reliable)
        };
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(19).with_fault_rates(rates));
        engine.run_iterations(5);
        assert_eq!(engine.fault_counters().hangs, 5);
        assert!(engine.corpus().is_empty(), "hung feedback is never admitted");
        // Each hang costs the watchdog budget plus a recovery reboot.
        assert!(engine.virtual_time_us() >= 5 * 30 * 1_000_000);
    }

    #[test]
    fn vanished_device_halts_the_engine_cleanly() {
        use simdevice::faults::{FaultProfile, FaultRates};
        let rates = FaultRates {
            vanish: 1.0,
            ..FaultRates::for_profile(FaultProfile::Reliable)
        };
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(23).with_fault_rates(rates));
        engine.run_for_virtual_hours(1.0);
        assert!(engine.device_lost());
        assert_eq!(engine.executions(), 0, "nothing ever ran");
        assert!(
            engine.virtual_time_us() < HOUR_US / 10,
            "a lost device must not spin the clock to the target"
        );
    }

    #[test]
    fn per_driver_coverage_accounts_blocks() {
        let mut engine = quick_engine(FuzzerConfig::droidfuzz(4));
        engine.run_iterations(200);
        let per_driver = engine.per_driver_coverage();
        let sum: usize = per_driver.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, engine.kernel_coverage(), "regions partition the block space");
        assert!(per_driver.iter().any(|(_, c)| *c > 0));
    }
}
