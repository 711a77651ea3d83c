//! Supervised execution: a watchdog, retry, and recovery layer between
//! the engine and the device.
//!
//! The paper's campaigns run for 48 hours against physical embedded
//! devices, and real devices misbehave: ADB links drop, HAL services die
//! without a crash dump, executions hang, and whole devices wedge or
//! reboot on their own. The [`Supervisor`] wraps every
//! [`Broker::execute`] call and classifies what came back into a small
//! failure taxonomy:
//!
//! * [`FailureClass::Transient`] — the request never reached the device
//!   (ADB link drop). Retried with capped exponential backoff, charged to
//!   the virtual clock.
//! * [`FailureClass::DeviceLost`] — the device is silently unusable: it
//!   is wedged, or a HAL service is dead, *without* any bug report. (A
//!   fuzzer-found fatal bug always leaves a report; silence is how the
//!   supervisor tells a lost device from a found bug.) Recovery
//!   re-provisions the device — reboot, then a liveness probe of every
//!   HAL service — and retries; a device that stays dead is abandoned and
//!   its shard restarted by the fleet layer.
//! * [`FailureClass::Hang`] — the execution would exceed the watchdog
//!   budget. The call is aborted (the budget, not the full hang, is
//!   charged), the device rebooted, and the offending program struck;
//!   programs that hang repeatedly are quarantined from the corpus.
//! * [`FailureClass::Bug`] — the normal case: feedback plus bug reports
//!   delivered to the engine, which reboots per its own policy.
//!
//! Nothing host-side is ever lost to a fault: bug reports observed on
//! discarded attempts are salvaged into the [`SupervisedRun`], and
//! corpus / relation-graph / crash state live above this layer entirely.

use crate::exec::{Broker, ExecOutcome};
use crate::engine::{EXEC_SESSION_US, PER_CALL_US};
use fuzzlang::desc::DescTable;
use fuzzlang::prog::Prog;
use fuzzlang::text::format_prog;
use simdevice::adb::US_PER_SEC;
use simdevice::faults::{Fault, FaultPlan};
use simdevice::{AdbLink, Device};
use simkernel::report::BugReport;
use std::collections::{BTreeMap, BTreeSet};

/// Why a supervised execution did not complete normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// The request never reached the device (link drop); retriable.
    Transient,
    /// The device is silently unusable (wedged or dead HAL, no report).
    DeviceLost,
    /// The execution exceeded the watchdog budget and was aborted.
    Hang,
    /// A bug report was delivered — the engine's normal reboot path.
    Bug,
}

pub use droidfuzz_analysis::FaultCounters;

/// Watchdog and recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Virtual budget per execution; hangs exceeding it are aborted.
    pub watchdog_budget_us: u64,
    /// Transient retries before an execution is abandoned.
    pub max_retries: u32,
    /// First backoff sleep (doubles per retry), virtual µs.
    pub backoff_base_us: u64,
    /// Backoff ceiling, virtual µs.
    pub backoff_cap_us: u64,
    /// Hang strikes before a program is quarantined.
    pub strike_limit: u32,
    /// Re-provision attempts before the device is declared gone.
    pub max_reprovisions: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            watchdog_budget_us: 30 * US_PER_SEC,
            max_retries: 3,
            backoff_base_us: US_PER_SEC / 2,
            backoff_cap_us: 8 * US_PER_SEC,
            strike_limit: 2,
            max_reprovisions: 3,
        }
    }
}

/// The result of one supervised execution.
#[derive(Debug, Default)]
pub struct SupervisedRun {
    /// Delivered feedback, absent when the execution was abandoned.
    pub outcome: Option<ExecOutcome>,
    /// Bug reports observed on attempts whose feedback was discarded
    /// (hang abort, silent loss) — crash state is never dropped.
    pub salvaged_bugs: Vec<BugReport>,
    /// Virtual µs to charge the engine clock for the whole episode.
    pub cost_us: u64,
    /// Device executions actually performed (0 when the link never came
    /// up; ≥ 2 when retries re-ran the program).
    pub attempts: u64,
    /// The failure class when no outcome was delivered.
    pub failure: Option<FailureClass>,
}

/// The supervised execution layer: wraps the broker with fault drawing,
/// a watchdog, retry/backoff, and device re-provisioning.
#[derive(Debug)]
pub struct Supervisor {
    plan: FaultPlan,
    cfg: SupervisorConfig,
    counters: FaultCounters,
    strikes: BTreeMap<String, u32>,
    quarantined: BTreeSet<String>,
    device_lost: bool,
}

impl Supervisor {
    /// Creates a supervisor drawing faults from `plan` under `cfg`.
    pub fn new(plan: FaultPlan, cfg: SupervisorConfig) -> Self {
        Self {
            plan,
            cfg,
            counters: FaultCounters::default(),
            strikes: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            device_lost: false,
        }
    }

    /// Opens an execution batch: the broker installs its persistent trace
    /// session and keeps it (plus coverage marks and feedback scratch)
    /// across every [`supervise`](Self::supervise) call until
    /// [`end_batch`](Self::end_batch). The hoisted batch preamble is the
    /// device-lost check — a lost device fails the whole slice up front
    /// (`false`, nothing opened). Everything per-program is untouched:
    /// faults are still drawn per attempt and strikes/quarantine are still
    /// accounted per program, so any batch size is bit-identical to the
    /// per-program path.
    pub fn begin_batch(&mut self, broker: &mut Broker, device: &mut Device) -> bool {
        if self.device_lost {
            return false;
        }
        broker.begin_batch(device);
        true
    }

    /// Closes the current execution batch (no-op when none is open).
    pub fn end_batch(&mut self, broker: &mut Broker, device: &mut Device) {
        broker.end_batch(device);
    }

    /// Executes `prog` under supervision: draws a fault, applies it,
    /// runs the broker, and recovers per the failure taxonomy. The
    /// returned [`SupervisedRun`] carries the full virtual cost of the
    /// episode (including backoffs, reconnects, and recovery reboots).
    pub fn supervise(
        &mut self,
        broker: &mut Broker,
        device: &mut Device,
        adb: &mut AdbLink,
        table: &DescTable,
        prog: &Prog,
    ) -> SupervisedRun {
        let mut run = SupervisedRun::default();
        if self.device_lost {
            run.failure = Some(FailureClass::DeviceLost);
            return run;
        }
        let mut retries = 0u32;
        loop {
            let fault = self.plan.draw();
            if fault.is_some() {
                self.counters.injected += 1;
            }
            let mut hang_extra = None;
            match fault {
                Some(Fault::LinkDrop) => {
                    self.counters.link_drops += 1;
                    run.cost_us += adb.link_drop_cost();
                    if !self.backoff(&mut run, &mut retries) {
                        run.failure = Some(FailureClass::Transient);
                        return run;
                    }
                    continue;
                }
                Some(Fault::Vanish) => {
                    // The plan marks itself vanished; re-provisioning is
                    // doomed, but the supervisor pays for finding out.
                    self.counters.device_lost += 1;
                    if !self.reprovision(device, adb, &mut run)
                        || !self.backoff(&mut run, &mut retries)
                    {
                        run.failure = Some(FailureClass::DeviceLost);
                        return run;
                    }
                    continue;
                }
                Some(Fault::HalDeath) => {
                    let victims = device.hal_descriptors();
                    if !victims.is_empty() {
                        let victim = self.plan.pick_index(victims.len());
                        device.kill_hal_service(&victims[victim]);
                    }
                }
                Some(Fault::Wedge) => device.force_wedge(),
                Some(Fault::Reboot) => {
                    device.reboot();
                    run.cost_us += adb.reboot_cost();
                    self.counters.spontaneous_reboots += 1;
                }
                Some(Fault::Hang { extra_us }) => hang_extra = Some(extra_us),
                Some(Fault::TruncatedReply) | None => {}
            }

            let mut outcome = broker.execute(device, table, prog);
            run.attempts += 1;
            let exec_cost = EXEC_SESSION_US
                + adb.round_trip_cost(prog.wire_size(), outcome.calls_executed, outcome.reply_bytes)
                + outcome.calls_executed as u64 * PER_CALL_US;

            if let Some(extra) = hang_extra {
                if exec_cost.saturating_add(extra) >= self.cfg.watchdog_budget_us {
                    // Watchdog abort: charge the budget, not the hang;
                    // the feedback is never delivered, but any bug report
                    // that surfaced is salvaged.
                    run.cost_us += self.cfg.watchdog_budget_us;
                    self.counters.hangs += 1;
                    run.salvaged_bugs.append(&mut outcome.bugs);
                    broker.recycle(outcome);
                    device.reboot();
                    run.cost_us += adb.reboot_cost();
                    self.strike(prog, table);
                    run.failure = Some(FailureClass::Hang);
                    return run;
                }
                run.cost_us += exec_cost + extra;
            } else {
                run.cost_us += exec_cost;
            }

            if Self::silently_lost(device, &outcome) {
                self.counters.device_lost += 1;
                run.salvaged_bugs.append(&mut outcome.bugs);
                broker.recycle(outcome);
                if !self.reprovision(device, adb, &mut run)
                    || !self.backoff(&mut run, &mut retries)
                {
                    run.failure = Some(FailureClass::DeviceLost);
                    return run;
                }
                continue;
            }

            if fault == Some(Fault::TruncatedReply) {
                self.counters.truncated_replies += 1;
                Self::truncate_reply(adb, &mut outcome);
            }
            run.outcome = Some(outcome);
            return run;
        }
    }

    /// A device is *silently* lost when it is wedged or a HAL service is
    /// dead without any bug report. A found bug always reports; silence
    /// distinguishes "the hardware glitched" from "the fuzzer scored".
    fn silently_lost(device: &Device, outcome: &ExecOutcome) -> bool {
        outcome.bugs.is_empty() && (device.is_wedged() || !device.all_hal_alive())
    }

    /// Drops the tail half of the feedback: the link died mid-pull.
    /// The out-of-band measurement channel (`observed_new_blocks`) is
    /// untouched — it models evaluation instrumentation, not the reply.
    fn truncate_reply(adb: &mut AdbLink, outcome: &mut ExecOutcome) {
        outcome.kcov.truncate(outcome.kcov.len() / 2);
        outcome.hal_events.truncate(outcome.hal_events.len() / 2);
        let delivered = outcome.kcov.len() * 8 + outcome.hal_events.len() * 16;
        adb.note_truncated_reply(outcome.reply_bytes.saturating_sub(delivered));
        outcome.reply_bytes = delivered;
    }

    /// Charges one capped-exponential backoff sleep; `false` when the
    /// retry budget is exhausted.
    fn backoff(&mut self, run: &mut SupervisedRun, retries: &mut u32) -> bool {
        *retries += 1;
        if *retries > self.cfg.max_retries {
            self.counters.gave_up += 1;
            return false;
        }
        let exp = (*retries - 1).min(20);
        run.cost_us += (self.cfg.backoff_base_us << exp).min(self.cfg.backoff_cap_us);
        self.counters.transient_retries += 1;
        true
    }

    /// Re-provisions a lost device: reboot, then probe that the wedge is
    /// cleared and every HAL service answers. On final failure the
    /// supervisor marks the device gone for good.
    fn reprovision(&mut self, device: &mut Device, adb: &mut AdbLink, run: &mut SupervisedRun) -> bool {
        for _ in 0..self.cfg.max_reprovisions {
            device.reboot();
            run.cost_us += adb.reboot_cost();
            self.counters.reprovisions += 1;
            if self.plan.reprovision_fails() {
                continue;
            }
            if !device.is_wedged() && device.all_hal_alive() {
                return true;
            }
        }
        self.device_lost = true;
        false
    }

    fn strike(&mut self, prog: &Prog, table: &DescTable) {
        let key = format_prog(prog, table);
        let strikes = self.strikes.entry(key.clone()).or_insert(0);
        *strikes += 1;
        if *strikes >= self.cfg.strike_limit && self.quarantined.insert(key) {
            self.counters.quarantined_programs += 1;
        }
    }

    /// Whether `prog` has been quarantined for repeated hangs. Cheap in
    /// the (overwhelmingly common) no-quarantine case.
    pub fn is_prog_quarantined(&self, prog: &Prog, table: &DescTable) -> bool {
        !self.quarantined.is_empty() && self.quarantined.contains(&format_prog(prog, table))
    }

    /// The cumulative fault counters.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Whether the device is gone for good (re-provision exhausted).
    pub fn device_lost(&self) -> bool {
        self.device_lost
    }

    /// Programs currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descs::build_syscall_table;
    use fuzzlang::prog::Call;
    use simdevice::catalog;
    use simdevice::faults::{FaultProfile, FaultRates};

    fn rig() -> (Device, DescTable, Broker, AdbLink) {
        let device = catalog::device_a1().boot();
        let table = build_syscall_table(device.kernel_ref());
        (device, table, Broker::new(), AdbLink::usb())
    }

    fn open_prog(table: &DescTable) -> Prog {
        Prog {
            calls: vec![Call {
                desc: table.id_of("openat$/dev/ion").expect("ion on A1"),
                args: vec![],
            }],
        }
    }

    fn supervisor_with(rates: FaultRates) -> Supervisor {
        Supervisor::new(FaultPlan::with_rates(rates, 42), SupervisorConfig::default())
    }

    fn no_faults() -> FaultRates {
        FaultRates::for_profile(FaultProfile::Reliable)
    }

    #[test]
    fn reliable_run_delivers_outcome_with_one_attempt() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(no_faults());
        let prog = open_prog(&table);
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_some());
        assert_eq!(run.attempts, 1);
        assert_eq!(run.failure, None);
        assert_eq!(sup.counters().total(), 0);
        assert!(run.cost_us > EXEC_SESSION_US);
    }

    #[test]
    fn link_drops_retry_with_growing_backoff_then_give_up() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(FaultRates { link_drop: 1.0, ..no_faults() });
        let prog = open_prog(&table);
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_none());
        assert_eq!(run.failure, Some(FailureClass::Transient));
        assert_eq!(run.attempts, 0, "the request never reached the device");
        let c = sup.counters();
        assert_eq!(c.link_drops, 4, "initial try + max_retries, all dropped");
        assert_eq!(c.transient_retries, 3);
        assert_eq!(c.gave_up, 1);
        // 4 drops + 3 backoffs (0.5s + 1s + 2s), all on the virtual clock.
        let drops = 4 * (2 * 250 + 2 * US_PER_SEC);
        assert_eq!(run.cost_us, drops + US_PER_SEC / 2 + US_PER_SEC + 2 * US_PER_SEC);
    }

    #[test]
    fn hang_is_aborted_by_watchdog_and_strikes_lead_to_quarantine() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(FaultRates {
            hang: 1.0,
            hang_extra_us: 120 * US_PER_SEC,
            ..no_faults()
        });
        let prog = open_prog(&table);
        let boots_before = device.boot_count();
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_none());
        assert_eq!(run.failure, Some(FailureClass::Hang));
        assert_eq!(sup.counters().hangs, 1);
        assert!(!sup.is_prog_quarantined(&prog, &table), "one strike is not enough");
        assert_eq!(device.boot_count(), boots_before + 1, "watchdog reboots");
        // The budget, not the 120 s hang, is charged (plus the reboot).
        assert!(run.cost_us < 120 * US_PER_SEC);
        assert!(run.cost_us >= 30 * US_PER_SEC + adb.reboot_cost());

        let run2 = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert_eq!(run2.failure, Some(FailureClass::Hang));
        assert!(sup.is_prog_quarantined(&prog, &table), "second strike quarantines");
        assert_eq!(sup.counters().quarantined_programs, 1);
        assert_eq!(sup.quarantined_count(), 1);
    }

    #[test]
    fn silent_wedge_is_reprovisioned_and_retried() {
        let (mut device, table, mut broker, mut adb) = rig();
        // Wedge exactly once: rates drawn per call, so use a plan where
        // the first draw wedges and later draws are clean.
        let mut sup = supervisor_with(no_faults());
        device.force_wedge();
        let prog = open_prog(&table);
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_some(), "reprovision then retry succeeds");
        assert_eq!(run.attempts, 2, "wedged attempt + clean retry");
        let c = sup.counters();
        assert_eq!(c.device_lost, 1);
        assert!(c.reprovisions >= 1);
        assert!(!sup.device_lost());
        assert!(!device.is_wedged());
    }

    #[test]
    fn silent_hal_death_is_detected_and_recovered() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(no_faults());
        let victim = device.hal_descriptors().first().cloned().expect("services");
        device.kill_hal_service(&victim);
        let prog = open_prog(&table);
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_some());
        assert!(device.hal_alive(&victim), "reprovision revived the service");
        assert_eq!(sup.counters().device_lost, 1);
    }

    #[test]
    fn vanish_abandons_the_device_permanently() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(FaultRates { vanish: 1.0, ..no_faults() });
        let prog = open_prog(&table);
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_none());
        assert_eq!(run.failure, Some(FailureClass::DeviceLost));
        assert!(sup.device_lost());
        assert!(sup.counters().reprovisions >= 1, "it paid to find out");
        // Every later call short-circuits.
        let run2 = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert_eq!(run2.cost_us, 0);
        assert_eq!(run2.failure, Some(FailureClass::DeviceLost));
    }

    #[test]
    fn truncated_reply_halves_feedback_but_still_delivers() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(FaultRates { truncated_reply: 1.0, ..no_faults() });
        // A multi-call program so there is feedback to lose.
        let mut prog = open_prog(&table);
        let more = open_prog(&table);
        prog.splice(&more);
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        let outcome = run.outcome.expect("truncated is still delivered");
        assert_eq!(sup.counters().truncated_replies, 1);
        assert_eq!(adb.truncated_replies(), 1);
        assert_eq!(outcome.reply_bytes, outcome.kcov.len() * 8 + outcome.hal_events.len() * 16);
    }

    #[test]
    fn spontaneous_reboot_still_executes_normally() {
        let (mut device, table, mut broker, mut adb) = rig();
        let mut sup = supervisor_with(FaultRates { reboot: 1.0, ..no_faults() });
        let prog = open_prog(&table);
        let boots = device.boot_count();
        let run = sup.supervise(&mut broker, &mut device, &mut adb, &table, &prog);
        assert!(run.outcome.is_some());
        assert_eq!(device.boot_count(), boots + 1);
        assert_eq!(sup.counters().spontaneous_reboots, 1);
        assert!(run.cost_us > adb.reboot_cost());
    }

    #[test]
    fn counters_absorb_and_roundtrip_by_key() {
        let mut a = FaultCounters { injected: 2, hangs: 1, ..FaultCounters::default() };
        let b = FaultCounters { injected: 3, link_drops: 5, ..FaultCounters::default() };
        a.absorb(&b);
        assert_eq!(a.injected, 5);
        assert_eq!(a.link_drops, 5);
        assert_eq!(a.hangs, 1);
        let mut c = FaultCounters::default();
        for (k, v) in a.entries() {
            assert!(c.set(k, v));
        }
        assert_eq!(c, a);
        assert!(!c.set("bogus", 1));
    }
}
