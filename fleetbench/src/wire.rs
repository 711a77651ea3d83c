//! `durable_wire`: a real `HubServer` and `WorkerRuntime` over the
//! in-process loopback transport, with a durable `FleetStore` on a
//! simulated medium, killed halfway and resumed from what the store
//! recovers. For the traced run, decorators on the public `Connector`,
//! `Listener`, `Transport`, `FleetPersist` and `StorageMedium` traits
//! time the wire and the store from the outside.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use droidfuzz::engine::FuzzingEngine;
use droidfuzz::fleet::{
    CorpusHub, FleetConfig, FleetPersist, FleetSnapshot, FleetStore, DEFAULT_KEEP,
};
use droidfuzz::net::transport::{FrameSink, FrameSource};
use droidfuzz::net::{
    decode_frame, decode_message, encode_frame, encode_message, Connector, HubResult, HubServer,
    Listener, LoopbackConnector, NetCounters, NetError, ServeConfig, Transport, WorkerConfig,
    WorkerRuntime,
};
use droidfuzz::store::{RecoveryManager, SimMedium, StorageMedium, StoreCounters, StoreError};
use droidfuzz::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;
use fuzzlang::desc::DescTable;
use simdevice::faults::FaultProfile;
use simdevice::FirmwareSpec;

use crate::recipe::{strip_wire_counters, Outcome, Workload};
use crate::sys::fnv64;

/// Longest a hub or worker phase may take before the run is declared
/// stalled (a reliable loopback phase takes well under a second).
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Frames the traced run keeps for the offline codec probe.
const CAPTURE_FRAMES: usize = 4096;

/// What the wire and store decorators measured. Times are summed over
/// every thread that crossed the boundary.
#[derive(Debug, Default)]
pub struct WireTrace {
    /// Frames sent by either end.
    pub frames: AtomicU64,
    /// Framed bytes sent by either end.
    pub bytes: AtomicU64,
    /// Time inside `send_frame`, ns.
    pub send_ns: AtomicU64,
    /// Time blocked inside `recv_frame`, ns.
    pub recv_wait_ns: AtomicU64,
    /// `FleetPersist::on_round` time, ns.
    pub on_round_ns: AtomicU64,
    /// `FleetPersist::on_checkpoint` time, ns.
    pub on_checkpoint_ns: AtomicU64,
    /// Bytes handed to `StorageMedium::write` and `append`.
    pub store_bytes: AtomicU64,
    /// `StorageMedium::sync` calls.
    pub store_syncs: AtomicU64,
    /// `RecoveryManager::recover_verified` time, ns.
    pub recover_ns: AtomicU64,
    /// Journal records the recovery replayed.
    pub replayed: AtomicU64,
    /// The first frames sent, for the offline codec probe.
    pub captured: Mutex<Vec<Vec<u8>>>,
}

fn add_elapsed(counter: &AtomicU64, start: Instant) {
    counter.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
}

impl WireTrace {
    /// Decodes and re-encodes every captured frame; returns
    /// `(decode µs per message, encode µs per message)`. Fails if a
    /// captured frame does not decode or does not re-encode to the same
    /// bytes.
    pub fn codec_probe(&self) -> Result<(f64, f64), String> {
        let frames = self.captured.lock().expect("capture lock").clone();
        if frames.is_empty() {
            return Ok((0.0, 0.0));
        }
        let start = Instant::now();
        let mut decoded = Vec::with_capacity(frames.len());
        for frame in &frames {
            let (seq, payload, _) =
                decode_frame(frame).map_err(|e| format!("captured frame: {e}"))?;
            let text = std::str::from_utf8(&payload).map_err(|e| format!("captured frame: {e}"))?;
            decoded.push((
                seq,
                decode_message(text).map_err(|e| format!("captured message: {e}"))?,
            ));
        }
        let decode_us = start.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
        let start = Instant::now();
        let encoded: Vec<Vec<u8>> = decoded
            .iter()
            .map(|(seq, msg)| encode_frame(*seq, encode_message(msg).as_bytes()))
            .collect();
        let encode_us = start.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
        if encoded != frames {
            return Err("captured frames do not re-encode to the same bytes".into());
        }
        Ok((decode_us, encode_us))
    }
}

struct TracedSink {
    inner: Box<dyn FrameSink>,
    trace: Arc<WireTrace>,
}

impl FrameSink for TracedSink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let start = Instant::now();
        let result = self.inner.send_frame(frame);
        add_elapsed(&self.trace.send_ns, start);
        self.trace.frames.fetch_add(1, Relaxed);
        self.trace.bytes.fetch_add(frame.len() as u64, Relaxed);
        let mut captured = self.trace.captured.lock().expect("capture lock");
        if captured.len() < CAPTURE_FRAMES {
            captured.push(frame.to_vec());
        }
        result
    }
}

struct TracedSource {
    inner: Box<dyn FrameSource>,
    trace: Arc<WireTrace>,
}

impl FrameSource for TracedSource {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let start = Instant::now();
        let result = self.inner.recv_frame();
        add_elapsed(&self.trace.recv_wait_ns, start);
        result
    }
}

struct TracedTransport {
    sink: TracedSink,
    source: TracedSource,
}

impl TracedTransport {
    fn wrap(inner: Box<dyn Transport>, trace: &Arc<WireTrace>) -> Box<dyn Transport> {
        let (sink, source) = inner.split();
        Box::new(TracedTransport {
            sink: TracedSink {
                inner: sink,
                trace: Arc::clone(trace),
            },
            source: TracedSource {
                inner: source,
                trace: Arc::clone(trace),
            },
        })
    }
}

impl FrameSink for TracedTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink.send_frame(frame)
    }
}

impl FrameSource for TracedTransport {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.source.recv_frame()
    }
}

impl Transport for TracedTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (Box::new(self.sink), Box::new(self.source))
    }
}

struct TracedConnector {
    inner: LoopbackConnector,
    trace: Arc<WireTrace>,
}

impl Connector for TracedConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        Ok(TracedTransport::wrap(self.inner.connect()?, &self.trace))
    }
}

struct TracedListener<L> {
    inner: L,
    trace: Option<Arc<WireTrace>>,
}

impl<L: Listener> Listener for TracedListener<L> {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, NetError> {
        let accepted = self.inner.accept()?;
        Ok(match &self.trace {
            Some(trace) => accepted.map(|t| TracedTransport::wrap(t, trace)),
            None => accepted,
        })
    }
}

/// A [`SimMedium`] that counts written bytes and syncs when traced.
#[derive(Debug, Clone)]
struct TracedMedium {
    inner: SimMedium,
    trace: Option<Arc<WireTrace>>,
}

impl TracedMedium {
    fn count(&self, f: impl FnOnce(&WireTrace)) {
        if let Some(trace) = &self.trace {
            f(trace);
        }
    }
}

impl StorageMedium for TracedMedium {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.read(name)
    }
    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.count(|t| {
            t.store_bytes.fetch_add(data.len() as u64, Relaxed);
        });
        self.inner.write(name, data)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.count(|t| {
            t.store_bytes.fetch_add(data.len() as u64, Relaxed);
        });
        self.inner.append(name, data)
    }
    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        self.count(|t| {
            t.store_syncs.fetch_add(1, Relaxed);
        });
        self.inner.sync(name)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.inner.rename(from, to)
    }
    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

/// The hub's durability sink, timed when traced.
struct TracedPersist {
    store: FleetStore<TracedMedium>,
    trace: Option<Arc<WireTrace>>,
}

impl TracedPersist {
    fn timed<R>(
        trace: &Option<Arc<WireTrace>>,
        pick: fn(&WireTrace) -> &AtomicU64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        if let Some(trace) = trace {
            add_elapsed(pick(trace), start);
        }
        out
    }
}

impl FleetPersist for TracedPersist {
    fn on_start(&mut self, hub: &CorpusHub, table: &DescTable) {
        self.store.on_start(hub, table);
    }

    fn on_round(
        &mut self,
        hub: &CorpusHub,
        table: &DescTable,
        round: usize,
        clock_us: u64,
        fault_totals: &FaultCounters,
        lint_totals: &LintCounters,
        net_totals: &NetCounters,
    ) {
        let store = &mut self.store;
        Self::timed(
            &self.trace,
            |t| &t.on_round_ns,
            || {
                store.on_round(
                    hub,
                    table,
                    round,
                    clock_us,
                    fault_totals,
                    lint_totals,
                    net_totals,
                )
            },
        );
    }

    fn on_checkpoint(&mut self, snapshot: &FleetSnapshot) {
        let store = &mut self.store;
        Self::timed(
            &self.trace,
            |t| &t.on_checkpoint_ns,
            || store.on_checkpoint(snapshot),
        );
    }

    fn counters(&self) -> StoreCounters {
        self.store.counters()
    }
}

/// One finished `durable_wire` campaign.
#[derive(Debug)]
pub struct DurableRun {
    /// Checked values; the digest excludes the `net` and `store` lines.
    pub outcome: Outcome,
    /// The resumed hub's final snapshot text.
    pub snapshot: String,
    /// Sync rounds over both phases.
    pub rounds: usize,
}

/// Runs one hub phase with one worker over reliable loopback, waiting at
/// most [`PHASE_TIMEOUT`] for it.
fn serve_phase(
    cfg: ServeConfig,
    persist: TracedPersist,
    resume: Option<FleetSnapshot>,
    link_seed: u64,
    trace: &Option<Arc<WireTrace>>,
) -> Result<HubResult, String> {
    let (connector, listener) = LoopbackConnector::new(FaultProfile::Reliable, link_seed);
    let connector: Box<dyn Connector> = match trace {
        Some(t) => Box::new(TracedConnector {
            inner: connector,
            trace: Arc::clone(t),
        }),
        None => Box::new(connector),
    };
    let listener = TracedListener {
        inner: listener,
        trace: trace.clone(),
    };
    let shards = cfg.fleet.shards;
    let (done_tx, done_rx) = mpsc::channel();
    let hub_done = done_tx.clone();
    let hub = thread::spawn(move || {
        let mut persist = persist;
        let result = HubServer::new(cfg).serve(listener, Some(&mut persist), resume.as_ref());
        let _ = hub_done.send(());
        result
    });
    let worker = thread::spawn(move || {
        let cfg = WorkerConfig {
            shards,
            threads: crate::recipe::THREADS,
            name: "bench".into(),
            max_link_retries: 3,
        };
        let result = WorkerRuntime::new(cfg).run(connector);
        let _ = done_tx.send(());
        result
    });
    let deadline = Instant::now() + PHASE_TIMEOUT;
    for _ in 0..2 {
        let left = deadline.saturating_duration_since(Instant::now());
        if done_rx.recv_timeout(left).is_err() {
            return Err(format!(
                "durable_wire: hub or worker stalled for {PHASE_TIMEOUT:?}"
            ));
        }
    }
    let worker = worker
        .join()
        .map_err(|_| "durable_wire: worker panicked".to_string())?;
    let hub = hub
        .join()
        .map_err(|_| "durable_wire: hub panicked".to_string())?;
    worker.map_err(|e| format!("durable_wire: worker failed: {e}"))?;
    hub.map_err(|e| format!("durable_wire: hub failed: {e}"))
}

/// The description table recovery audits against (seed-independent).
fn audit_table(spec: &FirmwareSpec) -> DescTable {
    FuzzingEngine::new(spec.clone().boot(), Workload::DurableWire.engine_config(0))
        .desc_table()
        .clone()
}

/// Runs `durable_wire` campaign `base`: phase one is killed after
/// [`Workload::kill_round`] rounds, its medium is recovered with
/// `recover_verified` and re-attached with `FleetStore::resume`, and
/// phase two finishes the campaign from the recovered snapshot.
pub fn run_durable(
    spec: &FirmwareSpec,
    base: u64,
    trace: Option<&Arc<WireTrace>>,
) -> Result<DurableRun, String> {
    let w = Workload::DurableWire;
    let trace = trace.cloned();
    let fleet = w.fleet_config();
    let serve = |fleet: FleetConfig| ServeConfig {
        fleet,
        device: spec.meta.id.clone(),
        variant: "droidfuzz".into(),
        seed: base,
    };

    let medium = SimMedium::new();
    let traced = TracedMedium {
        inner: medium.clone(),
        trace: trace.clone(),
    };
    let store = FleetStore::create(traced, DEFAULT_KEEP)
        .map_err(|e| format!("durable_wire: store: {e}"))?;
    let persist = TracedPersist {
        store,
        trace: trace.clone(),
    };
    let killed_cfg = FleetConfig {
        kill_after_rounds: Some(w.kill_round()),
        ..fleet.clone()
    };
    let killed = serve_phase(serve(killed_cfg), persist, None, base, &trace)?;
    if killed.finished || killed.rounds_completed != w.kill_round() {
        return Err(format!(
            "durable_wire: kill landed at round {}",
            killed.rounds_completed
        ));
    }

    let table = audit_table(spec);
    let start = Instant::now();
    let recovered = RecoveryManager::new(medium.clone())
        .recover_verified(&table)
        .map_err(|e| format!("durable_wire: recovery: {e}"))?;
    if let Some(t) = &trace {
        add_elapsed(&t.recover_ns, start);
        t.replayed
            .fetch_add(recovered.report.replayed_records, Relaxed);
    }
    if recovered.snapshot.round != w.kill_round() {
        return Err(format!(
            "durable_wire: recovered round {} != {}",
            recovered.snapshot.round,
            w.kill_round()
        ));
    }
    let traced = TracedMedium {
        inner: medium,
        trace: trace.clone(),
    };
    let store = FleetStore::resume(traced, DEFAULT_KEEP, &recovered)
        .map_err(|e| format!("durable_wire: resume: {e}"))?;
    let persist = TracedPersist {
        store,
        trace: trace.clone(),
    };
    let hub = serve_phase(
        serve(fleet),
        persist,
        Some(recovered.snapshot),
        base + 1,
        &trace,
    )?;
    if !hub.finished {
        return Err("durable_wire: resumed campaign did not finish".into());
    }
    let net = hub.net_totals;
    let link_failures =
        net.malformed_frames + net.truncated_frames + net.oversized_frames + net.link_retries;
    let outcome = Outcome {
        executions: killed.executions + hub.executions,
        union_coverage: hub.union_coverage,
        crashes: hub.crashes.len(),
        failed_ops: hub.fault_totals.gave_up + hub.fault_totals.hangs + link_failures,
        digest: fnv64(&strip_wire_counters(&hub.snapshot)),
    };
    Ok(DurableRun {
        outcome,
        snapshot: hub.snapshot,
        rounds: hub.rounds_completed,
    })
}
