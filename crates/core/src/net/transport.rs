//! Frame transports: real TCP and a deterministic in-process loopback.
//!
//! A [`Transport`] moves whole *frames* (the [`super::codec`] byte
//! framing); validation happens above it in [`Channel`], so a faulty
//! link that truncates or corrupts a frame in flight is caught by the
//! same decoder that rejects hostile input. Each transport splits into
//! an independent [`FrameSink`]/[`FrameSource`] pair so the hub can run
//! one reader and one writer thread per session without locking. The
//! loopback transport injects link faults through [`simdevice`]'s
//! seeded [`LinkFaultPlan`] — truncated, corrupted, and duplicated
//! frames, stalls, and disconnects — drawn per frame on the sending
//! side, so a fixed `(seed, profile)` replays the same hostile link
//! run-to-run.

use super::codec::{
    decode_frame, decode_message, encode_frame, encode_message, Message, NET_STREAM_HEADER,
};
use super::{NetCounters, NetError};
use simdevice::{FaultProfile, LinkFault, LinkFaultPlan, LinkFaultRates};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Generous ceiling on a blocking receive — a safety net against a hung
/// peer, far above anything a healthy session waits.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Write half of a link: accepts whole framed messages.
pub trait FrameSink: Send {
    /// Writes one framed message.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError>;
}

/// Read half of a link. `recv_frame` returns the raw bytes of one frame
/// *as delivered* — possibly truncated or corrupted on a faulty link;
/// the caller validates via [`decode_frame`].
pub trait FrameSource: Send {
    /// Blocks for the next frame.
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError>;
}

/// One bidirectional frame pipe, splittable into its two halves.
pub trait Transport: FrameSink + FrameSource {
    /// Tears the transport into independently owned halves (the hub's
    /// per-session reader/writer threads).
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>);
}

/// Recipe for (re)establishing a connection to the hub — the worker's
/// reconnect path hands this to its link supervisor.
pub trait Connector: Send {
    /// Opens a fresh connection.
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError>;
}

/// Accept side of a hub endpoint.
pub trait Listener: Send {
    /// Polls for the next inbound connection; `Ok(None)` after a short
    /// poll interval with nothing pending.
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, NetError>;
}

fn io_err(e: std::io::Error) -> NetError {
    NetError::Io(e.to_string())
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

struct TcpSink {
    writer: TcpStream,
}

impl FrameSink for TcpSink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.writer.write_all(frame).map_err(io_err)?;
        self.writer.flush().map_err(io_err)
    }
}

struct TcpSource {
    reader: BufReader<TcpStream>,
    header_seen: bool,
}

impl TcpSource {
    fn read_line_bytes(&mut self) -> Result<Vec<u8>, NetError> {
        let mut line = Vec::new();
        match self.reader.read_until(b'\n', &mut line) {
            Ok(0) => Err(NetError::Closed),
            Ok(_) => Ok(line),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(NetError::Io("receive timed out".into()))
            }
            Err(e) => Err(io_err(e)),
        }
    }
}

impl FrameSource for TcpSource {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        if !self.header_seen {
            let line = self.read_line_bytes()?;
            if line.strip_suffix(b"\n") != Some(NET_STREAM_HEADER.as_bytes()) {
                return Err(NetError::Garbage("peer did not send a net-stream header".into()));
            }
            self.header_seen = true;
        }
        let mut frame = self.read_line_bytes()?;
        let Some((_, len, _)) = std::str::from_utf8(&frame)
            .ok()
            .map(str::trim_end)
            .and_then(crate::frame::parse_header)
        else {
            // Unparseable header: hand the line up so the decoder
            // reports it as garbage.
            return Ok(frame);
        };
        if len > super::codec::MAX_FRAME_LEN {
            // Refuse to read (or allocate) the declared body; the
            // decoder turns this header into a typed Oversized error.
            return Ok(frame);
        }
        let mut payload = vec![0u8; len + 1];
        let mut filled = 0;
        while filled < payload.len() {
            match self.reader.read(&mut payload[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(NetError::Io("receive timed out".into()))
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        frame.extend_from_slice(&payload[..filled]);
        Ok(frame)
    }
}

/// A [`Transport`] over a [`TcpStream`]. Each side opens its outgoing
/// byte stream with [`NET_STREAM_HEADER`], so a raw capture of one
/// direction is exactly a `droidfuzz-lint`-auditable net-stream file.
pub struct TcpTransport {
    sink: TcpSink,
    source: TcpSource,
}

impl TcpTransport {
    /// Wraps a connected stream, writing the stream header.
    pub fn new(stream: TcpStream) -> Result<Self, NetError> {
        stream.set_read_timeout(Some(RECV_TIMEOUT)).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let mut writer = stream.try_clone().map_err(io_err)?;
        writer.write_all(format!("{NET_STREAM_HEADER}\n").as_bytes()).map_err(io_err)?;
        Ok(Self {
            sink: TcpSink { writer },
            source: TcpSource { reader: BufReader::new(stream), header_seen: false },
        })
    }
}

impl FrameSink for TcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink.send_frame(frame)
    }
}

impl FrameSource for TcpTransport {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.source.recv_frame()
    }
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (Box::new(self.sink), Box::new(self.source))
    }
}

/// Reconnectable TCP dialer.
pub struct TcpConnector {
    addr: String,
}

impl TcpConnector {
    /// A connector for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| NetError::Io(format!("no address for {}", self.addr)))?;
        let stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(io_err)?;
        Ok(Box::new(TcpTransport::new(stream)?))
    }
}

/// Accept side of a TCP hub endpoint (non-blocking poll).
pub struct TcpHubListener {
    listener: std::net::TcpListener,
}

impl TcpHubListener {
    /// Binds `addr` and returns the listener plus the bound address
    /// (useful with port 0).
    pub fn bind(addr: &str) -> Result<(Self, std::net::SocketAddr), NetError> {
        let listener = std::net::TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let local = listener.local_addr().map_err(io_err)?;
        Ok((Self { listener }, local))
    }
}

impl Listener for TcpHubListener {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, NetError> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(io_err)?;
                Ok(Some(Box::new(TcpTransport::new(stream)?)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                Ok(None)
            }
            Err(e) => Err(io_err(e)),
        }
    }
}

// ---------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------

struct LoopbackSink {
    tx: Option<Sender<Vec<u8>>>,
    closed: Arc<AtomicBool>,
    faults: LinkFaultPlan,
    /// Link faults injected on this end's sends (telemetry for tests).
    injected: u64,
}

impl FrameSink for LoopbackSink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        let Some(tx) = &self.tx else { return Err(NetError::Closed) };
        let fault = self.faults.draw();
        if fault.is_some() {
            self.injected += 1;
        }
        let deliver =
            |tx: &Sender<Vec<u8>>, bytes: Vec<u8>| tx.send(bytes).map_err(|_| NetError::Closed);
        match fault {
            None | Some(LinkFault::Stall) => deliver(tx, frame.to_vec()),
            Some(LinkFault::TruncatedFrame) => {
                let keep = self.faults.pick_index(frame.len());
                deliver(tx, frame[..keep].to_vec())
            }
            Some(LinkFault::CorruptFrame) => {
                let mut bytes = frame.to_vec();
                if !bytes.is_empty() {
                    let at = self.faults.pick_index(bytes.len());
                    bytes[at] ^= 0x20;
                }
                deliver(tx, bytes)
            }
            Some(LinkFault::DuplicateFrame) => {
                deliver(tx, frame.to_vec())?;
                deliver(tx, frame.to_vec())
            }
            Some(LinkFault::Disconnect) => {
                self.closed.store(true, Ordering::SeqCst);
                self.tx = None;
                Err(NetError::Closed)
            }
        }
    }
}

struct LoopbackSource {
    rx: Receiver<Vec<u8>>,
    closed: Arc<AtomicBool>,
}

impl FrameSource for LoopbackSource {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            if self.closed.load(Ordering::SeqCst) {
                // Drain anything already in flight before reporting the
                // close, so a disconnect never un-delivers a frame.
                return match self.rx.try_recv() {
                    Ok(frame) => Ok(frame),
                    Err(_) => Err(NetError::Closed),
                };
            }
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(frame) => return Ok(frame),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
            }
        }
    }
}

/// One end of an in-process link. Link faults are drawn per *sent*
/// frame from this end's [`LinkFaultPlan`], so each direction of each
/// connection replays its own deterministic hostile schedule.
pub struct LoopbackTransport {
    sink: LoopbackSink,
    source: LoopbackSource,
}

impl LoopbackTransport {
    /// Link faults this end has injected into its sends.
    pub fn injected_faults(&self) -> u64 {
        self.sink.injected
    }
}

impl FrameSink for LoopbackTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink.send_frame(frame)
    }
}

impl FrameSource for LoopbackTransport {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.source.recv_frame()
    }
}

impl Transport for LoopbackTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (Box::new(self.sink), Box::new(self.source))
    }
}

/// A connected pair of loopback transports: `(a, b)` where frames sent
/// on `a` arrive at `b` and vice versa. `a_faults`/`b_faults` corrupt
/// the respective end's *outgoing* frames. A disconnect fault on either
/// end closes the whole link, both directions.
pub fn loopback_pair(
    a_faults: LinkFaultPlan,
    b_faults: LinkFaultPlan,
) -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let closed = Arc::new(AtomicBool::new(false));
    (
        LoopbackTransport {
            sink: LoopbackSink {
                tx: Some(a_tx),
                closed: closed.clone(),
                faults: a_faults,
                injected: 0,
            },
            source: LoopbackSource { rx: a_rx, closed: closed.clone() },
        },
        LoopbackTransport {
            sink: LoopbackSink {
                tx: Some(b_tx),
                closed: closed.clone(),
                faults: b_faults,
                injected: 0,
            },
            source: LoopbackSource { rx: b_rx, closed },
        },
    )
}

/// Hub-side accept queue for loopback connections.
pub struct LoopbackListener {
    rx: Receiver<Box<dyn Transport>>,
}

impl Listener for LoopbackListener {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, NetError> {
        match self.rx.recv_timeout(Duration::from_millis(10)) {
            Ok(t) => Ok(Some(t)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

/// Worker-side dialer for loopback connections. Every `connect` builds
/// a fresh fault-planned pair — connection `k` draws its two directions
/// from seeds `(seed, 2k)` and `(seed, 2k+1)`, so reconnects under a
/// hostile profile stay deterministic.
pub struct LoopbackConnector {
    accept_tx: Sender<Box<dyn Transport>>,
    rates: LinkFaultRates,
    seed: u64,
    connections: u64,
}

impl LoopbackConnector {
    /// A `(connector, listener)` pair modelling one worker's route to
    /// the hub over a link with `profile` faults.
    pub fn new(profile: FaultProfile, seed: u64) -> (Self, LoopbackListener) {
        Self::with_rates(LinkFaultRates::for_profile(profile), seed)
    }

    /// Like [`new`](Self::new) with explicit fault rates — tests use
    /// this to force specific link behaviour (e.g. a guaranteed
    /// mid-campaign disconnect).
    pub fn with_rates(rates: LinkFaultRates, seed: u64) -> (Self, LoopbackListener) {
        let (accept_tx, rx) = channel();
        (Self { accept_tx, rates, seed, connections: 0 }, LoopbackListener { rx })
    }

    /// A second dialer feeding the same listener (another worker on the
    /// same hub) with its own fault-seed stream.
    pub fn sibling(&self, seed: u64) -> Self {
        Self { accept_tx: self.accept_tx.clone(), rates: self.rates, seed, connections: 0 }
    }

    /// Same-listener dialer with different fault rates (e.g. one flaky
    /// worker in an otherwise reliable fleet).
    pub fn sibling_with_rates(&self, rates: LinkFaultRates, seed: u64) -> Self {
        Self { accept_tx: self.accept_tx.clone(), rates, seed, connections: 0 }
    }
}

impl Connector for LoopbackConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        let k = self.connections;
        self.connections += 1;
        let worker_plan =
            LinkFaultPlan::with_rates(self.rates, self.seed.wrapping_add(2 * k));
        let hub_plan =
            LinkFaultPlan::with_rates(self.rates, self.seed.wrapping_add(2 * k + 1));
        let (worker_end, hub_end) = loopback_pair(worker_plan, hub_plan);
        self.accept_tx
            .send(Box::new(hub_end))
            .map_err(|_| NetError::Io("hub accept queue closed".into()))?;
        Ok(Box::new(worker_end))
    }
}

// ---------------------------------------------------------------------
// Session channel
// ---------------------------------------------------------------------

/// Validated send half: frames and sequence-numbers outgoing messages.
pub struct ChannelSender {
    sink: Box<dyn FrameSink>,
    next_seq: u64,
    /// Wire counters accumulated by this half.
    pub counters: NetCounters,
}

impl ChannelSender {
    /// A sender over a raw sink (fresh connection: sequences restart
    /// at 0).
    pub fn new(sink: Box<dyn FrameSink>) -> Self {
        Self { sink, next_seq: 0, counters: NetCounters::default() }
    }

    /// Frames and sends one message.
    pub fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let text = encode_message(msg);
        self.send_encoded(text.as_bytes())
    }

    /// Sends an already-encoded payload (the hub pre-encodes responses
    /// once and counts them centrally).
    pub fn send_encoded(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let frame = encode_frame(self.next_seq, payload);
        self.sink.send_frame(&frame)?;
        self.next_seq += 1;
        self.counters.frames_sent += 1;
        self.counters.bytes_sent += payload.len() as u64;
        Ok(())
    }
}

/// Validated receive half: per-connection sequence checking, typed
/// malformed-frame accounting, and duplicate-frame suppression (a frame
/// with an already-consumed seq — a faulty link's duplicate delivery —
/// is counted and skipped, never redelivered).
pub struct ChannelReceiver {
    source: Box<dyn FrameSource>,
    next_seq: u64,
    /// Wire counters accumulated by this half.
    pub counters: NetCounters,
}

impl ChannelReceiver {
    /// A receiver over a raw source (fresh connection: sequences
    /// restart at 0).
    pub fn new(source: Box<dyn FrameSource>) -> Self {
        Self { source, next_seq: 0, counters: NetCounters::default() }
    }

    /// Receives and validates the next message. Any error other than a
    /// suppressed duplicate means the link can no longer be trusted —
    /// callers drop the connection and (workers) reconnect.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        loop {
            let bytes = self.source.recv_frame()?;
            let (seq, payload) = match decode_frame(&bytes) {
                Ok((seq, payload, _)) => (seq, payload),
                Err(e @ NetError::Truncated(_)) => {
                    self.counters.truncated_frames += 1;
                    return Err(e);
                }
                Err(e @ NetError::Oversized(_)) => {
                    self.counters.oversized_frames += 1;
                    return Err(e);
                }
                Err(e) => {
                    self.counters.malformed_frames += 1;
                    return Err(e);
                }
            };
            if seq < self.next_seq {
                self.counters.dup_frames += 1;
                continue;
            }
            if seq > self.next_seq {
                return Err(NetError::Protocol(format!(
                    "frame seq jumped to {seq}, expected {}",
                    self.next_seq
                )));
            }
            self.next_seq += 1;
            self.counters.frames_received += 1;
            self.counters.bytes_received += payload.len() as u64;
            let Ok(text) = std::str::from_utf8(&payload) else {
                self.counters.malformed_frames += 1;
                return Err(NetError::Garbage("non-utf8 payload".into()));
            };
            match decode_message(text) {
                Ok(msg) => return Ok(msg),
                Err(e) => {
                    self.counters.malformed_frames += 1;
                    return Err(e);
                }
            }
        }
    }
}

/// A validated message channel over a [`Transport`]: both halves of a
/// fresh connection (sequence numbers restart at 0).
pub struct Channel {
    /// Send half.
    pub tx: ChannelSender,
    /// Receive half.
    pub rx: ChannelReceiver,
}

impl Channel {
    /// Wraps a fresh connection.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        let (sink, source) = transport.split();
        Self {
            tx: ChannelSender { sink, next_seq: 0, counters: NetCounters::default() },
            rx: ChannelReceiver { source, next_seq: 0, counters: NetCounters::default() },
        }
    }

    /// Frames and sends one message.
    pub fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.tx.send(msg)
    }

    /// Receives and validates the next message.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        self.rx.recv()
    }

    /// Merged counters of both halves.
    pub fn counters(&self) -> NetCounters {
        let mut total = self.tx.counters;
        total.absorb(&self.rx.counters);
        total
    }

    /// Tears the channel into its independently owned halves.
    pub fn split(self) -> (ChannelSender, ChannelReceiver) {
        (self.tx, self.rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdevice::LinkFaultRates;

    fn reliable_pair() -> (LoopbackTransport, LoopbackTransport) {
        loopback_pair(
            LinkFaultPlan::for_profile(FaultProfile::Reliable, 1),
            LinkFaultPlan::for_profile(FaultProfile::Reliable, 2),
        )
    }

    #[test]
    fn loopback_round_trips_messages() {
        let (a, b) = reliable_pair();
        let (mut a, mut b) = (Channel::new(Box::new(a)), Channel::new(Box::new(b)));
        a.send(&Message::Heartbeat { round: 3 }).unwrap();
        a.send(&Message::Bye { reason: "done".into() }).unwrap();
        assert_eq!(b.recv(), Ok(Message::Heartbeat { round: 3 }));
        assert_eq!(b.recv(), Ok(Message::Bye { reason: "done".into() }));
        b.send(&Message::RoundAck { round: 3, continue_campaign: true }).unwrap();
        assert_eq!(a.recv(), Ok(Message::RoundAck { round: 3, continue_campaign: true }));
        assert_eq!(a.counters().frames_sent, 2);
        assert_eq!(b.counters().frames_received, 2);
        assert_eq!(b.counters().dup_frames, 0);
    }

    #[test]
    fn duplicated_frames_are_suppressed() {
        let rates = LinkFaultRates {
            duplicate: 1.0,
            ..LinkFaultRates::for_profile(FaultProfile::Reliable)
        };
        let (a, b) = loopback_pair(
            LinkFaultPlan::with_rates(rates, 7),
            LinkFaultPlan::for_profile(FaultProfile::Reliable, 8),
        );
        let (mut a, mut b) = (Channel::new(Box::new(a)), Channel::new(Box::new(b)));
        a.send(&Message::Heartbeat { round: 1 }).unwrap();
        a.send(&Message::Heartbeat { round: 2 }).unwrap();
        assert_eq!(b.recv(), Ok(Message::Heartbeat { round: 1 }));
        // The second recv skips the duplicate of frame 0 before
        // delivering frame 1; frame 1's duplicate stays queued.
        assert_eq!(b.recv(), Ok(Message::Heartbeat { round: 2 }));
        assert_eq!(b.counters().dup_frames, 1);
        assert_eq!(b.counters().frames_received, 2);
    }

    #[test]
    fn corrupted_frames_surface_as_typed_errors() {
        let rates = LinkFaultRates {
            corrupt: 1.0,
            ..LinkFaultRates::for_profile(FaultProfile::Reliable)
        };
        let (a, b) = loopback_pair(
            LinkFaultPlan::with_rates(rates, 7),
            LinkFaultPlan::for_profile(FaultProfile::Reliable, 8),
        );
        let (mut a, mut b) = (Channel::new(Box::new(a)), Channel::new(Box::new(b)));
        a.send(&Message::Heartbeat { round: 1 }).unwrap();
        let err = b.recv().unwrap_err();
        assert!(
            matches!(err, NetError::Crc { .. } | NetError::Garbage(_) | NetError::Truncated(_)),
            "{err}"
        );
        let c = b.counters();
        assert_eq!(c.malformed_frames + c.truncated_frames, 1);
    }

    #[test]
    fn disconnect_faults_close_both_directions() {
        let rates = LinkFaultRates {
            disconnect: 1.0,
            ..LinkFaultRates::for_profile(FaultProfile::Reliable)
        };
        let (a, b) = loopback_pair(
            LinkFaultPlan::with_rates(rates, 7),
            LinkFaultPlan::for_profile(FaultProfile::Reliable, 8),
        );
        let (mut a, mut b) = (Channel::new(Box::new(a)), Channel::new(Box::new(b)));
        assert_eq!(a.send(&Message::Heartbeat { round: 1 }), Err(NetError::Closed));
        assert_eq!(b.recv(), Err(NetError::Closed));
        assert_eq!(a.send(&Message::Heartbeat { round: 2 }), Err(NetError::Closed));
    }

    #[test]
    fn seq_jump_is_a_protocol_error() {
        let (a, b) = reliable_pair();
        let (mut sink, _source) = (Box::new(a) as Box<dyn Transport>).split();
        sink.send_frame(&encode_frame(5, b"msg heartbeat\nround 1\n")).unwrap();
        let mut b = Channel::new(Box::new(b));
        assert!(matches!(b.recv(), Err(NetError::Protocol(_))));
    }

    #[test]
    fn tcp_transport_round_trips_and_reconnects() {
        let (mut listener, addr) = TcpHubListener::bind("127.0.0.1:0").unwrap();
        let mut connector = TcpConnector::new(addr.to_string());
        for round in 0..2usize {
            let client = std::thread::spawn({
                let addr = addr.to_string();
                move || {
                    let mut c = Channel::new(TcpConnector::new(addr).connect().unwrap());
                    c.send(&Message::Heartbeat { round }).unwrap();
                    c.recv().unwrap()
                }
            });
            let transport = loop {
                if let Some(t) = listener.accept().unwrap() {
                    break t;
                }
            };
            let mut server = Channel::new(transport);
            assert_eq!(server.recv(), Ok(Message::Heartbeat { round }));
            server.send(&Message::RoundAck { round, continue_campaign: true }).unwrap();
            assert_eq!(
                client.join().unwrap(),
                Message::RoundAck { round, continue_campaign: true }
            );
        }
        // The connector type itself dials too.
        let client = std::thread::spawn(move || {
            let mut c = Channel::new(connector.connect().unwrap());
            c.send(&Message::Bye { reason: "x".into() }).unwrap();
        });
        let transport = loop {
            if let Some(t) = listener.accept().unwrap() {
                break t;
            }
        };
        let mut server = Channel::new(transport);
        assert_eq!(server.recv(), Ok(Message::Bye { reason: "x".into() }));
        client.join().unwrap();
    }
}
