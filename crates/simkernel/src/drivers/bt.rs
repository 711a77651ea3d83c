//! The Bluetooth protocol stack: a raw HCI channel and L2CAP sockets.
//!
//! Reached through the socket syscalls rather than devfs. Carries three of
//! Table II's injected bugs:
//!
//! * **#7** `KASAN: invalid-access in hci_read_supported_codecs` — reading
//!   supported codecs while the controller is still mid-initialization.
//! * **#8** `WARNING in l2cap_send_disconn_req` — disconnect request on a
//!   connection-less (datagram) channel.
//! * **#11** `KASAN: slab-use-after-free in bt_accept_unlink` — touching an
//!   accepted child socket after its listening parent was freed.

use crate::coverage::block_for_chunks;
use crate::driver::{word, DriverCtx, StateModel, Transition, WordGuard};
use crate::errno::Errno;
use crate::kernel::{HCI_COV_BASE, L2CAP_COV_BASE};
use crate::syscall::btproto;
use std::collections::BTreeMap;

/// `HCIDEVUP` — bring up the controller (`arg[0]` selects the init mode:
/// 0 = full init, 1 = staged init requiring [`HCIDEVSETUP`]).
pub const HCIDEVUP: u32 = 0x4004_48C9;
/// `HCIDEVDOWN` — power the controller down.
pub const HCIDEVDOWN: u32 = 0x4004_48CA;
/// `HCIDEVRESET` — reset controller state.
pub const HCIDEVRESET: u32 = 0x4004_48CB;
/// `HCIINQUIRY` — run device discovery; populates the remote-address table.
pub const HCIINQUIRY: u32 = 0x8004_48F0;
/// Vendor command: read the supported-codecs list.
pub const HCIREADCODECS: u32 = 0x8004_48F8;
/// Complete a staged init started by `HCIDEVUP` mode 1.
pub const HCIDEVSETUP: u32 = 0x4004_48FC;

/// Magic header of the vendor controller firmware blob. `HCIDEVUP` fails
/// with `EIO` until a blob with this header has been written to the raw
/// HCI socket — the vendor Bluetooth HAL ships the blob; nothing else
/// knows it.
pub const FIRMWARE_MAGIC: [u8; 4] = [0x4D, 0x54, 0x4B, 0x46];

/// Declarative state machine of a raw HCI socket. The socket itself only
/// tracks bound-ness, but the interesting state is the *controller*
/// (down / staged-init / ready) plus the firmware-loaded latch — both
/// global to the stack — so the model is the product abstraction for the
/// common one-HCI-socket case and is flagged [`StateModel::global_backing`]:
/// a second live HCI fd invalidates the tracking.
///
/// * `Fresh` — socket not bound; every HCI ioctl fails `ENOTCONN`.
/// * `Bound` — bound to controller 0; controller down, no firmware.
/// * `BoundFw` — firmware blob uploaded; controller still down.
/// * `Init` — staged init (`HCIDEVUP` mode 1): codecs read here is bug #7.
/// * `Ready` — controller fully up; inquiry and codec reads succeed.
pub fn hci_socket_state_model() -> StateModel {
    StateModel::new("Fresh", &["Fresh", "Bound", "BoundFw", "Init", "Ready"])
        .per_open()
        .global_backing()
        .with(vec![
            Transition::bind().guard(WordGuard::Eq(0)).from(&["Fresh"]).to("Bound"),
            Transition::write().prefix(&FIRMWARE_MAGIC).from(&["Bound"]).to("BoundFw"),
            Transition::write().prefix(&FIRMWARE_MAGIC).from(&["BoundFw"]),
            Transition::ioctl(HCIDEVUP).guard(WordGuard::Eq(0)).from(&["BoundFw"]).to("Ready"),
            Transition::ioctl(HCIDEVUP).guard(WordGuard::Eq(1)).from(&["BoundFw"]).to("Init"),
            Transition::ioctl(HCIDEVSETUP).from(&["Init"]).to("Ready"),
            Transition::ioctl(HCIDEVDOWN).from(&["Bound"]),
            Transition::ioctl(HCIDEVDOWN).from(&["BoundFw"]),
            Transition::ioctl(HCIDEVDOWN).from(&["Init", "Ready"]).to("BoundFw"),
            Transition::ioctl(HCIDEVRESET).from(&["Bound", "BoundFw", "Init", "Ready"]),
            Transition::ioctl(HCIINQUIRY).from(&["Ready"]).produces("bt:inquiry"),
            Transition::ioctl(HCIREADCODECS).from(&["Ready"]),
            // Bug #7: reading codecs mid-init dereferences an unallocated
            // table (KASAN invalid-access on device A2).
            Transition::ioctl(HCIREADCODECS).from(&["Init"]).may_fail().hazard(),
            Transition::read().from(&["Init", "Ready"]),
        ])
}

/// Declarative state machine of an L2CAP socket of type `ty` (1 =
/// stream, 2 = dgram, 3 = raw). Socket state is genuinely per-open.
/// `close_orphans` records that closing a listening parent leaves
/// accepted children orphaned — using an orphan afterwards is bug #11's
/// use-after-free (device D), so the abstract interpreter treats any
/// post-orphan use as hazardous.
pub fn l2cap_socket_state_model(ty: u32) -> StateModel {
    let states: &[&str] = if ty == 1 {
        &["Fresh", "Bound", "Listening", "Connected", "Disconnected"]
    } else {
        &["Fresh", "Bound", "Connected", "Disconnected"]
    };
    let mut t = vec![
        Transition::bind().from(&["Fresh"]).to("Bound"),
        Transition::ioctl(L2CAP_DISCONN_REQ).from(&["Connected"]).to("Disconnected"),
        Transition::ioctl(L2CAP_SET_MTU).guard(WordGuard::In(48, 65535)),
        Transition::ioctl(L2CAP_GET_CONNINFO).from(&["Connected"]),
        Transition::read().from(&["Connected"]),
        Transition::write().from(&["Connected"]),
    ];
    if ty == 1 {
        t.push(
            Transition::connect()
                .from(&["Fresh", "Bound", "Listening", "Disconnected"])
                .to("Connected")
                .consumes("bt:inquiry"),
        );
        t.push(Transition::listen().from(&["Bound"]).to("Listening"));
        t.push(Transition::accept().from(&["Listening"]).spawns("Connected"));
        t.push(
            Transition::ioctl(L2CAP_SET_MODE)
                .guard(WordGuard::In(0, 3))
                .from(&["Fresh", "Bound", "Listening", "Disconnected"]),
        );
    } else {
        t.push(
            Transition::connect()
                .from(&["Fresh", "Bound", "Disconnected"])
                .to("Connected")
                .consumes("bt:inquiry"),
        );
        t.push(
            Transition::ioctl(L2CAP_SET_MODE)
                .guard(WordGuard::In(0, 3))
                .from(&["Fresh", "Bound", "Disconnected"]),
        );
    }
    StateModel::new("Fresh", states).per_open().close_orphans().with(t)
}

/// L2CAP: request channel disconnect.
pub const L2CAP_DISCONN_REQ: u32 = 0x4004_6C01;
/// L2CAP: set channel MTU (`arg[0]`).
pub const L2CAP_SET_MTU: u32 = 0x4004_6C02;
/// L2CAP: read connection info.
pub const L2CAP_GET_CONNINFO: u32 = 0x8008_6C03;
/// L2CAP: set retransmission mode (`arg[0]` in 0..=3).
pub const L2CAP_SET_MODE: u32 = 0x4004_6C04;

/// Records a block in the HCI coverage region (sockets have no devfs
/// base, so the stack computes blocks itself).
fn hci_hit(ctx: &mut DriverCtx<'_>, parts: &[u64]) {
    ctx.hit_raw(block_for_chunks(HCI_COV_BASE, &[&[0xB7], parts]));
}

/// Records a block in the L2CAP coverage region.
fn l2_hit(ctx: &mut DriverCtx<'_>, parts: &[u64]) {
    ctx.hit_raw(block_for_chunks(L2CAP_COV_BASE, &[&[0x12], parts]));
}

/// Weighted variant of [`hci_hit`]: deep controller paths execute many
/// blocks.
fn hci_hit_path(ctx: &mut DriverCtx<'_>, weight: u64, parts: &[u64]) {
    for i in 0..weight.max(1) {
        ctx.hit_raw(block_for_chunks(HCI_COV_BASE, &[&[0xB7], parts, &[0xCC00 + i]]));
    }
}

/// Weighted variant of [`l2_hit`].
fn l2_hit_path(ctx: &mut DriverCtx<'_>, weight: u64, parts: &[u64]) {
    for i in 0..weight.max(1) {
        ctx.hit_raw(block_for_chunks(L2CAP_COV_BASE, &[&[0x12], parts, &[0xCC00 + i]]));
    }
}

/// Which injected Bluetooth bugs the firmware arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtBugs {
    /// Bug #7 (device A2).
    pub hci_codecs_kasan: bool,
    /// Bug #8 (device B).
    pub l2cap_disconn_warn: bool,
    /// Bug #11 (device D).
    pub accept_unlink_uaf: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HciState {
    Down,
    Init,
    Ready,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SockState {
    Fresh,
    Bound,
    Listening,
    Connected,
    Disconnected,
}

#[derive(Debug)]
struct BtSocket {
    proto: u32,
    ty: u32,
    state: SockState,
    /// PSM (L2CAP) or device index (HCI) bound to.
    local: u64,
    /// Remote address once connected.
    remote: u64,
    /// Parent socket (for accepted children).
    parent: Option<u64>,
    children: Vec<u64>,
    /// Parent freed while this child was still linked in its accept queue.
    orphaned: bool,
    tx_count: u64,
    mode: u32,
    mtu: u32,
}

impl BtSocket {
    fn new(ty: u32, proto: u32) -> Self {
        Self {
            proto,
            ty,
            state: SockState::Fresh,
            local: 0,
            remote: 0,
            parent: None,
            children: Vec::new(),
            orphaned: false,
            tx_count: 0,
            mode: 0,
            mtu: 672,
        }
    }

    fn is_connectionless(&self) -> bool {
        self.ty == 2
    }
}

/// The Bluetooth stack: one simulated controller plus the socket table.
#[derive(Debug)]
pub struct BtStack {
    armed: BtBugs,
    hci: HciState,
    /// Vendor firmware uploaded (prerequisite for `HCIDEVUP`).
    fw_loaded: bool,
    /// Remote addresses discovered by the last inquiry.
    inquiry: Vec<u64>,
    socks: BTreeMap<u64, BtSocket>,
}

impl BtStack {
    /// Creates a stack with no bugs armed.
    pub fn new() -> Self {
        Self::with_bugs(BtBugs::default())
    }

    /// Creates a stack with the given bugs armed.
    pub fn with_bugs(armed: BtBugs) -> Self {
        Self {
            armed,
            hci: HciState::Down,
            fw_loaded: false,
            inquiry: Vec::new(),
            socks: BTreeMap::new(),
        }
    }

    /// Whether the controller has completed initialization.
    pub fn controller_ready(&self) -> bool {
        self.hci == HciState::Ready
    }


    /// `socket(AF_BLUETOOTH, ty, proto)`.
    ///
    /// # Errors
    ///
    /// `EPROTONOSUPPORT` for unknown protocols, `EINVAL` for a socket type
    /// the protocol does not support.
    pub fn socket(&mut self, ctx: &mut DriverCtx<'_>, ty: u32, proto: u32) -> Result<(), Errno> {
        match proto {
            btproto::HCI => {
                if ty != 3 {
                    return Err(Errno::EINVAL);
                }
                hci_hit(ctx, &[0, u64::from(ty)]);
            }
            btproto::L2CAP => {
                if !(1..=3).contains(&ty) {
                    return Err(Errno::EINVAL);
                }
                l2_hit(ctx, &[0, u64::from(ty)]);
            }
            _ => return Err(Errno::EPROTONOSUPPORT),
        }
        self.socks.insert(ctx.open_id, BtSocket::new(ty, proto));
        Ok(())
    }

    fn sock_mut(&mut self, id: u64) -> Result<&mut BtSocket, Errno> {
        self.socks.get_mut(&id).ok_or(Errno::EBADF)
    }

    /// Reports a use-after-free if the socket is an orphaned child and the
    /// UAF bug is armed. Returns `true` when the splat fired.
    fn check_orphan(&mut self, ctx: &mut DriverCtx<'_>, id: u64) -> bool {
        let armed = self.armed.accept_unlink_uaf;
        if let Some(sock) = self.socks.get(&id) {
            if sock.orphaned && armed {
                ctx.kasan_uaf("bt_accept_unlink");
                return true;
            }
        }
        false
    }

    /// `bind(2)` on a Bluetooth socket; `addr` is the controller index for
    /// HCI or the PSM for L2CAP.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown sockets, `EINVAL` when already bound, `ENODEV`
    /// for HCI controller indices other than 0.
    pub fn bind(&mut self, ctx: &mut DriverCtx<'_>, addr: u64) -> Result<u64, Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let id = ctx.open_id;
        let sock = self.sock_mut(id)?;
        if sock.state != SockState::Fresh {
            return Err(Errno::EINVAL);
        }
        if sock.proto == btproto::HCI && addr != 0 {
            return Err(Errno::ENODEV);
        }
        sock.state = SockState::Bound;
        sock.local = addr;
        let (proto, psm_bucket) = (sock.proto, addr.min(64));
        match proto {
            btproto::HCI => hci_hit(ctx, &[1, psm_bucket]),
            _ => l2_hit(ctx, &[1, psm_bucket]),
        }
        Ok(0)
    }

    /// `connect(2)`: L2CAP channel establishment (HCI sockets do not
    /// connect).
    ///
    /// # Errors
    ///
    /// `EOPNOTSUPP` on HCI sockets, `EISCONN`-like `EALREADY` when already
    /// connected.
    pub fn connect(&mut self, ctx: &mut DriverCtx<'_>, addr: u64) -> Result<u64, Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let id = ctx.open_id;
        let controller_ready = self.hci == HciState::Ready;
        let known_remote = self.inquiry.contains(&addr);
        let sock = self.sock_mut(id)?;
        if sock.proto == btproto::HCI {
            return Err(Errno::EOPNOTSUPP);
        }
        if sock.state == SockState::Connected {
            return Err(Errno::EALREADY);
        }
        sock.state = SockState::Connected;
        sock.remote = addr;
        let ty = u64::from(sock.ty);
        // Connecting to an address discovered by inquiry while the
        // controller is up exercises the full connection path (deeper
        // blocks); blind connects take the short path.
        let depth = match (controller_ready, known_remote) {
            (true, true) => 3u64,
            (true, false) => 2,
            _ => 1,
        };
        l2_hit_path(ctx, 2 * depth, &[2, ty, depth, addr % 17]);
        Ok(0)
    }

    /// `listen(2)` on a bound connection-oriented L2CAP socket.
    ///
    /// # Errors
    ///
    /// `EINVAL` unless the socket is a bound stream socket.
    pub fn listen(&mut self, ctx: &mut DriverCtx<'_>, backlog: u32) -> Result<u64, Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let id = ctx.open_id;
        let sock = self.sock_mut(id)?;
        if sock.proto != btproto::L2CAP || sock.ty != 1 || sock.state != SockState::Bound {
            return Err(Errno::EINVAL);
        }
        sock.state = SockState::Listening;
        let psm = sock.local.min(64);
        l2_hit_path(ctx, 3, &[3, psm, u64::from(backlog.min(8))]);
        Ok(0)
    }

    /// `accept(2)`: takes a (simulated) pending remote connection off a
    /// listening socket and registers it as `child_id`.
    ///
    /// The kernel dispatcher passes the parent socket id in `ctx.open_id`.
    ///
    /// # Errors
    ///
    /// `EINVAL` when the parent is not listening.
    pub fn accept(&mut self, ctx: &mut DriverCtx<'_>, child_id: u64) -> Result<(), Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let parent_id = ctx.open_id;
        let parent = self.sock_mut(parent_id)?;
        if parent.state != SockState::Listening {
            return Err(Errno::EINVAL);
        }
        parent.children.push(child_id);
        let (ty, proto, psm) = (parent.ty, parent.proto, parent.local);
        let mut child = BtSocket::new(ty, proto);
        child.state = SockState::Connected;
        child.local = psm;
        child.remote = 0xA0 + child_id % 7;
        child.parent = Some(parent_id);
        self.socks.insert(child_id, child);
        l2_hit_path(ctx, 4, &[4, psm.min(64), child_id % 5]);
        Ok(())
    }

    /// `ioctl(2)` on a Bluetooth socket.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown sockets, `ENOTTY` for unknown requests, plus
    /// request-specific errors documented on the constants.
    pub fn ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        request: u32,
        arg: &[u8],
    ) -> Result<u64, Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let id = ctx.open_id;
        let proto = self.sock_mut(id)?.proto;
        match proto {
            btproto::HCI => self.hci_ioctl(ctx, id, request, arg),
            _ => self.l2cap_ioctl(ctx, id, request, arg),
        }
    }

    fn hci_ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        id: u64,
        request: u32,
        arg: &[u8],
    ) -> Result<u64, Errno> {
        let bound = self.socks.get(&id).map(|s| s.state != SockState::Fresh) == Some(true);
        if !bound {
            return Err(Errno::ENOTCONN);
        }
        let state_tag = self.hci as u64;
        match request {
            HCIDEVUP => {
                if !self.fw_loaded {
                    return Err(Errno::EIO);
                }
                let mode = word(arg, 0);
                match (self.hci, mode) {
                    (HciState::Down, 0) => {
                        self.hci = HciState::Ready;
                        hci_hit_path(ctx, 4, &[10, 0]);
                    }
                    (HciState::Down, 1) => {
                        self.hci = HciState::Init;
                        hci_hit_path(ctx, 3, &[10, 1]);
                    }
                    (HciState::Down, _) => return Err(Errno::EINVAL),
                    _ => return Err(Errno::EALREADY),
                }
                Ok(0)
            }
            HCIDEVSETUP => {
                if self.hci != HciState::Init {
                    return Err(Errno::EINVAL);
                }
                self.hci = HciState::Ready;
                hci_hit_path(ctx, 3, &[11, word(arg, 0).min(4) as u64]);
                Ok(0)
            }
            HCIDEVDOWN => {
                self.hci = HciState::Down;
                self.inquiry.clear();
                hci_hit(ctx, &[12, state_tag]);
                Ok(0)
            }
            HCIDEVRESET => {
                hci_hit(ctx, &[13, state_tag]);
                if self.hci == HciState::Ready {
                    self.inquiry.clear();
                }
                Ok(0)
            }
            HCIINQUIRY => {
                if self.hci != HciState::Ready {
                    return Err(Errno::ENOTCONN);
                }
                let duration = u64::from(word(arg, 0)).clamp(1, 8);
                self.inquiry = (0..duration).map(|i| 0xBDADD0 + i).collect();
                hci_hit_path(ctx, 5, &[14, duration]);
                Ok(duration)
            }
            HCIREADCODECS => {
                match self.hci {
                    HciState::Ready => {
                        hci_hit(ctx, &[15, 2]);
                        Ok(3)
                    }
                    HciState::Init => {
                        // Bug #7: the codec table is read before the
                        // controller's init work has allocated it.
                        hci_hit(ctx, &[15, 1]);
                        if self.armed.hci_codecs_kasan {
                            ctx.kasan_invalid("hci_read_supported_codecs");
                        }
                        Err(Errno::EIO)
                    }
                    HciState::Down => Err(Errno::ENOTCONN),
                }
            }
            _ => Err(Errno::ENOTTY),
        }
    }

    fn l2cap_ioctl(
        &mut self,
        ctx: &mut DriverCtx<'_>,
        id: u64,
        request: u32,
        arg: &[u8],
    ) -> Result<u64, Errno> {
        let warn_armed = self.armed.l2cap_disconn_warn;
        let sock = self.sock_mut(id)?;
        match request {
            L2CAP_DISCONN_REQ => {
                if sock.state != SockState::Connected {
                    return Err(Errno::ENOTCONN);
                }
                let connectionless = sock.is_connectionless();
                sock.state = SockState::Disconnected;
                l2_hit(ctx, &[5, u64::from(connectionless)]);
                if connectionless && warn_armed {
                    // Bug #8: sending a disconnect request on a channel
                    // that never had a connection-oriented link.
                    ctx.warn_subsystem("l2cap_send_disconn_req");
                }
                Ok(0)
            }
            L2CAP_SET_MTU => {
                let mtu = word(arg, 0);
                if !(48..=65535).contains(&mtu) {
                    return Err(Errno::EINVAL);
                }
                sock.mtu = mtu;
                let bucket = u64::from(mtu) / 4096;
                l2_hit(ctx, &[6, bucket]);
                Ok(0)
            }
            L2CAP_SET_MODE => {
                let mode = word(arg, 0);
                if mode > 3 {
                    return Err(Errno::EINVAL);
                }
                if sock.state == SockState::Connected {
                    return Err(Errno::EBUSY);
                }
                sock.mode = mode;
                l2_hit(ctx, &[7, u64::from(mode)]);
                Ok(0)
            }
            L2CAP_GET_CONNINFO => {
                if sock.state != SockState::Connected {
                    return Err(Errno::ENOTCONN);
                }
                let mode = u64::from(sock.mode);
                l2_hit(ctx, &[8, mode]);
                Ok(sock.remote)
            }
            _ => Err(Errno::ENOTTY),
        }
    }

    /// `read(2)` from a connected socket.
    ///
    /// # Errors
    ///
    /// `ENOTCONN` unless connected (HCI: unless the controller is up).
    pub fn read(&mut self, ctx: &mut DriverCtx<'_>, len: usize) -> Result<Vec<u8>, Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let id = ctx.open_id;
        let hci_state = self.hci;
        let sock = self.sock_mut(id)?;
        match sock.proto {
            btproto::HCI => {
                if hci_state == HciState::Down {
                    return Err(Errno::ENOTCONN);
                }
                let n = len.min(32);
                hci_hit(ctx, &[16, n as u64 / 8]);
                Ok(vec![0x04; n])
            }
            _ => {
                if sock.state != SockState::Connected {
                    return Err(Errno::ENOTCONN);
                }
                let n = len.min(sock.mtu as usize);
                let bucket = n as u64 / 64;
                l2_hit(ctx, &[9, bucket]);
                Ok(vec![0u8; n.min(64)])
            }
        }
    }

    /// `write(2)` to a connected socket.
    ///
    /// # Errors
    ///
    /// `ENOTCONN` unless connected; `EPIPE` after disconnect.
    pub fn write(&mut self, ctx: &mut DriverCtx<'_>, data: &[u8]) -> Result<usize, Errno> {
        if self.check_orphan(ctx, ctx.open_id) {
            return Err(Errno::ECONNRESET);
        }
        let id = ctx.open_id;
        let hci_down = self.hci == HciState::Down;
        let sock = self.sock_mut(id)?;
        // Firmware upload: a bound raw HCI socket accepts the vendor blob
        // while the controller is down.
        if sock.proto == btproto::HCI && hci_down && sock.state == SockState::Bound {
            if data.len() >= 4 && data[..4] == FIRMWARE_MAGIC {
                self.fw_loaded = true;
                hci_hit(ctx, &[19, data.len().min(64) as u64 / 16]);
                return Ok(data.len());
            }
            hci_hit(ctx, &[19, 99]);
            return Err(Errno::EINVAL);
        }
        match sock.state {
            SockState::Connected => {
                sock.tx_count += 1;
                let (mode, tx, ty) = (u64::from(sock.mode), sock.tx_count.min(6), u64::from(sock.ty));
                if sock.proto == btproto::HCI {
                    hci_hit(ctx, &[17, data.len().min(64) as u64 / 8]);
                } else {
                    l2_hit_path(ctx, 3, &[10, mode, tx, ty, data.len().min(1024) as u64 / 128]);
                }
                Ok(data.len())
            }
            SockState::Disconnected => Err(Errno::EPIPE),
            _ => Err(Errno::ENOTCONN),
        }
    }

    /// `poll(2)` readiness: listening sockets always have a pending peer.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown sockets.
    pub fn poll(&mut self, ctx: &mut DriverCtx<'_>, events: u32) -> Result<u32, Errno> {
        let id = ctx.open_id;
        let sock = self.sock_mut(id)?;
        let ready = match sock.state {
            SockState::Listening | SockState::Connected => events & 0x5,
            _ => 0,
        };
        let state = sock.state as u64;
        l2_hit(ctx, &[11, state, u64::from(ready)]);
        Ok(ready)
    }

    /// Final close of a socket: unlinks children from a listening parent,
    /// leaving them orphaned — the precondition of bug #11. The UAF itself
    /// fires when an orphaned child is subsequently *used* (bind, connect,
    /// ioctl, read, write), not on plain teardown, so ordinary process
    /// exit is benign.
    pub fn close(&mut self, ctx: &mut DriverCtx<'_>) {
        let id = ctx.open_id;
        let Some(sock) = self.socks.remove(&id) else {
            return;
        };
        for child in &sock.children {
            if let Some(c) = self.socks.get_mut(child) {
                c.orphaned = true;
            }
        }
        match sock.proto {
            btproto::HCI => hci_hit(ctx, &[18, sock.state as u64]),
            _ => l2_hit(ctx, &[12, sock.state as u64]),
        }
    }

    /// Number of live sockets (for tests and device introspection).
    pub fn socket_count(&self) -> usize {
        self.socks.len()
    }
}

impl Default for BtStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;
    use crate::report::{BugKind, BugSink};

    fn ctx<'a>(
        global: &'a mut CoverageMap,
        bugs: &'a mut BugSink,
        open_id: u64,
    ) -> DriverCtx<'a> {
        DriverCtx::new(0, "bt", None, global, bugs, open_id)
    }

    /// Uploads the vendor firmware on an already-bound HCI socket.
    fn load_fw(bt: &mut BtStack, g: &mut CoverageMap, b: &mut BugSink, id: u64) {
        let mut blob = FIRMWARE_MAGIC.to_vec();
        blob.extend_from_slice(&[0u8; 16]);
        bt.write(&mut ctx(g, b, id), &blob).unwrap();
    }


    #[test]
    fn hci_codecs_before_setup_triggers_kasan_when_armed() {
        let mut bt = BtStack::with_bugs(BtBugs { hci_codecs_kasan: true, ..Default::default() });
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 3, btproto::HCI).unwrap();
        bt.bind(&mut ctx(&mut g, &mut b, 1), 0).unwrap();
        load_fw(&mut bt, &mut g, &mut b, 1);
        let up = crate::driver::encode_words(&[1]);
        bt.ioctl(&mut ctx(&mut g, &mut b, 1), HCIDEVUP, &up).unwrap();
        let err = bt.ioctl(&mut ctx(&mut g, &mut b, 1), HCIREADCODECS, &[]);
        assert_eq!(err, Err(Errno::EIO));
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::KasanInvalidAccess);
        assert!(reports[0].title.contains("hci_read_supported_codecs"));
    }

    #[test]
    fn hci_codecs_sequence_is_benign_when_unarmed_or_ready() {
        let mut bt = BtStack::new();
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 3, btproto::HCI).unwrap();
        bt.bind(&mut ctx(&mut g, &mut b, 1), 0).unwrap();
        load_fw(&mut bt, &mut g, &mut b, 1);
        let up = crate::driver::encode_words(&[0]);
        bt.ioctl(&mut ctx(&mut g, &mut b, 1), HCIDEVUP, &up).unwrap();
        assert_eq!(bt.ioctl(&mut ctx(&mut g, &mut b, 1), HCIREADCODECS, &[]), Ok(3));
        assert!(b.take().is_empty());
    }

    #[test]
    fn l2cap_disconn_on_dgram_warns_when_armed() {
        let mut bt = BtStack::with_bugs(BtBugs { l2cap_disconn_warn: true, ..Default::default() });
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 2, btproto::L2CAP).unwrap();
        bt.connect(&mut ctx(&mut g, &mut b, 1), 0x99).unwrap();
        bt.ioctl(&mut ctx(&mut g, &mut b, 1), L2CAP_DISCONN_REQ, &[]).unwrap();
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].title.contains("l2cap_send_disconn_req"));
        assert_eq!(reports[0].kind, BugKind::Warning);
    }

    #[test]
    fn l2cap_disconn_on_stream_is_benign() {
        let mut bt = BtStack::with_bugs(BtBugs { l2cap_disconn_warn: true, ..Default::default() });
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 1, btproto::L2CAP).unwrap();
        bt.connect(&mut ctx(&mut g, &mut b, 1), 0x99).unwrap();
        bt.ioctl(&mut ctx(&mut g, &mut b, 1), L2CAP_DISCONN_REQ, &[]).unwrap();
        assert!(b.take().is_empty());
    }

    #[test]
    fn accept_unlink_uaf_fires_on_orphaned_child_use() {
        let mut bt = BtStack::with_bugs(BtBugs { accept_unlink_uaf: true, ..Default::default() });
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 1, btproto::L2CAP).unwrap();
        bt.bind(&mut ctx(&mut g, &mut b, 1), 0x1001).unwrap();
        bt.listen(&mut ctx(&mut g, &mut b, 1), 2).unwrap();
        bt.accept(&mut ctx(&mut g, &mut b, 1), 2).unwrap();
        // Parent freed first: child 2 becomes orphaned.
        bt.close(&mut ctx(&mut g, &mut b, 1));
        assert!(b.take().is_empty());
        // Plain teardown of the orphan is benign (exit path)…
        let mut bt2 = BtStack::with_bugs(BtBugs { accept_unlink_uaf: true, ..Default::default() });
        bt2.socket(&mut ctx(&mut g, &mut b, 1), 1, btproto::L2CAP).unwrap();
        bt2.bind(&mut ctx(&mut g, &mut b, 1), 0x1001).unwrap();
        bt2.listen(&mut ctx(&mut g, &mut b, 1), 2).unwrap();
        bt2.accept(&mut ctx(&mut g, &mut b, 1), 2).unwrap();
        bt2.close(&mut ctx(&mut g, &mut b, 1));
        bt2.close(&mut ctx(&mut g, &mut b, 2));
        assert!(b.take().is_empty());
        // …but *using* the orphan dereferences the freed parent link.
        let err = bt.write(&mut ctx(&mut g, &mut b, 2), &[1, 2, 3]);
        assert_eq!(err, Err(Errno::ECONNRESET));
        let reports = b.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::KasanUseAfterFree);
        assert!(reports[0].title.contains("bt_accept_unlink"));
    }

    #[test]
    fn child_close_before_parent_is_benign() {
        let mut bt = BtStack::with_bugs(BtBugs { accept_unlink_uaf: true, ..Default::default() });
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 1, btproto::L2CAP).unwrap();
        bt.bind(&mut ctx(&mut g, &mut b, 1), 5).unwrap();
        bt.listen(&mut ctx(&mut g, &mut b, 1), 2).unwrap();
        bt.accept(&mut ctx(&mut g, &mut b, 1), 2).unwrap();
        bt.close(&mut ctx(&mut g, &mut b, 2));
        bt.close(&mut ctx(&mut g, &mut b, 1));
        assert!(b.take().is_empty());
        assert_eq!(bt.socket_count(), 0);
    }

    #[test]
    fn inquiry_feeds_deeper_connect_coverage() {
        let mut bt = BtStack::new();
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        // Blind connect first.
        bt.socket(&mut ctx(&mut g, &mut b, 1), 1, btproto::L2CAP).unwrap();
        bt.connect(&mut ctx(&mut g, &mut b, 1), 0xBDADD0).unwrap();
        let shallow = g.len();
        // Now the full sequence: HCI up, inquiry, connect to a discovered
        // address on a fresh socket.
        bt.socket(&mut ctx(&mut g, &mut b, 2), 3, btproto::HCI).unwrap();
        bt.bind(&mut ctx(&mut g, &mut b, 2), 0).unwrap();
        load_fw(&mut bt, &mut g, &mut b, 2);
        let up = crate::driver::encode_words(&[0]);
        bt.ioctl(&mut ctx(&mut g, &mut b, 2), HCIDEVUP, &up).unwrap();
        let dur = crate::driver::encode_words(&[4]);
        bt.ioctl(&mut ctx(&mut g, &mut b, 2), HCIINQUIRY, &dur).unwrap();
        bt.socket(&mut ctx(&mut g, &mut b, 3), 1, btproto::L2CAP).unwrap();
        bt.connect(&mut ctx(&mut g, &mut b, 3), 0xBDADD0).unwrap();
        assert!(g.len() > shallow + 2, "full path reveals more blocks");
        assert!(b.take().is_empty());
    }

    #[test]
    fn mtu_validation() {
        let mut bt = BtStack::new();
        let mut g = CoverageMap::new();
        let mut b = BugSink::new();
        bt.socket(&mut ctx(&mut g, &mut b, 1), 1, btproto::L2CAP).unwrap();
        let bad = crate::driver::encode_words(&[10]);
        assert_eq!(
            bt.ioctl(&mut ctx(&mut g, &mut b, 1), L2CAP_SET_MTU, &bad),
            Err(Errno::EINVAL)
        );
        let good = crate::driver::encode_words(&[2048]);
        assert_eq!(bt.ioctl(&mut ctx(&mut g, &mut b, 1), L2CAP_SET_MTU, &good), Ok(0));
    }
}
