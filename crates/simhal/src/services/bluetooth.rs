//! Bluetooth HAL (`android.hardware.bluetooth@1.1::IBluetoothHci/default`).
//!
//! No HAL-layer crash lives here, but this service is the natural trigger
//! path for the kernel Bluetooth bugs (#7 HCI codecs KASAN, #8 L2CAP
//! disconnect WARNING, #11 accept-unlink UAF): its methods perform the
//! multi-step socket/ioctl sequences those bugs gate on.

use crate::service::{HalService, KernelHandle};
use crate::services::{expect_ok, words};
use simbinder::{ArgKind, InterfaceInfo, MethodInfo, Parcel, Transaction, TransactionError, TransactionResult};
use simkernel::drivers::bt;
use simkernel::fd::Fd;
use simkernel::syscall::{af, btproto};
use simkernel::Syscall;

/// Method code: power the controller up (`mode` 0 = full, 1 = staged).
pub const ENABLE: u32 = 1;
/// Method code: finish a staged init.
pub const COMPLETE_SETUP: u32 = 2;
/// Method code: read the controller's supported codecs.
pub const READ_SUPPORTED_CODECS: u32 = 3;
/// Method code: run device discovery for `duration` slots.
pub const START_DISCOVERY: u32 = 4;
/// Method code: open an L2CAP channel (`type`, `addr`).
pub const CONNECT_CHANNEL: u32 = 5;
/// Method code: disconnect the current channel.
pub const DISCONNECT_CHANNEL: u32 = 6;
/// Method code: start an L2CAP server on a PSM.
pub const START_SERVER: u32 = 7;
/// Method code: accept one client on the server.
pub const ACCEPT_CLIENT: u32 = 8;
/// Method code: close the last accepted client socket.
pub const CLOSE_CLIENT: u32 = 9;
/// Method code: close the server socket.
pub const CLOSE_SERVER: u32 = 10;
/// Method code: power the controller down.
pub const DISABLE: u32 = 11;
/// Method code: send data on the current channel.
pub const SEND_DATA: u32 = 12;

/// The Bluetooth HAL service.
#[derive(Debug, Default)]
pub struct BluetoothHal {
    hci_fd: Option<Fd>,
    channel_fd: Option<Fd>,
    server_fd: Option<Fd>,
    client_fd: Option<Fd>,
}

impl BluetoothHal {
    /// Creates the service with the controller down.
    pub fn new() -> Self {
        Self::default()
    }

    fn hci(&self) -> Result<Fd, TransactionError> {
        self.hci_fd
            .ok_or_else(|| TransactionError::InvalidOperation("controller not enabled".into()))
    }
}

impl HalService for BluetoothHal {
    fn info(&self) -> InterfaceInfo {
        InterfaceInfo {
            descriptor: "android.hardware.bluetooth@1.1::IBluetoothHci/default".into(),
            methods: vec![
                MethodInfo { name: "enable".into(), code: ENABLE, args: vec![ArgKind::Int32] },
                MethodInfo { name: "completeSetup".into(), code: COMPLETE_SETUP, args: vec![] },
                MethodInfo {
                    name: "readSupportedCodecs".into(),
                    code: READ_SUPPORTED_CODECS,
                    args: vec![],
                },
                MethodInfo {
                    name: "startDiscovery".into(),
                    code: START_DISCOVERY,
                    args: vec![ArgKind::Int32],
                },
                MethodInfo {
                    name: "connectChannel".into(),
                    code: CONNECT_CHANNEL,
                    args: vec![ArgKind::Int32, ArgKind::Int64],
                },
                MethodInfo {
                    name: "disconnectChannel".into(),
                    code: DISCONNECT_CHANNEL,
                    args: vec![],
                },
                MethodInfo {
                    name: "startServer".into(),
                    code: START_SERVER,
                    args: vec![ArgKind::Int32],
                },
                MethodInfo { name: "acceptClient".into(), code: ACCEPT_CLIENT, args: vec![] },
                MethodInfo { name: "closeClient".into(), code: CLOSE_CLIENT, args: vec![] },
                MethodInfo { name: "closeServer".into(), code: CLOSE_SERVER, args: vec![] },
                MethodInfo { name: "disable".into(), code: DISABLE, args: vec![] },
                MethodInfo { name: "sendData".into(), code: SEND_DATA, args: vec![ArgKind::Blob] },
            ],
        }
    }

    fn on_transact(&mut self, sys: &mut KernelHandle<'_>, txn: &Transaction) -> TransactionResult {
        let mut r = txn.data.reader();
        match txn.code {
            ENABLE => {
                let mode = r.read_i32()?;
                if !(0..=1).contains(&mode) {
                    return Err(TransactionError::BadParcel("mode must be 0 or 1".into()));
                }
                if self.hci_fd.is_none() {
                    let fd = sys
                        .sys(Syscall::Socket { domain: af::BLUETOOTH, ty: 3, proto: btproto::HCI })
                        .fd()
                        .map_err(|e| TransactionError::InvalidOperation(format!("socket: {e}").into()))?;
                    expect_ok(sys.sys(Syscall::Bind { fd, addr: 0 }), "bind")?;
                    // Upload the vendor controller firmware (the HAL ships
                    // the blob; bring-up fails without it).
                    let mut blob = [0u8; bt::FIRMWARE_MAGIC.len() + 60];
                    blob[..bt::FIRMWARE_MAGIC.len()].copy_from_slice(&bt::FIRMWARE_MAGIC);
                    expect_ok(sys.sys(Syscall::Write { fd, data: &blob }), "firmware")?;
                    self.hci_fd = Some(fd);
                }
                let fd = self.hci().expect("just set");
                expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: bt::HCIDEVUP,
                        arg: words([mode as u32]).as_flattened(),
                    }),
                    "hci up",
                )?;
                Ok(Parcel::new())
            }
            COMPLETE_SETUP => {
                let fd = self.hci()?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: bt::HCIDEVSETUP, arg: words([0]).as_flattened() }),
                    "hci setup",
                )?;
                Ok(Parcel::new())
            }
            READ_SUPPORTED_CODECS => {
                let fd = self.hci()?;
                let n = expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: bt::HCIREADCODECS, arg: &[] }),
                    "read codecs",
                )?;
                let mut reply = Parcel::new();
                reply.write_i32(n as i32);
                Ok(reply)
            }
            START_DISCOVERY => {
                let duration = r.read_i32()?.clamp(1, 8) as u32;
                let fd = self.hci()?;
                let found = expect_ok(
                    sys.sys(Syscall::Ioctl {
                        fd,
                        request: bt::HCIINQUIRY,
                        arg: words([duration]).as_flattened(),
                    }),
                    "inquiry",
                )?;
                let mut reply = Parcel::new();
                reply.write_i32(found as i32);
                Ok(reply)
            }
            CONNECT_CHANNEL => {
                let ty = r.read_i32()?;
                let addr = r.read_i64()?;
                if !(1..=2).contains(&ty) {
                    return Err(TransactionError::BadParcel("channel type".into()));
                }
                if self.channel_fd.is_some() {
                    return Err(TransactionError::InvalidOperation("channel already open".into()));
                }
                let fd = sys
                    .sys(Syscall::Socket {
                        domain: af::BLUETOOTH,
                        ty: ty as u32,
                        proto: btproto::L2CAP,
                    })
                    .fd()
                    .map_err(|e| TransactionError::InvalidOperation(format!("socket: {e}").into()))?;
                expect_ok(sys.sys(Syscall::Connect { fd, addr: addr as u64 }), "connect")?;
                self.channel_fd = Some(fd);
                Ok(Parcel::new())
            }
            DISCONNECT_CHANNEL => {
                let fd = self.channel_fd.ok_or_else(|| {
                    TransactionError::InvalidOperation("no channel".into())
                })?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: bt::L2CAP_DISCONN_REQ, arg: &[] }),
                    "disconnect",
                )?;
                let _ = sys.sys(Syscall::Close { fd });
                self.channel_fd = None;
                Ok(Parcel::new())
            }
            START_SERVER => {
                let psm = r.read_i32()?;
                if !(1..=0x1fff).contains(&psm) {
                    return Err(TransactionError::BadParcel("psm".into()));
                }
                if self.server_fd.is_some() {
                    return Err(TransactionError::InvalidOperation("server running".into()));
                }
                let fd = sys
                    .sys(Syscall::Socket { domain: af::BLUETOOTH, ty: 1, proto: btproto::L2CAP })
                    .fd()
                    .map_err(|e| TransactionError::InvalidOperation(format!("socket: {e}").into()))?;
                expect_ok(sys.sys(Syscall::Bind { fd, addr: psm as u64 }), "bind")?;
                expect_ok(sys.sys(Syscall::Listen { fd, backlog: 2 }), "listen")?;
                self.server_fd = Some(fd);
                Ok(Parcel::new())
            }
            ACCEPT_CLIENT => {
                let fd = self.server_fd.ok_or_else(|| {
                    TransactionError::InvalidOperation("no server".into())
                })?;
                let client = sys
                    .sys(Syscall::Accept { fd })
                    .fd()
                    .map_err(|e| TransactionError::InvalidOperation(format!("accept: {e}").into()))?;
                if let Some(old) = self.client_fd.replace(client) {
                    let _ = sys.sys(Syscall::Close { fd: old });
                }
                Ok(Parcel::new())
            }
            CLOSE_SERVER => {
                let fd = self.server_fd.take().ok_or_else(|| {
                    TransactionError::InvalidOperation("no server".into())
                })?;
                expect_ok(sys.sys(Syscall::Close { fd }), "close server")?;
                Ok(Parcel::new())
            }
            CLOSE_CLIENT => {
                let fd = self.client_fd.take().ok_or_else(|| {
                    TransactionError::InvalidOperation("no client".into())
                })?;
                expect_ok(sys.sys(Syscall::Close { fd }), "close client")?;
                Ok(Parcel::new())
            }
            DISABLE => {
                let fd = self.hci()?;
                expect_ok(
                    sys.sys(Syscall::Ioctl { fd, request: bt::HCIDEVDOWN, arg: &[] }),
                    "hci down",
                )?;
                let _ = sys.sys(Syscall::Close { fd });
                self.hci_fd = None;
                Ok(Parcel::new())
            }
            SEND_DATA => {
                let blob = r.read_blob()?;
                let fd = self.channel_fd.or(self.client_fd).ok_or_else(|| {
                    TransactionError::InvalidOperation("no channel".into())
                })?;
                let n = expect_ok(
                    sys.sys(Syscall::Write { fd, data: blob }),
                    "send",
                )?;
                let mut reply = Parcel::new();
                reply.write_i32(n as i32);
                Ok(reply)
            }
            c => Err(TransactionError::UnknownCode(c)),
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::HalRuntime;
    use simkernel::drivers::bt::{BtBugs, BtStack};
    use simkernel::report::BugKind;
    use simkernel::Kernel;

    const DESC: &str = "android.hardware.bluetooth@1.1::IBluetoothHci/default";

    fn setup(bugs: BtBugs) -> (Kernel, HalRuntime) {
        let mut kernel = Kernel::with_bt(BtStack::with_bugs(bugs));
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, Box::new(BluetoothHal::new()));
        (kernel, rt)
    }

    fn call(k: &mut Kernel, rt: &mut HalRuntime, code: u32, args: Parcel) -> TransactionResult {
        rt.transact(k, DESC, &Transaction::new(code, args))
    }

    fn i32_parcel(v: i32) -> Parcel {
        let mut p = Parcel::new();
        p.write_i32(v);
        p
    }

    #[test]
    fn bug7_staged_enable_then_read_codecs_triggers_kasan() {
        let (mut k, mut rt) = setup(BtBugs { hci_codecs_kasan: true, ..Default::default() });
        call(&mut k, &mut rt, ENABLE, i32_parcel(1)).unwrap();
        // readSupportedCodecs before completeSetup → kernel KASAN report.
        let _ = call(&mut k, &mut rt, READ_SUPPORTED_CODECS, Parcel::new());
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].kind, BugKind::KasanInvalidAccess);
    }

    #[test]
    fn full_enable_then_read_codecs_is_fine() {
        let (mut k, mut rt) = setup(BtBugs { hci_codecs_kasan: true, ..Default::default() });
        call(&mut k, &mut rt, ENABLE, i32_parcel(0)).unwrap();
        let reply = call(&mut k, &mut rt, READ_SUPPORTED_CODECS, Parcel::new()).unwrap();
        assert_eq!(reply.reader().read_i32().unwrap(), 3);
        assert!(k.take_bugs().is_empty());
    }

    #[test]
    fn bug8_dgram_channel_disconnect_warns() {
        let (mut k, mut rt) = setup(BtBugs { l2cap_disconn_warn: true, ..Default::default() });
        let mut p = Parcel::new();
        p.write_i32(2).write_i64(0x99);
        call(&mut k, &mut rt, CONNECT_CHANNEL, p).unwrap();
        call(&mut k, &mut rt, DISCONNECT_CHANNEL, Parcel::new()).unwrap();
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert!(bugs[0].title.contains("l2cap_send_disconn_req"));
    }

    #[test]
    fn bug11_server_close_then_client_use_triggers_uaf() {
        let (mut k, mut rt) = setup(BtBugs { accept_unlink_uaf: true, ..Default::default() });
        call(&mut k, &mut rt, START_SERVER, i32_parcel(0x1001)).unwrap();
        call(&mut k, &mut rt, ACCEPT_CLIENT, Parcel::new()).unwrap();
        call(&mut k, &mut rt, CLOSE_SERVER, Parcel::new()).unwrap();
        // Sending on the orphaned accepted client walks the freed parent.
        let mut p = Parcel::new();
        p.write_blob(vec![1, 2, 3]);
        let _ = call(&mut k, &mut rt, SEND_DATA, p);
        let bugs = k.take_bugs();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].kind, BugKind::KasanUseAfterFree);
        assert!(bugs[0].title.contains("bt_accept_unlink"));
    }

    #[test]
    fn discovery_requires_full_init() {
        let (mut k, mut rt) = setup(BtBugs::default());
        call(&mut k, &mut rt, ENABLE, i32_parcel(1)).unwrap();
        let err = call(&mut k, &mut rt, START_DISCOVERY, i32_parcel(4)).unwrap_err();
        assert!(matches!(err, TransactionError::InvalidOperation(_)));
        call(&mut k, &mut rt, COMPLETE_SETUP, Parcel::new()).unwrap();
        let reply = call(&mut k, &mut rt, START_DISCOVERY, i32_parcel(4)).unwrap();
        assert_eq!(reply.reader().read_i32().unwrap(), 4);
    }

    #[test]
    fn send_data_on_stream_channel() {
        let (mut k, mut rt) = setup(BtBugs::default());
        let mut p = Parcel::new();
        p.write_i32(1).write_i64(0x42);
        call(&mut k, &mut rt, CONNECT_CHANNEL, p).unwrap();
        let mut p = Parcel::new();
        p.write_blob(vec![1, 2, 3, 4]);
        let reply = call(&mut k, &mut rt, SEND_DATA, p).unwrap();
        assert_eq!(reply.reader().read_i32().unwrap(), 4);
    }
}
