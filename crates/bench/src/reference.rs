//! The historical per-program broker flow, kept outside the production
//! broker as the `exec_batch` bench baseline and as the differential
//! oracle for [`droidfuzz::exec::Broker`].
//!
//! Built on the public `Device`/`Kernel` API only, it keeps the broker
//! side as it was before batching and before the allocation-free device
//! path: a trace session attached and detached per execution, fresh
//! feedback buffers, a clone of every call description, owned copies of
//! payload bytes, the node path and each ioctl argument, a fresh parcel
//! per HAL call, and a full scan of the kernel coverage map against its
//! own `HashSet` seen filter. Outcomes must equal the batched broker's
//! byte for byte.

use std::collections::HashSet;

use droidfuzz::exec::ExecOutcome;
use fuzzlang::desc::{ArgDesc, CallKind, DescTable, SyscallTemplate};
use fuzzlang::prog::{ArgValue, Prog};
use fuzzlang::types::TypeDesc;
use simbinder::{Parcel, Transaction};
use simdevice::Device;
use simkernel::coverage::Block;
use simkernel::fd::Fd;
use simkernel::trace::{Origin, TraceFilter};
use simkernel::{Pid, Syscall, SyscallRet};

/// What one call produced at runtime (for later `Ref` resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Produced {
    Fd(Fd),
    Scalar(u64),
    Nothing,
    Failed,
}

/// The reference broker: one program at a time, nothing reused.
#[derive(Debug, Default)]
pub struct ReferenceBroker {
    /// Every block attributed to an earlier execution (or present before
    /// the first one).
    seen: HashSet<Block>,
    primed: bool,
}

impl ReferenceBroker {
    /// Creates a reference broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes `prog` against `device`, returning the bonded feedback.
    pub fn execute(&mut self, device: &mut Device, table: &DescTable, prog: &Prog) -> ExecOutcome {
        if !self.primed {
            self.seen
                .extend(device.kernel_ref().global_coverage().iter());
            self.primed = true;
        }
        let pid = device.kernel().spawn_process(Origin::Native);
        let _ = device.kernel().kcov_enable(pid);
        let trace = device.kernel().attach_trace(TraceFilter::HalOnly);

        let mut produced: Vec<Produced> = Vec::with_capacity(prog.calls.len());
        let mut call_results = Vec::with_capacity(prog.calls.len());
        for call in &prog.calls {
            let desc = table.get(call.desc).clone();
            let (result, value) = match &desc.kind {
                CallKind::Syscall(template) => {
                    run_syscall(device, pid, template, &call.args, &produced)
                }
                CallKind::Hal { service, code } => {
                    run_hal(device, service, *code, &desc.args, &call.args, &produced)
                }
            };
            call_results.push(result);
            produced.push(value);
        }

        let kcov = device.kernel().kcov_collect(pid).unwrap_or_default();
        let hal_events = device.kernel().trace_drain(trace);
        device.kernel().detach_trace(trace);
        let _ = device.kernel().exit_process(pid);
        device.end_hal_client();
        let observed_new_blocks: Vec<Block> = device
            .kernel_ref()
            .global_coverage()
            .iter()
            .filter(|b| !self.seen.contains(b))
            .collect();
        self.seen.extend(observed_new_blocks.iter().copied());
        let bugs = device.take_bug_reports();
        let reply_bytes = kcov.len() * 8 + hal_events.len() * 16;
        ExecOutcome {
            kcov,
            observed_new_blocks,
            hal_events,
            bugs,
            calls_executed: call_results.len(),
            call_results,
            reply_bytes,
        }
    }
}

fn resolve_fd(value: &ArgValue, produced: &[Produced]) -> Fd {
    match value {
        ArgValue::Ref(t) => match produced.get(*t) {
            Some(Produced::Fd(fd)) => *fd,
            _ => Fd(0xFFFF),
        },
        _ => Fd(0xFFFF),
    }
}

fn resolve_scalar(value: &ArgValue, produced: &[Produced]) -> u64 {
    match value {
        ArgValue::Int(v) => *v,
        ArgValue::Ref(t) => match produced.get(*t) {
            Some(Produced::Scalar(v)) => *v,
            Some(Produced::Fd(fd)) => u64::from(fd.0),
            _ => 0,
        },
        _ => 0,
    }
}

fn run_syscall(
    device: &mut Device,
    pid: Pid,
    template: &SyscallTemplate,
    args: &[ArgValue],
    produced: &[Produced],
) -> (bool, Produced) {
    // First Ref is the fd; remaining ints in order; first blob is the
    // payload.
    let fd = args.first().map_or(Fd(0xFFFF), |a| resolve_fd(a, produced));
    let ints: Vec<u64> = args
        .iter()
        .skip(1)
        .filter_map(|a| match a {
            ArgValue::Int(v) => Some(*v),
            ArgValue::Ref(_) => Some(resolve_scalar(a, produced)),
            _ => None,
        })
        .collect();
    let bytes: Vec<u8> = args
        .iter()
        .find_map(|a| match a {
            ArgValue::Bytes(b) => Some(b.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let int = |i: usize| ints.get(i).copied().unwrap_or(0);
    let pack = |words: &[u64]| {
        let mut arg = Vec::with_capacity(words.len() * 4 + bytes.len());
        for v in words {
            arg.extend_from_slice(&(*v as u32).to_le_bytes());
        }
        arg.extend_from_slice(&bytes);
        arg
    };
    let (path, arg);
    let call = match template {
        SyscallTemplate::Openat { path: p } => {
            path = p.clone();
            Syscall::Openat { path: &path }
        }
        SyscallTemplate::Close => Syscall::Close { fd },
        SyscallTemplate::Read => Syscall::Read {
            fd,
            len: (int(0) as usize).min(1 << 16),
        },
        SyscallTemplate::Write => Syscall::Write { fd, data: &bytes },
        SyscallTemplate::Ioctl { request } => {
            arg = pack(&ints);
            Syscall::Ioctl {
                fd,
                request: *request,
                arg: &arg,
            }
        }
        SyscallTemplate::IoctlAny => {
            arg = pack(ints.get(1..).unwrap_or_default());
            Syscall::Ioctl {
                fd,
                request: int(0) as u32,
                arg: &arg,
            }
        }
        SyscallTemplate::Mmap => Syscall::Mmap {
            fd,
            len: (int(0) as usize).min(1 << 24),
            prot: int(1) as u32,
        },
        SyscallTemplate::Poll => Syscall::Poll {
            fd,
            events: int(0) as u32,
        },
        SyscallTemplate::Dup => Syscall::Dup { fd },
        SyscallTemplate::Socket { domain, ty, proto } => Syscall::Socket {
            domain: *domain,
            ty: *ty,
            proto: *proto,
        },
        SyscallTemplate::Bind => Syscall::Bind { fd, addr: int(0) },
        SyscallTemplate::Connect => Syscall::Connect { fd, addr: int(0) },
        SyscallTemplate::Listen => Syscall::Listen {
            fd,
            backlog: int(0) as u32,
        },
        SyscallTemplate::Accept => Syscall::Accept { fd },
    };
    match device.kernel().syscall(pid, call) {
        SyscallRet::NewFd(fd) => (true, Produced::Fd(fd)),
        SyscallRet::Ok(v) => (true, Produced::Scalar(v)),
        SyscallRet::Data(d) => (true, Produced::Scalar(d.len() as u64)),
        SyscallRet::Err(_) => (false, Produced::Failed),
    }
}

fn run_hal(
    device: &mut Device,
    service: &str,
    code: u32,
    arg_descs: &[ArgDesc],
    args: &[ArgValue],
    produced: &[Produced],
) -> (bool, Produced) {
    let mut parcel = Parcel::new();
    for (desc, value) in arg_descs.iter().zip(args) {
        match (&desc.ty, value) {
            (TypeDesc::Resource { kind }, _) if kind.0.starts_with("hal:") => {
                parcel.write_i32(resolve_scalar(value, produced) as i32);
            }
            (TypeDesc::Resource { .. }, _) => {
                parcel.write_fd(resolve_fd(value, produced).0);
            }
            (TypeDesc::Int { max, .. }, _) if *max > u64::from(u32::MAX) => {
                parcel.write_i64(resolve_scalar(value, produced) as i64);
            }
            (_, ArgValue::Int(v)) => {
                parcel.write_i32(*v as i32);
            }
            (_, ArgValue::Ref(_)) => {
                parcel.write_i32(resolve_scalar(value, produced) as i32);
            }
            (_, ArgValue::Bytes(b)) => {
                parcel.write_blob(b.clone());
            }
            (_, ArgValue::Str(s)) => {
                parcel.write_string16(s.clone());
            }
        }
    }
    match device.transact(service, &Transaction::new(code, parcel)) {
        Ok(reply) => {
            let value = reply
                .reader()
                .read_i32()
                .map(|v| Produced::Scalar(v as u64 & 0xFFFF_FFFF))
                .or_else(|_| {
                    reply
                        .reader()
                        .read_i64()
                        .map(|v| Produced::Scalar(v as u64))
                })
                .unwrap_or(Produced::Nothing);
            (true, value)
        }
        Err(_) => (false, Produced::Failed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidfuzz::descs::build_syscall_table;
    use droidfuzz::exec::Broker;
    use droidfuzz::generate::random_generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simdevice::catalog;

    /// A deterministic stream of generated programs for differential runs.
    fn generated_progs(table: &DescTable, seed: u64, n: usize) -> Vec<Prog> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| random_generate(table, 8, &mut rng))
            .filter(|p| !p.is_empty())
            .collect()
    }

    /// The batched path must be outcome-identical to the historical
    /// per-program reference flow, program by program.
    #[test]
    fn batched_execution_matches_reference_path() {
        let specs: [fn() -> simdevice::FirmwareSpec; 2] = [catalog::device_a1, catalog::device_b];
        for spec in specs {
            let mut dev_batch = spec().boot();
            let mut dev_ref = spec().boot();
            let table = build_syscall_table(dev_batch.kernel());
            let progs = generated_progs(&table, 0xBA7C4, 60);
            let mut batch_broker = Broker::new();
            let mut ref_broker = ReferenceBroker::new();
            let batched = batch_broker.execute_batch(&mut dev_batch, &table, &progs);
            for (i, (prog, got)) in progs.iter().zip(&batched).enumerate() {
                let want = ref_broker.execute(&mut dev_ref, &table, prog);
                assert_eq!(*got, want, "outcome {i} diverged from the reference path");
            }
        }
    }

    /// Outside a batch, `execute` must also match the reference — the two
    /// modes share one algorithm, batch boundaries only amortize setup.
    #[test]
    fn oneshot_execute_matches_reference_path() {
        let mut dev_new = catalog::device_a1().boot();
        let mut dev_ref = catalog::device_a1().boot();
        let table = build_syscall_table(dev_new.kernel());
        let mut new_broker = Broker::new();
        let mut ref_broker = ReferenceBroker::new();
        for prog in generated_progs(&table, 0x05E0, 40) {
            let got = new_broker.execute(&mut dev_new, &table, &prog);
            let want = ref_broker.execute(&mut dev_ref, &table, &prog);
            assert_eq!(got, want);
            new_broker.recycle(got);
        }
    }

    /// A reboot mid-batch kills the kernel (and the persistent trace
    /// session with it); the broker must reattach and keep producing
    /// reference-identical outcomes.
    #[test]
    fn batch_survives_mid_batch_reboot() {
        let mut dev_batch = catalog::device_a1().boot();
        let mut dev_ref = catalog::device_a1().boot();
        let table = build_syscall_table(dev_batch.kernel());
        let progs = generated_progs(&table, 0x5EB007, 30);
        let mut batch_broker = Broker::new();
        let mut ref_broker = ReferenceBroker::new();
        batch_broker.begin_batch(&mut dev_batch);
        for (i, prog) in progs.iter().enumerate() {
            if i == 10 {
                dev_batch.reboot();
                dev_ref.reboot();
            }
            let got = batch_broker.execute(&mut dev_batch, &table, prog);
            let want = ref_broker.execute(&mut dev_ref, &table, prog);
            assert_eq!(got, want, "outcome {i} diverged across the reboot");
            batch_broker.recycle(got);
        }
        batch_broker.end_batch(&mut dev_batch);
    }
}
