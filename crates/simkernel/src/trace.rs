//! Trace hooks: the simulated stand-in for the eBPF probes DroidFuzz
//! attaches to observe system calls (and, during probing, Binder traffic)
//! originating from specific processes.
//!
//! A consumer attaches a [`TraceSession`] with a [`TraceFilter`]; the kernel
//! appends a [`SyscallEvent`] per matching syscall, preserving order (the
//! *directional* property §IV-D relies on). Sessions are ring buffers so a
//! runaway execution cannot exhaust memory.

use crate::syscall::SyscallNr;
use std::fmt;
use std::sync::Arc;

/// Who issued a syscall: the fuzzer's native executor, a HAL service
/// process, or some other system process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// The native executor (direct syscall payloads).
    Native,
    /// A HAL service process; the tag identifies the service.
    Hal(u32),
    /// Unrelated system process (init, framework, …).
    System,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Native => f.write_str("native"),
            Origin::Hal(tag) => write!(f, "hal#{tag}"),
            Origin::System => f.write_str("system"),
        }
    }
}

/// One observed syscall, as delivered by a trace hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallEvent {
    /// Issuing context.
    pub origin: Origin,
    /// Syscall number.
    pub nr: SyscallNr,
    /// Critical position argument (e.g. `ioctl` request code).
    pub critical: u64,
    /// Device node path, when the call targeted a devfs node: the node
    /// handle shared with the kernel's devfs entry, or the requested text
    /// of an `openat` on a node that does not exist.
    pub path: Option<Arc<str>>,
    /// Whether the call succeeded.
    pub ok: bool,
}

/// Which events a session wants to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFilter {
    /// All syscalls from any origin.
    #[default]
    All,
    /// Only syscalls issued by HAL processes (any tag).
    HalOnly,
    /// Only syscalls issued by the HAL process with this tag.
    HalTag(u32),
    /// Only syscalls issued by the native executor.
    NativeOnly,
}

impl TraceFilter {
    /// Whether an event from `origin` passes this filter.
    pub fn matches(self, origin: Origin) -> bool {
        match (self, origin) {
            (TraceFilter::All, _) => true,
            (TraceFilter::HalOnly, Origin::Hal(_)) => true,
            (TraceFilter::HalTag(t), Origin::Hal(o)) => t == o,
            (TraceFilter::NativeOnly, Origin::Native) => true,
            _ => false,
        }
    }
}

/// Capacity of a session's ring buffer.
pub const SESSION_CAPACITY: usize = 64 * 1024;

/// Handle identifying an attached trace session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u32);

/// An attached probe: filter plus event buffer.
#[derive(Debug, Clone)]
pub struct TraceSession {
    /// Which events are recorded.
    pub filter: TraceFilter,
    events: Vec<SyscallEvent>,
    dropped: usize,
}

impl TraceSession {
    /// Creates an empty session with the given filter.
    pub fn new(filter: TraceFilter) -> Self {
        Self {
            filter,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Records `event` if it passes the filter; drops (and counts) events
    /// past capacity.
    pub fn record(&mut self, event: &SyscallEvent) {
        if !self.filter.matches(event.origin) {
            return;
        }
        if self.events.len() >= SESSION_CAPACITY {
            self.dropped += 1;
            return;
        }
        self.events.push(event.clone());
    }

    /// Drains all buffered events in arrival order.
    pub fn drain(&mut self) -> Vec<SyscallEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains all buffered events into `out` in arrival order, keeping the
    /// session's buffer allocation. The reuse-friendly form of
    /// [`drain`](Self::drain).
    pub fn drain_into(&mut self, out: &mut Vec<SyscallEvent>) {
        out.append(&mut self.events);
    }

    /// Number of events dropped due to buffer overflow.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(origin: Origin) -> SyscallEvent {
        SyscallEvent {
            origin,
            nr: SyscallNr::Ioctl,
            critical: 0x1234,
            path: Some("/dev/x".into()),
            ok: true,
        }
    }

    #[test]
    fn filters_match_expected_origins() {
        assert!(TraceFilter::All.matches(Origin::System));
        assert!(TraceFilter::HalOnly.matches(Origin::Hal(3)));
        assert!(!TraceFilter::HalOnly.matches(Origin::Native));
        assert!(TraceFilter::HalTag(3).matches(Origin::Hal(3)));
        assert!(!TraceFilter::HalTag(3).matches(Origin::Hal(4)));
        assert!(TraceFilter::NativeOnly.matches(Origin::Native));
        assert!(!TraceFilter::NativeOnly.matches(Origin::Hal(1)));
    }

    #[test]
    fn session_records_in_order_and_drains() {
        let mut s = TraceSession::new(TraceFilter::HalOnly);
        s.record(&ev(Origin::Native));
        s.record(&ev(Origin::Hal(1)));
        s.record(&ev(Origin::Hal(2)));
        assert_eq!(s.len(), 2);
        let events = s.drain();
        assert_eq!(events[0].origin, Origin::Hal(1));
        assert_eq!(events[1].origin, Origin::Hal(2));
        assert!(s.is_empty());
    }

    #[test]
    fn session_drops_past_capacity() {
        let mut s = TraceSession::new(TraceFilter::All);
        for _ in 0..SESSION_CAPACITY + 5 {
            s.record(&ev(Origin::Native));
        }
        assert_eq!(s.len(), SESSION_CAPACITY);
        assert_eq!(s.dropped(), 5);
    }
}
