//! Per-process file-descriptor tables.

use crate::errno::Errno;
use std::fmt;
use std::sync::Arc;

/// A file descriptor, valid within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Identifier for an open-file object inside the kernel. Several fds (after
/// `dup`) may refer to the same object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpenFileId(pub u64);

/// What an open file refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// A character device registered in devfs, by node path.
    CharDev {
        /// The `/dev/...` path the object was opened through: the node
        /// handle created once when the device was registered, shared by
        /// every open file and trace event on it.
        path: Arc<str>,
    },
    /// A socket handled by a protocol driver.
    Socket {
        /// Address family.
        domain: u32,
        /// Socket type.
        ty: u32,
        /// Protocol.
        proto: u32,
    },
}

/// Kernel-side state of one open file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenFile {
    /// What the file refers to.
    pub kind: FileKind,
    /// Reference count (fds pointing at this object).
    pub refs: u32,
}

/// Maximum descriptors per process (`RLIMIT_NOFILE` stand-in).
pub const MAX_FDS: usize = 256;

/// A process's descriptor table mapping [`Fd`] to [`OpenFileId`].
///
/// Descriptors are handed out in ascending order and never reused within
/// a process, so the table is a vector sorted by descriptor: installing
/// appends, and lookups are binary searches.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    slots: Vec<(u32, OpenFileId)>,
    next: u32,
}

impl FdTable {
    /// Creates an empty table. Descriptors start at 3, as 0–2 are the
    /// standard streams.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            next: 3,
        }
    }

    /// Empties the table and restarts numbering at 3, keeping its storage
    /// for the next process that reuses it.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.next = 3;
    }

    fn position(&self, fd: Fd) -> Result<usize, Errno> {
        self.slots
            .binary_search_by_key(&fd.0, |&(slot, _)| slot)
            .map_err(|_| Errno::EBADF)
    }

    /// Installs `file` at the lowest free descriptor.
    ///
    /// # Errors
    ///
    /// Returns `EMFILE` when the table is full.
    pub fn install(&mut self, file: OpenFileId) -> Result<Fd, Errno> {
        if self.slots.len() >= MAX_FDS {
            return Err(Errno::EMFILE);
        }
        let fd = self.next;
        self.next += 1;
        self.slots.push((fd, file));
        Ok(Fd(fd))
    }

    /// Looks up the open file for `fd`.
    ///
    /// # Errors
    ///
    /// Returns `EBADF` for unknown descriptors.
    pub fn get(&self, fd: Fd) -> Result<OpenFileId, Errno> {
        self.position(fd).map(|i| self.slots[i].1)
    }

    /// Removes `fd`, returning the object it referred to.
    ///
    /// # Errors
    ///
    /// Returns `EBADF` for unknown descriptors.
    pub fn remove(&mut self, fd: Fd) -> Result<OpenFileId, Errno> {
        let i = self.position(fd)?;
        Ok(self.slots.remove(i).1)
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no live descriptors.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(fd, open-file)` pairs in ascending descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, OpenFileId)> + '_ {
        self.slots.iter().map(|&(fd, of)| (Fd(fd), of))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_allocates_ascending_from_three() {
        let mut t = FdTable::new();
        assert_eq!(t.install(OpenFileId(1)).unwrap(), Fd(3));
        assert_eq!(t.install(OpenFileId(2)).unwrap(), Fd(4));
        assert_eq!(t.get(Fd(3)).unwrap(), OpenFileId(1));
    }

    #[test]
    fn get_unknown_is_ebadf() {
        let t = FdTable::new();
        assert_eq!(t.get(Fd(3)), Err(Errno::EBADF));
    }

    #[test]
    fn remove_frees_slot() {
        let mut t = FdTable::new();
        let fd = t.install(OpenFileId(9)).unwrap();
        assert_eq!(t.remove(fd).unwrap(), OpenFileId(9));
        assert_eq!(t.get(fd), Err(Errno::EBADF));
        assert_eq!(t.remove(fd), Err(Errno::EBADF));
        assert!(t.is_empty());
    }

    #[test]
    fn table_enforces_rlimit() {
        let mut t = FdTable::new();
        for i in 0..MAX_FDS {
            t.install(OpenFileId(i as u64)).unwrap();
        }
        assert_eq!(t.install(OpenFileId(999)), Err(Errno::EMFILE));
    }
}
