//! The counter table: every cumulative counter family the fleet carries
//! across kills, resumes and the wire, declared once.
//!
//! A family is a struct of named `u64` counters (plain field writes on
//! the per-exec path) plus a [`CounterTable`] giving its text layout.
//! Every text form is derived from that table:
//!
//! ```text
//! # section faults                snapshot section      (section)
//! fault injected 12               snapshot line         (keyword key value)
//! faults injected=12 hangs=2 ...  journal record, wire  (section key=value ...)
//! stat ... f.injected=12 ...      per-shard wire stats  (tag.key=value)
//! ```
//!
//! Adding a family is one `counter_family!` declaration, an entry in
//! [`FAMILIES`], and a field in the structs that carry it.

use std::fmt::Write as _;

/// The text layout of one counter family.
#[derive(Debug, PartialEq, Eq)]
pub struct CounterTable {
    /// Snapshot section name (`# section <section>`); also the keyword
    /// of the family's journal records and wire lines.
    pub section: &'static str,
    /// Keyword opening each snapshot line: `<keyword> <key> <value>`.
    pub keyword: &'static str,
    /// Key prefix when the family shares a `key=value` line with others
    /// (`<tag>.<key>=<value>` in per-shard wire stats).
    pub tag: &'static str,
    /// Counter keys, in field and serialization order.
    pub keys: &'static [&'static str],
}

impl CounterTable {
    /// Splits a snapshot line `<keyword> <key> <value>` into its key and
    /// value; `None` when the line does not have that shape.
    pub fn split_line<'a>(&self, line: &'a str) -> Option<(&'a str, u64)> {
        let (key, value) = line.strip_prefix(self.keyword)?.strip_prefix(' ')?.split_once(' ')?;
        Some((key, value.trim().parse().ok()?))
    }
}

/// Every counter family, in snapshot section order.
pub const FAMILIES: [&CounterTable; 4] =
    [&FaultCounters::TABLE, &LintCounters::TABLE, &StoreCounters::TABLE, &NetCounters::TABLE];

/// The family whose section name (and record keyword) is `section`.
pub fn family(section: &str) -> Option<&'static CounterTable> {
    FAMILIES.into_iter().find(|table| table.section == section)
}

/// Parses space-separated `key=value` tokens onto `set` — the one token
/// codec of journal records and wire lines. Keys `set` refuses are
/// tolerated (forward compatibility); a malformed token fails the line.
pub fn parse_tokens(rest: &str, mut set: impl FnMut(&str, u64) -> bool) -> Option<()> {
    for token in rest.split(' ').filter(|t| !t.is_empty()) {
        let (key, value) = token.split_once('=')?;
        let _ = set(key, value.parse().ok()?);
    }
    Some(())
}

/// What every counter family shares, written once over its
/// [`CounterTable`]. `counter_family!` implements the three required
/// methods and gives each struct inherent `entries`/`set`/`absorb`/
/// `total` shims, so callers need not import this trait.
pub trait CounterFamily {
    /// The family's text layout.
    fn table(&self) -> &'static CounterTable;
    /// Counter `index`, in [`CounterTable::keys`] order.
    fn get(&self, index: usize) -> u64;
    /// Mutable counter `index`.
    fn slot(&mut self, index: usize) -> &mut u64;

    /// All counters as `(key, value)` pairs in table order.
    fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_
    where
        Self: Sized,
    {
        self.table().keys.iter().enumerate().map(|(i, &key)| (key, self.get(i)))
    }

    /// Sets a counter by key; `false` for an unknown key (tolerant
    /// parsers count those as rejected lines).
    fn set(&mut self, key: &str, value: u64) -> bool {
        let Some(index) = self.table().keys.iter().position(|&k| k == key) else {
            return false;
        };
        *self.slot(index) = value;
        true
    }

    /// Adds `other` into `self` (fleet-level or baseline aggregation).
    fn absorb(&mut self, other: &Self)
    where
        Self: Sized,
    {
        for index in 0..self.table().keys.len() {
            *self.slot(index) += other.get(index);
        }
    }

    /// Sum of all counters (quick "anything happened?" check).
    fn total(&self) -> u64 {
        (0..self.table().keys.len()).map(|index| self.get(index)).sum()
    }

    /// Appends the snapshot section: `# section <section>`, then one
    /// `<keyword> <key> <value>` line per counter.
    fn write_section(&self, out: &mut String) {
        let table = self.table();
        let _ = writeln!(out, "# section {}", table.section);
        for (index, key) in table.keys.iter().enumerate() {
            let _ = writeln!(out, "{} {key} {}", table.keyword, self.get(index));
        }
    }

    /// Applies one snapshot section line; `false` when the line is
    /// malformed or names an unknown counter.
    fn parse_line(&mut self, line: &str) -> bool {
        self.table().split_line(line).is_some_and(|(key, value)| self.set(key, value))
    }

    /// Appends ` <key>=<value>` per counter; `tagged` prefixes every key
    /// with `<tag>.` so several families can share one line.
    fn write_tokens(&self, out: &mut String, tagged: bool) {
        let table = self.table();
        let (tag, dot) = if tagged { (table.tag, ".") } else { ("", "") };
        for (index, key) in table.keys.iter().enumerate() {
            let _ = write!(out, " {tag}{dot}{key}={}", self.get(index));
        }
    }

    /// Appends the journal record / wire line form,
    /// `<section> <key>=<value> ...` (no newline).
    fn write_record(&self, out: &mut String) {
        out.push_str(self.table().section);
        self.write_tokens(out, false);
    }
}

/// One family's values detached from its struct — what a journal record
/// carries. It is a [`CounterFamily`] itself, so it shares every text
/// form with the struct it was taken from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    table: &'static CounterTable,
    values: Vec<u64>,
}

impl CounterRecord {
    /// A copy of `family`'s current values.
    pub fn of(family: &dyn CounterFamily) -> Self {
        let table = family.table();
        Self { table, values: (0..table.keys.len()).map(|i| family.get(i)).collect() }
    }

    /// Parses a record `<section> <key>=<value> ...` of any family.
    /// Counters the record omits are zero; `None` for a keyword that
    /// names no family or a malformed token.
    pub fn decode(line: &str) -> Option<Self> {
        let (section, rest) = line.split_once(' ').unwrap_or((line, ""));
        let table = family(section)?;
        let mut record = Self { table, values: vec![0; table.keys.len()] };
        parse_tokens(rest, |key, value| record.set(key, value))?;
        Some(record)
    }

    /// Overwrites the family of the same table among `targets` with
    /// these values (counter records are absolute totals).
    pub fn apply_to<'a>(&self, targets: impl IntoIterator<Item = &'a mut dyn CounterFamily>) {
        if let Some(target) = targets.into_iter().find(|t| t.table() == self.table) {
            for (index, &value) in self.values.iter().enumerate() {
                *target.slot(index) = value;
            }
        }
    }
}

impl CounterFamily for CounterRecord {
    fn table(&self) -> &'static CounterTable {
        self.table
    }

    fn get(&self, index: usize) -> u64 {
        self.values[index]
    }

    fn slot(&mut self, index: usize) -> &mut u64 {
        &mut self.values[index]
    }
}

/// Declares a counter family: a `Copy` struct with one documented
/// `pub u64` field per counter, its [`CounterTable`] (the keys are the
/// field names), and its [`CounterFamily`] impl.
macro_rules! counter_family {
    (
        $(#[$doc:meta])*
        pub struct $name:ident {
            section: $section:literal,
            keyword: $keyword:literal,
            tag: $tag:literal,
            counters: { $( $(#[$field_doc:meta])* $field:ident, )+ }
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$field_doc])* pub $field: u64, )+
        }

        impl $name {
            /// The family's text layout.
            pub const TABLE: CounterTable = CounterTable {
                section: $section,
                keyword: $keyword,
                tag: $tag,
                keys: &[$(stringify!($field)),+],
            };

            /// All counters as `(key, value)` pairs in table order.
            pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                CounterFamily::entries(self)
            }

            /// Sets a counter by key; `false` for an unknown key.
            pub fn set(&mut self, key: &str, value: u64) -> bool {
                CounterFamily::set(self, key, value)
            }

            /// Adds `other` into `self` (fleet-level aggregation).
            pub fn absorb(&mut self, other: &Self) {
                CounterFamily::absorb(self, other)
            }

            /// Sum of all counters.
            pub fn total(&self) -> u64 {
                CounterFamily::total(self)
            }
        }

        impl CounterFamily for $name {
            fn table(&self) -> &'static CounterTable {
                &Self::TABLE
            }

            fn get(&self, index: usize) -> u64 {
                [$(self.$field),+][index]
            }

            fn slot(&mut self, index: usize) -> &mut u64 {
                [$(&mut self.$field),+]
                    .into_iter()
                    .nth(index)
                    .expect("counter index within the family's table")
            }
        }
    };
}

counter_family! {
    /// Cumulative fault and recovery counters of the supervised execution
    /// layer, exported through the fleet snapshot so kill/resume
    /// round-trips them.
    pub struct FaultCounters {
        section: "faults",
        keyword: "fault",
        tag: "f",
        counters: {
            /// Faults injected by the plan (all kinds).
            injected,
            /// ADB link drops encountered.
            link_drops,
            /// Feedback replies delivered truncated.
            truncated_replies,
            /// Backoff-then-retry cycles performed.
            transient_retries,
            /// Executions abandoned after exhausting retries.
            gave_up,
            /// Executions aborted by the watchdog.
            hangs,
            /// Programs quarantined for repeated hangs.
            quarantined_programs,
            /// Silent device losses detected (wedge / dead HAL without report).
            device_lost,
            /// Re-provision attempts (reboot + liveness probe) performed.
            reprovisions,
            /// Spontaneous device reboots injected.
            spontaneous_reboots,
        }
    }
}

counter_family! {
    /// Cumulative lint-gate outcomes. Clean programs pass uncounted; only
    /// programs the gate had to rewrite (`repaired`) or discard
    /// (`rejected`) appear here.
    pub struct LintCounters {
        section: "lint",
        keyword: "lint",
        tag: "l",
        counters: {
            /// Programs discarded because repair could not clear every error.
            rejected,
            /// Programs rewritten by auto-repair and allowed through.
            repaired,
            /// Programs discarded because abstract interpretation proved every
            /// driver call fails and prerequisite insertion could not fix it.
            absint_rejected,
            /// Programs rescued by inserting prerequisite transitions.
            absint_repaired,
        }
    }
}

counter_family! {
    /// Durability and recovery counters of the crash-safe store.
    pub struct StoreCounters {
        section: "store",
        keyword: "store",
        tag: "s",
        counters: {
            /// Journal records appended.
            journal_records,
            /// Journal payload bytes appended (before framing).
            journal_bytes,
            /// Snapshot generations written.
            snapshots_written,
            /// Journal compactions (rotations into a fresh generation).
            compactions,
            /// Rounds that skipped re-serializing the full snapshot
            /// (checkpoint cadence in effect).
            snapshots_skipped,
            /// Recoveries performed from on-disk state.
            recoveries,
            /// Journal records replayed during recovery.
            replayed_records,
            /// Journal bytes dropped after the first corrupt record.
            dropped_bytes,
            /// Snapshot generations skipped over because they failed validation.
            fell_back_generations,
            /// Malformed snapshot lines counted by the tolerant parser during
            /// recovery.
            malformed_lines,
            /// Storage operations that failed (durability degraded, campaign
            /// continued).
            io_errors,
        }
    }
}

counter_family! {
    /// Wire-layer counters. Per-session counters are absorbed into the
    /// hub's totals; sums are order-independent, so reliable-link
    /// distributed runs reproduce them bit-for-bit.
    pub struct NetCounters {
        section: "net",
        keyword: "net",
        tag: "n",
        counters: {
            /// Frames written to a transport.
            frames_sent,
            /// Frames successfully decoded from a transport.
            frames_received,
            /// Payload bytes sent (before framing).
            bytes_sent,
            /// Payload bytes received (after validation).
            bytes_received,
            /// Frames rejected as garbage or failing CRC.
            malformed_frames,
            /// Frames rejected as truncated.
            truncated_frames,
            /// Frames rejected for declaring an oversized length.
            oversized_frames,
            /// Duplicate frames/messages detected and dropped (replays after
            /// a reconnect, duplicated deliveries on a faulty link).
            dup_frames,
            /// Link-level retries (reconnect attempts, resent messages).
            link_retries,
            /// Successful reconnects after a link loss.
            reconnects,
            /// Worker sessions accepted by the hub.
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fieldwise() {
        let mut a = LintCounters { rejected: 2, repaired: 1, absint_rejected: 1, absint_repaired: 0 };
        a.absorb(&LintCounters { rejected: 3, repaired: 4, absint_rejected: 2, absint_repaired: 5 });
        assert_eq!(
            a,
            LintCounters { rejected: 5, repaired: 5, absint_rejected: 3, absint_repaired: 5 }
        );
        assert_eq!(a.total(), 18);
        let mut s = StoreCounters { journal_records: 3, dropped_bytes: 7, ..Default::default() };
        s.absorb(&StoreCounters { journal_records: 2, recoveries: 1, ..Default::default() });
        assert_eq!((s.journal_records, s.recoveries, s.total()), (5, 1, 13));
    }

    #[test]
    fn entries_and_set_round_trip() {
        let a = LintCounters { rejected: 7, repaired: 9, absint_rejected: 2, absint_repaired: 4 };
        let mut b = LintCounters::default();
        for (key, value) in a.entries() {
            assert!(b.set(key, value), "{key} is settable");
        }
        assert_eq!(a, b);
        assert!(!b.set("no_such_counter", 1));
        let mut n = NetCounters::default();
        assert!(n.set("sessions", 9));
        assert_eq!(n.sessions, 9);
    }

    #[test]
    fn every_family_declares_distinct_names_and_its_field_count() {
        use std::collections::BTreeSet;
        let sections: BTreeSet<_> = FAMILIES.iter().map(|t| t.section).collect();
        let tags: BTreeSet<_> = FAMILIES.iter().map(|t| t.tag).collect();
        assert_eq!((sections.len(), tags.len()), (FAMILIES.len(), FAMILIES.len()));
        let lens: Vec<usize> = FAMILIES.iter().map(|t| t.keys.len()).collect();
        assert_eq!(lens, [10, 4, 11, 11]);
        assert_eq!(FaultCounters::default().entries().count(), 10);
        for table in FAMILIES {
            assert_eq!(family(table.section), Some(table));
        }
        assert_eq!(family("corpus"), None);
    }

    #[test]
    fn text_forms_are_pinned() {
        let lint =
            LintCounters { rejected: 1, repaired: 2, absint_rejected: 3, absint_repaired: 4 };
        let mut section = String::new();
        lint.write_section(&mut section);
        assert_eq!(
            section,
            "# section lint\nlint rejected 1\nlint repaired 2\n\
             lint absint_rejected 3\nlint absint_repaired 4\n"
        );
        let mut record = String::new();
        lint.write_record(&mut record);
        assert_eq!(record, "lint rejected=1 repaired=2 absint_rejected=3 absint_repaired=4");
        let mut tagged = String::new();
        lint.write_tokens(&mut tagged, true);
        assert_eq!(tagged, " l.rejected=1 l.repaired=2 l.absint_rejected=3 l.absint_repaired=4");
    }

    #[test]
    fn snapshot_lines_parse_strictly() {
        let mut faults = FaultCounters::default();
        assert!(faults.parse_line("fault hangs 3"));
        assert!(faults.parse_line("fault gave_up  7 "), "value is trimmed");
        assert_eq!((faults.hangs, faults.gave_up), (3, 7));
        for bad in ["fault no_such_counter 3", "fault hangs x", "faults hangs 3", "fault hangs"] {
            assert!(!faults.parse_line(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn records_decode_apply_and_tolerate_unknown_keys() {
        let record = CounterRecord::decode("faults injected=3 from_the_future=9").unwrap();
        let mut faults = FaultCounters { hangs: 5, ..Default::default() };
        let mut lint = LintCounters::default();
        record.apply_to([&mut lint as &mut dyn CounterFamily, &mut faults]);
        assert_eq!(faults, FaultCounters { injected: 3, ..Default::default() }, "absolute");
        assert_eq!(lint, LintCounters::default());
        assert_eq!(record, CounterRecord::of(&faults));
        for bad in ["faults injected=x", "faults injected", "corpus a=1", ""] {
            assert!(CounterRecord::decode(bad).is_none(), "{bad:?} decoded");
        }
        let empty = CounterRecord::decode("net").unwrap();
        assert_eq!(empty, CounterRecord::of(&NetCounters::default()));
    }
}
