//! Fleet checkpoint/resume: serializes the hub's persistent data — live
//! corpus, merged relation graph, union coverage and its time series, and
//! the deduplicated crash database — into one line-oriented text snapshot
//! that can be written to disk mid-campaign and restored after a kill.
//!
//! Layout (sections in fixed order; the corpus goes last because its body
//! is free-form program text):
//!
//! ```text
//! # droidfuzz-fleet-snapshot v1 round=<n> clock_us=<t>
//! # section relations
//! <RelationGraph::export text>
//! # section coverage
//! block <hex>
//! # section series
//! sample <time_us> <value>
//! # section crashes
//! crash <count>\t<first_seen_us>\t<kind>\t<component>\t<title>\t<repro|->
//! # section <family>             one section per counter family, laid
//! <keyword> <counter> <value>    out by droidfuzz_analysis::counters
//! # section corpus
//! <Corpus::export text>
//! ```
//!
//! Parsing is tolerant the same way corpus import is: malformed lines are
//! counted and skipped, never fatal, so a truncated snapshot restores
//! everything it still carries.

use super::hub::CorpusHub;
use crate::crashes::CrashRecord;
use crate::net::NetCounters;
use crate::store::StoreCounters;
use crate::supervisor::FaultCounters;
use droidfuzz_analysis::{CounterFamily, LintCounters};
use fuzzlang::desc::DescTable;
use simkernel::coverage::Block;
use simkernel::report::{BugKind, Component};
use std::fmt::Write as _;

/// Snapshot format magic + version, the required first-line prefix.
pub const SNAPSHOT_HEADER: &str = "# droidfuzz-fleet-snapshot v1";

/// A parsed (or captured) fleet snapshot.
#[derive(Debug, Clone, Default)]
pub struct FleetSnapshot {
    /// Sync rounds completed when the snapshot was taken.
    pub round: usize,
    /// Fleet virtual clock at the snapshot, µs.
    pub clock_us: u64,
    /// [`RelationGraph::export`] text (empty when no shard learned).
    ///
    /// [`RelationGraph::export`]: crate::relation::RelationGraph::export
    pub relations_text: String,
    /// Union coverage block ids.
    pub coverage: Vec<u64>,
    /// Union-coverage-over-time samples.
    pub series: Vec<(u64, f64)>,
    /// Deduplicated fleet crashes.
    pub crashes: Vec<CrashRecord>,
    /// Fault/recovery counters accumulated over the whole campaign
    /// (including pre-kill rounds); a resume treats these as its
    /// baseline.
    pub fault_totals: FaultCounters,
    /// Lint-gate counters accumulated over the whole campaign; a resume
    /// treats these as its baseline, like `fault_totals`.
    pub lint_totals: LintCounters,
    /// Durability counters accumulated over the whole campaign; a resume
    /// treats these as its baseline, like `fault_totals`.
    pub store_totals: StoreCounters,
    /// Wire-layer counters accumulated over the whole campaign; a resume
    /// treats these as its baseline, like `fault_totals`. All-zero for a
    /// purely local campaign.
    pub net_totals: NetCounters,
    /// [`Corpus::export`]-format text of the hub's live seeds.
    ///
    /// [`Corpus::export`]: crate::corpus::Corpus::export
    pub corpus_text: String,
    /// Malformed lines skipped during [`parse`](Self::parse) (0 for a
    /// freshly captured snapshot). Store recovery propagates this count
    /// into its [`RecoveryReport`](crate::store::RecoveryReport).
    pub malformed_lines: usize,
}

fn kind_tag(kind: BugKind) -> &'static str {
    match kind {
        BugKind::Warning => "warning",
        BugKind::Bug => "bug",
        BugKind::KasanUseAfterFree => "kasan-uaf",
        BugKind::KasanInvalidAccess => "kasan-invalid",
        BugKind::SoftLockup => "soft-lockup",
        BugKind::Panic => "panic",
        BugKind::NativeCrash => "native-crash",
    }
}

fn parse_kind(tag: &str) -> Option<BugKind> {
    Some(match tag {
        "warning" => BugKind::Warning,
        "bug" => BugKind::Bug,
        "kasan-uaf" => BugKind::KasanUseAfterFree,
        "kasan-invalid" => BugKind::KasanInvalidAccess,
        "soft-lockup" => BugKind::SoftLockup,
        "panic" => BugKind::Panic,
        "native-crash" => BugKind::NativeCrash,
        _ => return None,
    })
}

fn component_tag(component: Component) -> &'static str {
    match component {
        Component::KernelDriver => "kernel-driver",
        Component::KernelSubsystem => "kernel-subsystem",
        Component::Hal => "hal",
    }
}

fn parse_component(tag: &str) -> Option<Component> {
    Some(match tag {
        "kernel-driver" => Component::KernelDriver,
        "kernel-subsystem" => Component::KernelSubsystem,
        "hal" => Component::Hal,
        _ => return None,
    })
}

/// Escapes a field so it fits on one tab-separated line: a backslash,
/// newline and tab become `\\`, `\n` and `\t`; the runs between them
/// are copied whole.
pub(crate) fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(&mut out, text);
    out
}

/// [`escape`], appending to `out`.
pub(crate) fn escape_into(out: &mut String, text: &str) {
    let mut run = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escaped = match byte {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            _ => continue,
        };
        out.push_str(&text[run..at]);
        out.push_str(escaped);
        run = at + 1;
    }
    out.push_str(&text[run..]);
}

/// Inverts [`escape`]. An unknown escape keeps the escaped character
/// and drops the backslash; a trailing backslash stays.
pub(crate) fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut escaped = rest[at + 1..].chars();
        out.push(match escaped.next() {
            Some('n') => '\n',
            Some('t') => '\t',
            Some(other) => other,
            None => '\\',
        });
        rest = escaped.as_str();
    }
    out.push_str(rest);
    out
}

impl FleetSnapshot {
    /// Captures the hub's state. `table` resolves relation-edge names;
    /// `round`/`clock_us` stamp the fleet's position for resume;
    /// `fault_totals` carries the campaign's cumulative fault/recovery
    /// counters across a kill.
    #[allow(clippy::too_many_arguments)] // one positional slot per snapshot section
    pub fn capture(
        hub: &CorpusHub,
        table: &DescTable,
        round: usize,
        clock_us: u64,
        fault_totals: FaultCounters,
        lint_totals: LintCounters,
        store_totals: StoreCounters,
        net_totals: NetCounters,
    ) -> Self {
        Self {
            round,
            clock_us,
            relations_text: hub.relations().map(|g| g.export(table)).unwrap_or_default(),
            coverage: hub.coverage_blocks().iter().map(|b| b.0).collect(),
            series: hub.series().points().to_vec(),
            crashes: hub.crashes().records().into_iter().cloned().collect(),
            fault_totals,
            lint_totals,
            store_totals,
            net_totals,
            corpus_text: hub.corpus_text(),
            malformed_lines: 0,
        }
    }

    /// The counter families, in snapshot section order.
    pub(crate) fn counters(&self) -> [&dyn CounterFamily; 4] {
        [&self.fault_totals, &self.lint_totals, &self.store_totals, &self.net_totals]
    }

    /// Mutable [`counters`](Self::counters), in the same order.
    pub(crate) fn counters_mut(&mut self) -> [&mut dyn CounterFamily; 4] {
        let Self { fault_totals, lint_totals, store_totals, net_totals, .. } = self;
        [fault_totals, lint_totals, store_totals, net_totals]
    }

    /// Serializes to snapshot text. `parse` → `to_text` is byte-identical
    /// for a clean snapshot.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(
            self.relations_text.len() + self.corpus_text.len() + 16 * self.coverage.len() + 512,
        );
        let _ = writeln!(out, "{SNAPSHOT_HEADER} round={} clock_us={}", self.round, self.clock_us);
        out.push_str("# section relations\n");
        out.push_str(&self.relations_text);
        out.push_str("# section coverage\n");
        for block in &self.coverage {
            let _ = writeln!(out, "block {block:x}");
        }
        out.push_str("# section series\n");
        for &(t, v) in &self.series {
            let _ = writeln!(out, "sample {t} {v}");
        }
        out.push_str("# section crashes\n");
        for crash in &self.crashes {
            let _ = writeln!(out, "crash {}", crash_fields(crash));
        }
        for counters in self.counters() {
            counters.write_section(&mut out);
        }
        out.push_str("# section corpus\n");
        out.push_str(&self.corpus_text);
        out
    }

    /// Parses snapshot text. Fails only on a missing/foreign header;
    /// malformed section lines are skipped and counted in
    /// `malformed_lines`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if !header.starts_with(SNAPSHOT_HEADER) {
            return Err(format!("not a fleet snapshot (expected `{SNAPSHOT_HEADER} ...`)"));
        }
        let mut snap = FleetSnapshot::default();
        for field in header.split_whitespace() {
            if let Some(v) = field.strip_prefix("round=") {
                snap.round = v.parse().map_err(|_| "bad round in header".to_owned())?;
            } else if let Some(v) = field.strip_prefix("clock_us=") {
                snap.clock_us = v.parse().map_err(|_| "bad clock_us in header".to_owned())?;
            }
        }
        #[derive(PartialEq)]
        enum Section {
            None,
            Relations,
            Coverage,
            Series,
            Crashes,
            /// A counter family, by its index in [`FleetSnapshot::counters`].
            Counters(usize),
            Corpus,
        }
        let mut section = Section::None;
        for line in lines {
            if let Some(name) = line.strip_prefix("# section ") {
                section = match name.trim() {
                    "relations" => Section::Relations,
                    "coverage" => Section::Coverage,
                    "series" => Section::Series,
                    "crashes" => Section::Crashes,
                    "corpus" => Section::Corpus,
                    other => match snap.counters().iter().position(|c| c.table().section == other) {
                        Some(index) => Section::Counters(index),
                        None => {
                            snap.malformed_lines += 1;
                            Section::None
                        }
                    },
                };
                continue;
            }
            match section {
                // Relations and corpus keep their verbatim text; their own
                // importers do the per-line validation.
                Section::Relations => {
                    snap.relations_text.push_str(line);
                    snap.relations_text.push('\n');
                }
                Section::Corpus => {
                    snap.corpus_text.push_str(line);
                    snap.corpus_text.push('\n');
                }
                Section::Coverage => {
                    match line.strip_prefix("block ").and_then(|v| u64::from_str_radix(v, 16).ok())
                    {
                        Some(block) => snap.coverage.push(block),
                        None => snap.malformed_lines += 1,
                    }
                }
                Section::Series => {
                    let parsed = line.strip_prefix("sample ").and_then(|rest| {
                        let (t, v) = rest.split_once(' ')?;
                        let v: f64 = v.parse().ok()?;
                        v.is_finite().then_some((t.parse::<u64>().ok()?, v))
                    });
                    // A timestamp that runs backwards is corrupt input the
                    // same way a malformed line is: skip it, so the series
                    // restores monotonic (`Series::push_monotonic` would
                    // refuse it downstream anyway).
                    match parsed {
                        Some((t, _)) if snap.series.last().is_some_and(|&(lt, _)| lt > t) => {
                            snap.malformed_lines += 1;
                        }
                        Some(point) => snap.series.push(point),
                        None => snap.malformed_lines += 1,
                    }
                }
                Section::Crashes => match parse_crash_line(line) {
                    Some(record) => snap.crashes.push(record),
                    None => snap.malformed_lines += 1,
                },
                Section::Counters(index) => {
                    if !snap.counters_mut()[index].parse_line(line) {
                        snap.malformed_lines += 1;
                    }
                }
                Section::None => {
                    if !line.trim().is_empty() {
                        snap.malformed_lines += 1;
                    }
                }
            }
        }
        Ok(snap)
    }

    /// Installs the snapshot's state into a fresh hub. The relation graph
    /// needs a vocabulary, so it is rebuilt by the caller (the fleet has
    /// the engines' [`DescTable`]) — this restores everything else.
    pub fn restore_into(&self, hub: &mut CorpusHub) {
        hub.publish_corpus(super::hub::HUB_ORIGIN, &self.corpus_text);
        hub.set_baseline_crashes(&self.crashes);
        hub.publish_coverage(self.coverage.iter().map(|&b| Block(b)));
        hub.restore_series(&self.series);
    }
}

/// The six tab-separated fields of a crash line (everything after the
/// `crash ` keyword) — shared between the snapshot's crashes section and
/// the journal's `crash` delta so both round-trip through
/// [`parse_crash_line`].
pub(crate) fn crash_fields(crash: &CrashRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}",
        crash.count,
        crash.first_seen_us,
        kind_tag(crash.kind),
        component_tag(crash.component),
        escape(&crash.title),
        crash.repro.as_deref().map_or_else(|| "-".to_owned(), escape),
    )
}

pub(crate) fn parse_crash_line(line: &str) -> Option<CrashRecord> {
    let rest = line.strip_prefix("crash ")?;
    let fields: Vec<&str> = rest.splitn(6, '\t').collect();
    if fields.len() != 6 {
        return None;
    }
    let repro = match fields[5] {
        "-" => None,
        escaped => Some(unescape(escaped)),
    };
    Some(CrashRecord {
        count: fields[0].parse().ok()?,
        first_seen_us: fields[1].parse().ok()?,
        kind: parse_kind(fields[2])?,
        component: parse_component(fields[3])?,
        title: unescape(fields[4]),
        repro,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_snapshot() -> FleetSnapshot {
        FleetSnapshot {
            round: 2,
            clock_us: 1_800_000_000,
            relations_text: "# relation-graph learns=3\nedge a\tb\t0.5\n".to_owned(),
            coverage: vec![0x10, 0x2f],
            series: vec![(900_000_000, 1.0), (1_800_000_000, 2.0)],
            crashes: vec![CrashRecord {
                title: "WARNING in v4l_querycap".to_owned(),
                kind: BugKind::Warning,
                component: Component::KernelDriver,
                count: 3,
                first_seen_us: 42,
                repro: Some("r0 = openat$/dev/video0()\n".to_owned()),
            }],
            fault_totals: FaultCounters {
                injected: 12,
                link_drops: 5,
                transient_retries: 4,
                hangs: 2,
                device_lost: 1,
                reprovisions: 1,
                ..Default::default()
            },
            lint_totals: LintCounters { rejected: 4, repaired: 9, absint_rejected: 2, absint_repaired: 6 },
            store_totals: StoreCounters {
                journal_records: 31,
                snapshots_written: 2,
                snapshots_skipped: 5,
                ..Default::default()
            },
            net_totals: NetCounters {
                frames_sent: 40,
                frames_received: 38,
                dup_frames: 2,
                reconnects: 1,
                sessions: 2,
                ..Default::default()
            },
            corpus_text: "# seed 0 signals=7\nr0 = openat$/dev/video0()\n\n".to_owned(),
            malformed_lines: 0,
        }
    }

    #[test]
    fn text_roundtrip_is_byte_identical() {
        let snap = sample_snapshot();
        let text = snap.to_text();
        let parsed = FleetSnapshot::parse(&text).expect("clean snapshot parses");
        assert_eq!(parsed.malformed_lines, 0);
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.round, 2);
        assert_eq!(parsed.clock_us, 1_800_000_000);
        assert_eq!(parsed.coverage, vec![0x10, 0x2f]);
        assert_eq!(parsed.series, vec![(900_000_000, 1.0), (1_800_000_000, 2.0)]);
        assert_eq!(parsed.crashes[0].title, "WARNING in v4l_querycap");
        assert_eq!(parsed.crashes[0].repro.as_deref(), Some("r0 = openat$/dev/video0()\n"));
        assert_eq!(parsed.fault_totals, snap.fault_totals, "fault counters round-trip");
        assert_eq!(parsed.fault_totals.injected, 12);
        assert_eq!(parsed.lint_totals, snap.lint_totals, "lint counters round-trip");
        assert_eq!(parsed.lint_totals.repaired, 9);
        assert_eq!(parsed.store_totals, snap.store_totals, "store counters round-trip");
        assert_eq!(parsed.store_totals.journal_records, 31);
        assert_eq!(parsed.net_totals, snap.net_totals, "net counters round-trip");
        assert_eq!(parsed.net_totals.frames_sent, 40);
    }

    #[test]
    fn counter_sections_are_pinned() {
        let text = sample_snapshot().to_text();
        let start = text.find("# section faults\n").expect("faults section");
        let end = text.find("# section corpus\n").expect("corpus section");
        assert_eq!(
            &text[start..end],
            "# section faults\n\
             fault injected 12\n\
             fault link_drops 5\n\
             fault truncated_replies 0\n\
             fault transient_retries 4\n\
             fault gave_up 0\n\
             fault hangs 2\n\
             fault quarantined_programs 0\n\
             fault device_lost 1\n\
             fault reprovisions 1\n\
             fault spontaneous_reboots 0\n\
             # section lint\n\
             lint rejected 4\n\
             lint repaired 9\n\
             lint absint_rejected 2\n\
             lint absint_repaired 6\n\
             # section store\n\
             store journal_records 31\n\
             store journal_bytes 0\n\
             store snapshots_written 2\n\
             store compactions 0\n\
             store snapshots_skipped 5\n\
             store recoveries 0\n\
             store replayed_records 0\n\
             store dropped_bytes 0\n\
             store fell_back_generations 0\n\
             store malformed_lines 0\n\
             store io_errors 0\n\
             # section net\n\
             net frames_sent 40\n\
             net frames_received 38\n\
             net bytes_sent 0\n\
             net bytes_received 0\n\
             net malformed_frames 0\n\
             net truncated_frames 0\n\
             net oversized_frames 0\n\
             net dup_frames 2\n\
             net link_retries 0\n\
             net reconnects 1\n\
             net sessions 2\n"
        );
    }

    #[test]
    fn parse_rejects_foreign_text() {
        assert!(FleetSnapshot::parse("").is_err());
        assert!(FleetSnapshot::parse("# seed 0 signals=1\nr0 = x()\n").is_err());
    }

    #[test]
    fn parse_survives_malformed_lines() {
        let mut text = sample_snapshot().to_text();
        text.push_str("# section coverage\nblock nothex\nblock 3e\n");
        text.push_str("# section series\nsample garbage\nsample 10 NaN\n");
        text.push_str("# section crashes\ncrash truncated\n");
        text.push_str("# section faults\nfault no_such_counter 3\nfault hangs notanumber\n");
        text.push_str("# section lint\nlint no_such_counter 3\nlint repaired notanumber\n");
        text.push_str("# section store\nstore no_such_counter 3\nstore recoveries notanumber\n");
        text.push_str("# section net\nnet no_such_counter 3\nnet dup_frames notanumber\n");
        let parsed = FleetSnapshot::parse(&text).expect("tolerant parse");
        assert_eq!(parsed.malformed_lines, 12);
        assert!(parsed.coverage.contains(&0x3e), "good lines after bad ones still land");
        assert_eq!(parsed.crashes.len(), 1);
        assert_eq!(parsed.fault_totals.hangs, 2, "bad fault lines leave good counters alone");
        assert_eq!(parsed.lint_totals.repaired, 9, "bad lint lines leave good counters alone");
        assert_eq!(parsed.store_totals.journal_records, 31, "bad store lines too");
        assert_eq!(parsed.net_totals.dup_frames, 2, "bad net lines too");
    }

    #[test]
    fn parse_rejects_time_travelling_samples() {
        let mut snap = sample_snapshot();
        snap.series = vec![(100, 1.0), (50, 9.0), (200, 2.0)];
        let parsed = FleetSnapshot::parse(&snap.to_text()).expect("tolerant parse");
        assert_eq!(parsed.series, vec![(100, 1.0), (200, 2.0)], "backwards sample dropped");
        assert_eq!(parsed.malformed_lines, 1);
    }

    #[test]
    fn truncated_snapshot_restores_prefix() {
        let full = sample_snapshot().to_text();
        // Cut mid-way through the crashes section.
        let cut = full.find("# section crashes").unwrap() + "# section crashes\ncrash 3".len();
        let parsed = FleetSnapshot::parse(&full[..cut]).expect("prefix parses");
        assert_eq!(parsed.coverage.len(), 2);
        assert_eq!(parsed.series.len(), 2);
        assert_eq!(parsed.crashes.len(), 0, "the torn crash line is dropped");
        assert_eq!(parsed.malformed_lines, 1);
    }

    #[test]
    fn escape_roundtrips_control_characters() {
        let nasty = "title with\ttab and\nnewline and \\backslash";
        assert_eq!(unescape(&escape(nasty)), nasty);
        assert!(!escape(nasty).contains('\n'));
        assert!(!escape(nasty).contains('\t'));
    }

    /// The char-by-char escape codec the run-copying one replaced.
    mod reference {
        pub fn escape(text: &str) -> String {
            let mut out = String::with_capacity(text.len());
            for c in text.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    other => out.push(other),
                }
            }
            out
        }

        pub fn unescape(text: &str) -> String {
            let mut out = String::with_capacity(text.len());
            let mut chars = text.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    Some(other) => out.push(other),
                    None => out.push('\\'),
                }
            }
            out
        }
    }

    /// Pieces the proptest strings are built from: escapes known and
    /// unknown, a literal `\\n`, multi-byte UTF-8 and plain runs.
    const PIECES: [&str; 12] =
        ["a", "plain run", "\\", "\n", "\t", "n", "t", "\\r", "\\\\n", "é", "日本", "\u{1F600}"];

    proptest! {
        #[test]
        fn escape_codec_matches_the_charwise_reference(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..40),
            trailing_backslash in 0u8..2,
        ) {
            let mut text: String = picks.iter().map(|&i| PIECES[i]).collect();
            if trailing_backslash == 1 {
                text.push('\\');
            }
            prop_assert_eq!(escape(&text), reference::escape(&text));
            prop_assert_eq!(unescape(&text), reference::unescape(&text));
            prop_assert_eq!(unescape(&escape(&text)), text);
        }
    }

    #[test]
    fn restore_into_rebuilds_hub_state() {
        let snap = sample_snapshot();
        let mut hub = CorpusHub::new(64);
        snap.restore_into(&mut hub);
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.union_coverage(), 2);
        assert_eq!(hub.crashes().len(), 1);
        assert_eq!(hub.series().points().len(), 2);
        // Restored seeds are visible to every shard.
        assert_eq!(hub.pull_corpus(0, 0).2, 1);
    }
}
