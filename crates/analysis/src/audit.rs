//! Engine-state auditing over the persistent text formats: relation-graph
//! exports, corpus exports, and fleet snapshots.
//!
//! The auditors work on the *serialized* forms (the same text the daemon
//! writes to disk and the fleet ships between shards) so they can check
//! state without depending on the fuzzer core — and so `droidfuzz-lint`
//! can audit a snapshot file nothing else has loaded yet.
//!
//! Checked invariants:
//!
//! * **Relation graph** — Eq. 1 (§IV-C): the in-weights of every vertex
//!   sum to at most 1. Individual weights must be finite, non-negative,
//!   and at most 1. Zero-weight edges (which pin an orphan vertex without
//!   contributing sampling mass), self-edges, duplicate edges, and edges
//!   below the decay floor `1e-4` (learn's halving can push an edge there
//!   between decays; the next decay prunes it) are flagged without being
//!   errors.
//! * **Corpus** — every seed record parses and its program passes
//!   [`check_prog`]; damaged headers and empty records are warnings, the
//!   same lines `Corpus::import` would skip.
//! * **Fleet snapshot** — the section framing itself, plus the nested
//!   relations and corpus audits.

use crate::check::check_prog;
use crate::counters;
use crate::diag::{Report, Severity};
use fuzzlang::desc::DescTable;
use fuzzlang::text::parse_prog;
use std::collections::{BTreeMap, BTreeSet};

/// Decay floor of the relation graph (edges below it are pruned by the
/// next decay round; see `RelationGraph::decay`).
pub const DECAY_FLOOR: f64 = 1e-4;

/// Tolerance on the Eq. 1 in-weight bound (matches the graph's own
/// normalization tolerance, so clean exports audit clean).
pub const EQ1_TOLERANCE: f64 = 1e-9;

/// Snapshot format magic + version (mirrors `fleet::SNAPSHOT_HEADER`; the
/// format is a documented wire format, not an internal detail).
const SNAPSHOT_HEADER: &str = "# droidfuzz-fleet-snapshot v1";

/// Audits a `RelationGraph::export` dump against Eq. 1 and the decay
/// bounds. `table` resolves vertex names; edges naming unknown calls are
/// warnings (an import would skip them).
pub fn audit_relations(text: &str, table: &DescTable) -> Report {
    let mut report = Report::new();
    let mut in_sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("# relation-graph ") {
            let readable = header
                .split("learns=")
                .nth(1)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .is_some();
            if !readable {
                report.push(
                    Severity::Warning,
                    "relation-bad-header",
                    None,
                    format!("line {lineno}: unreadable learns= count"),
                );
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let fields: Option<(&str, &str, f64)> = line.strip_prefix("edge ").and_then(|rest| {
            let mut parts = rest.split('\t');
            let a = parts.next()?;
            let b = parts.next()?;
            let w: f64 = parts.next()?.parse().ok()?;
            Some((a, b, w))
        });
        let Some((a, b, w)) = fields else {
            report.push(
                Severity::Warning,
                "relation-malformed-line",
                None,
                format!("line {lineno}: neither an edge nor a header (an import would skip it)"),
            );
            continue;
        };
        if !w.is_finite() || w < 0.0 {
            report.push(
                Severity::Error,
                "relation-weight-invalid",
                None,
                format!("line {lineno}: edge {a} -> {b} has weight {w}, not a probability"),
            );
            continue;
        }
        if w > 1.0 + EQ1_TOLERANCE {
            report.push(
                Severity::Error,
                "relation-weight-excess",
                None,
                format!("line {lineno}: edge {a} -> {b} has weight {w} > 1, breaking Eq. 1 alone"),
            );
            continue;
        }
        for name in [a, b] {
            if table.id_of(name).is_none() {
                report.push(
                    Severity::Warning,
                    "relation-unknown-vertex",
                    None,
                    format!("line {lineno}: `{name}` is not in the vocabulary (an import would skip the edge)"),
                );
            }
        }
        if a == b {
            report.push(
                Severity::Warning,
                "relation-self-edge",
                None,
                format!("line {lineno}: self-edge on {a} (learn never records these)"),
            );
        }
        if !seen.insert((a.to_owned(), b.to_owned())) {
            report.push(
                Severity::Warning,
                "relation-duplicate-edge",
                None,
                format!("line {lineno}: edge {a} -> {b} repeated; a re-import keeps only the last weight"),
            );
        }
        if w == 0.0 {
            report.push(
                Severity::Warning,
                "relation-orphan-edge",
                None,
                format!("line {lineno}: zero-weight edge {a} -> {b} pins an orphan vertex without sampling mass"),
            );
        } else if w < DECAY_FLOOR {
            report.push(
                Severity::Info,
                "relation-below-decay-floor",
                None,
                format!("line {lineno}: edge {a} -> {b} weight {w} is below the decay floor {DECAY_FLOOR}; the next decay prunes it"),
            );
        }
        if table.id_of(a).is_some() && table.id_of(b).is_some() {
            *in_sums.entry(b.to_owned()).or_default() += w;
        }
    }
    for (target, sum) in in_sums {
        if sum > 1.0 + EQ1_TOLERANCE {
            report.push(
                Severity::Error,
                "relation-eq1-violation",
                None,
                format!("in-weights of {target} sum to {sum} > 1 (Eq. 1 requires a distribution)"),
            );
        }
    }
    report
}

/// Audits a `Corpus::export` dump: each seed record must parse and its
/// program is linted; record framing problems mirror what the importer
/// would skip.
pub fn audit_corpus(text: &str, table: &DescTable) -> Report {
    let mut report = Report::new();
    for (i, chunk) in text.split("# seed ").enumerate() {
        if chunk.trim().is_empty() {
            continue;
        }
        let body: String = chunk
            .lines()
            .filter(|l| l.starts_with('r'))
            .map(|l| format!("{l}\n"))
            .collect();
        if body.is_empty() {
            // The split's first chunk (text before any header) is preamble
            // noise, not a seed record.
            if i > 0 {
                report.push(
                    Severity::Warning,
                    "seed-empty",
                    None,
                    format!("seed record {i} has a header but no program lines"),
                );
            }
            continue;
        }
        if i > 0 {
            let readable = chunk
                .lines()
                .next()
                .and_then(|header| header.split("signals=").nth(1))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .is_some();
            if !readable {
                report.push(
                    Severity::Warning,
                    "seed-bad-header",
                    None,
                    format!("seed record {i}: unreadable signals= score (imports default it to 1)"),
                );
            }
        }
        match parse_prog(&body, table) {
            Ok(prog) => {
                for d in check_prog(&prog, table, None).report.diagnostics {
                    report.push(d.severity, d.code, d.call, format!("seed record {i}: {}", d.message));
                }
            }
            Err(e) => report.push(
                Severity::Error,
                "seed-unparseable",
                None,
                format!("seed record {i}: {e}"),
            ),
        }
    }
    report
}

/// Audits a full fleet snapshot: header, section framing, per-section
/// line syntax, and the nested relations/corpus audits.
pub fn audit_snapshot(text: &str, table: &DescTable) -> Report {
    let mut report = Report::new();
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if !header.starts_with(SNAPSHOT_HEADER) {
        report.push(
            Severity::Error,
            "snapshot-header",
            None,
            format!("first line is not `{SNAPSHOT_HEADER} ...`"),
        );
        return report;
    }
    for field in ["round=", "clock_us="] {
        let readable = header
            .split_whitespace()
            .find_map(|f| f.strip_prefix(field))
            .is_some_and(|v| v.parse::<u64>().is_ok());
        if !readable {
            report.push(
                Severity::Error,
                "snapshot-header",
                None,
                format!("header field {field} missing or unreadable"),
            );
        }
    }
    let mut section = "";
    let mut relations_text = String::new();
    let mut corpus_text = String::new();
    let mut last_sample: Option<u64> = None;
    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 2; // 1-based, after the header line
        if let Some(name) = line.strip_prefix("# section ") {
            section = match name.trim() {
                known @ ("relations" | "coverage" | "series" | "crashes" | "corpus") => known,
                known if counters::family(known).is_some() => known,
                other => {
                    report.push(
                        Severity::Warning,
                        "snapshot-unknown-section",
                        None,
                        format!("line {lineno}: unknown section `{other}`"),
                    );
                    ""
                }
            };
            continue;
        }
        if let Some(table) = counters::family(section) {
            if table.split_line(line).is_none() {
                report.push(
                    Severity::Warning,
                    "snapshot-malformed-line",
                    None,
                    format!("line {lineno}: not a `{} <counter> <value>` line", table.keyword),
                );
            }
            continue;
        }
        match section {
            "relations" => {
                relations_text.push_str(line);
                relations_text.push('\n');
            }
            "corpus" => {
                corpus_text.push_str(line);
                corpus_text.push('\n');
            }
            "coverage" => {
                if line
                    .strip_prefix("block ")
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .is_none()
                {
                    report.push(
                        Severity::Warning,
                        "snapshot-malformed-line",
                        None,
                        format!("line {lineno}: not a `block <hex>` coverage line"),
                    );
                }
            }
            "series" => {
                let parsed = line.strip_prefix("sample ").and_then(|rest| {
                    let (t, v) = rest.split_once(' ')?;
                    let v: f64 = v.parse().ok()?;
                    v.is_finite().then_some((t.parse::<u64>().ok()?, v))
                });
                match parsed {
                    Some((t, _)) if last_sample.is_some_and(|lt| lt > t) => {
                        report.push(
                            Severity::Warning,
                            "snapshot-series-backwards",
                            None,
                            format!("line {lineno}: sample time {t} runs backwards"),
                        );
                    }
                    Some((t, _)) => last_sample = Some(t),
                    None => report.push(
                        Severity::Warning,
                        "snapshot-malformed-line",
                        None,
                        format!("line {lineno}: not a `sample <t> <v>` series line"),
                    ),
                }
            }
            "crashes" => {
                let well_formed = line.strip_prefix("crash ").is_some_and(|rest| {
                    let fields: Vec<&str> = rest.splitn(6, '\t').collect();
                    fields.len() == 6
                        && fields[0].parse::<u64>().is_ok()
                        && fields[1].parse::<u64>().is_ok()
                });
                if !well_formed {
                    report.push(
                        Severity::Warning,
                        "snapshot-malformed-line",
                        None,
                        format!("line {lineno}: not a 6-field tab-separated crash line"),
                    );
                }
            }
            _ => {
                if !line.trim().is_empty() {
                    report.push(
                        Severity::Warning,
                        "snapshot-stray-line",
                        None,
                        format!("line {lineno}: text outside any section"),
                    );
                }
            }
        }
    }
    report.merge(audit_relations(&relations_text, table));
    report.merge(audit_corpus(&corpus_text, table));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzlang::desc::{CallDesc, CallKind};

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/x"));
        t.add(CallDesc::syscall_close());
        for i in 0..3 {
            t.add(CallDesc::new(
                format!("c{i}"),
                CallKind::Hal { service: "s".into(), code: i },
                vec![],
                None,
            ));
        }
        t
    }

    #[test]
    fn clean_relations_audit_clean() {
        let t = table();
        let text = "# relation-graph learns=3\nedge c0\tc1\t0.5\nedge c2\tc1\t0.5\n";
        let report = audit_relations(text, &t);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn eq1_violation_is_an_error() {
        let t = table();
        let text = "edge c0\tc1\t0.9\nedge c2\tc1\t0.9\n";
        let report = audit_relations(text, &t);
        assert!(report.has_errors());
        assert!(report.diagnostics.iter().any(|d| d.code == "relation-eq1-violation"));
    }

    #[test]
    fn bad_weights_are_errors_soft_defects_are_not() {
        let t = table();
        let text = "edge c0\tc1\tNaN\n\
                    edge c0\tc1\t-0.5\n\
                    edge c0\tc1\t1.5\n\
                    edge c0\tc0\t0.1\n\
                    edge c0\tc2\t0\n\
                    edge c0\tnosuch\t0.1\n\
                    edge c1\tc2\t0.00001\n\
                    edge c1\tc2\t0.2\n\
                    garbage\n";
        let report = audit_relations(text, &t);
        assert_eq!(report.error_count(), 3, "{:?}", report.diagnostics);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        for code in [
            "relation-weight-invalid",
            "relation-weight-excess",
            "relation-self-edge",
            "relation-orphan-edge",
            "relation-unknown-vertex",
            "relation-below-decay-floor",
            "relation-duplicate-edge",
            "relation-malformed-line",
        ] {
            assert!(codes.contains(&code), "missing {code} in {codes:?}");
        }
    }

    #[test]
    fn corpus_audit_flags_broken_seed_records() {
        let t = table();
        let text = "# seed 0 signals=3\nr0 = openat$/dev/x()\n\n\
                    # seed 1 signals=x\nr0 = openat$/dev/x()\n\n\
                    # seed 2 signals=1\nr0 = nosuchcall()\n\n\
                    # seed 3 signals=1\n\n";
        let report = audit_corpus(text, &t);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"seed-bad-header"), "{codes:?}");
        assert!(codes.contains(&"seed-unparseable"), "{codes:?}");
        assert!(codes.contains(&"seed-empty"), "{codes:?}");
        assert_eq!(report.error_count(), 1);
    }

    #[test]
    fn corpus_audit_surfaces_program_lint_findings() {
        let t = table();
        // close(r0) where r0 is the close itself: forward ref.
        let text = "# seed 0 signals=1\nr0 = close(r0)\n";
        let report = audit_corpus(text, &t);
        assert!(report.has_errors());
        assert!(report.diagnostics[0].message.contains("seed record 1"));
        assert_eq!(report.diagnostics[0].code, "forward-ref");
    }

    #[test]
    fn snapshot_audit_checks_framing_and_nested_sections() {
        let t = table();
        let text = "# droidfuzz-fleet-snapshot v1 round=1 clock_us=2\n\
                    # section relations\n\
                    edge c0\tc1\t0.9\nedge c2\tc1\t0.9\n\
                    # section coverage\nblock 1f\nblock nothex\n\
                    # section series\nsample 5 1\nsample 3 2\n\
                    # section crashes\ncrash torn\n\
                    # section faults\nfault hangs 2\nfault hangs x\n\
                    # section lint\nlint rejected 1\nlint oops\n\
                    # section store\nstore recoveries 1\nstore oops\n\
                    # section wat\nstray\n\
                    # section corpus\n# seed 0 signals=1\nr0 = openat$/dev/x()\n\n";
        let report = audit_snapshot(text, &t);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"snapshot-malformed-line"), "{codes:?}");
        assert!(codes.contains(&"snapshot-series-backwards"), "{codes:?}");
        assert!(codes.contains(&"snapshot-unknown-section"), "{codes:?}");
        assert!(codes.contains(&"relation-eq1-violation"), "{codes:?}");
        assert_eq!(report.error_count(), 1, "{:?}", report.diagnostics);
        // Exactly `block nothex`, the torn crash line, `fault hangs x`,
        // `lint oops`, and `store oops` are malformed — well-formed
        // `fault`/`lint`/`store` counter lines must not be flagged (their
        // keyword is singular; the section name isn't).
        let malformed = codes.iter().filter(|&&c| c == "snapshot-malformed-line").count();
        assert_eq!(malformed, 5, "{:?}", report.diagnostics);
    }

    #[test]
    fn snapshot_audit_rejects_foreign_header() {
        let t = table();
        let report = audit_snapshot("not a snapshot\n", &t);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, "snapshot-header");
    }
}
