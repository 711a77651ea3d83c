//! The `droidfuzz-lint` command-line front end: run the static-analysis
//! pass over saved fuzzer artifacts — fuzzlang programs, corpus exports,
//! relation-graph exports, and fleet snapshots — and emit one
//! machine-readable JSON report line per input.
//!
//! ```sh
//! droidfuzz-lint --device A1 a1.corpus campaign.snapshot prog.txt
//! ```
//!
//! The input format is detected from the file's leading bytes:
//!
//! - `# droidfuzz-store snapshot v1 ...` → durable-store snapshot file:
//!   CRC framing is verified, then the embedded fleet section is audited
//!   as a fleet snapshot;
//! - `# droidfuzz-store journal v1 ...` → durable-store journal file:
//!   frame checksums and record sequencing are verified, truncated tails
//!   and undecodable delta payloads are reported;
//! - `# droidfuzz-fleet-snapshot v1 ...` → full snapshot audit (framing,
//!   nested relation graph, fault/lint counters, corpus seeds);
//! - `# droidfuzz-net stream v1 ...` → captured wire stream (one
//!   direction of one hub/worker connection): frame CRCs and sequence
//!   continuity are verified and every payload is decoded as a protocol
//!   message; a torn tail is a warning (a link fault cut the capture),
//!   duplicated frames are warnings (faulty-link replays are dropped by
//!   the receiver by design), anything else malformed is an error;
//! - `# relation-graph ...` or `edge ...`  → relation-graph audit (Eq. 1
//!   in-weight invariants, vertex names, duplicate/self/orphan edges);
//! - `# seed <i> signals=<n>` anywhere  → corpus audit (per-seed parse +
//!   program lint);
//! - anything else → a single fuzzlang program, parsed then linted.
//!
//! Single programs are checked with the device's driver state models, so
//! the flow-sensitive abstract interpreter's `absint-*` findings (dead
//! calls, guard violations, statically-dead programs) follow the
//! flow-insensitive lint's in the same report. `--model <driver>` skips
//! file auditing entirely and prints the named driver's state model plus
//! its audit findings (`<driver>` is a model label, `/dev` node path, or
//! node basename).
//!
//! The vocabulary comes from booting (and probing) the selected Table-I
//! device, so HAL interface names resolve exactly as they would inside a
//! campaign. Exit status is 1 when any input carries an `Error`-severity
//! finding (or, under `--deny-warnings`, a `Warning`), 2 on usage errors,
//! 0 otherwise — by default warnings never fail the run, matching the
//! in-engine gate. A torn journal tail is a warning (the recovery path
//! replays the valid prefix by design); a snapshot file that fails its
//! checksums is an error.

use droidfuzz::analysis::{audit_corpus, audit_relations, audit_snapshot, check_prog, Report, Severity};
use droidfuzz::config::FuzzerConfig;
use droidfuzz::engine::FuzzingEngine;
use droidfuzz::fleet::SNAPSHOT_HEADER;
use droidfuzz::net::{decode_frame, decode_message, NetError, NET_STREAM_HEADER};
use droidfuzz::store::{
    decode_journal, decode_snapshot, parse_journal_name, FleetDelta, FLEET_SECTION,
    JOURNAL_HEADER, STORE_SNAPSHOT_HEADER,
};
use fuzzlang::desc::DescTable;
use fuzzlang::text::parse_prog;
use simdevice::catalog;

struct Options {
    device: String,
    deny_warnings: bool,
    model: Option<String>,
    paths: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: droidfuzz-lint [--device <A1|A2|B|C1|C2|D|E>] [--deny-warnings] <file>...\n\
         \x20      droidfuzz-lint [--device <id>] [--deny-warnings] --model <driver>\n\
         \x20      input kinds (auto-detected): fleet snapshot, relation-graph export,\n\
         \x20      corpus export, single fuzzlang program (linted + abstractly\n\
         \x20      interpreted against the device's state models)\n\
         \x20      --model prints the named driver's state model and its audit;\n\
         \x20      <driver> is a model label, /dev node path, or node basename\n\
         \x20      exit codes: 0 clean (warnings allowed unless --deny-warnings),\n\
         \x20      1 findings at gating severity, 2 usage or I/O error"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        device: "A1".into(),
        deny_warnings: false,
        model: None,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--device" => {
                opts.device = args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --device");
                    usage()
                });
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--model" => {
                opts.model = Some(args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --model");
                    usage()
                }));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                usage()
            }
            path => opts.paths.push(path.to_owned()),
        }
    }
    if opts.paths.is_empty() && opts.model.is_none() {
        usage();
    }
    opts
}

/// Audits a durable-store snapshot file: CRC framing first, then the
/// embedded fleet section through the full snapshot audit.
fn audit_store_snapshot(bytes: &[u8], table: &DescTable) -> Report {
    let (gen, sections) = match decode_snapshot(bytes) {
        Ok(decoded) => decoded,
        Err(e) => {
            let mut report = Report::new();
            report.push(Severity::Error, "store-snapshot-corrupt", None, e.to_string());
            return report;
        }
    };
    let Some((_, payload)) = sections.iter().find(|(name, _)| name == FLEET_SECTION) else {
        let mut report = Report::new();
        report.push(
            Severity::Error,
            "store-snapshot-missing-fleet-section",
            None,
            format!("generation {gen} has no `{FLEET_SECTION}` section"),
        );
        return report;
    };
    match std::str::from_utf8(payload) {
        Ok(text) => audit_snapshot(text, table),
        Err(_) => {
            let mut report = Report::new();
            report.push(
                Severity::Error,
                "store-snapshot-non-utf8-fleet-section",
                None,
                format!("generation {gen} fleet section is not valid UTF-8"),
            );
            report
        }
    }
}

/// Audits a durable-store journal file: frame checksums, sequencing,
/// torn tails, and per-record delta decodability.
fn audit_store_journal(path: &str, bytes: &[u8]) -> Report {
    let mut report = Report::new();
    // The base generation claimed by the file name, when it has the
    // canonical `journal-<gen>.wal` shape; otherwise trust the header.
    let named_base = std::path::Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_journal_name);
    let header_base = bytes
        .split(|&b| b == b'\n')
        .next()
        .and_then(|line| std::str::from_utf8(line).ok())
        .and_then(|line| line.strip_prefix(JOURNAL_HEADER))
        .and_then(|rest| rest.trim().strip_prefix("base="))
        .and_then(|v| v.parse::<u64>().ok());
    let base = match (named_base, header_base) {
        (Some(named), Some(header)) if named != header => {
            report.push(
                Severity::Error,
                "store-journal-base-mismatch",
                None,
                format!("file named base {named} but header claims base {header}"),
            );
            named
        }
        (_, Some(header)) => header,
        (named, None) => named.unwrap_or(0),
    };
    let scan = decode_journal(bytes, base);
    let undecodable = scan
        .records
        .iter()
        .filter(|r| FleetDelta::decode(&r.payload).is_none())
        .count();
    if undecodable > 0 {
        report.push(
            Severity::Warning,
            "store-journal-undecodable-records",
            None,
            format!(
                "{undecodable} of {} record(s) carry payloads this build cannot decode",
                scan.records.len()
            ),
        );
    }
    if scan.truncated {
        report.push(
            Severity::Warning,
            "store-journal-truncated",
            None,
            format!(
                "valid prefix is {} record(s); {} trailing byte(s) are torn or corrupt \
                 and would be dropped on recovery",
                scan.records.len(),
                scan.dropped_bytes
            ),
        );
    } else {
        report.push(
            Severity::Info,
            "store-journal-clean",
            None,
            format!("{} record(s), every frame checksum valid", scan.records.len()),
        );
    }
    report
}

/// Audits a captured net stream: the same `rec <seq> <len> <crc>`
/// framing audit the journal gets, plus protocol-message decoding.
fn audit_net_stream(bytes: &[u8]) -> Report {
    let mut report = Report::new();
    // Skip the `# droidfuzz-net stream v1` header line.
    let mut offset =
        bytes.iter().position(|&b| b == b'\n').map_or(bytes.len(), |nl| nl + 1);
    let mut next_seq = 0u64;
    let mut frames = 0usize;
    let mut duplicates = 0usize;
    let mut torn = false;
    while offset < bytes.len() {
        match decode_frame(&bytes[offset..]) {
            Ok((seq, payload, used)) => {
                offset += used;
                frames += 1;
                if seq.wrapping_add(1) == next_seq {
                    // A faulty link delivered the frame twice; receivers
                    // drop the replay, so the capture is still sound.
                    duplicates += 1;
                } else if seq != next_seq {
                    report.push(
                        Severity::Error,
                        "net-stream-seq-gap",
                        None,
                        format!("frame {frames} carries seq {seq}, expected {next_seq}"),
                    );
                    break;
                } else {
                    next_seq += 1;
                }
                let decoded = std::str::from_utf8(&payload)
                    .map_err(|_| NetError::Garbage("payload is not UTF-8".to_owned()))
                    .and_then(decode_message);
                if let Err(e) = decoded {
                    report.push(
                        Severity::Error,
                        "net-stream-bad-message",
                        None,
                        format!("frame seq {seq} does not decode as a message: {e}"),
                    );
                }
            }
            Err(NetError::Truncated(what)) => {
                torn = true;
                report.push(
                    Severity::Warning,
                    "net-stream-torn-tail",
                    None,
                    format!(
                        "capture ends mid-frame after {frames} whole frame(s): {what} \
                         ({} trailing byte(s))",
                        bytes.len() - offset
                    ),
                );
                break;
            }
            Err(e) => {
                report.push(
                    Severity::Error,
                    "net-stream-malformed-frame",
                    None,
                    format!("after {frames} valid frame(s): {e}"),
                );
                break;
            }
        }
    }
    if duplicates > 0 {
        report.push(
            Severity::Warning,
            "net-stream-duplicate-frames",
            None,
            format!("{duplicates} duplicated frame(s) (dropped by the receiver)"),
        );
    }
    if !report.has_errors() && !torn {
        report.push(
            Severity::Info,
            "net-stream-clean",
            None,
            format!("{frames} frame(s), every checksum and message valid"),
        );
    }
    report
}

fn main() {
    let opts = parse_args();
    let Some(spec) = catalog::by_id(&opts.device) else {
        eprintln!("unknown device {}; known: A1 A2 B C1 C2 D E", opts.device);
        std::process::exit(2);
    };
    // Boot + probe exactly as a campaign would, then borrow the engine's
    // vocabulary; DroidFuzz-S so the state models are loaded for absint
    // and `--model`, while the lint gate itself stays off since nothing
    // executes.
    let engine = FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz_s(1));
    let table = engine.desc_table();
    let models = engine.model_set().expect("DroidFuzz-S always loads state models");

    if let Some(name) = &opts.model {
        let Some(text) = models.describe(name) else {
            let known: Vec<&str> =
                models.entries().iter().map(|e| e.label.as_str()).collect();
            eprintln!("unknown driver model {name}; known: {}", known.join(" "));
            std::process::exit(2);
        };
        print!("{text}");
        let audit = models.audit();
        let gating = audit.has_errors()
            || (opts.deny_warnings && audit.count(Severity::Warning) > 0);
        std::process::exit(if gating { 1 } else { 0 });
    }

    let mut failed = false;
    for path in &opts.paths {
        // Store files carry binary payloads and checksum framing, so
        // detection runs on raw bytes before any UTF-8 requirement.
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let report = if bytes.starts_with(STORE_SNAPSHOT_HEADER.as_bytes()) {
            audit_store_snapshot(&bytes, table)
        } else if bytes.starts_with(JOURNAL_HEADER.as_bytes()) {
            audit_store_journal(path, &bytes)
        } else if bytes.starts_with(NET_STREAM_HEADER.as_bytes()) {
            audit_net_stream(&bytes)
        } else {
            match String::from_utf8(bytes) {
                Err(_) => {
                    let mut report = Report::new();
                    report.push(
                        Severity::Error,
                        "input-not-utf8",
                        None,
                        "not a store file and not valid UTF-8 text".to_owned(),
                    );
                    report
                }
                Ok(text) => {
                    if text.starts_with(SNAPSHOT_HEADER) {
                        audit_snapshot(&text, table)
                    } else if text.starts_with("# relation-graph") || text.starts_with("edge ") {
                        audit_relations(&text, table)
                    } else if text.contains("# seed ") {
                        audit_corpus(&text, table)
                    } else {
                        match parse_prog(&text, table) {
                            Ok(prog) => check_prog(&prog, table, Some(models)).report,
                            Err(e) => {
                                let mut report = Report::new();
                                report.push(
                                    Severity::Error,
                                    "prog-unparseable",
                                    None,
                                    e.to_string(),
                                );
                                report
                            }
                        }
                    }
                }
            }
        };
        failed |= report.has_errors()
            || (opts.deny_warnings && report.count(Severity::Warning) > 0);
        println!("{}", report.to_json(path));
    }
    std::process::exit(if failed { 1 } else { 0 });
}
