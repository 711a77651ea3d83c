//! The journal's delta vocabulary: one [`FleetDelta`] per journal record.
//!
//! Each delta is a single-line, human-readable payload (the frame around
//! it carries length + CRC, so the payload needs no escaping of its own —
//! but seed bodies are escaped anyway so a record stays one line for
//! `grep`/`droidfuzz-lint`). The encode/decode pair lives here so the
//! writer ([`FleetStore`]) and the reader ([`RecoveryManager`]) cannot
//! drift apart.
//!
//! Counter deltas (one record per counter family, in the family's
//! `<section> <key>=<value> ...` form) carry *absolute* cumulative
//! totals, and `edge` carries the absolute current weight — replaying a
//! record twice, or replaying a prefix, can therefore never double-count.
//!
//! [`FleetStore`]: crate::fleet::persist::FleetStore
//! [`RecoveryManager`]: super::recovery::RecoveryManager

use crate::crashes::CrashRecord;
use crate::fleet::snapshot::{crash_fields, escape, parse_crash_line, unescape};
use droidfuzz_analysis::{CounterFamily, CounterRecord};

/// One fleet state change, as journaled between checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetDelta {
    /// The hub admitted a new seed.
    Seed {
        /// Admission score the publishing shard reported.
        signals: usize,
        /// Program lines (`r<n> = call(...)`), newline-terminated.
        body: String,
    },
    /// A relation edge now has this weight (upsert; the weight string is
    /// kept verbatim so replay round-trips the export bytes).
    Edge {
        /// Source call name.
        from: String,
        /// Target call name.
        to: String,
        /// Weight, in the export's shortest-roundtrip float form.
        weight: String,
    },
    /// A relation edge was pruned (decay floor).
    EdgeDel {
        /// Source call name.
        from: String,
        /// Target call name.
        to: String,
    },
    /// Cumulative learn-event count of the merged graph.
    Learns(u64),
    /// A crash record reached this state (upsert by dedup title).
    Crash(CrashRecord),
    /// Kernel blocks newly added to the union coverage.
    Blocks(Vec<u64>),
    /// A union-coverage series sample was recorded.
    Sample {
        /// Fleet clock, µs.
        t: u64,
        /// Union coverage at that time.
        v: f64,
    },
    /// One counter family's cumulative totals (absolute).
    Counters(CounterRecord),
    /// A sync round completed at this fleet clock.
    Round {
        /// Rounds completed (the value a resume starts from).
        round: usize,
        /// Fleet clock, µs.
        clock_us: u64,
    },
}

impl FleetDelta {
    /// Serializes to the single-line journal payload.
    pub fn encode(&self) -> String {
        match self {
            FleetDelta::Seed { signals, body } => {
                format!("seed {signals}\t{}", escape(body))
            }
            FleetDelta::Edge { from, to, weight } => format!("edge {from}\t{to}\t{weight}"),
            FleetDelta::EdgeDel { from, to } => format!("edge-del {from}\t{to}"),
            FleetDelta::Learns(n) => format!("learns {n}"),
            FleetDelta::Crash(record) => format!("crash {}", crash_fields(record)),
            FleetDelta::Blocks(blocks) => {
                let mut out = "blocks".to_owned();
                for block in blocks {
                    out.push_str(&format!(" {block:x}"));
                }
                out
            }
            FleetDelta::Sample { t, v } => format!("sample {t} {v}"),
            FleetDelta::Counters(record) => {
                let mut out = String::new();
                record.write_record(&mut out);
                out
            }
            FleetDelta::Round { round, clock_us } => format!("round {round} {clock_us}"),
        }
    }

    /// Parses a journal payload; `None` for anything this version does
    /// not understand (the replayer counts it as a malformed line).
    pub fn decode(payload: &str) -> Option<FleetDelta> {
        let (keyword, rest) = payload.split_once(' ').unwrap_or((payload, ""));
        match keyword {
            "seed" => {
                let (signals, body) = rest.split_once('\t')?;
                Some(FleetDelta::Seed {
                    signals: signals.parse().ok()?,
                    body: unescape(body),
                })
            }
            "edge" => {
                let mut fields = rest.split('\t');
                let (from, to, weight) =
                    (fields.next()?, fields.next()?, fields.next()?);
                if fields.next().is_some() {
                    return None;
                }
                let w: f64 = weight.parse().ok()?;
                (w.is_finite() && w >= 0.0).then(|| FleetDelta::Edge {
                    from: from.to_owned(),
                    to: to.to_owned(),
                    weight: weight.to_owned(),
                })
            }
            "edge-del" => {
                let (from, to) = rest.split_once('\t')?;
                Some(FleetDelta::EdgeDel { from: from.to_owned(), to: to.to_owned() })
            }
            "learns" => Some(FleetDelta::Learns(rest.parse().ok()?)),
            "crash" => Some(FleetDelta::Crash(parse_crash_line(payload)?)),
            "blocks" => {
                let mut blocks = Vec::new();
                for token in rest.split(' ') {
                    if token.is_empty() {
                        continue;
                    }
                    blocks.push(u64::from_str_radix(token, 16).ok()?);
                }
                Some(FleetDelta::Blocks(blocks))
            }
            "sample" => {
                let (t, v) = rest.split_once(' ')?;
                let v: f64 = v.parse().ok()?;
                v.is_finite()
                    .then_some(FleetDelta::Sample { t: t.parse().ok()?, v })
            }
            "round" => {
                let (round, clock_us) = rest.split_once(' ')?;
                Some(FleetDelta::Round {
                    round: round.parse().ok()?,
                    clock_us: clock_us.parse().ok()?,
                })
            }
            _ => CounterRecord::decode(payload).map(FleetDelta::Counters),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidfuzz_analysis::{FaultCounters, LintCounters, NetCounters, StoreCounters};
    use simkernel::report::{BugKind, Component};

    /// One counter delta per family with its exact journal payload.
    fn counter_deltas() -> [(FleetDelta, &'static str); 4] {
        let record = |family: &dyn CounterFamily| FleetDelta::Counters(CounterRecord::of(family));
        [
            (
                record(&FaultCounters { injected: 3, hangs: 1, ..Default::default() }),
                "faults injected=3 link_drops=0 truncated_replies=0 transient_retries=0 \
                 gave_up=0 hangs=1 quarantined_programs=0 device_lost=0 reprovisions=0 \
                 spontaneous_reboots=0",
            ),
            (
                record(&LintCounters {
                    rejected: 2,
                    repaired: 5,
                    absint_rejected: 1,
                    absint_repaired: 3,
                }),
                "lint rejected=2 repaired=5 absint_rejected=1 absint_repaired=3",
            ),
            (
                record(&StoreCounters { journal_records: 9, recoveries: 1, ..Default::default() }),
                "store journal_records=9 journal_bytes=0 snapshots_written=0 compactions=0 \
                 snapshots_skipped=0 recoveries=1 replayed_records=0 dropped_bytes=0 \
                 fell_back_generations=0 malformed_lines=0 io_errors=0",
            ),
            (
                record(&NetCounters { frames_sent: 17, reconnects: 2, ..Default::default() }),
                "net frames_sent=17 frames_received=0 bytes_sent=0 bytes_received=0 \
                 malformed_frames=0 truncated_frames=0 oversized_frames=0 dup_frames=0 \
                 link_retries=0 reconnects=2 sessions=0",
            ),
        ]
    }

    #[test]
    fn counter_payloads_are_pinned() {
        for (delta, payload) in counter_deltas() {
            assert_eq!(delta.encode(), payload);
        }
    }

    fn round_trip(delta: FleetDelta) {
        let line = delta.encode();
        assert!(!line.contains('\n'), "encoded delta must be one line: {line:?}");
        assert_eq!(FleetDelta::decode(&line).as_ref(), Some(&delta), "{line:?}");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(FleetDelta::Seed {
            signals: 7,
            body: "r0 = openat$/dev/video0()\nr1 = ioctl(r0)\n".into(),
        });
        round_trip(FleetDelta::Edge {
            from: "openat$/dev/video0".into(),
            to: "ioctl$VIDIOC_QUERYCAP".into(),
            weight: "0.3333333333333333".into(),
        });
        round_trip(FleetDelta::EdgeDel { from: "a".into(), to: "b".into() });
        round_trip(FleetDelta::Learns(42));
        round_trip(FleetDelta::Blocks(vec![0x10, 0xff, 0x2f00]));
        round_trip(FleetDelta::Blocks(vec![]));
        round_trip(FleetDelta::Sample { t: 900_000_000, v: 123.0 });
        for (counters, _) in counter_deltas() {
            round_trip(counters);
        }
        round_trip(FleetDelta::Round { round: 12, clock_us: 3_600_000_000 });
    }

    #[test]
    fn crash_round_trips_with_nasty_title_and_repro() {
        let record = CrashRecord {
            title: "KASAN: use-after-free\tin v4l_qbuf".into(),
            kind: BugKind::KasanUseAfterFree,
            component: Component::KernelDriver,
            count: 4,
            first_seen_us: 1234,
            repro: Some("r0 = openat$/dev/video0()\n".into()),
        };
        round_trip(FleetDelta::Crash(record.clone()));
        let none_repro = CrashRecord { repro: None, ..record };
        round_trip(FleetDelta::Crash(none_repro));
    }

    #[test]
    fn garbage_and_future_records_decode_to_none() {
        for bad in [
            "",
            "frobnicate 12",
            "seed notanumber\tr0 = x()",
            "edge only-two\tfields",
            "edge a\tb\tNaN",
            "edge a\tb\t-1",
            "sample 5 notafloat",
            "blocks 12 zz",
            "faults injected=notanumber",
            "round 1",
            "crash too\tfew\tfields",
        ] {
            assert!(FleetDelta::decode(bad).is_none(), "{bad:?} decoded");
        }
    }

    #[test]
    fn counter_decode_tolerates_unknown_keys() {
        // A newer writer may add counters; an older reader keeps what it
        // knows rather than dropping the record.
        let delta = FleetDelta::decode("faults injected=3 from_the_future=9").unwrap();
        let faults = FaultCounters { injected: 3, ..Default::default() };
        assert_eq!(delta, FleetDelta::Counters(CounterRecord::of(&faults)));
    }
}
