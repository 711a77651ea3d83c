//! The seed corpus: programs that triggered new execution state, kept for
//! further mutation (the daemon's persistent data of §IV-A).

use droidfuzz_analysis::{gate_prog, LintCounters};
use fuzzlang::desc::DescTable;
use fuzzlang::prog::Prog;
use fuzzlang::text::format_prog_into;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Reverse;
use std::fmt::Write as _;

/// Appends the `# seed <index> signals=<score>` header of one record in
/// the corpus interchange format.
pub(crate) fn push_seed_header(out: &mut String, index: usize, signals: usize) {
    let _ = writeln!(out, "# seed {index} signals={signals}");
}

/// Appends the program lines of one seed record (the lines starting with
/// `r`), each newline-terminated — the record body both the corpus import
/// and the hub key seeds by.
pub(crate) fn push_program_lines(out: &mut String, record: &str) {
    for line in record.lines().filter(|l| l.starts_with('r')) {
        out.push_str(line);
        out.push('\n');
    }
}

/// One seed.
#[derive(Debug, Clone)]
pub struct Seed {
    /// The program.
    pub prog: Prog,
    /// Admission score: the (kernel-weighted) signal count the seed
    /// contributed when admitted; drives selection and eviction.
    pub new_signals: usize,
    /// Times it has been picked for mutation.
    pub picks: u64,
    /// Admission sequence number (age tie-breaker for eviction).
    pub seq: u64,
}

/// Maximum corpus size; lowest-value seeds are evicted beyond this.
pub const MAX_SEEDS: usize = 4096;

/// The seed corpus.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    seeds: Vec<Seed>,
    admitted: u64,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a program with the given admission score (the engine weights
    /// kernel-coverage novelty above HAL-ordering novelty).
    ///
    /// The just-admitted seed is never the eviction victim, even when it
    /// ties for fewest `new_signals` — otherwise a full corpus would
    /// discard every incoming seed at the admission score floor. Among
    /// the remaining seeds the victim is the one with fewest signals,
    /// then most picks (already well-explored), then oldest.
    pub fn admit(&mut self, prog: Prog, new_signals: usize) {
        self.admitted += 1;
        let seq = self.admitted;
        self.seeds.push(Seed { prog, new_signals, picks: 0, seq });
        if self.seeds.len() > MAX_SEEDS {
            let idx = self
                .seeds
                .iter()
                .take(self.seeds.len() - 1) // exclude the seed just pushed
                .enumerate()
                .min_by_key(|(_, s)| (s.new_signals, Reverse(s.picks), s.seq))
                .map(|(i, _)| i)
                .expect("non-empty");
            self.seeds.swap_remove(idx);
        }
    }

    /// [`admit`](Self::admit) behind the lint gate: the program is linted
    /// against `table`, auto-repaired if it has fixable errors, and only
    /// then admitted. Returns whether a seed entered the corpus; gate
    /// outcomes land in `counters`.
    pub fn admit_gated(
        &mut self,
        mut prog: Prog,
        new_signals: usize,
        table: &DescTable,
        counters: &mut LintCounters,
    ) -> bool {
        if !gate_prog(&mut prog, table, counters) || prog.is_empty() {
            return false;
        }
        self.admit(prog, new_signals);
        true
    }

    /// Picks a seed for mutation, biased toward high-signal, rarely-picked
    /// seeds.
    pub fn pick<R: Rng>(&mut self, rng: &mut R) -> Option<&Prog> {
        if self.seeds.is_empty() {
            return None;
        }
        // Tournament of 4: best signal-per-pick ratio wins.
        let n = self.seeds.len();
        let mut best: Option<usize> = None;
        for _ in 0..4.min(n) {
            let i = rng.gen_range(0..n);
            let score = |s: &Seed| s.new_signals as f64 / (1.0 + s.picks as f64);
            if best.is_none_or(|b| score(&self.seeds[i]) > score(&self.seeds[b])) {
                best = Some(i);
            }
        }
        let idx = best.expect("non-empty");
        self.seeds[idx].picks += 1;
        Some(&self.seeds[idx].prog)
    }

    /// Picks a uniformly random seed (for splicing).
    pub fn pick_uniform<R: Rng>(&self, rng: &mut R) -> Option<&Prog> {
        self.seeds.choose(rng).map(|s| &s.prog)
    }

    /// Removes the first seed holding exactly `prog` (the supervisor
    /// evicts programs that hang the device). Returns whether a seed was
    /// removed.
    pub fn remove_prog(&mut self, prog: &Prog) -> bool {
        match self.seeds.iter().position(|s| &s.prog == prog) {
            Some(idx) => {
                self.seeds.swap_remove(idx);
                true
            }
            None => false,
        }
    }

    /// Number of seeds currently held.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Total seeds ever admitted (including evicted ones).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// The seeds currently held (the fleet hub reads these to publish
    /// per-seed signal scores).
    pub fn seeds(&self) -> &[Seed] {
        &self.seeds
    }

    /// Serializes the corpus in the DSL text format, seeds separated by
    /// `# seed` comment headers — the daemon's persistent representation.
    pub fn export(&self, table: &DescTable) -> String {
        self.export_since(table, 0)
    }

    /// Serializes only the seeds admitted after sequence `min_seq` (and
    /// still live). Same format as [`export`](Self::export); the header
    /// index is per-dump and carries no identity. Eviction reorders the
    /// seed vector, so the filter is by each seed's admission sequence,
    /// not by position.
    pub fn export_since(&self, table: &DescTable, min_seq: u64) -> String {
        let mut out = String::new();
        for (i, seed) in self.seeds.iter().filter(|s| s.seq > min_seq).enumerate() {
            push_seed_header(&mut out, i, seed.new_signals);
            format_prog_into(&seed.prog, table, &mut out);
            out.push('\n');
        }
        out
    }

    /// Restores a corpus from an [`export`](Self::export) dump. Seeds that
    /// fail to parse or validate against `table` (stale vocabulary after a
    /// firmware update, truncated or corrupted snapshot lines) are skipped
    /// — never panicking, so a damaged snapshot restores everything it
    /// can. Returns `(accepted, rejected)`.
    pub fn import(&mut self, text: &str, table: &DescTable) -> (usize, usize) {
        self.import_inner(text, table, None)
    }

    /// [`import`](Self::import) behind the lint gate: each seed that
    /// parses is linted and, when it carries fixable errors (a dangling
    /// ref left by an old engine version, a seed from a shard with a
    /// slightly different vocabulary), auto-repaired instead of dropped.
    /// Repaired seeds count as accepted; gate outcomes land in `counters`.
    pub fn import_gated(
        &mut self,
        text: &str,
        table: &DescTable,
        counters: &mut LintCounters,
    ) -> (usize, usize) {
        self.import_inner(text, table, Some(counters))
    }

    fn import_inner(
        &mut self,
        text: &str,
        table: &DescTable,
        mut counters: Option<&mut LintCounters>,
    ) -> (usize, usize) {
        let mut accepted = 0;
        let mut rejected = 0;
        let mut body = String::new();
        for (i, chunk) in text.split("# seed ").enumerate() {
            if chunk.trim().is_empty() {
                continue;
            }
            body.clear();
            push_program_lines(&mut body, chunk);
            if body.is_empty() {
                // A header with no program lines is a damaged seed record;
                // the split's first chunk (text before any header) is
                // preamble noise, not a seed.
                if i > 0 {
                    rejected += 1;
                }
                continue;
            }
            let signals = chunk
                .lines()
                .next()
                .and_then(|header| header.split("signals=").nth(1))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(1);
            match fuzzlang::text::parse_prog(&body, table) {
                Ok(prog) if !prog.is_empty() => {
                    let admitted = match counters.as_deref_mut() {
                        Some(c) => self.admit_gated(prog, signals, table, c),
                        None => {
                            let valid = prog.validate(table).is_ok();
                            if valid {
                                self.admit(prog, signals);
                            }
                            valid
                        }
                    };
                    if admitted {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
                _ => rejected += 1,
            }
        }
        (accepted, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzlang::desc::{CallDesc, DescTable};
    use fuzzlang::prog::Call;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prog(n: usize, t: &DescTable) -> Prog {
        let id = t.id_of("openat$/dev/x").unwrap();
        Prog { calls: (0..n).map(|_| Call { desc: id, args: vec![] }).collect() }
    }

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/x"));
        t
    }

    #[test]
    fn pick_prefers_valuable_seeds() {
        let t = table();
        let mut c = Corpus::new();
        c.admit(prog(1, &t), 1);
        c.admit(prog(2, &t), 100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut big = 0;
        for _ in 0..200 {
            if c.pick(&mut rng).map(Prog::len) == Some(2) {
                big += 1;
            }
        }
        assert!(big > 120, "high-signal seed should dominate, got {big}");
    }

    #[test]
    fn eviction_keeps_size_bounded() {
        let t = table();
        let mut c = Corpus::new();
        for i in 0..MAX_SEEDS + 100 {
            c.admit(prog(1, &t), i);
        }
        assert_eq!(c.len(), MAX_SEEDS);
        assert_eq!(c.admitted(), (MAX_SEEDS + 100) as u64);
    }

    #[test]
    fn just_admitted_seed_survives_tie_eviction() {
        let t = table();
        let mut c = Corpus::new();
        // Fill the corpus entirely with score-0 seeds, then admit one
        // more score-0 seed: some *other* seed must be evicted.
        for _ in 0..MAX_SEEDS {
            c.admit(prog(1, &t), 0);
        }
        c.admit(prog(3, &t), 0);
        assert_eq!(c.len(), MAX_SEEDS);
        assert!(
            c.seeds().iter().any(|s| s.prog.len() == 3),
            "the seed admitted into a full corpus must survive a score tie"
        );
    }

    #[test]
    fn tie_eviction_prefers_old_high_picks_seeds() {
        let t = table();
        let mut c = Corpus::new();
        for _ in 0..MAX_SEEDS {
            c.admit(prog(1, &t), 0);
        }
        // Mark one early seed as heavily explored.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let _ = c.pick(&mut rng);
        }
        let most_picked = c.seeds().iter().map(|s| (s.picks, s.seq)).max().unwrap();
        assert!(most_picked.0 > 0);
        c.admit(prog(2, &t), 0);
        assert!(
            !c.seeds().iter().any(|s| (s.picks, s.seq) == most_picked),
            "the most-picked tied seed should be the eviction victim"
        );
    }

    #[test]
    fn remove_prog_evicts_matching_seed_only() {
        let t = table();
        let mut c = Corpus::new();
        c.admit(prog(2, &t), 7);
        c.admit(prog(3, &t), 4);
        assert!(c.remove_prog(&prog(3, &t)));
        assert_eq!(c.len(), 1);
        assert!(!c.remove_prog(&prog(3, &t)), "already gone");
        assert!(c.seeds().iter().all(|s| s.prog.len() == 2));
    }

    #[test]
    fn export_contains_headers_and_calls() {
        let t = table();
        let mut c = Corpus::new();
        c.admit(prog(2, &t), 7);
        let text = c.export(&t);
        assert!(text.contains("# seed 0 signals=7"));
        assert!(text.contains("openat$/dev/x"));
    }

    #[test]
    fn export_import_roundtrip() {
        let t = table();
        let mut c = Corpus::new();
        c.admit(prog(2, &t), 7);
        c.admit(prog(3, &t), 4);
        let text = c.export(&t);
        let mut restored = Corpus::new();
        assert_eq!(restored.import(&text, &t), (2, 0));
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.export(&t), text);
    }

    #[test]
    fn import_skips_stale_seeds() {
        let t = table();
        let text = "# seed 0 signals=3\nr0 = openat$/dev/x()\n\n# seed 1 signals=9\nr0 = openat$/dev/removed()\n";
        let mut c = Corpus::new();
        assert_eq!(c.import(text, &t), (1, 1), "unknown call skipped, valid seed kept");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn import_survives_malformed_and_truncated_lines() {
        let t = table();
        let text = concat!(
            "garbage preamble, not a seed\n",
            "# seed 0 signals=7\nr0 = openat$/dev/x()\n\n",
            "# seed 1 signals=notanumber\nr0 = openat$/dev/x()\n\n",
            "# seed 2 signals=9\nr0 = openat$/dev/x(trunc", // truncated mid-line
            "\n# seed 3\n\n",                               // header only, no body
            "# seed 4 signals=2\nr0 = openat$/dev/x()\n",
        );
        let mut c = Corpus::new();
        let (accepted, rejected) = c.import(text, &t);
        assert_eq!(accepted, 3, "valid seeds restored, incl. defaulted signals");
        assert_eq!(rejected, 2, "truncated body and empty body both counted");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn import_gated_repairs_dangling_refs() {
        let mut t = table();
        t.add(CallDesc::syscall_close());
        // A close of a resource nothing produced: old plain import would
        // reject it; the gate inserts the missing producer instead.
        let text = "# seed 0 signals=5\nr0 = close(r9)\n";
        let mut c = Corpus::new();
        let mut counters = LintCounters::default();
        let (accepted, rejected) = c.import_gated(text, &t, &mut counters);
        assert_eq!((accepted, rejected), (1, 0));
        assert_eq!(counters.repaired, 1);
        assert_eq!(counters.rejected, 0);
        assert_eq!(c.seeds()[0].prog.len(), 2, "producer inserted before the close");
        assert!(c.seeds()[0].prog.validate(&t).is_ok());
    }

    #[test]
    fn import_of_empty_text_is_a_noop() {
        let t = table();
        let mut c = Corpus::new();
        assert_eq!(c.import("", &t), (0, 0));
        assert_eq!(c.import("\n\n", &t), (0, 0));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn pick_from_empty_is_none() {
        let mut c = Corpus::new();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(c.pick(&mut rng).is_none());
        assert!(c.pick_uniform(&mut rng).is_none());
    }
}
