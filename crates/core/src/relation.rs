//! The relation graph of §IV-C.
//!
//! `G_rel = (V, E)` with `V = {syscalls} ∪ {HAL interfaces}`, each vertex
//! carrying a fixed weight (its probability mass as the *base invocation*
//! during generation), and directed weighted edges expressing learned
//! dependencies. Edge insertion follows Eq. 1:
//!
//! ```text
//! w(a,b) = 1 − Σ_{x≠a} w(x,b) / 2
//! ```
//!
//! with the other in-edges of `b` halved — so the in-weights of every
//! vertex always sum to exactly 1 once it has any. Periodic decay
//! multiplies all edge weights by a factor < 1 to escape local optima.
//!
//! Weights live row-major (`out[a][b]`), which generation walks; a
//! per-target source index gives every column operation (Eq. 1 halving,
//! in-weight sums) time linear in the edges it touches, and bulk column
//! work (merge, normalization) runs as linear passes over per-vertex
//! arrays. Every float operation keeps the operand order of a plain
//! column scan — sums accumulate in ascending source order — so fixed-seed
//! campaigns stay byte-identical.

use fuzzlang::desc::{DescId, DescTable};
use rand::Rng;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A relation graph as the wire carries it: the learn count and every
/// edge as `(from id, to id, weight bits)`, by ascending `(from, to)`.
/// Ids index the sender's description table, so both ends must share
/// one (the wire handshake compares table digests). Shortest-roundtrip
/// text and raw bits name the same `f64`, so a graph rebuilt from this
/// form equals one rebuilt from the [`export`](RelationGraph::export)
/// text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireGraph {
    /// Learn-event count of the sender's graph.
    pub learn_events: u64,
    /// Every edge as `(from, to, f64::to_bits(weight))`.
    pub edges: Vec<(usize, usize, u64)>,
}

/// The relation graph.
#[derive(Debug, Clone)]
pub struct RelationGraph {
    vertex_weight: Vec<f64>,
    /// `out[a][b] = w(a,b)`.
    out: BTreeMap<usize, BTreeMap<usize, f64>>,
    /// `sources[b]`: every `a` with an edge `a → b`, ascending — the
    /// column index of `out`.
    sources: Vec<Vec<usize>>,
    edge_count: usize,
    learn_events: u64,
    /// Bumped on every mutation: fleet shards compare it against their
    /// last-published value to skip cloning an unchanged graph at sync.
    revision: u64,
}

impl RelationGraph {
    /// Initializes the graph from a description table: all vertices with
    /// their description weights, and `E = ∅`.
    pub fn new(table: &DescTable) -> Self {
        let vertex_weight: Vec<f64> = table.iter().map(|(_, d)| d.weight.max(1e-6)).collect();
        let sources = vec![Vec::new(); vertex_weight.len()];
        Self {
            vertex_weight,
            out: BTreeMap::new(),
            sources,
            edge_count: 0,
            learn_events: 0,
            revision: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_weight.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Times [`learn`](Self::learn) has been called.
    pub fn learn_events(&self) -> u64 {
        self.learn_events
    }

    /// Mutation counter: changes iff the graph may have changed. Cheap
    /// dirtiness check for batched fleet sync; not part of any snapshot.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Current weight of edge `a → b`, if present.
    pub fn edge_weight(&self, a: DescId, b: DescId) -> Option<f64> {
        self.out.get(&a.0).and_then(|m| m.get(&b.0)).copied()
    }

    /// Records the learned dependency `a → b` per Eq. 1: existing
    /// in-edges of `b` are halved and the new (or refreshed) edge takes
    /// the remaining mass, so `Σ_x w(x,b) = 1`.
    pub fn learn(&mut self, a: DescId, b: DescId) {
        if a == b {
            return;
        }
        self.learn_events = self.learn_events.wrapping_add(1);
        self.revision += 1;
        // Halve all other in-edges of b and sum their (halved) weights.
        let mut sum_others = 0.0;
        for &from in self.sources.get(b.0).map_or(&[][..], Vec::as_slice) {
            if from == a.0 {
                continue;
            }
            let w = self.out.get_mut(&from).and_then(|m| m.get_mut(&b.0)).expect("indexed edge");
            *w /= 2.0;
            sum_others += *w;
        }
        self.set_edge(a.0, b.0, (1.0 - sum_others).max(0.0));
    }

    /// Seeds the graph with static priors before the first execution
    /// (DroidFuzz-S): for each target, its `k` statically-implied sources
    /// split half the probability mass (`0.5 / k` each), leaving the
    /// other half as stop-residual for runtime learning to claim. Edges
    /// that already exist are left untouched, so seeding an
    /// already-warmed graph is a no-op for those pairs, and `learn`'s
    /// halving keeps the Eq. 1 invariant (Σ ≤ 1) intact afterwards.
    /// No learn events are recorded — priors are not observations.
    pub fn seed_prior(&mut self, pairs: &[(DescId, DescId)]) {
        if pairs.is_empty() {
            return;
        }
        self.revision += 1;
        let mut by_target: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (a, b) in pairs {
            if a != b {
                by_target.entry(b.0).or_default().push(a.0);
            }
        }
        for (b, sources) in by_target {
            let budget = (0.5 - self.in_weight_sum(DescId(b))).max(0.0);
            if budget <= 0.0 {
                continue;
            }
            let fresh: Vec<usize> = sources
                .iter()
                .copied()
                .filter(|a| self.out.get(a).is_none_or(|m| !m.contains_key(&b)))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            let w = budget / fresh.len() as f64;
            for a in fresh {
                self.set_edge(a, b, w);
            }
        }
    }

    /// Multiplies all edge weights by `factor` (< 1), dropping edges that
    /// fall below a floor — the periodic diversity reduction of §IV-C.
    pub fn decay(&mut self, factor: f64) {
        const FLOOR: f64 = 1e-4;
        self.revision += 1;
        for targets in self.out.values_mut() {
            targets.retain(|_, w| {
                *w *= factor;
                *w >= FLOOR
            });
        }
        self.out.retain(|_, t| !t.is_empty());
        self.edge_count = self.out.values().map(BTreeMap::len).sum();
        self.rebuild_sources();
    }

    /// Samples a base invocation by vertex weight.
    pub fn sample_base<R: Rng>(&self, rng: &mut R) -> DescId {
        let total: f64 = self.vertex_weight.iter().sum();
        let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, &w) in self.vertex_weight.iter().enumerate() {
            if x < w {
                return DescId(i);
            }
            x -= w;
        }
        DescId(self.vertex_weight.len().saturating_sub(1))
    }

    /// Walks one step from `from`: picks a successor with probability
    /// equal to its edge weight (the walk may stop — return `None` — with
    /// the residual probability `1 − Σ w`).
    pub fn sample_next<R: Rng>(&self, from: DescId, rng: &mut R) -> Option<DescId> {
        let targets = self.out.get(&from.0)?;
        let mut x = rng.gen_range(0.0..1.0f64);
        for (&to, &w) in targets {
            if x < w {
                return Some(DescId(to));
            }
            x -= w;
        }
        None
    }

    /// All out-edges of `from`, for diagnostics and the relation-explorer
    /// example.
    pub fn successors(&self, from: DescId) -> Vec<(DescId, f64)> {
        self.out
            .get(&from.0)
            .map(|m| m.iter().map(|(&to, &w)| (DescId(to), w)).collect())
            .unwrap_or_default()
    }

    /// Every edge as `(from, to, weight)`, by ascending `(from, to)` id.
    pub fn edges(&self) -> impl Iterator<Item = (DescId, DescId, f64)> + '_ {
        self.out.iter().flat_map(|(&a, m)| m.iter().map(move |(&b, &w)| (DescId(a), DescId(b), w)))
    }

    /// The `count` heaviest edges, descending, as `(from, to, weight)`.
    pub fn top_edges(&self, count: usize) -> Vec<(DescId, DescId, f64)> {
        let mut edges: Vec<(DescId, DescId, f64)> = self.edges().collect();
        edges.sort_by(|x, y| y.2.total_cmp(&x.2));
        edges.truncate(count);
        edges
    }

    /// Sum of in-edge weights of `b` (1.0 for any vertex that has been a
    /// learn target and has not decayed — the Eq. 1 invariant).
    pub fn in_weight_sum(&self, b: DescId) -> f64 {
        let sources = self.sources.get(b.0).map_or(&[][..], Vec::as_slice);
        sources.iter().map(|a| self.out[a][&b.0]).sum()
    }

    /// Serializes the learned edges in a line-oriented text format keyed
    /// by call-description *names* (stable across engine restarts, unlike
    /// raw indices), the daemon's persistent representation:
    ///
    /// ```text
    /// # relation-graph learns=N
    /// edge <from>\t<to>\t<weight>
    /// ```
    ///
    /// Weights print with Rust's shortest-roundtrip float formatting, so
    /// export → import → export is byte-identical.
    ///
    /// The text goes into one buffer sized up front from the names and a
    /// typical weight width; weights are written in place.
    pub fn export(&self, table: &DescTable) -> String {
        use std::fmt::Write;
        let name = |id: usize| table.get(DescId(id)).name.as_str();
        let size: usize = self
            .out
            .iter()
            .map(|(&a, targets)| {
                let from = name(a).len() + "edge \t\t\n".len() + 24;
                targets.keys().map(|&b| from + name(b).len()).sum::<usize>()
            })
            .sum();
        let mut out = String::with_capacity(48 + size);
        writeln!(out, "# relation-graph learns={}", self.learn_events).expect("write to String");
        for (&a, targets) in &self.out {
            let from = name(a);
            for (&b, &w) in targets {
                out.push_str("edge ");
                out.push_str(from);
                out.push('\t');
                out.push_str(name(b));
                out.push('\t');
                write!(out, "{w}").expect("write to String");
                out.push('\n');
            }
        }
        out
    }

    /// Restores edges from an [`export`](Self::export) dump, resolving
    /// names against `table`. Malformed lines and edges naming calls
    /// absent from the current vocabulary are skipped; returns
    /// `(accepted, rejected)`.
    ///
    /// Parsing is staged: nothing touches the graph until the whole text
    /// has been scanned, so a line that fails mid-import cannot leave a
    /// partially-applied record behind. Only after staging are the
    /// accepted edges inserted and every target's in-weights renormalized
    /// so they remain a valid distribution (Σ ≤ 1, the Eq. 1 invariant).
    pub fn import(&mut self, text: &str, table: &DescTable) -> (usize, usize) {
        let counts = self.insert_exported(text, table);
        self.normalize_in_weights();
        counts
    }

    /// The staged parse-and-insert half of [`import`](Self::import),
    /// without the renormalization.
    fn insert_exported(&mut self, text: &str, table: &DescTable) -> (usize, usize) {
        let mut accepted = 0;
        let mut rejected = 0;
        let mut staged: Vec<(DescId, DescId, f64)> = Vec::new();
        let mut learns = 0u64;
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("# relation-graph ") {
                if let Some(n) = header
                    .split("learns=")
                    .nth(1)
                    .and_then(|v| v.trim().parse::<u64>().ok())
                {
                    learns = learns.max(n);
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let parsed = line.strip_prefix("edge ").and_then(|rest| {
                let mut fields = rest.split('\t');
                let a = table.id_of(fields.next()?)?;
                let b = table.id_of(fields.next()?)?;
                let w: f64 = fields.next()?.parse().ok()?;
                (w.is_finite() && w >= 0.0).then_some((a, b, w))
            });
            match parsed {
                Some(edge) => {
                    staged.push(edge);
                    accepted += 1;
                }
                None => rejected += 1,
            }
        }
        self.learn_events = self.learn_events.max(learns);
        self.revision += 1;
        for (a, b, w) in staged {
            self.set_edge(a.0, b.0, w);
        }
        (accepted, rejected)
    }

    /// The graph in wire form (see [`WireGraph`]).
    pub fn to_wire(&self) -> WireGraph {
        WireGraph {
            learn_events: self.learn_events,
            edges: self.edges().map(|(a, b, w)| (a.0, b.0, w.to_bits())).collect(),
        }
    }

    /// Restores edges from their wire form, staged and renormalized
    /// exactly like [`import`](Self::import), so the result equals
    /// importing the sender's export text. An edge is rejected when an
    /// id is outside `table`, when an end's name holds a tab or newline
    /// (the text form cannot carry it), or when its weight is negative
    /// or not finite. Returns `(accepted, rejected)`.
    pub fn import_wire(&mut self, wire: &WireGraph, table: &DescTable) -> (usize, usize) {
        let text_safe =
            |id: usize| id < table.len() && !table.get(DescId(id)).name.contains(['\t', '\n']);
        let staged: Vec<(usize, usize, f64)> = wire
            .edges
            .iter()
            .map(|&(a, b, bits)| (a, b, f64::from_bits(bits)))
            .filter(|&(a, b, w)| text_safe(a) && text_safe(b) && w.is_finite() && w >= 0.0)
            .collect();
        let counts = (staged.len(), wire.edges.len() - staged.len());
        self.learn_events = self.learn_events.max(wire.learn_events);
        self.revision += 1;
        for (a, b, w) in staged {
            self.set_edge(a, b, w);
        }
        self.normalize_in_weights();
        counts
    }

    /// Merges a peer's learned edges into this graph (fleet relation
    /// sync). Peer weights are added source-wise per target, then each
    /// target's in-weights are rescaled so their sum equals the larger of
    /// the two graphs' original in-weight sums (capped at 1) — keeping
    /// every in-edge set a valid distribution per Eq. 1 while preserving
    /// the residual stop probability decay has earned.
    ///
    /// Three linear passes into per-vertex arrays (own, peer and combined
    /// column sums), one map lookup per peer edge for the add, and one
    /// rescale pass: `O(|E_self| + |E_peer| log |E| + |V|)`.
    ///
    /// Both graphs must be built over the same description table (fleet
    /// shards share one device model and config).
    pub fn merge_from(&mut self, peer: &RelationGraph) {
        self.revision += 1;
        assert_eq!(
            self.vertex_count(),
            peer.vertex_count(),
            "relation graphs from different vocabularies cannot merge"
        );
        let width = self.sources.len().max(peer.sources.len());
        let own_sums = self.column_sums(width);
        let peer_sums = peer.column_sums(width);
        for (&a, targets) in &peer.out {
            let row = self.out.entry(a).or_default();
            for (&b, &w) in targets {
                match row.entry(b) {
                    Entry::Occupied(mut existing) => *existing.get_mut() += w,
                    Entry::Vacant(slot) => {
                        slot.insert(w);
                        self.edge_count += 1;
                        index_source(&mut self.sources, a, b);
                    }
                }
            }
        }
        // Rescale each touched target back to a valid distribution.
        let scales: Vec<Option<f64>> = self
            .column_sums(width)
            .into_iter()
            .zip(own_sums.iter().zip(&peer_sums))
            .map(|(combined, (&own, &theirs))| {
                let goal = own.max(theirs).min(1.0);
                (combined > 0.0 && (combined - goal).abs() > f64::EPSILON)
                    .then(|| goal / combined)
            })
            .collect();
        self.rescale_columns(&scales);
        // Wrapping: fleet sync compounds this count (the hub adds every
        // shard's, each shard adds the hub's back on pull).
        self.learn_events = self.learn_events.wrapping_add(peer.learn_events);
    }

    /// Caps every vertex's in-weight sum at 1 (used after importing raw
    /// weights from text, which an adversarial snapshot could inflate).
    fn normalize_in_weights(&mut self) {
        // Tolerance keeps clean re-imports byte-identical: float addition
        // of a learn-produced distribution may land a hair above 1
        // without being adversarial.
        let scales: Vec<Option<f64>> = self
            .column_sums(self.sources.len())
            .into_iter()
            .map(|sum| (sum > 1.0 + 1e-9).then(|| 1.0 / sum))
            .collect();
        self.rescale_columns(&scales);
    }

    /// Sets `w(a,b)`, inserting (and indexing) the edge when it is new.
    fn set_edge(&mut self, a: usize, b: usize, w: f64) {
        if self.out.entry(a).or_default().insert(b, w).is_none() {
            self.edge_count += 1;
            index_source(&mut self.sources, a, b);
        }
    }

    /// Rebuilds the source index from `out` (ascending rows push each
    /// column's sources in order).
    fn rebuild_sources(&mut self) {
        self.sources.iter_mut().for_each(Vec::clear);
        for (&a, targets) in &self.out {
            for &b in targets.keys() {
                self.sources[b].push(a);
            }
        }
    }

    /// In-weight sum of every target `< width`, each accumulated in
    /// ascending source order.
    fn column_sums(&self, width: usize) -> Vec<f64> {
        let mut sums = vec![0.0; width];
        for targets in self.out.values() {
            for (&b, &w) in targets {
                sums[b] += w;
            }
        }
        sums
    }

    /// Multiplies every in-edge of each target `b` by `scales[b]`, if set.
    fn rescale_columns(&mut self, scales: &[Option<f64>]) {
        for targets in self.out.values_mut() {
            for (&b, w) in targets.iter_mut() {
                if let Some(scale) = scales[b] {
                    *w *= scale;
                }
            }
        }
    }
}

/// Records the new edge `a → b` in the source index, keeping `b`'s
/// column ascending.
fn index_source(sources: &mut Vec<Vec<usize>>, a: usize, b: usize) {
    if b >= sources.len() {
        sources.resize_with(b + 1, Vec::new);
    }
    let column = &mut sources[b];
    let at = column.partition_point(|&x| x < a);
    column.insert(at, a);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzlang::desc::{CallDesc, CallKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> DescTable {
        let mut t = DescTable::new();
        for i in 0..n {
            t.add(CallDesc::new(
                format!("call{i}"),
                CallKind::Hal { service: "s".into(), code: i as u32 },
                vec![],
                None,
            ));
        }
        t
    }

    #[test]
    fn eq1_first_edge_gets_full_weight() {
        let t = table(3);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(2));
        assert_eq!(g.edge_weight(DescId(0), DescId(2)), Some(1.0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn eq1_in_weights_always_sum_to_one() {
        let t = table(5);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(4));
        g.learn(DescId(1), DescId(4));
        g.learn(DescId(2), DescId(4));
        let sum = g.in_weight_sum(DescId(4));
        assert!((sum - 1.0).abs() < 1e-9, "in-weights sum to {sum}");
        // Latest learner holds the majority of the mass.
        let w2 = g.edge_weight(DescId(2), DescId(4)).unwrap();
        let w1 = g.edge_weight(DescId(1), DescId(4)).unwrap();
        let w0 = g.edge_weight(DescId(0), DescId(4)).unwrap();
        // After (0→4), (1→4), (2→4): w = 0.25, 0.25, 0.5 per Eq. 1.
        assert!(w2 > w1 && w1 >= w0);
        assert!((w2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn relearning_same_edge_restores_dominance() {
        let t = table(4);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(3));
        g.learn(DescId(1), DescId(3));
        g.learn(DescId(0), DescId(3));
        let w0 = g.edge_weight(DescId(0), DescId(3)).unwrap();
        let w1 = g.edge_weight(DescId(1), DescId(3)).unwrap();
        assert!(w0 > w1);
        assert!((g.in_weight_sum(DescId(3)) - 1.0).abs() < 1e-9);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_edges_ignored() {
        let t = table(2);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(1), DescId(1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn decay_shrinks_and_prunes() {
        let t = table(3);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(1));
        g.decay(0.5);
        assert_eq!(g.edge_weight(DescId(0), DescId(1)), Some(0.5));
        for _ in 0..20 {
            g.decay(0.5);
        }
        assert_eq!(g.edge_count(), 0, "tiny edges are pruned");
    }

    #[test]
    fn sample_base_respects_vertex_weights() {
        let mut t = DescTable::new();
        t.add(
            CallDesc::new("rare", CallKind::Hal { service: "s".into(), code: 0 }, vec![], None)
                .with_weight(0.01),
        );
        t.add(
            CallDesc::new("hot", CallKind::Hal { service: "s".into(), code: 1 }, vec![], None)
                .with_weight(10.0),
        );
        let g = RelationGraph::new(&t);
        let mut rng = StdRng::seed_from_u64(5);
        let hot = (0..1000).filter(|_| g.sample_base(&mut rng) == DescId(1)).count();
        assert!(hot > 950, "hot vertex should dominate, got {hot}");
    }

    #[test]
    fn sample_next_follows_edges_or_stops() {
        let t = table(3);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(1));
        g.decay(0.6); // w = 0.6: both outcomes possible
        let mut rng = StdRng::seed_from_u64(6);
        let mut hits = 0;
        let mut stops = 0;
        for _ in 0..1000 {
            match g.sample_next(DescId(0), &mut rng) {
                Some(DescId(1)) => hits += 1,
                None => stops += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(hits > 500 && stops > 300, "hits={hits} stops={stops}");
        assert_eq!(g.sample_next(DescId(2), &mut rng), None);
    }

    #[test]
    fn export_import_roundtrip_is_byte_identical() {
        let t = table(5);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(4));
        g.learn(DescId(1), DescId(4));
        g.learn(DescId(2), DescId(3));
        g.decay(0.7);
        let text = g.export(&t);
        let mut restored = RelationGraph::new(&t);
        let (accepted, rejected) = restored.import(&text, &t);
        assert_eq!((accepted, rejected), (3, 0));
        assert_eq!(restored.edge_count(), 3);
        assert_eq!(restored.export(&t), text);
        assert_eq!(restored.learn_events(), g.learn_events());
    }

    #[test]
    fn import_skips_unknown_calls_and_garbage() {
        let t = table(3);
        let mut g = RelationGraph::new(&t);
        let text = "# relation-graph learns=4\n\
                    edge call0\tcall1\t0.5\n\
                    edge call0\tcall_gone\t0.5\n\
                    edge call2\tcall1\tNaN\n\
                    edge call2\tcall1\t-1.0\n\
                    not an edge line\n\
                    edge truncated\n";
        let (accepted, rejected) = g.import(text, &t);
        assert_eq!(accepted, 1);
        assert_eq!(rejected, 5);
        assert_eq!(g.edge_weight(DescId(0), DescId(1)), Some(0.5));
    }

    #[test]
    fn corrupt_import_preserves_eq1_per_auditor() {
        let t = table(4);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(3));
        g.learn(DescId(1), DescId(3));
        // Inflated weight, NaN, an overwrite of a learned edge, garbage —
        // after import the export must still audit clean for Eq. 1.
        let corrupt = "edge call2\tcall3\t250\n\
                       edge call2\tcall3\tNaN\n\
                       edge call0\tcall3\t0.9\n\
                       garbage line\n";
        let (accepted, rejected) = g.import(corrupt, &t);
        assert_eq!((accepted, rejected), (2, 2));
        let report = droidfuzz_analysis::audit_relations(&g.export(&t), &t);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(g.in_weight_sum(DescId(3)) <= 1.0 + 1e-9);
    }

    #[test]
    fn import_caps_inflated_in_weights() {
        let t = table(3);
        let mut g = RelationGraph::new(&t);
        let text = "edge call0\tcall2\t0.9\nedge call1\tcall2\t0.9\n";
        g.import(text, &t);
        let sum = g.in_weight_sum(DescId(2));
        assert!((sum - 1.0).abs() < 1e-9, "inflated in-weights capped, got {sum}");
    }

    #[test]
    fn merge_keeps_in_weights_a_distribution() {
        let t = table(5);
        let mut a = RelationGraph::new(&t);
        a.learn(DescId(0), DescId(4));
        a.learn(DescId(1), DescId(4));
        let mut b = RelationGraph::new(&t);
        b.learn(DescId(2), DescId(4));
        b.learn(DescId(3), DescId(4));
        b.learn(DescId(0), DescId(1));
        a.merge_from(&b);
        let sum = a.in_weight_sum(DescId(4));
        assert!((sum - 1.0).abs() < 1e-9, "merged in-weights sum to {sum}");
        assert_eq!(a.in_weight_sum(DescId(1)), 1.0);
        // Every source that ever learned into 4 has surviving mass.
        for src in [0, 1, 2, 3] {
            assert!(a.edge_weight(DescId(src), DescId(4)).unwrap() > 0.0);
        }
        assert_eq!(a.learn_events(), 5);
    }

    #[test]
    fn merge_preserves_decay_residual() {
        let t = table(3);
        let mut a = RelationGraph::new(&t);
        a.learn(DescId(0), DescId(2));
        a.decay(0.5); // in-weight sum of 2 is now 0.5
        let mut b = RelationGraph::new(&t);
        b.learn(DescId(1), DescId(2));
        b.decay(0.4); // in-weight sum of 2 is 0.4
        a.merge_from(&b);
        let sum = a.in_weight_sum(DescId(2));
        assert!(
            (sum - 0.5).abs() < 1e-9,
            "merge keeps the larger decayed sum, got {sum}"
        );
    }

    #[test]
    fn seed_prior_splits_half_mass_and_keeps_eq1() {
        let t = table(5);
        let mut g = RelationGraph::new(&t);
        g.seed_prior(&[(DescId(0), DescId(4)), (DescId(1), DescId(4)), (DescId(2), DescId(3))]);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.learn_events(), 0, "priors are not observations");
        assert_eq!(g.edge_weight(DescId(0), DescId(4)), Some(0.25));
        assert_eq!(g.edge_weight(DescId(1), DescId(4)), Some(0.25));
        assert_eq!(g.edge_weight(DescId(2), DescId(3)), Some(0.5));
        // Runtime learning on top of priors keeps the Eq. 1 invariant.
        let mut warmed = g.clone();
        warmed.learn(DescId(2), DescId(4));
        assert!((warmed.in_weight_sum(DescId(4)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn seed_prior_never_overwrites_learned_edges() {
        let t = table(4);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(3));
        let rev = g.revision();
        g.seed_prior(&[(DescId(0), DescId(3)), (DescId(1), DescId(3))]);
        assert_eq!(g.edge_weight(DescId(0), DescId(3)), Some(1.0), "learned edge untouched");
        assert_eq!(
            g.edge_weight(DescId(1), DescId(3)),
            None,
            "no budget left once learned mass covers the prior half"
        );
        assert!(g.revision() > rev);
        assert!(g.in_weight_sum(DescId(3)) <= 1.0 + 1e-9);
        // Self-pairs are ignored, empty seeding is a no-op.
        let rev = g.revision();
        g.seed_prior(&[(DescId(2), DescId(2))]);
        g.seed_prior(&[]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.revision(), rev + 1);
    }

    #[test]
    fn seeded_graph_exports_audit_clean() {
        let t = table(4);
        let mut g = RelationGraph::new(&t);
        g.seed_prior(&[(DescId(0), DescId(2)), (DescId(1), DescId(2)), (DescId(0), DescId(3))]);
        let report = droidfuzz_analysis::audit_relations(&g.export(&t), &t);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn top_edges_sorted_descending() {
        let t = table(4);
        let mut g = RelationGraph::new(&t);
        g.learn(DescId(0), DescId(1));
        g.learn(DescId(2), DescId(1));
        g.learn(DescId(0), DescId(3));
        let top = g.top_edges(10);
        assert_eq!(top.len(), 3);
        assert!(top[0].2 >= top[1].2 && top[1].2 >= top[2].2);
    }

    #[test]
    fn merge_wraps_compounded_learn_counts() {
        // Fleet sync compounds learn counts (hub adds shards', shards add
        // the hub's back), so long synced runs reach u64::MAX; the count
        // wraps in every build profile instead of panicking in debug.
        let t = table(3);
        let text = "# relation-graph learns=18446744073709551615\nedge call0\tcall1\t0.5\n";
        let mut a = RelationGraph::new(&t);
        a.import(text, &t);
        let mut b = RelationGraph::new(&t);
        b.import(text, &t);
        a.merge_from(&b);
        assert_eq!(a.learn_events(), u64::MAX.wrapping_add(u64::MAX));
        a.learn(DescId(2), DescId(1));
        a.learn(DescId(2), DescId(0));
        assert_eq!(a.learn_events(), 0);
    }

    /// The column-scan implementations the indexed methods replaced: every
    /// per-target sum rescans all source rows. A differential oracle for
    /// bit-identity; each call rebuilds the source index from `out` so the
    /// reference graph's index is derived, never maintained.
    mod reference {
        use super::super::*;
        use std::collections::BTreeSet;

        pub fn learn(g: &mut RelationGraph, a: DescId, b: DescId) {
            if a == b {
                return;
            }
            g.learn_events = g.learn_events.wrapping_add(1);
            let mut sum_others = 0.0;
            for (&from, targets) in &mut g.out {
                if from == a.0 {
                    continue;
                }
                if let Some(w) = targets.get_mut(&b.0) {
                    *w /= 2.0;
                    sum_others += *w;
                }
            }
            let entry = g.out.entry(a.0).or_default();
            let new_weight = (1.0 - sum_others).max(0.0);
            if entry.insert(b.0, new_weight).is_none() {
                g.edge_count += 1;
            }
            g.rebuild_sources();
        }

        pub fn seed_prior(g: &mut RelationGraph, pairs: &[(DescId, DescId)]) {
            let mut by_target: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (a, b) in pairs {
                if a != b {
                    by_target.entry(b.0).or_default().push(a.0);
                }
            }
            for (b, sources) in by_target {
                let existing: f64 = g.out.values().filter_map(|m| m.get(&b)).sum();
                let budget = (0.5 - existing).max(0.0);
                if budget <= 0.0 {
                    continue;
                }
                let fresh: Vec<usize> = sources
                    .iter()
                    .copied()
                    .filter(|a| g.out.get(a).is_none_or(|m| !m.contains_key(&b)))
                    .collect();
                if fresh.is_empty() {
                    continue;
                }
                let w = budget / fresh.len() as f64;
                for a in fresh {
                    if g.out.entry(a).or_default().insert(b, w).is_none() {
                        g.edge_count += 1;
                    }
                }
            }
            g.rebuild_sources();
        }

        pub fn import(g: &mut RelationGraph, text: &str, table: &DescTable) -> (usize, usize) {
            let counts = g.insert_exported(text, table);
            normalize_in_weights(g);
            g.rebuild_sources();
            counts
        }

        pub fn merge_from(g: &mut RelationGraph, peer: &RelationGraph) {
            let mut target_sum_self: BTreeMap<usize, f64> = BTreeMap::new();
            for targets in g.out.values() {
                for (&b, &w) in targets {
                    *target_sum_self.entry(b).or_default() += w;
                }
            }
            let mut target_sum_peer: BTreeMap<usize, f64> = BTreeMap::new();
            for targets in peer.out.values() {
                for (&b, &w) in targets {
                    *target_sum_peer.entry(b).or_default() += w;
                }
            }
            for (&a, targets) in &peer.out {
                for (&b, &w) in targets {
                    let entry = g.out.entry(a).or_default();
                    match entry.get_mut(&b) {
                        Some(existing) => *existing += w,
                        None => {
                            entry.insert(b, w);
                            g.edge_count += 1;
                        }
                    }
                }
            }
            let targets: BTreeSet<usize> =
                target_sum_self.keys().chain(target_sum_peer.keys()).copied().collect();
            for b in targets {
                let combined: f64 = g.out.values().filter_map(|m| m.get(&b)).sum();
                let goal = target_sum_self
                    .get(&b)
                    .copied()
                    .unwrap_or(0.0)
                    .max(target_sum_peer.get(&b).copied().unwrap_or(0.0))
                    .min(1.0);
                if combined > 0.0 && (combined - goal).abs() > f64::EPSILON {
                    let scale = goal / combined;
                    for targets in g.out.values_mut() {
                        if let Some(w) = targets.get_mut(&b) {
                            *w *= scale;
                        }
                    }
                }
            }
            g.learn_events = g.learn_events.wrapping_add(peer.learn_events);
            g.rebuild_sources();
        }

        fn normalize_in_weights(g: &mut RelationGraph) {
            let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
            for targets in g.out.values() {
                for (&b, &w) in targets {
                    *sums.entry(b).or_default() += w;
                }
            }
            for (b, sum) in sums {
                if sum > 1.0 + 1e-9 {
                    let scale = 1.0 / sum;
                    for targets in g.out.values_mut() {
                        if let Some(w) = targets.get_mut(&b) {
                            *w *= scale;
                        }
                    }
                }
            }
        }

        /// In-weight sum of `b` by full column scan.
        pub fn in_weight_sum(g: &RelationGraph, b: usize) -> f64 {
            g.out.values().filter_map(|m| m.get(&b)).sum()
        }

        /// The export text, one `format!` per edge.
        pub fn export(g: &RelationGraph, table: &DescTable) -> String {
            let mut out = format!("# relation-graph learns={}\n", g.learn_events);
            for (&a, targets) in &g.out {
                for (&b, &w) in targets {
                    out.push_str(&format!(
                        "edge {}\t{}\t{w}\n",
                        table.get(DescId(a)).name,
                        table.get(DescId(b)).name,
                    ));
                }
            }
            out
        }
    }

    #[test]
    fn campaign_hub_graph_exports_like_the_reference() {
        use crate::config::FuzzerConfig;
        use crate::fleet::{Fleet, FleetConfig, FleetSnapshot};
        let spec = simdevice::catalog::device_a1();
        let cfg =
            FleetConfig { shards: 2, hours: 0.2, sync_interval_hours: 0.05, ..Default::default() };
        let result = Fleet::new(cfg).run(&spec, FuzzerConfig::droidfuzz);
        let snapshot = FleetSnapshot::parse(&result.snapshot).expect("own snapshot parses");
        let engine = crate::engine::FuzzingEngine::new(spec.boot(), FuzzerConfig::droidfuzz(1));
        let t = engine.desc_table();
        let mut hub = RelationGraph::new(t);
        hub.import(&snapshot.relations_text, t);
        assert!(hub.edge_count() > 10, "the campaign learned edges");
        assert_eq!(hub.export(t), reference::export(&hub, t));
        assert_eq!(hub.export(t), snapshot.relations_text);
    }

    /// A graph evolved through the indexed methods next to one evolved
    /// through the reference, op for op.
    struct Twin {
        fast: RelationGraph,
        slow: RelationGraph,
    }

    const VERTICES: usize = 6;
    /// Import weights: zero (also negative zero), fractions, inflated,
    /// below the decay floor.
    const WEIGHTS: [&str; 9] = ["0", "-0", "0.25", "0.5", "0.9", "1", "3.5", "1e-5", "0.1"];

    impl Twin {
        fn new(t: &DescTable) -> Self {
            Self { fast: RelationGraph::new(t), slow: RelationGraph::new(t) }
        }

        /// Applies one decoded op; `p` parameterizes decay factors,
        /// prior pairs and import text.
        fn apply(&mut self, op: u8, p: u8, a: usize, b: usize, t: &DescTable) {
            let (ia, ib) = (DescId(a), DescId(b));
            match op {
                0 => {
                    self.fast.learn(ia, ib);
                    reference::learn(&mut self.slow, ia, ib);
                }
                1 => {
                    let factor = [0.3, 0.5, 0.7, 0.9][p as usize % 4];
                    self.fast.decay(factor);
                    self.slow.decay(factor);
                }
                2 => {
                    let c = DescId((a + 1 + p as usize) % VERTICES);
                    let pairs = [(ia, ib), (c, ib), (ib, c), (ia, ib)];
                    self.fast.seed_prior(&pairs);
                    reference::seed_prior(&mut self.slow, &pairs);
                }
                _ => {
                    let w = |k: usize| WEIGHTS[(p as usize / (k + 1) + k) % WEIGHTS.len()];
                    let c = (a + 3) % VERTICES;
                    let text = format!(
                        "# relation-graph learns={p}\nedge call{a}\tcall{b}\t{}\n\
                         edge call{b}\tcall{a}\t{}\nedge call{c}\tcall{b}\t{}\ngarbage\n",
                        w(0),
                        w(1),
                        w(2),
                    );
                    let counts = self.fast.import(&text, t);
                    assert_eq!(counts, reference::import(&mut self.slow, &text, t));
                }
            }
        }

        fn merge_from(&mut self, peer: &Twin) {
            self.fast.merge_from(&peer.fast);
            reference::merge_from(&mut self.slow, &peer.slow);
        }

        fn self_merge(&mut self) {
            let copy = self.fast.clone();
            self.fast.merge_from(&copy);
            let copy = self.slow.clone();
            reference::merge_from(&mut self.slow, &copy);
        }

        fn check(&self, t: &DescTable) -> Result<(), String> {
            let bits = |g: &RelationGraph| -> Vec<(usize, usize, u64)> {
                g.out
                    .iter()
                    .flat_map(|(&a, m)| m.iter().map(move |(&b, w)| (a, b, w.to_bits())))
                    .collect()
            };
            prop_assert_eq!(bits(&self.fast), bits(&self.slow));
            prop_assert_eq!(self.fast.edge_count, self.slow.edge_count);
            prop_assert_eq!(self.fast.learn_events, self.slow.learn_events);
            prop_assert_eq!(self.fast.export(t), reference::export(&self.slow, t));
            // The incrementally maintained index equals one rebuilt from
            // `out`, and no empty rows exist.
            prop_assert_eq!(&self.fast.sources, &self.slow.sources);
            prop_assert!(self.fast.out.values().all(|m| !m.is_empty()));
            let rows = self.fast.out.values();
            prop_assert_eq!(self.fast.edge_count, rows.map(BTreeMap::len).sum::<usize>());
            for b in 0..VERTICES {
                prop_assert_eq!(
                    self.fast.in_weight_sum(DescId(b)).to_bits(),
                    reference::in_weight_sum(&self.slow, b).to_bits()
                );
            }
            Ok(())
        }
    }

    /// Names whose order is not their id order; one holds a tab, which
    /// the text form cannot carry.
    const WIRE_NAMES: [&str; 7] = ["m", "c", "tab\tname", "a", "q", "b", "zz"];

    fn wire_table() -> DescTable {
        let mut t = DescTable::new();
        for (code, name) in WIRE_NAMES.into_iter().enumerate() {
            let kind = CallKind::Hal { service: "s".into(), code: code as u32 };
            t.add(CallDesc::new(name, kind, vec![], None));
        }
        t
    }

    /// Everything two graphs can differ in: edge weight bits, edge count,
    /// learn count, the source index and the export text.
    fn same_graph(x: &RelationGraph, y: &RelationGraph, t: &DescTable) -> Result<(), String> {
        let bits = |g: &RelationGraph| -> Vec<(usize, usize, u64)> {
            g.to_wire().edges
        };
        prop_assert_eq!(bits(x), bits(y));
        prop_assert_eq!(x.edge_count, y.edge_count);
        prop_assert_eq!(x.learn_events, y.learn_events);
        prop_assert_eq!(&x.sources, &y.sources);
        prop_assert_eq!(x.export(t), y.export(t));
        Ok(())
    }

    #[test]
    fn wire_import_rejects_and_counts_bad_triples() {
        let t = wire_table();
        let wire = WireGraph {
            learn_events: 9,
            edges: vec![
                (0, 1, 0.5f64.to_bits()),
                (7, 1, 0.5f64.to_bits()),
                (0, usize::MAX, 0.5f64.to_bits()),
                (3, 4, (-0.25f64).to_bits()),
                (3, 4, f64::NAN.to_bits()),
                (3, 4, f64::INFINITY.to_bits()),
                (2, 4, 0.5f64.to_bits()),
                (4, 5, (-0.0f64).to_bits()),
            ],
        };
        let mut g = RelationGraph::new(&t);
        assert_eq!(g.import_wire(&wire, &t), (2, 6));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.learn_events(), 9);
        assert_eq!(g.edge_weight(DescId(4), DescId(5)).map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    proptest! {
        /// Graphs built by random learn, decay (pruning), merge and prior
        /// sequences cross the wire as triples into the graph their export
        /// text imports into, and both export the same text.
        #[test]
        fn wire_round_trip_equals_text_round_trip(
            ops in prop::collection::vec((0u8..8, 0usize..WIRE_NAMES.len(), 0usize..WIRE_NAMES.len()), 1..60),
        ) {
            let t = wire_table();
            let (mut graph, mut peer) = (RelationGraph::new(&t), RelationGraph::new(&t));
            for (op, a, b) in ops {
                match op {
                    0..=2 => graph.learn(DescId(a), DescId(b)),
                    3 => peer.learn(DescId(a), DescId(b)),
                    4 => graph.decay([0.01, 0.5, 0.9][a % 3]),
                    5 => graph.merge_from(&peer),
                    6 => graph.seed_prior(&[(DescId(a), DescId(b)), (DescId(b), DescId((a + 1) % 7))]),
                    _ => peer.decay(0.5),
                }
                let (mut by_text, mut by_wire) = (RelationGraph::new(&t), RelationGraph::new(&t));
                let text_counts = by_text.import(&graph.export(&t), &t);
                let wire_counts = by_wire.import_wire(&graph.to_wire(), &t);
                prop_assert_eq!(text_counts, wire_counts);
                same_graph(&by_text, &by_wire, &t)?;
            }
        }
    }

    proptest! {
        /// Random learn/decay/seed/import/merge sequences (including
        /// weight-0 edges, decayed targets and self-merges) leave the
        /// indexed graph bit-identical to the column-scan reference.
        #[test]
        fn indexed_graph_matches_column_scan_reference(
            ops in prop::collection::vec(
                ((0u8..18, 0u8..255), 0usize..VERTICES, 0usize..VERTICES),
                1..80,
            ),
        ) {
            let t = table(VERTICES);
            let mut main = Twin::new(&t);
            let mut peer = Twin::new(&t);
            for ((op, p), a, b) in ops {
                match op {
                    0..=4 => main.apply(0, p, a, b, &t),
                    5..=7 => main.apply(op - 4, p, a, b, &t),
                    8..=10 => peer.apply(0, p, a, b, &t),
                    11 => peer.apply(1, p, a, b, &t),
                    12 => peer.apply(2 + p % 2, p, a, b, &t),
                    13 | 14 => main.merge_from(&peer),
                    15 => main.self_merge(),
                    16 => peer.merge_from(&main),
                    _ => peer.self_merge(),
                }
                main.check(&t)?;
                peer.check(&t)?;
            }
        }
    }
}
