//! Output checks. Each returns `Err` with what differed; the workloads count
//! every `Err` as a failed op. The checkers are themselves tested: a flipped
//! transcript byte, a swapped row and a stale answer must each be rejected.

use simrankpp_graph::QueryId;
use simrankpp_serve::{MappedIndex, RewriteIndex, ServingIndex};
use std::fmt::Write as _;

/// The read surface shared by the heap index, the mapped snapshot and the
/// handle's enum, so one checker compares any two of them.
pub trait Rows {
    fn n_queries(&self) -> usize;
    fn row(&self, q: QueryId) -> (&[u32], &[f64]);
    fn name(&self, q: QueryId) -> Option<&str>;
    fn id_of(&self, name: &str) -> Option<QueryId>;
}

impl Rows for RewriteIndex {
    fn n_queries(&self) -> usize {
        RewriteIndex::n_queries(self)
    }
    fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
        let set = self.rewrites_of(q);
        (set.ids(), set.scores())
    }
    fn name(&self, q: QueryId) -> Option<&str> {
        self.query_name(q)
    }
    fn id_of(&self, name: &str) -> Option<QueryId> {
        self.lookup_id(name)
    }
}

impl Rows for MappedIndex {
    fn n_queries(&self) -> usize {
        MappedIndex::n_queries(self)
    }
    fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
        MappedIndex::row(self, q)
    }
    fn name(&self, q: QueryId) -> Option<&str> {
        self.query_name(q)
    }
    fn id_of(&self, name: &str) -> Option<QueryId> {
        self.lookup(name)
    }
}

impl Rows for ServingIndex {
    fn n_queries(&self) -> usize {
        ServingIndex::n_queries(self)
    }
    fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
        ServingIndex::row(self, q)
    }
    fn name(&self, q: QueryId) -> Option<&str> {
        self.query_name(q)
    }
    fn id_of(&self, name: &str) -> Option<QueryId> {
        self.lookup(name)
    }
}

/// `a` and `b` hold the same rows: same ids, same score bits, same names.
pub fn rows_equal(a: &dyn Rows, b: &dyn Rows) -> Result<(), String> {
    if a.n_queries() != b.n_queries() {
        return Err(format!(
            "query counts differ: {} vs {}",
            a.n_queries(),
            b.n_queries()
        ));
    }
    for q in (0..a.n_queries() as u32).map(QueryId) {
        let ((ta, sa), (tb, sb)) = (a.row(q), b.row(q));
        let same_scores =
            sa.len() == sb.len() && sa.iter().zip(sb).all(|(x, y)| x.to_bits() == y.to_bits());
        if ta != tb || !same_scores || a.name(q) != b.name(q) {
            return Err(format!(
                "row {} ({:?}) differs: {ta:?} {sa:?} vs {tb:?} {sb:?}",
                q.0,
                a.name(q)
            ));
        }
    }
    Ok(())
}

/// FNV-1a over every row's length, ids and score bits.
pub fn digest(rows: &dyn Rows) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(rows.n_queries() as u64);
    for q in (0..rows.n_queries() as u32).map(QueryId) {
        let (targets, scores) = rows.row(q);
        eat(targets.len() as u64);
        targets.iter().for_each(|&t| eat(u64::from(t)));
        scores.iter().for_each(|s| eat(s.to_bits()));
    }
    h
}

/// The response line the protocol must give for `rewrite <name>` against
/// `rows`, rendered from direct index calls (names here never hold tabs).
pub fn render_response(rows: &dyn Rows, name: &str, out: &mut String) {
    match rows.id_of(name) {
        None => {
            let _ = writeln!(out, "err\tunknown query\t{name}");
        }
        Some(q) => {
            let (targets, scores) = rows.row(q);
            let _ = write!(out, "ok\t{name}\t{}", targets.len());
            for (&t, &s) in targets.iter().zip(scores) {
                match rows.name(QueryId(t)) {
                    Some(n) => {
                        let _ = write!(out, "\t{n}\t{s:.6}");
                    }
                    None => {
                        let _ = write!(out, "\t#{t}\t{s:.6}");
                    }
                }
            }
            out.push('\n');
        }
    }
}

/// Byte-for-byte transcript comparison; the error names the first line that
/// differs.
pub fn transcripts_equal(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let (mut g, mut w) = (got.split(|&b| b == b'\n'), want.split(|&b| b == b'\n'));
    let mut line = 1;
    loop {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                let show = |l: Option<&[u8]>| {
                    l.map_or("<end of transcript>".to_owned(), |l| {
                        String::from_utf8_lossy(l).into_owned()
                    })
                };
                return Err(format!(
                    "transcript line {line} differs: got {:?}, want {:?}",
                    show(a),
                    show(b)
                ));
            }
        }
    }
}

/// `answer` is what generation `rows` gives for `name` — so an answer served
/// from the generation before a publish is rejected when the row changed.
pub fn answered_from(rows: &dyn Rows, name: &str, answer: &[u8]) -> Result<(), String> {
    let mut want = String::new();
    render_response(rows, name, &mut want);
    transcripts_equal(answer, want.as_bytes())
        .map_err(|e| format!("answer for {name:?} is not from the published generation: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::engine_config;
    use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig};
    use simrankpp_graph::ClickGraph;
    use simrankpp_synth::generator::{generate, GeneratorConfig};

    fn build(g: &ClickGraph) -> RewriteIndex {
        let method = Method::compute(MethodKind::WeightedSimrank, g, &engine_config());
        let rewriter = Rewriter::new(g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    /// An index over the tiny world, and a second generation of it with two
    /// non-empty, different rows swapped.
    fn two_generations() -> (RewriteIndex, SwappedRows, String) {
        let g = generate(&GeneratorConfig::tiny()).graph;
        let index = build(&g);
        let full: Vec<u32> = (0..index.n_queries() as u32)
            .filter(|&q| !index.rewrites_of(QueryId(q)).is_empty())
            .collect();
        let a = full[0];
        let b = *full[1..]
            .iter()
            .find(|&&q| index.rewrites_of(QueryId(q)).ids() != index.rewrites_of(QueryId(a)).ids())
            .expect("two distinct rows");
        let name = index.query_name(QueryId(a)).unwrap().to_owned();
        let swapped = SwappedRows {
            inner: index.clone(),
            a,
            b,
        };
        (index, swapped, name)
    }

    struct SwappedRows {
        inner: RewriteIndex,
        a: u32,
        b: u32,
    }

    impl Rows for SwappedRows {
        fn n_queries(&self) -> usize {
            Rows::n_queries(&self.inner)
        }
        fn row(&self, q: QueryId) -> (&[u32], &[f64]) {
            let q = match q.0 {
                x if x == self.a => self.b,
                x if x == self.b => self.a,
                x => x,
            };
            Rows::row(&self.inner, QueryId(q))
        }
        fn name(&self, q: QueryId) -> Option<&str> {
            self.inner.name(q)
        }
        fn id_of(&self, name: &str) -> Option<QueryId> {
            self.inner.id_of(name)
        }
    }

    #[test]
    fn an_index_with_one_swapped_row_is_rejected() {
        let (index, swapped, _) = two_generations();
        assert!(rows_equal(&index, &index).is_ok());
        let err = rows_equal(&index, &swapped).unwrap_err();
        assert!(err.contains("differs"), "{err}");
        assert_ne!(digest(&index), digest(&swapped));
    }

    #[test]
    fn a_transcript_with_one_flipped_byte_is_rejected() {
        let (index, _, name) = two_generations();
        let mut want = String::new();
        render_response(&index, &name, &mut want);
        render_response(&index, "no such query", &mut want);
        assert!(transcripts_equal(want.as_bytes(), want.as_bytes()).is_ok());
        for at in [0, want.len() / 2, want.len() - 2] {
            let mut got = want.clone().into_bytes();
            got[at] ^= 0x01;
            let err = transcripts_equal(&got, want.as_bytes()).unwrap_err();
            assert!(err.contains("differs"), "{err}");
        }
        assert!(transcripts_equal(&want.as_bytes()[..want.len() - 1], want.as_bytes()).is_err());
    }

    #[test]
    fn a_stale_answer_after_publish_is_rejected() {
        let (old, new, name) = two_generations();
        let mut stale = String::new();
        render_response(&old, &name, &mut stale);
        let mut fresh = String::new();
        render_response(&new, &name, &mut fresh);
        assert!(answered_from(&new, &name, fresh.as_bytes()).is_ok());
        let err = answered_from(&new, &name, stale.as_bytes()).unwrap_err();
        assert!(err.contains("not from the published generation"), "{err}");
    }

    #[test]
    fn rendering_matches_the_protocol() {
        use simrankpp_serve::{serve_session, ServeState};
        let (index, _, name) = two_generations();
        let mut want = String::new();
        render_response(&index, &name, &mut want);
        render_response(&index, "no such query", &mut want);
        let input = format!("rewrite {name}\nrewrite no such query\n");
        let mut got = Vec::new();
        serve_session(&ServeState::fixed(index), input.as_bytes(), &mut got).unwrap();
        transcripts_equal(&got, want.as_bytes()).unwrap();
    }
}
