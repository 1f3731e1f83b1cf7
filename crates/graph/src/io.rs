//! Click-graph serialization.
//!
//! Two formats:
//!
//! * **TSV** — one edge per line, `query \t ad \t impressions \t clicks \t
//!   expected_click_rate`, human-inspectable and diff-friendly (the format the
//!   examples write). Buffered readers/writers throughout.
//! * **serde** — the whole [`ClickGraph`] derives `Serialize`/`Deserialize`
//!   (JSON via `serde_json` in the bench crate) for experiment artifacts.

use crate::builder::ClickGraphBuilder;
use crate::edge::EdgeData;
use crate::graph::ClickGraph;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Writes `g` as edge-per-line TSV. Nodes must have display names, and the
/// names must be representable in the format: a tab or newline inside a name
/// would shift every following field on read, and a leading `#` on a query
/// name would make the whole line parse as a comment, so such names are
/// rejected here rather than silently corrupting the file.
pub fn write_tsv<W: Write>(g: &ClickGraph, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    for (q, a, e) in g.edges() {
        let qname = g
            .query_name(q)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "query has no name"))?;
        let aname = g
            .ad_name(a)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "ad has no name"))?;
        check_tsv_name("query", qname)?;
        check_tsv_name("ad", aname)?;
        if qname.starts_with('#') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "query name {qname:?} starts with '#'; the line would read back as a comment"
                ),
            ));
        }
        writeln!(
            w,
            "{qname}\t{aname}\t{}\t{}\t{}",
            e.impressions, e.clicks, e.expected_click_rate
        )?;
    }
    w.flush()
}

/// The name check shared by every TSV writer of this crate (graph TSV, delta
/// TSV, click log): a tab or newline inside a name would shift every
/// following field on read.
pub(crate) fn check_tsv_name(field: &str, name: &str) -> io::Result<()> {
    if name.contains(['\t', '\n', '\r']) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{field} name {name:?} contains a tab or newline; TSV cannot represent it"),
        ));
    }
    Ok(())
}

/// Reads a TSV edge list written by [`write_tsv`]. Repeated edges accumulate.
pub fn read_tsv<R: Read>(input: R) -> io::Result<ClickGraph> {
    let reader = BufReader::new(input);
    let mut b = ClickGraphBuilder::new();
    let mut line = String::new();
    let mut reader = reader;
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split('\t');
        let (Some(q), Some(a), Some(impr), Some(clicks), Some(ecr)) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(bad_line(line_no, "expected 5 tab-separated fields"));
        };
        if parts.next().is_some() {
            return Err(bad_line(
                line_no,
                "more than 5 tab-separated fields (embedded tab in a name?)",
            ));
        }
        let data =
            EdgeData::parse_tsv_fields(impr, clicks, ecr).map_err(|e| bad_line(line_no, &e))?;
        b.add_named(q, a, data);
    }
    Ok(b.build())
}

fn bad_line(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("TSV line {line_no}: {msg}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3_graph;

    #[test]
    fn tsv_roundtrip() {
        let g = figure3_graph();
        let mut buf = Vec::new();
        write_tsv(&g, &mut buf).unwrap();
        let g2 = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(g2.n_queries(), g.n_queries());
        assert_eq!(g2.n_ads(), g.n_ads());
        assert_eq!(g2.n_edges(), g.n_edges());
        // Edge-by-edge comparison through names (ids may be permuted).
        for (q, a, e) in g.edges() {
            let q2 = g2.query_by_name(g.query_name(q).unwrap()).unwrap();
            let a2 = g2.ad_by_name(g.ad_name(a).unwrap()).unwrap();
            assert_eq!(g2.edge(q2, a2).unwrap(), e);
        }
        g2.validate().unwrap();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let tsv = "# comment\n\nq1\tad1\t10\t2\t0.2\n";
        let g = read_tsv(tsv.as_bytes()).unwrap();
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn malformed_line_is_rejected() {
        let tsv = "q1\tad1\t10\n";
        let err = read_tsv(tsv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn invariant_violation_rejected() {
        let tsv = "q1\tad1\t2\t5\t0.5\n"; // clicks > impressions
        assert!(read_tsv(tsv.as_bytes()).is_err());
    }

    #[test]
    fn duplicate_edges_accumulate_on_read() {
        let tsv = "q\tad\t10\t1\t0.1\nq\tad\t10\t3\t0.3\n";
        let g = read_tsv(tsv.as_bytes()).unwrap();
        assert_eq!(g.n_edges(), 1);
        let q = g.query_by_name("q").unwrap();
        let a = g.ad_by_name("ad").unwrap();
        assert_eq!(g.edge(q, a).unwrap().clicks, 4);
    }

    #[test]
    fn tab_in_name_rejected_on_write() {
        // Regression: a tab inside a name used to be written verbatim,
        // shifting every later field on read.
        let mut b = ClickGraphBuilder::new();
        b.add_named("camera\tcheap", "hp.com", EdgeData::from_clicks(1));
        let g = b.build();
        let err = write_tsv(&g, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("query name"), "{err}");

        let mut b = ClickGraphBuilder::new();
        b.add_named("camera", "hp.com\nbestbuy.com", EdgeData::from_clicks(1));
        let g = b.build();
        let err = write_tsv(&g, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("ad name"), "{err}");
    }

    #[test]
    fn comment_query_name_rejected_on_write() {
        let mut b = ClickGraphBuilder::new();
        b.add_named("#1 shoes", "store.com", EdgeData::from_clicks(1));
        let g = b.build();
        let err = write_tsv(&g, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("comment"), "{err}");
    }

    #[test]
    fn extra_fields_reported_on_read() {
        let tsv = "camera\tcheap\thp.com\t10\t2\t0.2\n";
        let err = read_tsv(tsv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("embedded tab"), "{err}");
    }

    #[test]
    fn bad_field_reported_with_content() {
        let tsv = "q\tad\tmany\t2\t0.2\n";
        let err = read_tsv(tsv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("\"many\""), "{err}");
    }

    #[test]
    fn adversarial_names_roundtrip() {
        // Everything short of tabs/newlines/leading-# must survive verbatim:
        // spaces, quotes, unicode, '#' in the middle, '=' and ':' (the serve
        // protocol separators are tabs, so these are all legal).
        let mut b = ClickGraphBuilder::new();
        for (q, a) in [
            ("digital camera", "hp.com"),
            ("caméra pas chère", "amazon.fr"),
            ("\"quoted\" query", "ad #5"),
            ("a=b:c", "weird ad"),
        ] {
            b.add_named(q, a, EdgeData::from_clicks(2));
        }
        let g = b.build();
        let mut buf = Vec::new();
        write_tsv(&g, &mut buf).unwrap();
        let g2 = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(g2.n_edges(), g.n_edges());
        for (q, a, e) in g.edges() {
            let q2 = g2.query_by_name(g.query_name(q).unwrap()).unwrap();
            let a2 = g2.ad_by_name(g.ad_name(a).unwrap()).unwrap();
            assert_eq!(g2.edge(q2, a2).unwrap(), e);
        }
    }

    #[test]
    fn serde_json_roundtrip() {
        let g = figure3_graph();
        let json = serde_json::to_string(&g).unwrap();
        let mut g2: ClickGraph = serde_json::from_str(&json).unwrap();
        // Interner reverse indices are skipped by serde; rebuild to use them.
        g2.rebuild_name_indices();
        assert_eq!(g2.n_edges(), g.n_edges());
        assert!(g2.query_by_name("camera").is_some());
        g2.validate().unwrap();
    }
}
