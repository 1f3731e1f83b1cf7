//! Segmented on-disk click-graph store.
//!
//! The §9.2 click graph decomposes into connected components, and every
//! similarity scheme in this workspace is component-local (the score matrix
//! is block-diagonal). The segmented store exploits that: the graph is
//! written as a sequence of *segments* — component groups, each a [`Block`]
//! (a self-contained [`crate::ClickGraph`] plus its id maps) serialized as
//! one zero-copy arena blob — so both the writer and any downstream consumer
//! need to hold only **one segment** in memory at a time. Peak build memory
//! is bounded by the largest segment, not by the whole graph.
//!
//! ```text
//! offset 0    file header (24 bytes): magic "SRPPSEG\0", version u32,
//!             reserved u32, endian mark u64
//! offset 24   segment blob 0   (arena, magic "SRPPSGB\0")
//! ...         segment blob 1, 2, ...
//!             manifest blob    (arena, magic "SRPPSGM\0"): per-segment
//!             offsets/lengths/counts + graph totals
//! EOF-24      trailer (24 bytes): manifest offset u64, manifest len u64,
//!             magic "SRPPSGT\0"
//! ```
//!
//! The manifest trails the segments so the writer streams front-to-back
//! through any `Write` sink without seeking; readers find it via the fixed
//! trailer. [`SegmentedStore::open`] reads header + trailer + manifest only
//! — O(#segments), independent of graph size — and [`SegmentedStore::load_segment`]
//! reads exactly one blob.
//!
//! Reconstruction is exact: [`SegmentedStore::load_all`] replays every
//! segment's edges (with per-segment local→global id maps) through
//! [`ClickGraphBuilder`], whose `build()` sorts edges by `(q, a)` — so the
//! resulting CSR is bit-for-bit identical to the monolithic graph no matter
//! how the edges were partitioned. The differential test suite asserts this
//! via [`ClickGraph::fingerprint`].

use crate::block::Block;
use crate::builder::ClickGraphBuilder;
use crate::components::connected_components;
use crate::edge::EdgeData;
use crate::graph::ClickGraph;
use crate::ids::{AdId, NodeRef, QueryId};
use simrankpp_util::{AlignedBytes, Format, Section, ENDIAN_MARK};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The store's file header: an arena header's first 24 bytes (magic,
/// version, a reserved word, endian mark) with no table behind them.
pub const STORE: Format = Format {
    magic: *b"SRPPSEG\0",
    version: 1,
    artifact: "segmented store",
    hint: None,
    sections: &[],
};
/// Each per-segment arena blob.
pub const SEGMENT: Format = Format {
    magic: *b"SRPPSGB\0",
    version: 1,
    artifact: "segment",
    hint: None,
    sections: &[
        Section::required("meta", 8),
        Section::required("edge queries", 4),
        Section::required("edge ads", 4),
        Section::required("impressions", 8),
        Section::required("clicks", 8),
        Section::required("expected click rates", 8),
        Section::required("query map", 4),
        Section::required("ad map", 4),
        Section::optional("query names", 8),
        Section::optional("query name bytes", 1),
        Section::optional("ad names", 8),
        Section::optional("ad name bytes", 1),
    ],
};
/// The trailing manifest arena blob.
pub const MANIFEST: Format = Format {
    magic: *b"SRPPSGM\0",
    version: 1,
    artifact: "segment manifest",
    hint: None,
    sections: &[
        Section::required("meta", 8),
        Section::required("segment offsets", 8),
        Section::required("segment lengths", 8),
        Section::required("segment queries", 8),
        Section::required("segment ads", 8),
        Section::required("segment edges", 8),
    ],
};
/// Magic of the fixed-size trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"SRPPSGT\0";

/// Size of the fixed file header in bytes.
pub const STORE_HEADER_BYTES: usize = 24;
/// Size of the fixed trailer in bytes.
pub const STORE_TRAILER_BYTES: usize = 24;

// Segment blob sections.
const SEG_META: u64 = 0x01; // [n_queries, n_ads, n_edges, has_names] as u64
const SEG_EDGE_Q: u64 = 0x02; // u32 local query id per edge
const SEG_EDGE_A: u64 = 0x03; // u32 local ad id per edge
const SEG_EDGE_IMPR: u64 = 0x04; // u64 impressions per edge
const SEG_EDGE_CLK: u64 = 0x05; // u64 clicks per edge
const SEG_EDGE_ECR: u64 = 0x06; // f64 expected click rate per edge
const SEG_QMAP: u64 = 0x07; // u32 global query id per local id
const SEG_AMAP: u64 = 0x08; // u32 global ad id per local id
const SEG_QNAME_OFFS: u64 = 0x09; // u64[nq + 1] offsets into the name blob
const SEG_QNAME_BLOB: u64 = 0x0a; // concatenated UTF-8 query names
const SEG_ANAME_OFFS: u64 = 0x0b;
const SEG_ANAME_BLOB: u64 = 0x0c;

// Manifest blob sections.
const MF_META: u64 = 0x01; // [n_segments, total_queries, total_ads, total_edges, has_names]
const MF_SEG_OFF: u64 = 0x02; // u64 absolute file offset per segment
const MF_SEG_LEN: u64 = 0x03; // u64 blob length per segment
const MF_SEG_NQ: u64 = 0x04; // u64 query count per segment
const MF_SEG_NA: u64 = 0x05; // u64 ad count per segment
const MF_SEG_NE: u64 = 0x06; // u64 edge count per segment

/// Partitions `g` into component-group blocks of roughly `target_nodes`
/// nodes each (always at least one whole component per block; a component
/// larger than the target gets a block of its own). Every node — including
/// isolated ones, which form singleton components — lands in exactly one
/// block, so the blocks reconstruct `g` exactly.
pub fn component_segments(g: &ClickGraph, target_nodes: usize) -> Vec<Block> {
    // One-pass grouping (Components::members is a full scan per call —
    // quadratic over 1M singleton components).
    let buckets = connected_components(g).group_members(|_, _| true);

    let target = target_nodes.max(1);
    let mut segments = Vec::new();
    let mut group: Vec<NodeRef> = Vec::new();
    for bucket in buckets {
        group.extend(bucket);
        if group.len() >= target {
            segments.push(Block::from_nodes(g, std::mem::take(&mut group)));
        }
    }
    if !group.is_empty() {
        segments.push(Block::from_nodes(g, group));
    }
    segments
}

/// Streams a segmented store front-to-back through any [`Write`] sink.
/// Only the segment currently being appended is materialized; the manifest
/// accumulates 5 words per segment.
pub struct SegmentWriter<W: Write> {
    sink: W,
    offset: u64,
    seg_off: Vec<u64>,
    seg_len: Vec<u64>,
    seg_nq: Vec<u64>,
    seg_na: Vec<u64>,
    seg_ne: Vec<u64>,
    total_q: u64,
    total_a: u64,
    total_e: u64,
    has_names: Option<bool>,
}

impl<W: Write> SegmentWriter<W> {
    /// Writes the fixed file header and returns the writer.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(&STORE.magic)?;
        sink.write_all(&STORE.version.to_ne_bytes())?;
        sink.write_all(&0u32.to_ne_bytes())?;
        sink.write_all(&ENDIAN_MARK.to_ne_bytes())?;
        Ok(SegmentWriter {
            sink,
            offset: STORE_HEADER_BYTES as u64,
            seg_off: Vec::new(),
            seg_len: Vec::new(),
            seg_nq: Vec::new(),
            seg_na: Vec::new(),
            seg_ne: Vec::new(),
            total_q: 0,
            total_a: 0,
            total_e: 0,
            has_names: None,
        })
    }

    /// Serializes one segment as a self-contained arena blob. All segments
    /// of a store must agree on name presence.
    pub fn append(&mut self, seg: &Block) -> io::Result<()> {
        let g = &seg.graph;
        let named = seg.has_names();
        match self.has_names {
            None => self.has_names = Some(named),
            Some(prev) if prev != named => {
                return Err(STORE.refuse("segments disagree on name presence"));
            }
            Some(_) => {}
        }
        if seg.queries.len() != g.n_queries() || seg.ads.len() != g.n_ads() {
            return Err(STORE.refuse("segment id maps do not match its graph"));
        }

        let ne = g.n_edges();
        let mut eq: Vec<u32> = Vec::with_capacity(ne);
        let mut ea: Vec<u32> = Vec::with_capacity(ne);
        let mut impr: Vec<u64> = Vec::with_capacity(ne);
        let mut clk: Vec<u64> = Vec::with_capacity(ne);
        let mut ecr: Vec<f64> = Vec::with_capacity(ne);
        for (q, a, e) in g.edges() {
            eq.push(q.0);
            ea.push(a.0);
            impr.push(e.impressions);
            clk.push(e.clicks);
            ecr.push(e.expected_click_rate);
        }

        let meta = [
            g.n_queries() as u64,
            g.n_ads() as u64,
            ne as u64,
            named as u64,
        ];
        let mut aw = SEGMENT.writer();
        aw.slice(SEG_META, &meta)
            .slice(SEG_EDGE_Q, &eq)
            .slice(SEG_EDGE_A, &ea)
            .slice(SEG_EDGE_IMPR, &impr)
            .slice(SEG_EDGE_CLK, &clk)
            .slice(SEG_EDGE_ECR, &ecr)
            .slice(SEG_QMAP, &seg.queries)
            .slice(SEG_AMAP, &seg.ads);
        // Both or neither, like `named`; an id an interner lacks is "".
        if let (Some(queries), Some(ads)) = (g.query_interner(), g.ad_interner()) {
            let q_names = (0..g.n_queries() as u32).map(|id| queries.name(id).unwrap_or(""));
            let a_names = (0..g.n_ads() as u32).map(|id| ads.name(id).unwrap_or(""));
            aw.names(SEG_QNAME_OFFS, SEG_QNAME_BLOB, q_names);
            aw.names(SEG_ANAME_OFFS, SEG_ANAME_BLOB, a_names);
        }
        let len = aw.write_to(&mut self.sink)?;

        self.seg_off.push(self.offset);
        self.seg_len.push(len);
        self.seg_nq.push(g.n_queries() as u64);
        self.seg_na.push(g.n_ads() as u64);
        self.seg_ne.push(ne as u64);
        self.total_q += g.n_queries() as u64;
        self.total_a += g.n_ads() as u64;
        self.total_e += ne as u64;
        self.offset += len;
        Ok(())
    }

    /// Writes the manifest blob and trailer, returning the sink and the
    /// total file size in bytes.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        let meta = [
            self.seg_off.len() as u64,
            self.total_q,
            self.total_a,
            self.total_e,
            self.has_names.unwrap_or(false) as u64,
        ];
        let mut aw = MANIFEST.writer();
        aw.slice(MF_META, &meta)
            .slice(MF_SEG_OFF, &self.seg_off)
            .slice(MF_SEG_LEN, &self.seg_len)
            .slice(MF_SEG_NQ, &self.seg_nq)
            .slice(MF_SEG_NA, &self.seg_na)
            .slice(MF_SEG_NE, &self.seg_ne);
        let manifest_off = self.offset;
        let manifest_len = aw.write_to(&mut self.sink)?;
        self.sink.write_all(&manifest_off.to_ne_bytes())?;
        self.sink.write_all(&manifest_len.to_ne_bytes())?;
        self.sink.write_all(&TRAILER_MAGIC)?;
        Ok((
            self.sink,
            manifest_off + manifest_len + STORE_TRAILER_BYTES as u64,
        ))
    }
}

/// Writes `g` to `path` as a segmented store with component groups of
/// roughly `target_nodes` nodes. Convenience over
/// [`component_segments`] + [`SegmentWriter`]; note this path materializes
/// the segments from an already-in-memory graph — build pipelines that care
/// about peak memory should append segments as they produce them.
pub fn write_segmented(g: &ClickGraph, path: &Path, target_nodes: usize) -> io::Result<u64> {
    simrankpp_util::fail_point!("segment-write");
    let (atomic, file) = simrankpp_util::AtomicFile::create(path)?;
    let mut w = SegmentWriter::new(io::BufWriter::new(file))?;
    for seg in component_segments(g, target_nodes) {
        w.append(&seg)?;
    }
    let (sink, written) = w.finish()?;
    let file = sink.into_inner().map_err(|e| e.into_error())?;
    atomic.commit(file)?;
    Ok(written)
}

/// Per-segment directory row, decoded from the manifest.
#[derive(Debug, Clone, Copy)]
pub struct SegmentInfo {
    /// Absolute file offset of the segment's arena blob.
    pub offset: u64,
    /// Blob length in bytes.
    pub len: u64,
    /// Query count of the segment.
    pub n_queries: u64,
    /// Ad count of the segment.
    pub n_ads: u64,
    /// Edge count of the segment.
    pub n_edges: u64,
}

/// An open segmented store. `open` reads header + trailer + manifest only;
/// segment payloads are read on demand, one at a time.
#[derive(Debug)]
pub struct SegmentedStore {
    file: File,
    file_len: u64,
    segments: Vec<SegmentInfo>,
    total_queries: u64,
    total_ads: u64,
    total_edges: u64,
    has_names: bool,
}

impl SegmentedStore {
    /// Opens a store, validating header, trailer, and manifest (payload
    /// checksums included) — O(#segments) work regardless of graph size.
    pub fn open(path: &Path) -> io::Result<SegmentedStore> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (STORE_HEADER_BYTES + STORE_TRAILER_BYTES) as u64 {
            return Err(STORE.refuse(format_args!("too short: {file_len} bytes")));
        }
        let mut header = [0u8; STORE_HEADER_BYTES];
        file.read_exact(&mut header)?;
        STORE.check_header(&header)?;

        let mut trailer = [0u8; STORE_TRAILER_BYTES];
        file.seek(SeekFrom::End(-(STORE_TRAILER_BYTES as i64)))?;
        file.read_exact(&mut trailer)?;
        if trailer[16..24] != TRAILER_MAGIC {
            return Err(STORE.refuse("bad trailer magic"));
        }
        let manifest_off = u64::from_ne_bytes(trailer[0..8].try_into().unwrap());
        let manifest_len = u64::from_ne_bytes(trailer[8..16].try_into().unwrap());
        let manifest_end = manifest_off
            .checked_add(manifest_len)
            .ok_or_else(|| STORE.refuse("manifest extent overflows"))?;
        if manifest_off < STORE_HEADER_BYTES as u64
            || manifest_end > file_len - STORE_TRAILER_BYTES as u64
        {
            return Err(STORE.refuse(format_args!(
                "manifest {manifest_off}..{manifest_end} out of file bounds"
            )));
        }

        file.seek(SeekFrom::Start(manifest_off))?;
        let buf = AlignedBytes::read_exact_from(&mut file, manifest_len as usize)?;
        let bytes = buf.as_slice();
        let manifest = MANIFEST.read_checked(bytes)?;
        let meta = manifest.words::<5>(bytes, MF_META)?;
        let n = meta[0];
        let offs = manifest.slice_n::<u64>(bytes, MF_SEG_OFF, n)?;
        let lens = manifest.slice_n::<u64>(bytes, MF_SEG_LEN, n)?;
        let nqs = manifest.slice_n::<u64>(bytes, MF_SEG_NQ, n)?;
        let nas = manifest.slice_n::<u64>(bytes, MF_SEG_NA, n)?;
        let nes = manifest.slice_n::<u64>(bytes, MF_SEG_NE, n)?;
        // The checksums above catch corruption; the checks below face a
        // forged, re-sealed manifest. Readers size allocations from these
        // counts (`load_all`'s edge buffer, `build_segmented`'s row table),
        // so every count must be backed by file bytes: blobs ascend without
        // overlap inside the segment region, each blob is long enough for
        // the counts it claims — 4 bytes per node (its id map) and 32 per
        // edge (the five edge arrays) — and the totals are the blobs' sums.
        let mut segments = Vec::with_capacity(offs.len());
        let mut region_end = STORE_HEADER_BYTES as u64;
        let (mut sum_q, mut sum_a, mut sum_e) = (0u64, 0u64, 0u64);
        for i in 0..offs.len() {
            let end = offs[i]
                .checked_add(lens[i])
                .ok_or_else(|| MANIFEST.refuse(format_args!("segment {i} extent overflows")))?;
            if offs[i] < region_end || end > manifest_off {
                return Err(MANIFEST.refuse(format_args!(
                    "segment {i} claims bytes {}..{end} outside the segment region",
                    offs[i]
                )));
            }
            region_end = end;
            let need = (nqs[i] as u128 + nas[i] as u128) * 4 + nes[i] as u128 * 32;
            if need > lens[i] as u128 {
                return Err(MANIFEST.refuse(format_args!(
                    "segment {i} claims more nodes and edges than its {} bytes can hold",
                    lens[i]
                )));
            }
            // No overflow: each count is below its blob's length, and the
            // blobs are disjoint spans of one file.
            sum_q += nqs[i];
            sum_a += nas[i];
            sum_e += nes[i];
            segments.push(SegmentInfo {
                offset: offs[i],
                len: lens[i],
                n_queries: nqs[i],
                n_ads: nas[i],
                n_edges: nes[i],
            });
        }
        if [sum_q, sum_a, sum_e] != meta[1..4] {
            return Err(MANIFEST.refuse("totals disagree with the per-segment sums"));
        }
        Ok(SegmentedStore {
            file,
            file_len,
            segments,
            total_queries: meta[1],
            total_ads: meta[2],
            total_edges: meta[3],
            has_names: meta[4] != 0,
        })
    }

    /// Number of segments in the store.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Directory row of segment `i`.
    pub fn segment_info(&self, i: usize) -> SegmentInfo {
        self.segments[i]
    }

    /// Total query count across all segments.
    pub fn total_queries(&self) -> u64 {
        self.total_queries
    }

    /// Total ad count across all segments.
    pub fn total_ads(&self) -> u64 {
        self.total_ads
    }

    /// Total edge count across all segments.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Whether the store carries display names.
    pub fn has_names(&self) -> bool {
        self.has_names
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Reads, checksum-verifies and reconstructs exactly one segment — peak
    /// memory is that segment's blob plus its rebuilt graph.
    pub fn load_segment(&mut self, i: usize) -> io::Result<Block> {
        let info = self
            .segments
            .get(i)
            .copied()
            .ok_or_else(|| STORE.refuse(format_args!("segment index {i} out of range")))?;
        self.file.seek(SeekFrom::Start(info.offset))?;
        let buf = AlignedBytes::read_exact_from(&mut self.file, info.len as usize)?;
        let seg = parse_segment(buf.as_slice())?;
        if seg.graph.n_queries() as u64 != info.n_queries
            || seg.graph.n_ads() as u64 != info.n_ads
            || seg.graph.n_edges() as u64 != info.n_edges
        {
            return Err(STORE.refuse(format_args!(
                "segment {i} counts disagree with the manifest"
            )));
        }
        Ok(seg)
    }

    /// Reconstructs the whole monolithic graph by replaying every segment.
    /// The result is bit-for-bit identical to the graph the segments were cut
    /// from: `build()` sorts edges by `(q, a)` and names are re-interned in
    /// global id order, so partitioning and replay order leave no trace.
    pub fn load_all(&mut self) -> io::Result<ClickGraph> {
        let mut b = ClickGraphBuilder::with_capacity(self.total_edges as usize);
        let total_q =
            u32::try_from(self.total_queries).map_err(|_| STORE.refuse("query count overflow"))?;
        let total_a =
            u32::try_from(self.total_ads).map_err(|_| STORE.refuse("ad count overflow"))?;

        let mut q_names: Vec<(u32, String)> = Vec::new();
        let mut a_names: Vec<(u32, String)> = Vec::new();
        for i in 0..self.n_segments() {
            let seg = self.load_segment(i)?;
            if self.has_names {
                for (local, &global) in seg.queries.iter().enumerate() {
                    let name = seg.graph.query_name(QueryId(local as u32)).ok_or_else(|| {
                        STORE.refuse(format_args!("segment {i}: query {local} has no name"))
                    })?;
                    q_names.push((global, name.to_string()));
                }
                for (local, &global) in seg.ads.iter().enumerate() {
                    let name = seg.graph.ad_name(AdId(local as u32)).ok_or_else(|| {
                        STORE.refuse(format_args!("segment {i}: ad {local} has no name"))
                    })?;
                    a_names.push((global, name.to_string()));
                }
            }
            for (q, a, e) in seg.graph.edges() {
                let gq = *seg.queries.get(q.index()).ok_or_else(|| {
                    STORE.refuse(format_args!("segment {i}: query id {q} outside its map"))
                })?;
                let ga = *seg.ads.get(a.index()).ok_or_else(|| {
                    STORE.refuse(format_args!("segment {i}: ad id {a} outside its map"))
                })?;
                if gq >= total_q || ga >= total_a {
                    return Err(STORE.refuse(format_args!(
                        "segment {i}: global edge ({gq},{ga}) exceeds store totals"
                    )));
                }
                b.add_edge(QueryId(gq), AdId(ga), *e);
            }
        }

        if self.has_names {
            // Intern in global id order so interned id == global id exactly.
            q_names.sort_unstable_by_key(|x| x.0);
            a_names.sort_unstable_by_key(|x| x.0);
            intern_in_order(&q_names, total_q, "query", |name| b.intern_query(name).0)?;
            intern_in_order(&a_names, total_a, "ad", |name| b.intern_ad(name).0)?;
        } else {
            b.reserve_queries(total_q);
            b.reserve_ads(total_a);
        }
        Ok(b.build())
    }
}

fn intern_in_order(
    names: &[(u32, String)],
    total: u32,
    side: &str,
    mut intern: impl FnMut(&str) -> u32,
) -> io::Result<()> {
    if names.len() as u64 != total as u64 {
        return Err(STORE.refuse(format_args!(
            "{side} names cover {} ids, store claims {total}",
            names.len()
        )));
    }
    for (expect, (global, name)) in names.iter().enumerate() {
        if *global != expect as u32 {
            return Err(STORE.refuse(format_args!(
                "{side} id {expect} missing or duplicated across segments"
            )));
        }
        let got = intern(name);
        if got != *global {
            return Err(STORE.refuse(format_args!(
                "{side} name {name:?} maps to id {got}, expected {global} — duplicate name across segments"
            )));
        }
    }
    Ok(())
}

/// Decodes one segment blob back into a [`Block`].
fn parse_segment(bytes: &[u8]) -> io::Result<Block> {
    let layout = SEGMENT.read_checked(bytes)?;
    let &[nq, na, ne, named] = layout.words::<4>(bytes, SEG_META)?;
    let eq = layout.slice_n::<u32>(bytes, SEG_EDGE_Q, ne)?;
    let ea = layout.slice_n::<u32>(bytes, SEG_EDGE_A, ne)?;
    let impr = layout.slice_n::<u64>(bytes, SEG_EDGE_IMPR, ne)?;
    let clk = layout.slice_n::<u64>(bytes, SEG_EDGE_CLK, ne)?;
    let ecr = layout.slice_n::<f64>(bytes, SEG_EDGE_ECR, ne)?;
    let queries = layout.slice_n::<u32>(bytes, SEG_QMAP, nq)?;
    let ads = layout.slice_n::<u32>(bytes, SEG_AMAP, na)?;
    if nq > u32::MAX as u64 || na > u32::MAX as u64 {
        return Err(SEGMENT.refuse("node count exceeds u32 id space"));
    }

    let mut b = ClickGraphBuilder::with_capacity(eq.len());
    if named != 0 {
        layout.slice_n::<u64>(bytes, SEG_QNAME_OFFS, nq + 1)?;
        layout.slice_n::<u64>(bytes, SEG_ANAME_OFFS, na + 1)?;
        for (i, name) in (0..).zip(layout.names(bytes, SEG_QNAME_OFFS, SEG_QNAME_BLOB)?) {
            if b.intern_query(name).0 != i {
                return Err(SEGMENT.refuse(format_args!("duplicate query name at local id {i}")));
            }
        }
        for (i, name) in (0..).zip(layout.names(bytes, SEG_ANAME_OFFS, SEG_ANAME_BLOB)?) {
            if b.intern_ad(name).0 != i {
                return Err(SEGMENT.refuse(format_args!("duplicate ad name at local id {i}")));
            }
        }
    }
    b.reserve_queries(nq as u32);
    b.reserve_ads(na as u32);
    for i in 0..eq.len() {
        if eq[i] as u64 >= nq || ea[i] as u64 >= na {
            return Err(SEGMENT.refuse(format_args!(
                "edge {i} endpoint ({},{}) out of range",
                eq[i], ea[i]
            )));
        }
        if clk[i] > impr[i] || !ecr[i].is_finite() || ecr[i] < 0.0 {
            return Err(SEGMENT.refuse(format_args!("edge {i} has invalid weight data")));
        }
        let data = EdgeData {
            impressions: impr[i],
            clicks: clk[i],
            expected_click_rate: ecr[i],
        };
        b.add_edge(QueryId(eq[i]), AdId(ea[i]), data);
    }
    let graph = b.build();
    if graph.n_edges() != eq.len() {
        return Err(SEGMENT.refuse("duplicate edges"));
    }
    Ok(Block {
        graph,
        queries: queries.to_vec(),
        ads: ads.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeData;
    use crate::fixtures::figure3_graph;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("simrankpp_segments_{name}"))
    }

    fn scattered(nq: u32, na: u32, edges: usize, named: bool) -> ClickGraph {
        let mut b = ClickGraphBuilder::new();
        let mut x: u64 = 0x5eed;
        for _ in 0..edges {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let q = ((x >> 33) % nq as u64) as u32;
            let a = ((x >> 13) % na as u64) as u32;
            if named {
                b.add_named(
                    &format!("q{q}"),
                    &format!("a{a}"),
                    EdgeData::from_clicks(1 + x % 7),
                );
            } else {
                b.add_edge(QueryId(q), AdId(a), EdgeData::from_clicks(1 + x % 7));
            }
        }
        if !named {
            // Leave a few isolated nodes to exercise singleton components.
            b.reserve_queries(nq + 3);
            b.reserve_ads(na + 2);
        }
        b.build()
    }

    /// `blob` re-serialized with section `tag` replaced, so every checksum
    /// holds and only the reader's own checks face the forged section.
    fn resealed(
        format: &'static Format,
        blob: &[u8],
        tag: u64,
        replacement: &[u8],
    ) -> AlignedBytes {
        let layout = format.read(blob).unwrap();
        let mut w = format.writer();
        for t in 1..=format.sections.len() as u64 {
            let own = layout.slice::<u8>(blob, t);
            w.section(t, if t == tag { replacement } else { own });
        }
        w.to_aligned_bytes()
    }

    fn roundtrip(g: &ClickGraph, target_nodes: usize, name: &str) -> (ClickGraph, usize) {
        let path = tmp(name);
        write_segmented(g, &path, target_nodes).unwrap();
        let mut store = SegmentedStore::open(&path).unwrap();
        let back = store.load_all().unwrap();
        let n = store.n_segments();
        std::fs::remove_file(&path).ok();
        (back, n)
    }

    #[test]
    fn store_bytes_are_pinned() {
        // Length and FNV-1a of three stores, recorded before the segment
        // and manifest blobs moved onto `util::arena::Format`: the format
        // did not move.
        let stores = [
            (figure3_graph(), 3),
            (scattered(25, 20, 120, true), 8),
            (scattered(40, 30, 200, false), 10),
        ];
        let got = stores.map(|(g, target)| {
            let path = tmp(&format!("pinned_{target}.seg"));
            let written = write_segmented(&g, &path, target).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(written, bytes.len() as u64);
            (bytes.len(), simrankpp_util::fnv1a(&bytes))
        });
        let pinned = [
            (1768, 0xa323_9133_7bd8_a102),
            (4944, 0x24b0_de16_816e_2f34),
            (7264, 0xc9c1_705f_8e72_0fe4),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn segments_cover_every_node_and_edge() {
        let g = scattered(40, 30, 200, false);
        let segs = component_segments(&g, 16);
        let nq: usize = segs.iter().map(|s| s.graph.n_queries()).sum();
        let na: usize = segs.iter().map(|s| s.graph.n_ads()).sum();
        let ne: usize = segs.iter().map(|s| s.graph.n_edges()).sum();
        assert_eq!(nq, g.n_queries());
        assert_eq!(na, g.n_ads());
        assert_eq!(ne, g.n_edges());
        // Global ids are a permutation of 0..n.
        let mut all_q: Vec<u32> = segs.iter().flat_map(|s| s.queries.clone()).collect();
        all_q.sort_unstable();
        assert_eq!(all_q, (0..g.n_queries() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn roundtrip_nameless_is_bit_for_bit() {
        let g = scattered(40, 30, 200, false);
        let (back, n_segments) = roundtrip(&g, 10, "nameless.seg");
        assert!(n_segments > 1, "want a genuinely multi-segment store");
        assert_eq!(back.fingerprint(), g.fingerprint());
        back.validate().unwrap();
    }

    #[test]
    fn roundtrip_named_is_bit_for_bit() {
        let g = scattered(25, 20, 120, true);
        let (back, _) = roundtrip(&g, 8, "named.seg");
        assert_eq!(back.fingerprint(), g.fingerprint());
        assert_eq!(
            back.query_by_name("q3"),
            g.query_by_name("q3"),
            "name → id mapping must survive the roundtrip"
        );
    }

    #[test]
    fn roundtrip_figure3() {
        let g = figure3_graph();
        let (back, _) = roundtrip(&g, 3, "fig3.seg");
        assert_eq!(back.fingerprint(), g.fingerprint());
    }

    #[test]
    fn single_giant_segment_roundtrips() {
        let g = scattered(40, 30, 200, false);
        let (back, n_segments) = roundtrip(&g, usize::MAX, "giant.seg");
        assert_eq!(n_segments, 1);
        assert_eq!(back.fingerprint(), g.fingerprint());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = ClickGraphBuilder::new().build();
        let (back, n_segments) = roundtrip(&g, 8, "empty.seg");
        assert_eq!(n_segments, 0);
        assert_eq!(back.n_queries(), 0);
        assert_eq!(back.n_ads(), 0);
    }

    #[test]
    fn load_segment_is_bounded_and_self_contained() {
        let g = scattered(40, 30, 200, false);
        let path = tmp("bounded.seg");
        write_segmented(&g, &path, 10).unwrap();
        let mut store = SegmentedStore::open(&path).unwrap();
        for i in 0..store.n_segments() {
            let seg = store.load_segment(i).unwrap();
            seg.graph.validate().unwrap();
            let info = store.segment_info(i);
            assert_eq!(seg.graph.n_edges() as u64, info.n_edges);
            // Every local edge maps to a real global edge with equal data.
            for (q, a, e) in seg.graph.edges() {
                let gq = QueryId(seg.queries[q.index()]);
                let ga = AdId(seg.ads[a.index()]);
                assert_eq!(g.edge(gq, ga), Some(e));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_refuses_corruption() {
        let g = scattered(20, 15, 60, false);
        let path = tmp("hostile.seg");
        write_segmented(&g, &path, 8).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated trailer.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(SegmentedStore::open(&path).is_err());

        // Bad trailer magic.
        let mut bad_magic = good.clone();
        let n = bad_magic.len();
        bad_magic[n - 1] ^= 0xff;
        std::fs::write(&path, &bad_magic).unwrap();
        let err = SegmentedStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("trailer"), "{err}");

        // Manifest offset pointing past the file.
        let mut bad_off = good.clone();
        bad_off[n - 24..n - 16].copy_from_slice(&(good.len() as u64 * 2).to_ne_bytes());
        std::fs::write(&path, &bad_off).unwrap();
        let err = SegmentedStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("bounds"), "{err}");

        // Corrupt byte inside the manifest's section table.
        let mut bad_manifest = good.clone();
        let moff = u64::from_ne_bytes(good[n - 24..n - 16].try_into().unwrap()) as usize;
        bad_manifest[moff + 33] ^= 0x01;
        std::fs::write(&path, &bad_manifest).unwrap();
        assert!(SegmentedStore::open(&path).is_err());

        // Version bump is refused with a clear message.
        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_ne_bytes());
        std::fs::write(&path, &bad_version).unwrap();
        let err = SegmentedStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_segment_refuses_corrupt_blob() {
        let g = scattered(20, 15, 60, false);
        let path = tmp("hostile_blob.seg");
        write_segmented(&g, &path, usize::MAX).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the first segment's section table (right after the
        // 24-byte store header + 32-byte arena header).
        bytes[24 + 32 + 17] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = SegmentedStore::open(&path).unwrap();
        assert!(store.load_segment(0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_is_refused_or_harmless() {
        // Header to trailer: a mutant either fails to open/load, or (the
        // bit sat in a reserved word or in padding) loads the clean graph.
        // None may load as a different graph, and none may abort.
        use std::io::{Seek, SeekFrom, Write};
        let g = scattered(6, 5, 20, true);
        let path = tmp("bit_sweep.seg");
        write_segmented(&g, &path, usize::MAX).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let want = g.fingerprint();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut poke = |at: usize, byte: u8| {
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[byte]).unwrap();
        };
        let (mut refused, mut harmless) = (0usize, 0usize);
        for (at, &byte) in clean.iter().enumerate() {
            for bit in 0..8 {
                poke(at, byte ^ (1 << bit));
                match SegmentedStore::open(&path).and_then(|mut s| s.load_all()) {
                    Err(_) => refused += 1,
                    Ok(back) => {
                        assert_eq!(
                            back.fingerprint(),
                            want,
                            "byte {at} bit {bit} loaded as a different graph"
                        );
                        harmless += 1;
                    }
                }
            }
            poke(at, byte);
        }
        std::fs::remove_file(&path).ok();
        eprintln!("segment store bit flips: {refused} refused, {harmless} harmless");
        assert_eq!(refused + harmless, clean.len() * 8);
        assert!(
            refused > harmless * 10,
            "{refused} refused, {harmless} harmless"
        );
    }

    #[test]
    fn open_refuses_forged_totals_without_allocating() {
        // A manifest whose META block or per-segment counts were rewritten
        // and every checksum re-sealed: only `open`'s own arithmetic stands
        // between these counts and `with_capacity` / `vec![None; n]`.
        let g = scattered(20, 15, 60, false);
        let path = tmp("forged_totals.seg");
        write_segmented(&g, &path, 8).unwrap();
        let good = std::fs::read(&path).unwrap();
        let n = good.len();
        let moff = u64::from_ne_bytes(good[n - 24..n - 16].try_into().unwrap()) as usize;
        let manifest = AlignedBytes::copy_from(&good[moff..n - STORE_TRAILER_BYTES]);
        let forge = |tag: u64, index: usize, value: u64| {
            let layout = MANIFEST.read(manifest.as_slice()).unwrap();
            let mut words = layout.slice::<u64>(manifest.as_slice(), tag).to_vec();
            words[index] = value;
            let forged = simrankpp_util::bytes_of(&words);
            let mut file = good[..moff].to_vec();
            file.extend_from_slice(
                resealed(&MANIFEST, manifest.as_slice(), tag, forged).as_slice(),
            );
            file.extend_from_slice(&good[n - STORE_TRAILER_BYTES..]);
            assert_eq!(file.len(), n, "same-size forgery keeps the trailer valid");
            std::fs::write(&path, &file).unwrap();
            SegmentedStore::open(&path).unwrap_err().to_string()
        };
        let total_q = g.n_queries() as u64;
        for (tag, index, value, needle) in [
            (MF_META, 3, u64::MAX / 2, "totals disagree"), // total_edges
            (MF_META, 1, total_q * 1000, "totals disagree"), // total_queries
            (MF_SEG_NE, 0, u64::MAX / 2, "can hold"),
            (MF_SEG_NQ, 0, 1 << 40, "can hold"),
        ] {
            let err = forge(tag, index, value);
            assert!(err.contains(needle), "tag {tag:#x}[{index}]: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_segment_refuses_hostile_name_tables() {
        // Re-sealed forgeries: every checksum holds and only
        // `parse_segment`'s own checks face the forged table.
        fn forged(seg: &[u8], tag: u64, replacement: &[u8]) -> AlignedBytes {
            resealed(&SEGMENT, seg, tag, replacement)
        }
        let g = scattered(6, 5, 14, true);
        let path = tmp("hostile_names.seg");
        write_segmented(&g, &path, usize::MAX).unwrap();
        let info = SegmentedStore::open(&path).unwrap().segments[0];
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let seg =
            AlignedBytes::copy_from(&file[info.offset as usize..(info.offset + info.len) as usize]);
        parse_segment(seg.as_slice()).unwrap();
        let layout = SEGMENT.read(seg.as_slice()).unwrap();
        let offs = layout.slice::<u64>(seg.as_slice(), SEG_QNAME_OFFS);
        let blob = layout.slice::<u8>(seg.as_slice(), SEG_QNAME_BLOB);

        // Offsets that do not span the blob: short of it, and past it.
        for delta in [-1i64, 1] {
            let mut bad_offs = offs.to_vec();
            *bad_offs.last_mut().unwrap() = (blob.len() as i64 + delta) as u64;
            let forged = forged(
                seg.as_slice(),
                SEG_QNAME_OFFS,
                simrankpp_util::bytes_of(&bad_offs),
            );
            let err = parse_segment(forged.as_slice()).unwrap_err();
            assert!(err.to_string().contains("do not span"), "{err}");
        }

        // One name longer than any real query string.
        let long = vec![b'x'; simrankpp_util::MAX_NAME_BYTES as usize + 1];
        let mut long_offs = vec![long.len() as u64; offs.len()];
        long_offs[0] = 0;
        let forged_offs = forged(
            seg.as_slice(),
            SEG_QNAME_OFFS,
            simrankpp_util::bytes_of(&long_offs),
        );
        let forged = forged(forged_offs.as_slice(), SEG_QNAME_BLOB, &long);
        let err = parse_segment(forged.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length out of range"), "{err}");
    }
}
