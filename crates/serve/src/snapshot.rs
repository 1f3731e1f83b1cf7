//! Snapshot format v4 — the bytes every [`RewriteIndex`] is a view over.
//! One `simrankpp_util::arena` is both the file and the in-memory index: a
//! build encodes its rows once ([`encode`]), `save` writes the bytes
//! verbatim, and `open` (mapped) and `load` (heap, deep-checked) read them
//! back through the one parser, [`RewriteIndex::view`], over `FORMAT`.
//!
//! ```text
//! tag   section         payload
//! 0x01  META            u64 × 7: method, max_rewrites,
//!                       flags (bid_filtered | has_names << 2; bit 1 is
//!                       never written, see below), kernel, n_queries,
//!                       n_entries, segments
//! 0x02  OFFSETS         u32 × (n_queries + 1), row extents
//! 0x03  TARGETS         u32 × n_entries, rewrite ids
//! 0x04  SCORES          f64 × n_entries
//! 0x05  NAME_OFFS       u64 × (n_names + 1)   (named indexes only)
//! 0x06  NAME_BLOB       concatenated UTF-8 name bytes
//! 0x07  NAME_HASH       u64 × n_names, fnv1a(name), sorted
//! 0x08  NAME_IDS        u32 × n_names, query id per hash entry
//! ```
//!
//! `NAME_HASH`/`NAME_IDS` are the only name lookup, so no index — built,
//! loaded or mapped — materialises a hash map.
//!
//! v3 added the `kernel` word, v2 the `approx_sharding` flag (bit 1) of the
//! removed `Extracted` sharding; a v4 file carrying either legacy value is
//! refused, so such rows are never refreshed with exact ones. v1–v3 files
//! (whose header also began `magic | version u32`) get the version refusal
//! and its rebuild hint: snapshots are cheap build artifacts.

use crate::index::{IndexMeta, RewriteIndex};
use crate::mmap::Backing;
use simrankpp_core::{KernelKind, MethodKind};
use simrankpp_graph::Interner;
use simrankpp_util::{fnv1a, AlignedBytes, Format, Section};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

pub(crate) const SEC_META: u64 = 0x01;
pub(crate) const SEC_OFFSETS: u64 = 0x02;
pub(crate) const SEC_TARGETS: u64 = 0x03;
pub(crate) const SEC_SCORES: u64 = 0x04;
pub(crate) const SEC_NAME_OFFS: u64 = 0x05;
pub(crate) const SEC_NAME_BLOB: u64 = 0x06;
pub(crate) const SEC_NAME_HASH: u64 = 0x07;
pub(crate) const SEC_NAME_IDS: u64 = 0x08;

const SECTIONS: [Section; 8] = [
    Section::required("meta", 8),
    Section::required("row offsets", 4),
    Section::required("targets", 4),
    Section::required("scores", 8),
    Section::required("name offsets", 8),
    Section::required("name bytes", 1),
    Section::required("name hashes", 8),
    Section::required("name ids", 4),
];

/// Snapshot v4 of a named index.
pub(crate) const FORMAT: Format = Format {
    magic: *b"SRPPIDX\0",
    version: 4,
    artifact: "snapshot",
    hint: Some("rebuild the snapshot with `serve build`"),
    sections: &SECTIONS,
};

/// [`FORMAT`] without the name sections, which it therefore ignores: what
/// META is read with, and all an unnamed index holds.
const UNNAMED: Format = Format {
    sections: SECTIONS.split_at(SEC_SCORES as usize).0,
    ..FORMAT
};

const FLAG_BID: u64 = 1;
/// Refused on load, never written (see the version history above).
const FLAG_APPROX: u64 = 1 << 1;
const FLAG_NAMES: u64 = 1 << 2;
/// META word 3 for [`KernelKind::Pull`] — the only value written or loaded;
/// 1 and 2 named the removed flat and hash-map kernels.
const KERNEL_PULL: u64 = 0;
/// META word 0: a method's position in this table.
const METHODS: [MethodKind; 5] = [
    MethodKind::Naive,
    MethodKind::Pearson,
    MethodKind::Simrank,
    MethodKind::EvidenceSimrank,
    MethodKind::WeightedSimrank,
];

/// The name sections, in table order.
const NAME_SECTIONS: [u64; 4] = [SEC_NAME_OFFS, SEC_NAME_BLOB, SEC_NAME_HASH, SEC_NAME_IDS];

/// Encodes rows (as [`RewriteIndex::row`] serves them) and the optional
/// query names into one v4 arena. When `previous`'s name table equals
/// `names` byte for byte, its four name sections are copied with their
/// checksums instead of being rebuilt: the bytes are the same either way,
/// and only the row sections are hashed.
pub(crate) fn encode(
    meta: &IndexMeta,
    offsets: &[u32],
    targets: &[u32],
    scores: &[f64],
    names: Option<&Interner>,
    previous: Option<&RewriteIndex>,
) -> AlignedBytes {
    let method = METHODS.iter().position(|&k| k == meta.method);
    let meta_words = [
        method.expect("every method has a code") as u64,
        meta.max_rewrites as u64,
        (meta.bid_filtered as u64 * FLAG_BID) | (names.is_some() as u64 * FLAG_NAMES),
        KERNEL_PULL,
        (offsets.len() - 1) as u64,
        targets.len() as u64,
        meta.segments as u64,
    ];
    let reused = previous.filter(|p| names.is_some_and(|n| p.has_name_table(n)));
    let lookup = names.filter(|_| reused.is_none()).map(|names| {
        let mut hashed: Vec<(u64, u32)> = names
            .iter()
            .map(|(id, name)| (fnv1a(name.as_bytes()), id))
            .collect();
        hashed.sort_unstable();
        hashed.into_iter().unzip::<_, _, Vec<u64>, Vec<u32>>()
    });

    let mut w = FORMAT.writer();
    w.slice(SEC_META, &meta_words)
        .slice(SEC_OFFSETS, offsets)
        .slice(SEC_TARGETS, targets)
        .slice(SEC_SCORES, scores);
    if let Some(previous) = reused {
        for tag in NAME_SECTIONS {
            w.reuse(tag, &previous.layout, previous.as_bytes());
        }
    } else if let (Some(names), Some((hash, ids))) = (names, &lookup) {
        w.names(SEC_NAME_OFFS, SEC_NAME_BLOB, names.iter().map(|(_, n)| n))
            .slice(SEC_NAME_HASH, hash)
            .slice(SEC_NAME_IDS, ids);
    }
    w.to_aligned_bytes()
}

impl RewriteIndex {
    /// The one parser: the arena's header and table ([`UNNAMED`], or
    /// [`FORMAT`] once META says the index is named), META, and O(1) shape
    /// checks — lengths against the header counts, the offsets' endpoints.
    /// Interior offsets are left to the bounds-checked row accessors.
    /// `checked` says whether the payloads are known good.
    pub(crate) fn view(backing: Backing, checked: bool) -> io::Result<RewriteIndex> {
        let bytes = backing.bytes();
        let rows = UNNAMED.read(bytes)?;
        let (meta, has_names, n_queries, n_entries) = decode_meta(rows.words(bytes, SEC_META)?)?;
        let layout = if has_names { FORMAT.read(bytes)? } else { rows };
        let offs: &[u32] = layout.slice_n(bytes, SEC_OFFSETS, n_queries + 1)?;
        layout.slice_n::<u32>(bytes, SEC_TARGETS, n_entries)?;
        layout.slice_n::<f64>(bytes, SEC_SCORES, n_entries)?;
        if offs[0] != 0 || offs[offs.len() - 1] as u64 != n_entries {
            return Err(FORMAT.refuse("offsets do not run from 0 to the entry count"));
        }
        if has_names {
            let name_offs = layout.slice::<u64>(bytes, SEC_NAME_OFFS);
            let n_names = (name_offs.len() as u64).checked_sub(1);
            let n_names = n_names.ok_or_else(|| FORMAT.refuse("empty name offsets section"))?;
            layout.slice_n::<u64>(bytes, SEC_NAME_HASH, n_names)?;
            layout.slice_n::<u32>(bytes, SEC_NAME_IDS, n_names)?;
        }
        Ok(RewriteIndex {
            bytes: Arc::new(backing),
            meta,
            checked,
            layout,
        })
    }

    /// Maps `path` (heap-read fallback) and parses it in O(#sections), so
    /// startup cost is independent of index size. Payloads are checked on
    /// demand ([`RewriteIndex::verify_deep`]) and before a rebuild reads them.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<RewriteIndex> {
        Self::view(Backing::open(path.as_ref())?, false)
    }

    /// Reads `path` into aligned heap bytes and deep-checks them: section
    /// checksums (first, so a flipped bit reports as corruption), the
    /// parser, then every [`RewriteIndex::validate`] invariant.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<RewriteIndex> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let buf = AlignedBytes::read_exact_from(&mut file, len)?;
        Self::view_checked(Backing::Heap(buf))
    }

    /// [`RewriteIndex::load`] from any reader.
    pub fn read_snapshot<R: Read>(mut input: R) -> io::Result<RewriteIndex> {
        let mut raw = Vec::new();
        input.read_to_end(&mut raw)?;
        Self::view_checked(Backing::Heap(AlignedBytes::copy_from(&raw)))
    }

    fn view_checked(backing: Backing) -> io::Result<RewriteIndex> {
        UNNAMED.read_checked(backing.bytes())?;
        let index = Self::view(backing, true)?;
        index.validate().map_err(invalid)?;
        Ok(index)
    }

    /// Writes the index's bytes to `out` with one `write_all`.
    pub fn write_snapshot<W: Write>(&self, mut out: W) -> io::Result<()> {
        out.write_all(self.as_bytes())?;
        out.flush()
    }

    /// Writes the index's bytes to `path` atomically and durably (temp,
    /// fsync, rename, directory fsync): never a torn file at `path`.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        simrankpp_util::fail_point!("snapshot-save");
        simrankpp_util::durable::atomic_write_bytes(path.as_ref(), self.as_bytes())
    }

    /// Re-hashes every section against its table checksum — O(size), run
    /// on demand, never by `open`. (`UNNAMED` declares less than a named
    /// index holds, but every section is hashed, declared or not.)
    pub fn verify_deep(&self) -> io::Result<()> {
        UNNAMED.read_checked(self.as_bytes()).map(drop)
    }
}

/// The meta section as `(IndexMeta, has_names, n_queries, n_entries)`.
fn decode_meta(meta: &[u64; 7]) -> io::Result<(IndexMeta, bool, u64, u64)> {
    let method = usize::try_from(meta[0])
        .ok()
        .and_then(|i| METHODS.get(i).copied())
        .ok_or_else(|| FORMAT.refuse("unknown method kind in header"))?;
    let max_rewrites =
        u32::try_from(meta[1]).map_err(|_| FORMAT.refuse("max_rewrites out of range"))?;
    let flags = meta[2];
    if meta[3] != KERNEL_PULL {
        return Err(FORMAT.refuse(format_args!(
            "snapshot records engine kernel {} but only the pull kernel (0) exists — flat (1) \
             and hash-map (2) were removed",
            meta[3]
        )));
    }
    if flags & FLAG_APPROX != 0 {
        return Err(FORMAT.refuse(
            "snapshot was built under approximate (extracted) sharding, which was removed — \
             its rows cannot be mixed with exact ones",
        ));
    }
    let segments =
        u32::try_from(meta[6]).map_err(|_| FORMAT.refuse("segment count out of range"))?;
    if u32::try_from(meta[4]).is_err() {
        return Err(FORMAT.refuse("query count out of range"));
    }
    let meta_out = IndexMeta {
        method,
        max_rewrites,
        bid_filtered: flags & FLAG_BID != 0,
        approx_sharding: false,
        kernel: KernelKind::Pull,
        segments,
    };
    Ok((meta_out, flags & FLAG_NAMES != 0, meta[4], meta[5]))
}

pub(crate) fn invalid(e: String) -> io::Error {
    FORMAT.refuse(format_args!("invalid index structure: {e}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simrankpp_core::{Method, Rewriter, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::{QueryId, WeightKind};
    use simrankpp_util::{ENDIAN_MARK, HEADER_BYTES, TABLE_ENTRY_BYTES};
    use std::ops::Range;

    fn fig3_index(kind: MethodKind) -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(kind, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    fn roundtrip(index: &RewriteIndex) -> RewriteIndex {
        RewriteIndex::read_snapshot(index.as_bytes()).unwrap()
    }

    fn snapshot_bytes(index: &RewriteIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        buf
    }

    /// Every observable of two indexes, compared exactly: meta, rows (score
    /// bits), names, and name lookups.
    pub(crate) fn same_index(a: &RewriteIndex, b: &RewriteIndex) -> bool {
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.meta() == b.meta()
            && a.n_queries() == b.n_queries()
            && a.n_entries() == b.n_entries()
            && (0..a.n_queries() as u32).map(QueryId).all(|q| {
                let ((ta, sa), (tb, sb)) = (a.row(q), b.row(q));
                let name = a.query_name(q);
                ta == tb
                    && bits(sa) == bits(sb)
                    && name == b.query_name(q)
                    && name.map_or(true, |name| {
                        a.lookup(name) == Some(q) && b.lookup(name) == Some(q)
                    })
            })
    }

    /// Table extent of an encoded arena: `HEADER_BYTES .. table_end`.
    fn table_end(buf: &[u8]) -> usize {
        let n = u32::from_ne_bytes(buf[12..16].try_into().unwrap()) as usize;
        HEADER_BYTES + n * TABLE_ENTRY_BYTES
    }

    /// The payload byte range of section `tag` in an encoded arena.
    pub(crate) fn section_range(buf: &[u8], tag: u64) -> Range<usize> {
        let word = |at: usize| u64::from_ne_bytes(buf[at..at + 8].try_into().unwrap());
        let base = (HEADER_BYTES..table_end(buf))
            .step_by(TABLE_ENTRY_BYTES)
            .find(|&base| word(base) == tag)
            .expect("section present");
        let off = word(base + 8) as usize;
        off..off + word(base + 16) as usize
    }

    /// Re-seals a tampered arena: recomputes every section checksum from
    /// the (possibly corrupted) payload bytes and the table checksum from
    /// the (possibly corrupted) table, so tampering reaches the targeted
    /// validation layer instead of tripping an earlier checksum.
    pub(crate) fn reseal(buf: &mut [u8]) {
        let end = table_end(buf);
        for base in (HEADER_BYTES..end).step_by(TABLE_ENTRY_BYTES) {
            let off = u64::from_ne_bytes(buf[base + 8..base + 16].try_into().unwrap()) as usize;
            let len = u64::from_ne_bytes(buf[base + 16..base + 24].try_into().unwrap()) as usize;
            if off + len <= buf.len() {
                let h = fnv1a(&buf[off..off + len]);
                buf[base + 24..base + 32].copy_from_slice(&h.to_ne_bytes());
            }
        }
        let h = fnv1a(&buf[HEADER_BYTES..end]);
        buf[24..32].copy_from_slice(&h.to_ne_bytes());
    }

    #[test]
    fn fig3_snapshot_bytes_are_pinned() {
        // Length and FNV-1a of each method's Figure 3 snapshot, recorded
        // before built indexes became views over their snapshot bytes: the
        // format did not move.
        let pinned = [
            (MethodKind::Pearson, 512, 0xf916_7e03_c04b_ddfa_u64),
            (MethodKind::Simrank, 656, 0xebb2_792b_d7fb_09e3),
            (MethodKind::EvidenceSimrank, 656, 0x631d_f2fb_f576_d292),
            (MethodKind::WeightedSimrank, 656, 0x6e4d_ee67_127d_115b),
        ];
        assert_eq!(pinned.map(|p| p.0), MethodKind::EVALUATED);
        for (kind, len, hash) in pinned {
            let index = fig3_index(kind);
            assert_eq!(index.as_bytes().len(), len, "{kind:?}");
            assert_eq!(fnv1a(index.as_bytes()), hash, "{kind:?}");
            let path = std::env::temp_dir().join(format!("simrankpp_pin_{kind:?}.idx"));
            index.save(&path).unwrap();
            let saved = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(saved, index.as_bytes(), "{kind:?}: save writes as_bytes()");
        }
    }

    #[test]
    fn binary_roundtrip_is_identical() {
        for kind in MethodKind::EVALUATED {
            let index = fig3_index(kind);
            let loaded = roundtrip(&index);
            assert_eq!(loaded.as_bytes(), index.as_bytes());
            assert!(same_index(&loaded, &index));
            assert!(loaded.lookup("camera").is_some());
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused_or_harmless() {
        // Header to last payload byte (the sweep `graph::segments` runs over
        // its store): a mutant either fails the deep load or — the bit sat
        // in a reserved word or in padding — loads as the clean index. None
        // may load as a different index, and none may abort.
        let index = fig3_index(MethodKind::WeightedSimrank);
        let clean = snapshot_bytes(&index);
        let mut mutant = clean.clone();
        let (mut refused, mut harmless) = (0usize, 0usize);
        for at in 0..clean.len() {
            for bit in 0..8 {
                mutant[at] = clean[at] ^ (1 << bit);
                match RewriteIndex::read_snapshot(mutant.as_slice()) {
                    Err(_) => refused += 1,
                    Ok(back) => {
                        assert!(
                            same_index(&back, &index),
                            "byte {at} bit {bit} decoded as a different index"
                        );
                        harmless += 1;
                    }
                }
            }
            mutant[at] = clean[at];
        }
        eprintln!("heap snapshot bit flips: {refused} refused, {harmless} harmless");
        assert_eq!(refused + harmless, clean.len() * 8);
        assert!(
            refused > harmless * 10,
            "{refused} refused, {harmless} harmless"
        );
    }

    #[test]
    fn zero_max_rewrites_index_loads() {
        // The funnel used to serve one rewrite under `max_rewrites: 0`, so
        // the index failed its own `validate` ("row exceeds max_rewrites")
        // as soon as its snapshot was read back.
        let g = figure3_graph();
        let method = Method::compute(MethodKind::Simrank, &g, &SimrankConfig::default());
        let config = RewriterConfig {
            max_rewrites: 0,
            ..RewriterConfig::default()
        };
        let index = RewriteIndex::build(&Rewriter::new(&g, method, config), None, 1);
        let loaded = roundtrip(&index);
        assert_eq!(loaded.meta().max_rewrites, 0);
        assert_eq!(loaded.n_entries(), 0);
    }

    #[test]
    fn snapshot_is_arena_with_aligned_sections() {
        let buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        assert_eq!(buf.len() % 8, 0);
        assert_eq!(&buf[..8], &FORMAT.magic);
        assert_eq!(
            u64::from_ne_bytes(buf[16..24].try_into().unwrap()),
            ENDIAN_MARK
        );
        let end = table_end(&buf);
        for base in (HEADER_BYTES..end).step_by(TABLE_ENTRY_BYTES) {
            let off = u64::from_ne_bytes(buf[base + 8..base + 16].try_into().unwrap());
            assert_eq!(off % 8, 0, "section at table offset {base} misaligned");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = RewriteIndex::read_snapshot(&b"NOTANIDX________"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        buf[8] = 99; // version byte
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn v3_snapshot_refused_with_rebuild_hint() {
        // A v1–v3 file began `magic | version u32 | ...`; only those 12
        // bytes matter for the refusal path.
        let mut buf = Vec::new();
        buf.extend_from_slice(&FORMAT.magic);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported snapshot version 3"), "{msg}");
        assert!(
            msg.contains("rebuild the snapshot with `serve build`"),
            "{msg}"
        );
    }

    #[test]
    fn corruption_caught_by_checksum() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // Flip one payload byte somewhere in the middle.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("corrupt") || msg.contains("invalid"),
            "{msg}"
        );
    }

    #[test]
    fn truncated_section_table_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        buf.truncate(HEADER_BYTES + TABLE_ENTRY_BYTES / 2);
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn misaligned_section_offset_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // Knock the first section's offset off 8-alignment, then re-seal the
        // table checksum so the tamper reaches the alignment check (the
        // table FNV is verified first and would otherwise mask it).
        let base = HEADER_BYTES;
        let off = u64::from_ne_bytes(buf[base + 8..base + 16].try_into().unwrap());
        buf[base + 8..base + 16].copy_from_slice(&(off + 4).to_ne_bytes());
        reseal(&mut buf);
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("aligned"), "{err}");
    }

    #[test]
    fn oversized_section_length_rejected_without_allocating() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // Claim the scores section extends far past the file, re-sealed so
        // the bounds check (not the table checksum) is what fires. The
        // reader must refuse via arithmetic, never allocate from the bogus
        // length.
        let base = HEADER_BYTES + 3 * TABLE_ENTRY_BYTES; // SEC_SCORES entry
        buf[base + 16..base + 24].copy_from_slice(&(u64::MAX / 2).to_ne_bytes());
        reseal(&mut buf);
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("beyond") || msg.contains("overflow"), "{msg}");
    }

    #[test]
    fn absurd_section_count_rejected_without_allocating() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        // A corrupted n_sections field must come back as Err, not as an
        // absurd up-front allocation that aborts the process.
        buf[12..16].copy_from_slice(&u32::MAX.to_ne_bytes());
        assert!(RewriteIndex::read_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn kernel_provenance_survives_roundtrip_and_bad_value_rejected() {
        let index = fig3_index(MethodKind::Simrank);
        // Built with the default config, so the recorded kernel is Pull.
        assert_eq!(index.meta().kernel, KernelKind::Pull);
        let loaded = roundtrip(&index);
        assert_eq!(loaded.meta().kernel, KernelKind::Pull);
        assert_eq!(loaded.meta(), index.meta());
        // Corrupt the kernel word in the META section (first section, 4th
        // u64) and re-seal, so the unknown-kernel refusal — not a checksum
        // error — is what fires.
        let mut buf = snapshot_bytes(&index);
        let meta_off = table_end(&buf);
        buf[meta_off + 24..meta_off + 32].copy_from_slice(&99u64.to_ne_bytes());
        reseal(&mut buf);
        let err = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("kernel"), "{err}");
    }

    #[test]
    fn legacy_kernel_words_refused_with_rebuild_hint() {
        // Kernel words 1 (flat) and 2 (hash-map) were valid before those
        // kernels were removed, and flags bit 1 marked rows built under the
        // removed approximate sharding; both load paths must refuse them by
        // name, not serve their rows as exact pull-built ones.
        let clean = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        let meta_off = table_end(&clean);
        let flags = u64::from_ne_bytes(clean[meta_off + 16..meta_off + 24].try_into().unwrap());
        for (word_at, word, needle) in [
            (24, 1u64, "engine kernel 1"),
            (24, 2, "engine kernel 2"),
            (16, flags | FLAG_APPROX, "approximate (extracted) sharding"),
        ] {
            let mut buf = clean.clone();
            buf[meta_off + word_at..meta_off + word_at + 8].copy_from_slice(&word.to_ne_bytes());
            reseal(&mut buf);
            let path =
                std::env::temp_dir().join(format!("simrankpp_legacy_meta_{word_at}_{word}.idx"));
            std::fs::write(&path, &buf).unwrap();
            let heap = RewriteIndex::read_snapshot(buf.as_slice()).unwrap_err();
            let mapped = RewriteIndex::open(&path).unwrap_err();
            std::fs::remove_file(&path).ok();
            for msg in [heap.to_string(), mapped.to_string()] {
                assert!(msg.contains(needle), "{msg}");
                assert!(
                    msg.contains("rebuild the snapshot with `serve build`"),
                    "{msg}"
                );
            }
        }
    }

    #[test]
    fn segments_provenance_survives_roundtrip() {
        let meta = IndexMeta {
            segments: 17,
            ..*fig3_index(MethodKind::Simrank).meta()
        };
        let index = RewriteIndex::empty(meta);
        assert_eq!(index.meta().segments, 17);
        assert_eq!(roundtrip(&index).meta().segments, 17);
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        buf.truncate(buf.len() - 9);
        assert!(RewriteIndex::read_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn file_save_load_roundtrip() {
        let index = fig3_index(MethodKind::WeightedSimrank);
        let path = std::env::temp_dir().join("simrankpp_fig3_test.idx");
        index.save(&path).unwrap();
        let loaded = RewriteIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.backing(), "heap");
        assert!(same_index(&loaded, &index));
    }
}
