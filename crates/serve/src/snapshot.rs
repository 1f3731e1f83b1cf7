//! Versioned binary snapshot persistence for [`RewriteIndex`] — format v4.
//!
//! v4 replaces the v3 hand-rolled streaming layout with the shared arena
//! container (`simrankpp_util::arena`): a 32-byte header, a checksummed
//! section table, and 8-byte-aligned zero-padded sections. Two properties
//! fall out of that move:
//!
//! * **whole-section writes** — each array goes to the sink as a single
//!   `write_all` of its native bytes instead of an element-at-a-time loop
//!   (v3 issued one 4–8 byte write per offset/target/score);
//! * **zero-copy loads** — the file can be `mmap`ed and consumed in place
//!   (see [`crate::mapped::MappedIndex`]); parsing costs O(#sections), so
//!   startup time is independent of index size.
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
//! `NAME_HASH`/`NAME_IDS` are a pre-sorted lookup table written at build
//! time so a mapped server resolves `lookup("camera")` by binary search
//! without materialising a hash map at load (which would be O(n) startup).
//!
//! Version history: v4 this arena layout; v3 added the engine `kernel`
//! byte; v2 added the `approx_sharding` flag (flags bit 1), which marked
//! rows built under the since-removed edge-cutting `Extracted` sharding: no
//! build writes it any more, and a v4 file carrying it is refused like a
//! removed kernel word, so such rows can never be refreshed with exact
//! ones. Older versions are refused with a rebuild hint — snapshots are
//! cheap build artifacts, not long-lived data. The v1–v3 header began
//! `magic | version u32`, which coincides with the arena header's
//! magic/version slots, so the version check below reads old files' true
//! version and refuses them cleanly.

use crate::index::{IndexMeta, RewriteIndex};
use simrankpp_core::{KernelKind, MethodKind};
use simrankpp_graph::Interner;
use simrankpp_util::{fnv1a, pack_names, unpack_names, AlignedBytes, Arena, ArenaWriter};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

pub(crate) const MAGIC: [u8; 8] = *b"SRPPIDX\0";
pub(crate) const VERSION: u32 = 4;

pub(crate) const SEC_META: u64 = 0x01;
pub(crate) const SEC_OFFSETS: u64 = 0x02;
pub(crate) const SEC_TARGETS: u64 = 0x03;
pub(crate) const SEC_SCORES: u64 = 0x04;
pub(crate) const SEC_NAME_OFFS: u64 = 0x05;
pub(crate) const SEC_NAME_BLOB: u64 = 0x06;
pub(crate) const SEC_NAME_HASH: u64 = 0x07;
pub(crate) const SEC_NAME_IDS: u64 = 0x08;

pub(crate) const META_WORDS: usize = 7;
pub(crate) const FLAG_BID: u64 = 1;
/// Refused on load, never written (see the version history above).
pub(crate) const FLAG_APPROX: u64 = 1 << 1;
pub(crate) const FLAG_NAMES: u64 = 1 << 2;
/// META word 3 for [`KernelKind::Pull`] — the only value written or loaded;
/// 1 and 2 named the removed flat and hash-map kernels.
const KERNEL_PULL: u64 = 0;

impl RewriteIndex {
    /// Stages the index's sections into an [`ArenaWriter`] borrowing the
    /// index's arrays. `scratch` receives the computed payloads (meta block,
    /// name table) that must outlive the writer.
    pub(crate) fn stage_snapshot<'a>(
        &'a self,
        scratch: &'a mut SnapshotScratch,
    ) -> ArenaWriter<'a> {
        let mut flags = 0u64;
        if self.meta.bid_filtered {
            flags |= FLAG_BID;
        }
        if self.names.is_some() {
            flags |= FLAG_NAMES;
        }
        scratch.meta = vec![
            kind_to_u8(self.meta.method) as u64,
            self.meta.max_rewrites as u64,
            flags,
            KERNEL_PULL,
            self.n_queries as u64,
            self.targets.len() as u64,
            self.meta.segments as u64,
        ];
        if let Some(names) = &self.names {
            (scratch.name_offs, scratch.name_blob) = pack_names(names.iter().map(|(_, n)| n));
            let mut hashed: Vec<(u64, u32)> = names
                .iter()
                .map(|(id, name)| (fnv1a(name.as_bytes()), id))
                .collect();
            hashed.sort_unstable();
            scratch.name_hash = hashed.iter().map(|&(h, _)| h).collect();
            scratch.name_ids = hashed.iter().map(|&(_, id)| id).collect();
        }

        let mut w = ArenaWriter::new(MAGIC, VERSION);
        w.slice(SEC_META, &scratch.meta)
            .slice(SEC_OFFSETS, &self.offsets)
            .slice(SEC_TARGETS, &self.targets)
            .slice(SEC_SCORES, &self.scores);
        if self.names.is_some() {
            w.slice(SEC_NAME_OFFS, &scratch.name_offs)
                .section(SEC_NAME_BLOB, &scratch.name_blob)
                .slice(SEC_NAME_HASH, &scratch.name_hash)
                .slice(SEC_NAME_IDS, &scratch.name_ids);
        }
        w
    }

    /// Writes the v4 arena snapshot to `out` — every section as one
    /// `write_all` of its native bytes.
    pub fn write_snapshot<W: Write>(&self, out: W) -> io::Result<()> {
        let mut scratch = SnapshotScratch::default();
        let writer = self.stage_snapshot(&mut scratch);
        let mut sink = BufWriter::new(out);
        writer.write_to(&mut sink)?;
        sink.flush()
    }

    /// Reads a v4 snapshot into an owned heap index, verifying the arena's
    /// shallow invariants, every section checksum, and the full set of
    /// [`RewriteIndex::validate`] structural invariants.
    pub fn read_snapshot<R: Read>(mut input: R) -> io::Result<RewriteIndex> {
        let mut raw = Vec::new();
        input.read_to_end(&mut raw)?;
        let buf = AlignedBytes::copy_from(&raw);
        decode_snapshot(buf.as_slice())
    }

    /// Writes the binary snapshot to `path` atomically and durably
    /// (sibling temp + fsync + rename + directory fsync): a crash mid-save
    /// leaves either the previous snapshot or the new one at `path`, never
    /// a torn file that later fails checksum with a confusing error.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        simrankpp_util::fail_point!("snapshot-save");
        simrankpp_util::durable::atomic_write(path.as_ref(), |w| self.write_snapshot(w))
    }

    /// Loads a binary snapshot from `path`.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<RewriteIndex> {
        Self::read_snapshot(File::open(path)?)
    }
}

/// Owned payloads computed while staging a snapshot (the arena writer
/// borrows them until the write finishes).
#[derive(Default)]
pub(crate) struct SnapshotScratch {
    meta: Vec<u64>,
    name_offs: Vec<u64>,
    name_blob: Vec<u8>,
    name_hash: Vec<u64>,
    name_ids: Vec<u32>,
}

/// Checks the version field **before** arena parsing so v1–v3 files (whose
/// header also began `magic | version u32`) get the established refusal
/// message rather than an opaque table-checksum error.
pub(crate) fn check_version(bytes: &[u8]) -> io::Result<()> {
    if bytes.len() < 12 {
        return Err(corrupt("not a rewrite-index snapshot (truncated header)"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("not a rewrite-index snapshot (bad magic)"));
    }
    let version = u32::from_ne_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt(&format!(
            "unsupported snapshot version {version} (expected {VERSION}; \
             rebuild the snapshot with `serve build`)"
        )));
    }
    Ok(())
}

/// Decodes the meta section into `(IndexMeta, has_names, n_queries,
/// n_entries)`. Shared between the heap decoder and the mapped loader.
pub(crate) fn decode_meta(meta: &[u64]) -> io::Result<(IndexMeta, bool, u64, u64)> {
    if meta.len() != META_WORDS {
        return Err(corrupt(&format!(
            "meta section holds {} words (expected {META_WORDS})",
            meta.len()
        )));
    }
    let method = u8::try_from(meta[0])
        .ok()
        .and_then(kind_from_u8)
        .ok_or_else(|| corrupt("unknown method kind in header"))?;
    let max_rewrites = u32::try_from(meta[1]).map_err(|_| corrupt("max_rewrites out of range"))?;
    let flags = meta[2];
    if meta[3] != KERNEL_PULL {
        return Err(corrupt(&format!(
            "snapshot records engine kernel {} but only the pull kernel (0) exists — flat (1) \
             and hash-map (2) were removed; rebuild the snapshot with `serve build`",
            meta[3]
        )));
    }
    if flags & FLAG_APPROX != 0 {
        return Err(corrupt(
            "snapshot was built under approximate (extracted) sharding, which was removed — \
             its rows cannot be mixed with exact ones; rebuild the snapshot with `serve build`",
        ));
    }
    let n_queries = meta[4];
    let n_entries = meta[5];
    let segments = u32::try_from(meta[6]).map_err(|_| corrupt("segment count out of range"))?;
    if u32::try_from(n_queries).is_err() {
        return Err(corrupt("query count out of range"));
    }
    Ok((
        IndexMeta {
            method,
            max_rewrites,
            bid_filtered: flags & FLAG_BID != 0,
            approx_sharding: false,
            kernel: KernelKind::Pull,
            segments,
        },
        flags & FLAG_NAMES != 0,
        n_queries,
        n_entries,
    ))
}

/// Rebuilds a name interner from a packed `(offsets, blob)` name table —
/// [`unpack_names`] refuses every malformed shape — and refuses duplicates
/// (a repeated name would silently shift every later id, serving the wrong
/// query's rewrites).
pub(crate) fn decode_names(offs: &[u64], blob: &[u8]) -> Result<Interner, String> {
    let mut interner = Interner::new();
    for (i, name) in unpack_names(offs, blob)?.into_iter().enumerate() {
        if interner.intern(name) != i as u32 {
            return Err(format!("duplicate name {name:?} in name table"));
        }
    }
    Ok(interner)
}

/// Full heap decode: shallow parse + deep checksums + structural validate.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> io::Result<RewriteIndex> {
    check_version(bytes)?;
    let arena = Arena::parse(bytes, MAGIC).map_err(|e| corrupt(&e))?;
    arena.verify_deep().map_err(|e| corrupt(&e))?;

    let meta_words: &[u64] = arena.slice(SEC_META).map_err(|e| corrupt(&e))?;
    let (meta, has_names, n_queries, n_entries) = decode_meta(meta_words)?;

    let offsets: &[u32] = arena.slice(SEC_OFFSETS).map_err(|e| corrupt(&e))?;
    let targets: &[u32] = arena.slice(SEC_TARGETS).map_err(|e| corrupt(&e))?;
    let scores: &[f64] = arena.slice(SEC_SCORES).map_err(|e| corrupt(&e))?;
    if offsets.len() as u64 != n_queries + 1 {
        return Err(corrupt("offsets section disagrees with header query count"));
    }
    if targets.len() as u64 != n_entries || scores.len() as u64 != n_entries {
        return Err(corrupt("entry sections disagree with header entry count"));
    }

    let names = if has_names {
        let offs: &[u64] = arena.slice(SEC_NAME_OFFS).map_err(|e| corrupt(&e))?;
        let blob = arena.require(SEC_NAME_BLOB).map_err(|e| corrupt(&e))?;
        let hash: &[u64] = arena.slice(SEC_NAME_HASH).map_err(|e| corrupt(&e))?;
        let ids: &[u32] = arena.slice(SEC_NAME_IDS).map_err(|e| corrupt(&e))?;
        if offs.is_empty() {
            return Err(corrupt("empty name offsets section"));
        }
        let n_names = offs.len() - 1;
        if hash.len() != n_names || ids.len() != n_names {
            return Err(corrupt("name lookup table disagrees with name count"));
        }
        Some(decode_names(offs, blob).map_err(|e| corrupt(&e))?)
    } else {
        None
    };

    let index = RewriteIndex {
        meta,
        n_queries: n_queries as u32,
        offsets: offsets.to_vec(),
        targets: targets.to_vec(),
        scores: scores.to_vec(),
        names,
    };
    index
        .validate()
        .map_err(|e| corrupt(&format!("invalid index structure: {e}")))?;
    Ok(index)
}

pub(crate) fn kind_to_u8(kind: MethodKind) -> u8 {
    match kind {
        MethodKind::Naive => 0,
        MethodKind::Pearson => 1,
        MethodKind::Simrank => 2,
        MethodKind::EvidenceSimrank => 3,
        MethodKind::WeightedSimrank => 4,
    }
}

pub(crate) fn kind_from_u8(b: u8) -> Option<MethodKind> {
    Some(match b {
        0 => MethodKind::Naive,
        1 => MethodKind::Pearson,
        2 => MethodKind::Simrank,
        3 => MethodKind::EvidenceSimrank,
        4 => MethodKind::WeightedSimrank,
        _ => return None,
    })
}

pub(crate) fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_core::{Method, Rewriter, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::{QueryId, WeightKind};
    use simrankpp_util::{ENDIAN_MARK, HEADER_BYTES, TABLE_ENTRY_BYTES};

    fn fig3_index(kind: MethodKind) -> RewriteIndex {
        let g = figure3_graph();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(kind, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    }

    fn roundtrip(index: &RewriteIndex) -> RewriteIndex {
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        RewriteIndex::read_snapshot(buf.as_slice()).unwrap()
    }

    fn snapshot_bytes(index: &RewriteIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        buf
    }

    /// Table extent of an encoded arena: `HEADER_BYTES .. table_end`.
    fn table_end(buf: &[u8]) -> usize {
        let n = u32::from_ne_bytes(buf[12..16].try_into().unwrap()) as usize;
        HEADER_BYTES + n * TABLE_ENTRY_BYTES
    }

    /// Re-seals a tampered arena: recomputes every section checksum from
    /// the (possibly corrupted) payload bytes and the table checksum from
    /// the (possibly corrupted) table, so tampering reaches the targeted
    /// validation layer instead of tripping an earlier checksum.
    fn reseal(buf: &mut [u8]) {
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
    fn binary_roundtrip_is_identical() {
        for kind in MethodKind::EVALUATED {
            let index = fig3_index(kind);
            let loaded = roundtrip(&index);
            assert_eq!(loaded.meta(), index.meta());
            assert_eq!(loaded.offsets, index.offsets);
            assert_eq!(loaded.targets, index.targets);
            // Scores roundtrip bit-exactly.
            for (a, b) in loaded.scores.iter().zip(&index.scores) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert!(loaded.lookup("camera").is_some());
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused_or_harmless() {
        // Header to last payload byte (the sweep `graph::segments` runs over
        // its store): a mutant either fails to decode or — the bit sat in a
        // reserved word or in padding — decodes to the clean index. None
        // may decode as a different index, and none may abort.
        let index = fig3_index(MethodKind::WeightedSimrank);
        let clean = snapshot_bytes(&index);
        let n = index.n_queries() as u32;
        let same = |back: &RewriteIndex| {
            back.meta() == index.meta()
                && back.offsets == index.offsets
                && back.targets == index.targets
                && back
                    .scores
                    .iter()
                    .map(|s| s.to_bits())
                    .eq(index.scores.iter().map(|s| s.to_bits()))
                && (0..n).all(|q| back.query_name(QueryId(q)) == index.query_name(QueryId(q)))
        };
        let mut mutant = clean.clone();
        let (mut refused, mut harmless) = (0usize, 0usize);
        for at in 0..clean.len() {
            for bit in 0..8 {
                mutant[at] = clean[at] ^ (1 << bit);
                match RewriteIndex::read_snapshot(mutant.as_slice()) {
                    Err(_) => refused += 1,
                    Ok(back) => {
                        assert!(
                            same(&back),
                            "byte {at} bit {bit} decoded as a different index"
                        );
                        harmless += 1;
                    }
                }
            }
            mutant[at] = clean[at];
        }
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
        assert!(loaded.targets.is_empty());
    }

    #[test]
    fn snapshot_is_arena_with_aligned_sections() {
        let buf = snapshot_bytes(&fig3_index(MethodKind::Simrank));
        assert_eq!(buf.len() % 8, 0);
        assert_eq!(&buf[..8], &MAGIC);
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
        buf.extend_from_slice(&MAGIC);
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
            let mapped = crate::mapped::MappedIndex::open(&path).unwrap_err();
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
        let mut index = fig3_index(MethodKind::Simrank);
        index.meta.segments = 17;
        let loaded = roundtrip(&index);
        assert_eq!(loaded.meta().segments, 17);
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
        for q in 0..index.n_queries() {
            let q = QueryId(q as u32);
            assert_eq!(loaded.rewrites_of(q).ids(), index.rewrites_of(q).ids());
        }
    }
}
