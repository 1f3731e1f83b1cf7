//! Zero-copy arena container format.
//!
//! One wire format shared by every serialized artifact in the workspace
//! (snapshot v4 and ingest checkpoints in `serve`, the segmented graph
//! store in `graph`): a fixed header, a front section
//! table, then 8-byte-aligned sections of raw native-endian bytes. The
//! format is designed so that a *mapped* file can be consumed in place —
//! loading checks only the header and table (O(#sections)), and typed
//! views are produced by alignment-checked slice casts, never by copying.
//!
//! ```text
//! offset 0   header   (32 bytes)
//!            magic        [u8; 8]   caller-chosen
//!            version      u32
//!            n_sections   u32
//!            endian mark  u64       0x0102030405060708 (refuses foreign
//!                                   byte order; we never byte-swap)
//!            table fnv    u64       FNV-1a of the raw section table
//! offset 32  table    (32 bytes per section)
//!            tag          u64       caller-chosen section id
//!            offset       u64       absolute file offset, 8-aligned
//!            len          u64       payload bytes (not padded)
//!            fnv          u64       FNV-1a of the payload
//! ...        sections, each zero-padded to the next 8-byte boundary
//! ```
//!
//! Sections are written front-to-back through any `Write` sink: all
//! lengths are known up front, so the table can precede the payloads
//! without seeking. Integrity is two-tier: [`Arena::parse`] verifies the
//! header, endianness, table checksum, bounds, and alignment only —
//! startup stays O(table) no matter how large the file — while
//! [`Arena::verify_deep`] re-hashes every payload on demand.

use std::borrow::Cow;
use std::io::{self, Write};

/// Marker written after the version so a file produced on a foreign-endian
/// machine is refused instead of misread. We always read and write native
/// byte order; files are portable between same-endian machines, which is
/// every deployment target we have.
pub const ENDIAN_MARK: u64 = 0x0102_0304_0506_0708;

/// Size of the fixed arena header in bytes.
pub const HEADER_BYTES: usize = 32;

/// Size of one section-table entry in bytes.
pub const TABLE_ENTRY_BYTES: usize = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the workspace's checksum for on-disk
/// artifacts (small, dependency-free, good avalanche for corruption
/// detection; not cryptographic).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_seeded(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash from a previous state, for hashing a logical
/// byte stream presented as multiple slices. Seed the first call with the
/// result of [`fnv1a`] on the first chunk, or start from `fnv1a(&[])`.
#[inline]
pub fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Types that are plain-old-data: any bit pattern is a valid value, no
/// padding, no pointers. Only these may cross the byte-slice boundary.
///
/// # Safety
/// Implementors must be `repr`-compatible with a flat array of bytes:
/// fixed size, no padding bytes, no invalid bit patterns, no interior
/// mutability, no drop glue.
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}

/// Reinterprets a typed slice as raw bytes (always valid for [`Pod`]).
#[inline]
pub fn bytes_of<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding, any bit pattern valid as bytes), and
    // the length is the exact byte extent of the slice.
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const u8, std::mem::size_of_val(slice)) }
}

/// Reinterprets raw bytes as a typed slice, refusing misaligned or
/// odd-length input instead of copying or panicking.
pub fn cast_slice<T: Pod>(bytes: &[u8]) -> Result<&[T], String> {
    let size = std::mem::size_of::<T>();
    if size == 0 || bytes.len() % size != 0 {
        return Err(format!(
            "byte length {} is not a multiple of element size {}",
            bytes.len(),
            size
        ));
    }
    // SAFETY: align_to's prefix/suffix are empty only when the pointer is
    // properly aligned and the length divides evenly; T is Pod so any bit
    // pattern is valid.
    let (prefix, mid, suffix) = unsafe { bytes.align_to::<T>() };
    if !prefix.is_empty() || !suffix.is_empty() {
        return Err(format!(
            "byte slice is not aligned to {} bytes",
            std::mem::align_of::<T>()
        ));
    }
    Ok(mid)
}

/// An owned byte buffer whose storage is guaranteed 8-byte aligned, so
/// [`cast_slice`] works on it exactly as it does on mapped pages. This is
/// the heap fallback for platforms (or code paths) without `mmap`.
#[derive(Debug, Clone, Default)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into fresh 8-aligned storage.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 storage is valid as bytes; destination has at least
        // `bytes.len()` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr() as *mut u8,
                bytes.len(),
            )
        };
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    /// An 8-aligned zeroed buffer of `len` bytes (for read-into paths).
    pub fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// The buffer as a byte slice (8-aligned base pointer).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: words owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    /// The buffer as a mutable byte slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: words owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A section staged for writing: a tag plus its payload bytes.
struct Staged<'a> {
    tag: u64,
    bytes: Cow<'a, [u8]>,
}

/// Builds an arena file section-at-a-time and streams it through any
/// [`Write`] sink — whole sections go out as single `write_all` calls
/// (this is what replaced the element-at-a-time loops of snapshot v3).
pub struct ArenaWriter<'a> {
    magic: [u8; 8],
    version: u32,
    sections: Vec<Staged<'a>>,
}

impl<'a> ArenaWriter<'a> {
    /// Starts an arena with the caller's magic and version.
    pub fn new(magic: [u8; 8], version: u32) -> Self {
        ArenaWriter {
            magic,
            version,
            sections: Vec::new(),
        }
    }

    /// Stages a section borrowing the caller's bytes (zero-copy path).
    pub fn section(&mut self, tag: u64, bytes: &'a [u8]) -> &mut Self {
        self.sections.push(Staged {
            tag,
            bytes: Cow::Borrowed(bytes),
        });
        self
    }

    /// Stages a section borrowing a typed slice as bytes.
    pub fn slice<T: Pod>(&mut self, tag: u64, slice: &'a [T]) -> &mut Self {
        self.section(tag, bytes_of(slice))
    }

    /// Stages a section that owns its bytes (for small computed payloads
    /// like fixed-size metadata blocks).
    pub fn owned(&mut self, tag: u64, bytes: Vec<u8>) -> &mut Self {
        self.sections.push(Staged {
            tag,
            bytes: Cow::Owned(bytes),
        });
        self
    }

    /// Total encoded size in bytes (header + table + padded sections).
    pub fn encoded_len(&self) -> u64 {
        let mut off = (HEADER_BYTES + self.sections.len() * TABLE_ENTRY_BYTES) as u64;
        for s in &self.sections {
            off += pad8(s.bytes.len() as u64);
        }
        off
    }

    /// Writes header, table, and sections front-to-back. Lengths are all
    /// known up front, so no seeking is needed; per-section checksums are
    /// computed in a cheap pre-pass.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let n = self.sections.len();
        let mut table = Vec::with_capacity(n * TABLE_ENTRY_BYTES);
        let mut off = (HEADER_BYTES + n * TABLE_ENTRY_BYTES) as u64;
        for s in &self.sections {
            table.extend_from_slice(&s.tag.to_ne_bytes());
            table.extend_from_slice(&off.to_ne_bytes());
            table.extend_from_slice(&(s.bytes.len() as u64).to_ne_bytes());
            table.extend_from_slice(&fnv1a(&s.bytes).to_ne_bytes());
            off += pad8(s.bytes.len() as u64);
        }
        w.write_all(&self.magic)?;
        w.write_all(&self.version.to_ne_bytes())?;
        w.write_all(&(n as u32).to_ne_bytes())?;
        w.write_all(&ENDIAN_MARK.to_ne_bytes())?;
        w.write_all(&fnv1a(&table).to_ne_bytes())?;
        w.write_all(&table)?;
        const PAD: [u8; 8] = [0; 8];
        for s in &self.sections {
            w.write_all(&s.bytes)?;
            let rem = s.bytes.len() % 8;
            if rem != 0 {
                w.write_all(&PAD[..8 - rem])?;
            }
        }
        Ok(off)
    }

    /// Encodes straight into a fresh 8-aligned buffer of exactly
    /// [`ArenaWriter::encoded_len`] bytes — one copy of each section.
    pub fn to_aligned_bytes(&self) -> AlignedBytes {
        let mut buf = AlignedBytes::zeroed(self.encoded_len() as usize);
        let written = self
            .write_to(&mut buf.as_mut_slice())
            .expect("the buffer holds encoded_len bytes");
        debug_assert_eq!(written, buf.len() as u64);
        buf
    }
}

#[inline]
fn pad8(len: u64) -> u64 {
    (len + 7) & !7
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Caller-chosen section id.
    pub tag: u64,
    /// Absolute byte offset of the payload within the arena.
    pub offset: u64,
    /// Payload length in bytes (excluding padding).
    pub len: u64,
    /// FNV-1a checksum of the payload.
    pub fnv: u64,
}

/// A parsed, validated view over an arena's bytes. Holds only the borrowed
/// buffer plus the decoded table — producing one costs O(#sections)
/// regardless of payload size, which is what makes mapped startup O(ms).
#[derive(Debug)]
pub struct Arena<'a> {
    bytes: &'a [u8],
    version: u32,
    entries: Vec<SectionEntry>,
}

impl<'a> Arena<'a> {
    /// Parses and shallow-validates an arena: magic, endianness, table
    /// checksum, and per-section bounds + 8-alignment. Does **not** hash
    /// payloads — see [`Arena::verify_deep`].
    pub fn parse(bytes: &'a [u8], magic: [u8; 8]) -> Result<Arena<'a>, String> {
        if bytes.len() < HEADER_BYTES {
            return Err(format!(
                "arena too short for header: {} bytes (need {HEADER_BYTES})",
                bytes.len()
            ));
        }
        if bytes[..8] != magic {
            return Err(format!(
                "bad magic {:02x?} (expected {:02x?})",
                &bytes[..8],
                magic
            ));
        }
        let version = u32::from_ne_bytes(bytes[8..12].try_into().unwrap());
        let n = u32::from_ne_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let endian = u64::from_ne_bytes(bytes[16..24].try_into().unwrap());
        if endian != ENDIAN_MARK {
            return Err(
                "endianness marker mismatch — file was written on a foreign-endian machine"
                    .to_string(),
            );
        }
        let table_fnv = u64::from_ne_bytes(bytes[24..32].try_into().unwrap());
        let table_end = HEADER_BYTES
            .checked_add(
                n.checked_mul(TABLE_ENTRY_BYTES)
                    .ok_or("section count overflow")?,
            )
            .ok_or("section table overflow")?;
        if bytes.len() < table_end {
            return Err(format!(
                "truncated section table: {} sections need {} bytes, have {}",
                n,
                table_end,
                bytes.len()
            ));
        }
        let table = &bytes[HEADER_BYTES..table_end];
        if fnv1a(table) != table_fnv {
            return Err("section table checksum mismatch — file is corrupt".to_string());
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let e = &table[i * TABLE_ENTRY_BYTES..(i + 1) * TABLE_ENTRY_BYTES];
            let entry = SectionEntry {
                tag: u64::from_ne_bytes(e[0..8].try_into().unwrap()),
                offset: u64::from_ne_bytes(e[8..16].try_into().unwrap()),
                len: u64::from_ne_bytes(e[16..24].try_into().unwrap()),
                fnv: u64::from_ne_bytes(e[24..32].try_into().unwrap()),
            };
            if entry.offset % 8 != 0 {
                return Err(format!(
                    "section {:#x} offset {} is not 8-byte aligned",
                    entry.tag, entry.offset
                ));
            }
            let end = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(|| format!("section {:#x} length overflows", entry.tag))?;
            if end > bytes.len() as u64 {
                return Err(format!(
                    "section {:#x} claims bytes {}..{} beyond arena end {}",
                    entry.tag,
                    entry.offset,
                    end,
                    bytes.len()
                ));
            }
            entries.push(entry);
        }
        Ok(Arena {
            bytes,
            version,
            entries,
        })
    }

    /// The format version from the header.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The decoded section table.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// The whole underlying buffer.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Raw bytes of the section tagged `tag`, if present.
    pub fn section(&self, tag: u64) -> Option<&'a [u8]> {
        let e = self.entries.iter().find(|e| e.tag == tag)?;
        Some(&self.bytes[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// Raw bytes of a required section.
    pub fn require(&self, tag: u64) -> Result<&'a [u8], String> {
        self.section(tag)
            .ok_or_else(|| format!("missing required section {tag:#x}"))
    }

    /// Typed view of a required section — alignment- and length-checked.
    pub fn slice<T: Pod>(&self, tag: u64) -> Result<&'a [T], String> {
        cast_slice(self.require(tag)?).map_err(|e| format!("section {tag:#x}: {e}"))
    }

    /// Re-hashes every payload against its table checksum (O(file size);
    /// run on demand, not at load).
    pub fn verify_deep(&self) -> Result<(), String> {
        for e in &self.entries {
            let payload = &self.bytes[e.offset as usize..(e.offset + e.len) as usize];
            if fnv1a(payload) != e.fnv {
                return Err(format!(
                    "section {:#x} checksum mismatch — file is corrupt",
                    e.tag
                ));
            }
        }
        Ok(())
    }
}

/// Longest name a packed name table may carry. Far above any real query or
/// ad string; it bounds what one forged offset pair can make a reader slice.
pub const MAX_NAME_BYTES: u64 = 1 << 20;

/// Packs names into the `(offsets, blob)` section pair every artifact stores
/// its name tables as: the names' UTF-8 bytes concatenated, and `n + 1`
/// byte offsets into that blob starting at 0.
pub fn pack_names<'a>(names: impl IntoIterator<Item = &'a str>) -> (Vec<u64>, Vec<u8>) {
    let mut offs = vec![0u64];
    let mut blob = Vec::new();
    for name in names {
        blob.extend_from_slice(name.as_bytes());
        offs.push(blob.len() as u64);
    }
    (offs, blob)
}

/// Splits an `(offsets, blob)` section pair back into its names, borrowing
/// from `blob`. The sections come from a file, so every shape is checked:
/// the offsets must start at 0, end at the blob's length and never
/// decrease, no name may exceed [`MAX_NAME_BYTES`], and each must be UTF-8.
pub fn unpack_names<'a>(offs: &[u64], blob: &'a [u8]) -> Result<Vec<&'a str>, String> {
    if offs.first() != Some(&0) || offs.last().copied() != Some(blob.len() as u64) {
        return Err("name offsets do not span the name blob".into());
    }
    let mut names = Vec::with_capacity(offs.len() - 1);
    for (i, w) in offs.windows(2).enumerate() {
        let (start, end) = (w[0], w[1]);
        if end < start || end - start > MAX_NAME_BYTES {
            return Err(format!("name {i}: length out of range"));
        }
        // A decrease further on can leave this `end` past the blob.
        let bytes = blob
            .get(start as usize..end as usize)
            .ok_or_else(|| format!("name {i}: offsets {start}..{end} out of bounds"))?;
        names.push(std::str::from_utf8(bytes).map_err(|_| format!("name {i} is not valid UTF-8"))?);
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"ARENATST";

    #[test]
    fn name_table_roundtrips_and_refuses_hostile_shapes() {
        let (offs, blob) = pack_names(["camera", "", "tv"]);
        assert_eq!(offs, [0, 6, 6, 8]);
        assert_eq!(unpack_names(&offs, &blob).unwrap(), ["camera", "", "tv"]);
        let (offs0, blob0) = pack_names([]);
        assert!(unpack_names(&offs0, &blob0).unwrap().is_empty());

        let refused = |offs: &[u64], blob: &[u8], why: &str| {
            let err = unpack_names(offs, blob).unwrap_err();
            assert!(err.contains(why), "{offs:?}: {err}");
        };
        refused(&[], &blob, "do not span");
        refused(&[1, 6, 6, 8], &blob, "do not span");
        refused(&[0, 6, 6, 7], &blob, "do not span");
        refused(&[0, 6, 6, 9], &blob, "do not span");
        refused(&[0, 7, 6, 8], &blob, "out of range");
        refused(&[0, 100, 8], &blob, "out of bounds");
        refused(&[0, 1 << 40, 6, 8], &blob, "out of range");
        refused(&[0, 2], &[0xff, 0xfe], "UTF-8");
        let long = vec![b'x'; MAX_NAME_BYTES as usize + 1];
        refused(&[0, long.len() as u64], &long, "out of range");
    }

    fn sample() -> AlignedBytes {
        let nums: Vec<u32> = vec![1, 2, 3];
        let vals: Vec<f64> = vec![0.5, 0.25];
        let mut w = ArenaWriter::new(MAGIC, 7);
        w.slice(0x10, &nums)
            .slice(0x20, &vals)
            .owned(0x30, vec![9u8; 5]);
        w.to_aligned_bytes()
    }

    #[test]
    fn roundtrip_typed_sections() {
        let buf = sample();
        let a = Arena::parse(buf.as_slice(), MAGIC).unwrap();
        assert_eq!(a.version(), 7);
        assert_eq!(a.slice::<u32>(0x10).unwrap(), &[1, 2, 3]);
        assert_eq!(a.slice::<f64>(0x20).unwrap(), &[0.5, 0.25]);
        assert_eq!(a.section(0x30).unwrap(), &[9u8; 5]);
        assert!(a.section(0x99).is_none());
        a.verify_deep().unwrap();
    }

    #[test]
    fn encoded_len_matches() {
        let nums: Vec<u32> = vec![1, 2, 3];
        let mut w = ArenaWriter::new(MAGIC, 1);
        w.slice(1, &nums);
        let mut out = Vec::new();
        let written = w.write_to(&mut out).unwrap();
        assert_eq!(written, out.len() as u64);
        assert_eq!(written, w.encoded_len());
    }

    #[test]
    fn to_aligned_bytes_equals_write_to_for_odd_length_sections() {
        let odd: Vec<u8> = (1..=13).collect();
        let nums: Vec<u32> = vec![7, 8, 9];
        let mut w = ArenaWriter::new(MAGIC, 3);
        w.section(0x1, &odd[..1])
            .slice(0x2, &nums)
            .section(0x3, &odd)
            .section(0x4, &[]);
        let mut streamed = Vec::new();
        w.write_to(&mut streamed).unwrap();
        let aligned = w.to_aligned_bytes();
        assert_eq!(aligned.as_slice(), streamed.as_slice());
        assert_eq!(aligned.as_slice().as_ptr() as usize % 8, 0);
        Arena::parse(aligned.as_slice(), MAGIC)
            .unwrap()
            .verify_deep()
            .unwrap();
    }

    #[test]
    fn refuses_bad_magic_and_truncation() {
        let buf = sample();
        let mut wrong = buf.as_slice().to_vec();
        wrong[0] ^= 0xff;
        assert!(Arena::parse(&wrong, MAGIC).unwrap_err().contains("magic"));
        let err = Arena::parse(&buf.as_slice()[..HEADER_BYTES + 3], MAGIC).unwrap_err();
        assert!(err.contains("truncated section table"), "{err}");
        assert!(Arena::parse(&[], MAGIC).unwrap_err().contains("too short"));
    }

    #[test]
    fn refuses_corrupt_table_and_payload() {
        let buf = sample();
        // Flip a byte inside the table: shallow parse catches it.
        let mut t = buf.as_slice().to_vec();
        t[HEADER_BYTES + 1] ^= 0x01;
        assert!(Arena::parse(&t, MAGIC)
            .unwrap_err()
            .contains("section table checksum"));
        // Flip a payload byte: shallow parse passes, deep verify refuses.
        let mut p = buf.as_slice().to_vec();
        let last = p.len() - 6;
        p[last] ^= 0x01;
        let p = AlignedBytes::copy_from(&p);
        let a = Arena::parse(p.as_slice(), MAGIC).unwrap();
        assert!(a.verify_deep().unwrap_err().contains("checksum"));
    }

    #[test]
    fn refuses_foreign_endianness() {
        let buf = sample();
        let mut e = buf.as_slice().to_vec();
        e[16..24].reverse(); // byte-swapped marker, as a foreign writer would emit
        let err = Arena::parse(&e, MAGIC).unwrap_err();
        assert!(err.contains("endianness"), "{err}");
    }

    #[test]
    fn cast_slice_checks_alignment_and_length() {
        let buf = AlignedBytes::copy_from(&[0u8; 16]);
        assert!(cast_slice::<u64>(buf.as_slice()).is_ok());
        assert!(cast_slice::<u64>(&buf.as_slice()[1..9])
            .unwrap_err()
            .contains("aligned"));
        assert!(cast_slice::<u64>(&buf.as_slice()[..12])
            .unwrap_err()
            .contains("multiple"));
    }

    #[test]
    fn aligned_bytes_is_aligned() {
        for n in [0usize, 1, 7, 8, 9, 4096] {
            let b = AlignedBytes::zeroed(n);
            assert_eq!(b.as_slice().as_ptr() as usize % 8, 0);
            assert_eq!(b.len(), n);
        }
    }
}
