//! Zero-copy arena container format.
//!
//! One wire format shared by every serialized artifact in the workspace: a
//! fixed header, a front section table, then 8-byte-aligned sections of raw
//! native-endian bytes. The format is designed so that a *mapped* file can be
//! consumed in place — reading checks only the header and table
//! (O(#sections)), and typed views are produced by alignment-checked slice
//! casts, never by copying.
//!
//! ```text
//! offset 0   header   (32 bytes)
//!            magic        [u8; 8]   the artifact's
//!            version      u32
//!            n_sections   u32
//!            endian mark  u64       0x0102030405060708 (refuses foreign
//!                                   byte order; we never byte-swap)
//!            table fnv    u64       FNV-1a of the raw section table
//! offset 32  table    (32 bytes per section)
//!            tag          u64       section id
//!            offset       u64       absolute file offset, 8-aligned
//!            len          u64       payload bytes (not padded)
//!            fnv          u64       FNV-1a of the payload
//! ...        sections, each zero-padded to the next 8-byte boundary
//! ```
//!
//! Sections are written front-to-back through any `Write` sink: all lengths
//! are known up front, so the table can precede the payloads without
//! seeking.
//!
//! Each artifact is one [`Format`] const: magic, version, the name and
//! recovery hint its refusals carry, and one [`Section`] (element size,
//! required or not) per tag, tags numbered densely from `0x01`. Writers start
//! from [`Format::writer`]. Readers call [`Format::read`] — header (length,
//! magic, version, endian mark), table checksum, then every section's bounds
//! and alignment and every declared section's presence and element size, in
//! O(#sections) — or [`Format::read_checked`], which also re-hashes every
//! payload, and index the [`Layout`] either returns. Tags a format does not
//! declare are ignored. Every refusal is one `InvalidData` error reading
//! `"<artifact>: <reason>[; <hint>]"`, and [`Format::refuse`] gives each
//! format's own semantic checks the same shape.
//!
//! | artifact | const | magic | version | tag: section (element bytes) |
//! |---|---|---|---|---|
//! | snapshot | `serve::snapshot::FORMAT` | `SRPPIDX\0` | 4 | 1 meta (8), 2 row offsets (4), 3 targets (4), 4 scores (8), 5 name offsets (8), 6 name bytes (1), 7 name hashes (8), 8 name ids (4); 5–8 only when META's names flag is set |
//! | checkpoint | `serve::checkpoint::FORMAT` | `SRPPCKPT` | 1 | 1 meta (8), 2 query names (8), 3 query name bytes (1), 4 ad names (8), 5 ad name bytes (1) |
//! | segment | `graph::segments::SEGMENT` | `SRPPSGB\0` | 1 | 1 meta (8), 2 edge queries (4), 3 edge ads (4), 4 impressions (8), 5 clicks (8), 6 expected click rates (8), 7 query map (4), 8 ad map (4); optional: 9 query names (8), 10 query name bytes (1), 11 ad names (8), 12 ad name bytes (1) |
//! | segment manifest | `graph::segments::MANIFEST` | `SRPPSGM\0` | 1 | 1 meta (8), 2 segment offsets (8), 3 segment lengths (8), 4 segment queries (8), 5 segment ads (8), 6 segment edges (8) |
//!
//! The segmented store's own 24-byte file header (`graph::segments::STORE`,
//! `SRPPSEG\0`, version 1) is an arena header's first 24 bytes and is checked
//! by [`Format::check_header`].

use std::borrow::Cow;
use std::fmt::Display;
use std::io::{self, Read, Write};
use std::ops::Range;

/// Marker written after the version so a file produced on a foreign-endian
/// machine is refused instead of misread. We always read and write native
/// byte order; files are portable between same-endian machines, which is
/// every deployment target we have.
pub const ENDIAN_MARK: u64 = 0x0102_0304_0506_0708;

/// Size of the fixed arena header in bytes.
pub const HEADER_BYTES: usize = 32;

/// Size of one section-table entry in bytes.
pub const TABLE_ENTRY_BYTES: usize = 32;

/// The most sections a [`Format`] declares (the segment blob's twelve).
const MAX_SECTIONS: usize = 12;

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
fn cast_slice<T: Pod>(bytes: &[u8]) -> Result<&[T], String> {
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

/// An owned byte buffer whose storage is guaranteed 8-byte aligned, so a
/// [`Layout`] slices it exactly as it does mapped pages. This is
/// the heap fallback for platforms (or code paths) without `mmap`.
#[derive(Debug, Clone, Default)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into fresh 8-aligned storage.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut buf = Self::zeroed(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    /// Reads exactly `len` bytes of `r` into fresh 8-aligned storage — how
    /// a file becomes arena bytes on the heap, in one copy.
    pub fn read_exact_from(r: &mut impl Read, len: usize) -> io::Result<Self> {
        let mut buf = Self::zeroed(len);
        r.read_exact(buf.as_mut_slice())?;
        Ok(buf)
    }

    fn zeroed(len: usize) -> Self {
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

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: words owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

/// A section staged for writing: a tag, its payload bytes, and their
/// checksum when it is already known.
struct Staged<'a> {
    tag: u64,
    bytes: Cow<'a, [u8]>,
    fnv: Option<u64>,
}

/// Builds an arena file section-at-a-time and streams it through any
/// [`Write`] sink — whole sections go out as single `write_all` calls.
/// Start one with [`Format::writer`].
pub struct ArenaWriter<'a> {
    magic: [u8; 8],
    version: u32,
    sections: Vec<Staged<'a>>,
}

impl<'a> ArenaWriter<'a> {
    /// Stages a section borrowing the caller's bytes (zero-copy path).
    pub fn section(&mut self, tag: u64, bytes: &'a [u8]) -> &mut Self {
        self.stage(tag, Cow::Borrowed(bytes))
    }

    /// Stages a section borrowing a typed slice as bytes.
    pub fn slice<T: Pod>(&mut self, tag: u64, slice: &'a [T]) -> &mut Self {
        self.section(tag, bytes_of(slice))
    }

    /// Stages a name table as the section pair [`Layout::names`] reads: the
    /// names' UTF-8 bytes concatenated under `blob_tag`, and `n + 1` `u64`
    /// byte offsets into them, starting at 0, under `offs_tag`.
    pub fn names<'n>(
        &mut self,
        offs_tag: u64,
        blob_tag: u64,
        names: impl IntoIterator<Item = &'n str>,
    ) -> &mut Self {
        let mut offs = 0u64.to_ne_bytes().to_vec();
        let mut blob = Vec::new();
        for name in names {
            blob.extend_from_slice(name.as_bytes());
            offs.extend_from_slice(&(blob.len() as u64).to_ne_bytes());
        }
        self.stage(offs_tag, Cow::Owned(offs))
            .stage(blob_tag, Cow::Owned(blob))
    }

    /// Stages section `tag` of an arena `layout` has read, borrowing its
    /// payload and reusing the checksum its table records instead of
    /// hashing it again. A payload whose bytes were never checked against
    /// that checksum keeps failing it in the new arena too.
    pub fn reuse(&mut self, tag: u64, layout: &Layout, bytes: &'a [u8]) -> &mut Self {
        let i = tag as usize - 1;
        self.sections.push(Staged {
            tag,
            bytes: Cow::Borrowed(&bytes[layout.ranges[i].clone()]),
            fnv: Some(layout.sums[i]),
        });
        self
    }

    fn stage(&mut self, tag: u64, bytes: Cow<'a, [u8]>) -> &mut Self {
        self.sections.push(Staged {
            tag,
            bytes,
            fnv: None,
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
            let fnv = s.fnv.unwrap_or_else(|| fnv1a(&s.bytes));
            table.extend_from_slice(&fnv.to_ne_bytes());
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
        debug_assert_eq!(written, buf.len as u64);
        buf
    }
}

#[inline]
fn pad8(len: u64) -> u64 {
    (len + 7) & !7
}

fn ne_u64(field: &[u8]) -> u64 {
    u64::from_ne_bytes(field.try_into().expect("an 8-byte field"))
}

fn ne_u32(field: &[u8]) -> u32 {
    u32::from_ne_bytes(field.try_into().expect("a 4-byte field"))
}

/// One section a [`Format`] declares.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// What refusals call the section.
    pub name: &'static str,
    /// Bytes per element: the payload must hold a whole number of them.
    pub elem: usize,
    /// Whether a file without the section is refused.
    pub required: bool,
}

impl Section {
    /// A section every file carries.
    pub const fn required(name: &'static str, elem: usize) -> Section {
        Section {
            name,
            elem,
            required: true,
        }
    }

    /// A section a file may leave out; absent, it reads as empty.
    pub const fn optional(name: &'static str, elem: usize) -> Section {
        Section {
            name,
            elem,
            required: false,
        }
    }
}

/// One arena artifact: its header, the name and recovery hint its refusals
/// carry, and its section table. Declared once per artifact as a `const`.
#[derive(Debug)]
pub struct Format {
    /// Header magic.
    pub magic: [u8; 8],
    /// Header version; any other is refused before the table is read.
    pub version: u32,
    /// The artifact's name, leading every refusal.
    pub artifact: &'static str,
    /// How to recover, ending every refusal (`None`: no standard recovery).
    pub hint: Option<&'static str>,
    /// Section `tag` is `sections[tag − 1]`; other tags are ignored.
    pub sections: &'static [Section],
}

impl Format {
    /// An empty arena of this format, ready for sections.
    pub fn writer<'a>(&self) -> ArenaWriter<'a> {
        ArenaWriter {
            magic: self.magic,
            version: self.version,
            sections: Vec::new(),
        }
    }

    /// The `InvalidData` error `"<artifact>: <reason>[; <hint>]"`.
    pub fn refuse(&self, reason: impl Display) -> io::Error {
        let msg = match self.hint {
            Some(hint) => format!("{}: {reason}; {hint}", self.artifact),
            None => format!("{}: {reason}", self.artifact),
        };
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }

    /// Checks a header's first 24 bytes — magic, then version, then endian
    /// mark — so a file of another version gets the version refusal whatever
    /// follows it.
    pub fn check_header(&self, bytes: &[u8]) -> io::Result<()> {
        if self.field(bytes, 0..8)? != self.magic {
            return Err(self.refuse("bad magic"));
        }
        let version = ne_u32(self.field(bytes, 8..12)?);
        if version != self.version {
            return Err(self.refuse(format_args!(
                "unsupported {} version {version} (expected {})",
                self.artifact, self.version
            )));
        }
        if ne_u64(self.field(bytes, 16..24)?) != ENDIAN_MARK {
            return Err(
                self.refuse("endianness marker mismatch — written on a foreign-endian machine")
            );
        }
        Ok(())
    }

    /// Reads the header and table of the 8-aligned `bytes`: every section
    /// in bounds and 8-aligned, every required one present, every declared
    /// one a whole number of elements. O(#sections): no payload is touched.
    pub fn read(&'static self, bytes: &[u8]) -> io::Result<Layout> {
        self.layout(bytes, false)
    }

    /// [`Format::read`], plus every payload's checksum (O(file size)).
    pub fn read_checked(&'static self, bytes: &[u8]) -> io::Result<Layout> {
        self.layout(bytes, true)
    }

    fn field<'b>(&self, bytes: &'b [u8], at: Range<usize>) -> io::Result<&'b [u8]> {
        bytes
            .get(at)
            .ok_or_else(|| self.refuse(format_args!("truncated header ({} bytes)", bytes.len())))
    }

    fn layout(&'static self, bytes: &[u8], checked: bool) -> io::Result<Layout> {
        assert!(self.sections.len() <= MAX_SECTIONS);
        self.check_header(bytes)?;
        let n = ne_u32(self.field(bytes, 12..16)?) as usize;
        let table_fnv = ne_u64(self.field(bytes, 24..HEADER_BYTES)?);
        assert!(bytes.as_ptr() as usize % 8 == 0, "unaligned arena");
        let table = n
            .checked_mul(TABLE_ENTRY_BYTES)
            .and_then(|len| bytes.get(HEADER_BYTES..HEADER_BYTES.checked_add(len)?))
            .ok_or_else(|| {
                self.refuse(format_args!(
                    "truncated section table ({n} sections, {} bytes)",
                    bytes.len()
                ))
            })?;
        if fnv1a(table) != table_fnv {
            return Err(self.refuse("section table checksum mismatch"));
        }

        let mut found: [Option<(Range<usize>, u64)>; MAX_SECTIONS] = Default::default();
        for entry in table.chunks_exact(TABLE_ENTRY_BYTES) {
            let word = |i: usize| ne_u64(&entry[8 * i..8 * i + 8]);
            let (tag, offset, len) = (word(0), word(1), word(2));
            if offset % 8 != 0 {
                return Err(self.refuse(format_args!(
                    "section {tag:#x} offset {offset} is not 8-byte aligned"
                )));
            }
            let end = offset
                .checked_add(len)
                .filter(|&end| end <= bytes.len() as u64)
                .ok_or_else(|| {
                    self.refuse(format_args!(
                        "section {tag:#x} claims {len} bytes at {offset}, beyond the end at {}",
                        bytes.len()
                    ))
                })?;
            // In bounds, so both ends fit a `usize`.
            let range = offset as usize..end as usize;
            if checked && fnv1a(&bytes[range.clone()]) != word(3) {
                return Err(self.refuse(format_args!(
                    "section {tag:#x} checksum mismatch — the file is corrupt"
                )));
            }
            if (1..=self.sections.len() as u64).contains(&tag) {
                found[tag as usize - 1].get_or_insert((range, word(3)));
            }
        }

        let mut ranges: [Range<usize>; MAX_SECTIONS] = Default::default();
        let mut sums = [0u64; MAX_SECTIONS];
        for (i, (section, found)) in self.sections.iter().zip(found).enumerate() {
            let tag = i + 1;
            match found {
                None if section.required => {
                    return Err(self.refuse(format_args!(
                        "missing required section {tag:#x} ({})",
                        section.name
                    )))
                }
                Some((range, _)) if range.len() % section.elem != 0 => {
                    return Err(self.refuse(format_args!(
                        "section {tag:#x} ({}) holds {} bytes, not a whole number of {}-byte elements",
                        section.name,
                        range.len(),
                        section.elem
                    )))
                }
                Some((range, sum)) => (ranges[i], sums[i]) = (range, sum),
                None => {}
            }
        }
        Ok(Layout {
            format: self,
            ranges,
            sums,
        })
    }
}

/// Where each declared section of one arena lies, as [`Format::read`] or
/// [`Format::read_checked`] found it. Every accessor takes the bytes that
/// were read — the layout describes those bytes and no others.
#[derive(Debug, Clone)]
pub struct Layout {
    format: &'static Format,
    /// Byte range of section `tag` at `tag − 1`; empty when absent.
    ranges: [Range<usize>; MAX_SECTIONS],
    /// The checksum the table records for section `tag`, at `tag − 1`.
    sums: [u64; MAX_SECTIONS],
}

impl Layout {
    /// Section `tag` as `T`s, `T` of the declared element size: one indexed
    /// range and one cast, nothing searched. An absent optional or an
    /// undeclared section is empty.
    #[inline]
    pub fn slice<'b, T: Pod>(&self, bytes: &'b [u8], tag: u64) -> &'b [T] {
        let range = self.ranges[tag as usize - 1].clone();
        cast_slice(&bytes[range]).expect("the read checked bounds, alignment and element size")
    }

    /// [`Layout::slice`], refused unless it holds exactly `n` elements.
    pub fn slice_n<'b, T: Pod>(&self, bytes: &'b [u8], tag: u64, n: u64) -> io::Result<&'b [T]> {
        let slice = self.slice(bytes, tag);
        if slice.len() as u64 != n {
            return Err(self.format.refuse(format_args!(
                "{} holds {} elements, expected {n}",
                self.name(tag),
                slice.len()
            )));
        }
        Ok(slice)
    }

    /// A block of exactly `N` `u64` words, such as a meta section.
    pub fn words<'b, const N: usize>(&self, bytes: &'b [u8], tag: u64) -> io::Result<&'b [u64; N]> {
        let words = self.slice_n::<u64>(bytes, tag, N as u64)?;
        Ok(words.try_into().expect("slice_n checked the length"))
    }

    /// The name table an [`ArenaWriter::names`] pair holds, borrowed from
    /// the blob and refused in any malformed shape ([`unpack_names`]).
    pub fn names<'b>(&self, bytes: &'b [u8], offs: u64, blob: u64) -> io::Result<Vec<&'b str>> {
        let refuse = |e: String| self.format.refuse(format_args!("{}: {e}", self.name(offs)));
        unpack_names(self.slice(bytes, offs), self.slice(bytes, blob)).map_err(refuse)
    }

    fn name(&self, tag: u64) -> &'static str {
        self.format.sections[tag as usize - 1].name
    }
}

/// Longest name a packed name table may carry. Far above any real query or
/// ad string; it bounds what one forged offset pair can make a reader slice.
pub const MAX_NAME_BYTES: u64 = 1 << 20;

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

    const TEST: Format = Format {
        magic: *b"ARENATST",
        version: 7,
        artifact: "test arena",
        hint: Some("regenerate it"),
        sections: &[
            Section::required("numbers", 4),
            Section::required("values", 8),
            Section::optional("bytes", 1),
            Section::required("meta", 8),
            Section::optional("name offsets", 8),
            Section::optional("name bytes", 1),
        ],
    };

    const NUMBERS: [u32; 3] = [1, 2, 3];
    const VALUES: [f64; 2] = [0.5, 0.25];
    const META: [u64; 2] = [40, 2];

    /// Tags 1–4, then an undeclared tag.
    fn sample() -> AlignedBytes {
        let mut w = TEST.writer();
        w.slice(0x1, &NUMBERS)
            .slice(0x2, &VALUES)
            .section(0x3, &[9u8; 5])
            .slice(0x4, &META)
            .section(0x99, b"ignored");
        w.to_aligned_bytes()
    }

    /// Recomputes every in-bounds payload checksum and the table checksum,
    /// so an edited table reaches the checks behind them.
    fn reseal(buf: &mut [u8]) {
        let end = HEADER_BYTES + ne_u32(&buf[12..16]) as usize * TABLE_ENTRY_BYTES;
        for at in (HEADER_BYTES..end).step_by(TABLE_ENTRY_BYTES) {
            let (off, len) = (
                ne_u64(&buf[at + 8..at + 16]),
                ne_u64(&buf[at + 16..at + 24]),
            );
            if let Some(payload) = buf.get(off as usize..off.saturating_add(len) as usize) {
                let h = fnv1a(payload);
                buf[at + 24..at + 32].copy_from_slice(&h.to_ne_bytes());
            }
        }
        let h = fnv1a(&buf[HEADER_BYTES..end]);
        buf[24..32].copy_from_slice(&h.to_ne_bytes());
    }

    /// Sets word `word` of the first table entry (0 tag, 1 offset, 2 len).
    fn set_entry(buf: &mut [u8], word: usize, value: u64) {
        let at = HEADER_BYTES + 8 * word;
        buf[at..at + 8].copy_from_slice(&value.to_ne_bytes());
        reseal(buf);
    }

    #[test]
    fn roundtrip_typed_sections() {
        let buf = sample();
        let bytes = buf.as_slice();
        let layout = TEST.read_checked(bytes).unwrap();
        assert_eq!(layout.slice::<u32>(bytes, 0x1), NUMBERS);
        assert_eq!(layout.slice::<f64>(bytes, 0x2), VALUES);
        assert_eq!(layout.slice::<u8>(bytes, 0x3), [9u8; 5]);
        assert_eq!(layout.words::<2>(bytes, 0x4).unwrap(), &META);
        assert!(
            layout.slice::<u64>(bytes, 0x5).is_empty(),
            "absent optional"
        );
    }

    #[test]
    fn every_refusal_names_the_artifact_and_its_hint() {
        const NUMBERS_AT: usize = HEADER_BYTES + 5 * TABLE_ENTRY_BYTES; // the first payload
        let clean = sample();
        type Row = (&'static str, fn(&mut Vec<u8>), &'static str);
        let rows: [Row; 10] = [
            (
                "short header",
                |b| b.truncate(20),
                "truncated header (20 bytes)",
            ),
            ("bad magic", |b| b[0] ^= 1, "bad magic"),
            (
                "other version",
                |b| b[8] += 1,
                "unsupported test arena version 8 (expected 7)",
            ),
            (
                "foreign endian mark",
                |b| b[16..24].reverse(),
                "endianness marker mismatch",
            ),
            (
                "cut table",
                |b| b.truncate(HEADER_BYTES + 3),
                "truncated section table",
            ),
            (
                "table checksum",
                |b| b[HEADER_BYTES + 1] ^= 1,
                "section table checksum mismatch",
            ),
            (
                "misaligned section",
                |b| set_entry(b, 1, NUMBERS_AT as u64 + 4),
                "not 8-byte aligned",
            ),
            (
                "section past the end",
                |b| set_entry(b, 2, u64::MAX / 2),
                "beyond the end",
            ),
            (
                "missing required section",
                |b| set_entry(b, 0, 0x77),
                "missing required section 0x1 (numbers)",
            ),
            (
                "element-size remainder",
                |b| set_entry(b, 2, 11),
                "not a whole number of 4-byte elements",
            ),
        ];
        let check = |label: &str, err: io::Error, needle: &str| {
            let msg = err.to_string();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{label}");
            assert!(msg.starts_with("test arena: "), "{label}: {msg}");
            assert!(msg.ends_with("; regenerate it"), "{label}: {msg}");
            assert!(msg.contains(needle), "{label}: {msg}");
        };
        for (label, poke, needle) in rows {
            let mut buf = clean.as_slice().to_vec();
            poke(&mut buf);
            let buf = AlignedBytes::copy_from(&buf);
            check(label, TEST.read(buf.as_slice()).unwrap_err(), needle);
            check(
                label,
                TEST.read_checked(buf.as_slice()).unwrap_err(),
                needle,
            );
        }

        // A flipped payload byte passes the shallow read only.
        let mut buf = clean.as_slice().to_vec();
        buf[NUMBERS_AT] ^= 1;
        let buf = AlignedBytes::copy_from(&buf);
        TEST.read(buf.as_slice()).unwrap();
        let err = TEST.read_checked(buf.as_slice()).unwrap_err();
        check("payload checksum", err, "section 0x1 checksum mismatch");

        let bytes = clean.as_slice();
        let layout = TEST.read(bytes).unwrap();
        let err = layout.slice_n::<u32>(bytes, 0x1, 4).unwrap_err();
        check("slice_n count", err, "numbers holds 3 elements, expected 4");
        let err = layout.words::<3>(bytes, 0x4).unwrap_err();
        check("words length", err, "meta holds 2 elements, expected 3");
        assert_eq!(layout.slice_n::<f64>(bytes, 0x2, 2).unwrap(), VALUES);
    }

    #[test]
    fn name_table_roundtrips_and_refuses_hostile_shapes() {
        for names in [&["camera", "", "tv"][..], &[]] {
            let mut w = TEST.writer();
            w.slice(0x1, &NUMBERS)
                .slice(0x2, &VALUES)
                .slice(0x4, &META)
                .names(0x5, 0x6, names.iter().copied());
            let buf = w.to_aligned_bytes();
            let bytes = buf.as_slice();
            let layout = TEST.read(bytes).unwrap();
            assert_eq!(layout.names(bytes, 0x5, 0x6).unwrap(), names);
        }
        let mut w = TEST.writer();
        w.names(0x5, 0x6, ["camera", "", "tv"]);
        let buf = w.to_aligned_bytes();
        let offs = &buf.as_slice()[HEADER_BYTES + 2 * TABLE_ENTRY_BYTES..][..32];
        assert_eq!(cast_slice::<u64>(offs).unwrap(), [0, 6, 6, 8]);

        let blob = b"cameratv";
        let refused = |offs: &[u64], blob: &[u8], why: &str| {
            let err = unpack_names(offs, blob).unwrap_err();
            assert!(err.contains(why), "{offs:?}: {err}");
        };
        refused(&[], blob, "do not span");
        refused(&[1, 6, 6, 8], blob, "do not span");
        refused(&[0, 6, 6, 7], blob, "do not span");
        refused(&[0, 6, 6, 9], blob, "do not span");
        refused(&[0, 7, 6, 8], blob, "out of range");
        refused(&[0, 100, 8], blob, "out of bounds");
        refused(&[0, 1 << 40, 6, 8], blob, "out of range");
        refused(&[0, 2], &[0xff, 0xfe], "UTF-8");
        let long = vec![b'x'; MAX_NAME_BYTES as usize + 1];
        refused(&[0, long.len() as u64], &long, "out of range");
    }

    #[test]
    fn encoded_len_matches() {
        let mut w = TEST.writer();
        w.slice(1, &NUMBERS);
        let mut out = Vec::new();
        let written = w.write_to(&mut out).unwrap();
        assert_eq!(written, out.len() as u64);
        assert_eq!(written, w.encoded_len());
    }

    #[test]
    fn to_aligned_bytes_equals_write_to_for_odd_length_sections() {
        let odd: Vec<u8> = (1..=13).collect();
        let mut w = TEST.writer();
        w.section(0x3, &odd[..1])
            .slice(0x1, &NUMBERS)
            .section(0x6, &odd)
            .section(0x2, &[])
            .slice(0x4, &META);
        let mut streamed = Vec::new();
        w.write_to(&mut streamed).unwrap();
        let aligned = w.to_aligned_bytes();
        assert_eq!(aligned.as_slice(), streamed.as_slice());
        assert_eq!(aligned.as_slice().as_ptr() as usize % 8, 0);
        TEST.read_checked(aligned.as_slice()).unwrap();
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
        let payload: Vec<u8> = (0..=255).collect();
        for n in [0usize, 1, 7, 8, 9, 256] {
            let b = AlignedBytes::read_exact_from(&mut &payload[..], n).unwrap();
            assert_eq!(b.as_slice().as_ptr() as usize % 8, 0);
            assert_eq!(b.as_slice(), &payload[..n]);
        }
        let short = AlignedBytes::read_exact_from(&mut &payload[..], 257).unwrap_err();
        assert_eq!(short.kind(), io::ErrorKind::UnexpectedEof);
    }
}
