//! Read-only file mapping with a heap fallback.
//!
//! Snapshot v4 is an arena of 8-byte-aligned sections designed to be
//! consumed *in place*. On Unix we map the file with a hand-rolled `mmap`
//! binding (raw `extern "C"` — the vendoring policy forbids the `libc`
//! crate, and the two calls we need are stable POSIX); everywhere else, or
//! when the mapping fails, the file is read into an 8-aligned heap buffer
//! ([`AlignedBytes`]) that behaves identically. Either way the bytes come
//! back as one `&[u8]` whose base pointer is at least 8-aligned, so the
//! arena's alignment-checked slice casts work unchanged.

use simrankpp_util::AlignedBytes;
use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only `mmap` of a whole file, unmapped on drop.
#[cfg(unix)]
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
impl Mapping {
    /// Maps `file` (of size `len > 0`) read-only and private.
    fn new(file: &File, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open file descriptor; a PROT_READ private
        // mapping of a regular file never aliases writable memory. We treat
        // a failed map (MAP_FAILED == -1) as an error, not a pointer.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping covers exactly `len` readable bytes and lives
        // as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: (ptr, len) came from a successful mmap and is unmapped
        // exactly once.
        unsafe { sys::munmap(self.ptr as *mut _, self.len) };
    }
}

// SAFETY: the mapping is read-only for its whole lifetime; sharing and
// sending an immutable byte region across threads is sound.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

#[cfg(unix)]
impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping").field("len", &self.len).finish()
    }
}

/// Where an index's snapshot bytes live.
#[derive(Debug)]
pub enum Backing {
    /// The file is mapped into the address space: load cost is O(pages
    /// touched), not O(file size).
    #[cfg(unix)]
    Mapped(Mapping),
    /// 8-aligned heap bytes: a build's encoded arena, or a whole file read
    /// in.
    Heap(AlignedBytes),
}

impl Backing {
    /// Opens `path`, preferring `mmap` and falling back to a heap read
    /// (non-Unix platforms, empty files, or a failed map).
    pub fn open(path: &Path) -> io::Result<Backing> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(unix)]
        if len > 0 {
            if let Ok(m) = Mapping::new(&file, len) {
                return Ok(Backing::Mapped(m));
            }
        }
        let buf = AlignedBytes::read_exact_from(&mut file, len)?;
        Ok(Backing::Heap(buf))
    }

    /// The backing bytes (8-aligned base pointer in both variants).
    pub fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.as_slice(),
            Backing::Heap(b) => b.as_slice(),
        }
    }

    /// `"mmap"` or `"heap"`, for the `info` report.
    pub fn kind(&self) -> &'static str {
        match self {
            #[cfg(unix)]
            Backing::Mapped(_) => "mmap",
            Backing::Heap(_) => "heap",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_bytes_equal_the_file_and_are_aligned() {
        let path = std::env::temp_dir().join("simrankpp_mmap_test.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapped = Backing::open(&path).unwrap();
        assert_eq!(mapped.bytes(), payload.as_slice());
        #[cfg(unix)]
        assert_eq!(mapped.kind(), "mmap");
        assert_eq!(mapped.bytes().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let path = std::env::temp_dir().join("simrankpp_mmap_empty.bin");
        std::fs::write(&path, b"").unwrap();
        let b = Backing::open(&path).unwrap();
        assert_eq!(b.kind(), "heap");
        assert!(b.bytes().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
