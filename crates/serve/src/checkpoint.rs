//! Durable ingest checkpoints: crash-only restart for `serve ingest`.
//!
//! PR 9 made the click graph a stream, but the ingest loop kept its log
//! position only in memory — a crash meant re-reading the log from zero.
//! This module makes the stream restartable from a small durable artifact:
//!
//! * [`Checkpoint`] captures, at an epoch boundary, everything a restart
//!   needs that the click log alone cannot cheaply provide: where in the
//!   log the oldest *surviving* window bucket starts (`replay_offset`),
//!   how far the crashed process had applied (`commit_offset`), the
//!   boundary epoch, the generation counter, the frozen window's
//!   [`fingerprint`](simrankpp_graph::ClickGraph::fingerprint) — and the
//!   full **name universe** (both interners). The names matter: node ids
//!   are stable for a query's entire lifetime, and retired queries stay
//!   in the index as isolated nodes answering `ok\t<q>\t0`. A replay of
//!   only the surviving window would forget them and answer
//!   `err\tunknown query` — observably different from the uninterrupted
//!   run. Carrying the interners makes recovery bit-identical, not just
//!   approximately fresh.
//! * [`write_checkpoint`] commits via the full atomic discipline
//!   ([`simrankpp_util::durable::atomic_write`]): sibling temp, fsync,
//!   rename, directory fsync. A crash mid-commit leaves the previous
//!   checkpoint; recovery just replays a longer tail.
//! * [`read_checkpoint`] refuses hostile files — truncated, bad checksum,
//!   future version — with a structured error carrying the rebuild hint,
//!   never a panic and never a silent zero-offset restart.
//! * [`resume_ingestor`] rebuilds an [`EpochIngestor`] from checkpoint +
//!   log tail and verifies the replayed window's fingerprint against the
//!   checkpointed one, rejecting divergence (a truncated or rewritten
//!   log) before anything is served.
//!
//! The file is one [`FORMAT`] arena, the section format of snapshot v4 and
//! the segmented store, so torn writes and bit flips are caught by the
//! table and section FNVs.

use crate::ingest::{EpochIngestor, IngestConfig, LogTailer, SpannedRecord};
use simrankpp_graph::Interner;
use simrankpp_util::{AlignedBytes, Format, Section};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The checkpoint file.
pub const FORMAT: Format = Format {
    magic: *b"SRPPCKPT",
    version: 1,
    artifact: "checkpoint",
    hint: Some("delete the checkpoint (or start without --resume) to rebuild from the click log"),
    sections: &[
        Section::required("meta", 8),
        Section::required("query names", 8),
        Section::required("query name bytes", 1),
        Section::required("ad names", 8),
        Section::required("ad name bytes", 1),
    ],
};

// Section tags.
const CK_META: u64 = 0x01; // u64 × 8, the `Checkpoint` words in field order
const CK_QNAME_OFFS: u64 = 0x02; // u64[nq + 1] offsets into the query blob
const CK_QNAME_BLOB: u64 = 0x03; // concatenated UTF-8 query names
const CK_ANAME_OFFS: u64 = 0x04;
const CK_ANAME_BLOB: u64 = 0x05;

/// Everything a `serve ingest --resume` needs to rebuild the exact serving
/// state from the click log.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Byte offset of the first record of the oldest surviving bucket —
    /// where tail replay starts.
    pub replay_offset: u64,
    /// The epoch of that oldest surviving bucket (the resumed window is
    /// born at this epoch).
    pub replay_epoch: u64,
    /// End offset of the last record applied before this checkpoint was
    /// committed; replaying `[replay_offset, commit_offset)` reproduces
    /// the checkpointed window exactly, and the fingerprint is verified
    /// there.
    pub commit_offset: u64,
    /// The window's epoch at commit time.
    pub epoch: u64,
    /// Index generations published so far (monotonic across crashes).
    pub generation: u64,
    /// [`ClickGraph::fingerprint`](simrankpp_graph::ClickGraph::fingerprint)
    /// of the window frozen at the last refresh before commit.
    pub fingerprint: u64,
    /// The window length the stream was running with (a resume with a
    /// different `--window` would silently rebuild a different graph, so
    /// it is refused up front).
    pub window: u64,
    /// Bit pattern of the ECR decay factor, for the same reason.
    pub decay_bits: u64,
    /// Every query name ever interned, in id order (shared with the window
    /// it was captured from).
    pub query_names: Arc<Interner>,
    /// Every ad name ever interned, in id order.
    pub ad_names: Arc<Interner>,
}

/// Interns a checkpoint's name table, refusing duplicates (a repeated name
/// would silently shift every later id).
fn interner(names: Vec<&str>) -> io::Result<Arc<Interner>> {
    let mut interner = Interner::new();
    for (i, name) in (0..).zip(names) {
        if interner.intern(name) != i {
            return Err(FORMAT.refuse(format_args!("duplicate name {name:?} in a name table")));
        }
    }
    Ok(Arc::new(interner))
}

/// Captures a checkpoint of `ing` (which must have refreshed at least
/// once, so its fingerprint is meaningful). The name tables are shared
/// with the window, not copied.
pub fn capture(ing: &EpochIngestor) -> Checkpoint {
    let (replay_epoch, replay_offset) = ing.replay_start();
    Checkpoint {
        replay_offset,
        replay_epoch,
        commit_offset: ing.applied_offset(),
        epoch: ing.epoch(),
        generation: ing.generation(),
        fingerprint: ing.last_fingerprint(),
        window: ing.window().window() as u64,
        decay_bits: ing.window().decay().to_bits(),
        query_names: Arc::clone(ing.window().query_names()),
        ad_names: Arc::clone(ing.window().ad_names()),
    }
}

/// Commits `ck` to `path` atomically and durably.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<()> {
    simrankpp_util::fail_point!("checkpoint-commit");
    let meta = [
        ck.replay_offset,
        ck.replay_epoch,
        ck.commit_offset,
        ck.epoch,
        ck.generation,
        ck.fingerprint,
        ck.window,
        ck.decay_bits,
    ];
    let q_names = ck.query_names.iter().map(|(_, n)| n);
    let a_names = ck.ad_names.iter().map(|(_, n)| n);
    let mut aw = FORMAT.writer();
    aw.slice(CK_META, &meta)
        .names(CK_QNAME_OFFS, CK_QNAME_BLOB, q_names)
        .names(CK_ANAME_OFFS, CK_ANAME_BLOB, a_names);
    simrankpp_util::durable::atomic_write(path, |w| {
        aw.write_to(w)?;
        Ok(())
    })
}

/// Reads and fully validates a checkpoint. Every hostile shape — truncated
/// file, flipped bit, future version, garbage sections — is a structured
/// `InvalidData` error; none of them panic and none silently restart from
/// offset zero.
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len() as usize;
    decode_checkpoint(AlignedBytes::read_exact_from(&mut file, len)?.as_slice())
}

fn decode_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    let layout = FORMAT.read_checked(bytes)?;
    let meta = layout.words::<8>(bytes, CK_META)?;
    let ck = Checkpoint {
        replay_offset: meta[0],
        replay_epoch: meta[1],
        commit_offset: meta[2],
        epoch: meta[3],
        generation: meta[4],
        fingerprint: meta[5],
        window: meta[6],
        decay_bits: meta[7],
        query_names: interner(layout.names(bytes, CK_QNAME_OFFS, CK_QNAME_BLOB)?)?,
        ad_names: interner(layout.names(bytes, CK_ANAME_OFFS, CK_ANAME_BLOB)?)?,
    };
    if ck.replay_offset > ck.commit_offset {
        return Err(FORMAT.refuse("replay and commit offsets are inconsistent"));
    }
    if ck.window == 0 {
        return Err(FORMAT.refuse("window length is zero"));
    }
    Ok(ck)
}

/// The result of replaying checkpoint + log tail.
#[derive(Debug)]
pub struct Resumed {
    /// The rebuilt pipeline, positioned at the end of the drained log; the
    /// caller runs one recovery refresh, then keeps tailing live.
    pub ingestor: EpochIngestor,
    /// The tailer, positioned after the drained backlog.
    pub tailer: LogTailer,
    /// Records replayed from the log tail (verification + catch-up).
    pub replayed: usize,
    /// How many of those were click events (the `ingest_events` counter
    /// counts events, not marks, so a resumed process reports the same
    /// number an uninterrupted one would).
    pub events: usize,
    /// The epoch reached after draining the backlog.
    pub epoch: u64,
}

/// Rebuilds an ingest pipeline from `ck` plus the click log at `log_path`.
///
/// Replays `[replay_offset, commit_offset)`, freezes, and **verifies the
/// window fingerprint** against the checkpoint — a mismatch (truncated or
/// rewritten log, wrong log file) is refused before anything is served.
/// Then applies whatever backlog exists past `commit_offset` (records the
/// crashed process read but had not checkpointed — re-applying them is
/// exactly what the uninterrupted run did, so the result is identical).
pub fn resume_ingestor(
    log_path: &Path,
    cfg: &IngestConfig,
    ck: &Checkpoint,
) -> io::Result<Resumed> {
    if ck.window != cfg.window as u64 {
        return Err(FORMAT.refuse(format_args!(
            "written with --window {} but ingest is configured with --window {}",
            ck.window, cfg.window
        )));
    }
    if ck.decay_bits != cfg.decay.to_bits() {
        return Err(FORMAT.refuse(format_args!(
            "written with --decay {} but ingest is configured with --decay {}",
            f64::from_bits(ck.decay_bits),
            cfg.decay
        )));
    }
    let mut tailer = LogTailer::open_at(log_path, ck.replay_offset)?;
    let mut ingestor = EpochIngestor::resume(
        cfg.clone(),
        ck.replay_epoch,
        ck.replay_offset,
        Arc::clone(&ck.query_names),
        Arc::clone(&ck.ad_names),
        ck.generation,
    );
    let backlog = tailer.drain_spanned()?;
    let mut verified = false;
    let mut replayed = 0usize;
    let mut events = 0usize;
    let verify = |ing: &mut EpochIngestor| -> io::Result<()> {
        let got = ing.window().freeze().fingerprint();
        if got != ck.fingerprint {
            return Err(FORMAT.refuse(format_args!(
                "fingerprint {:#018x} disagrees with the replayed window {:#018x} \
                 (the click log was truncated or rewritten since the checkpoint)",
                ck.fingerprint, got
            )));
        }
        Ok(())
    };
    for SpannedRecord { start, end, rec } in &backlog {
        if !verified && *end > ck.commit_offset {
            // First record past the commit point: the window now holds
            // exactly what the crashed process had applied when it
            // committed — the moment of truth for the fingerprint.
            verify(&mut ingestor)?;
            verified = true;
        }
        if matches!(rec, simrankpp_graph::delta::ClickLogRecord::Event { .. }) {
            events += 1;
        }
        ingestor.apply_record_at(rec, (*start, *end));
        replayed += 1;
    }
    if !verified {
        if ingestor.applied_offset() < ck.commit_offset {
            return Err(FORMAT.refuse(format_args!(
                "click log ends at byte {} but the checkpoint was committed at byte {} \
                 (the log was truncated)",
                ingestor.applied_offset(),
                ck.commit_offset
            )));
        }
        verify(&mut ingestor)?;
    }
    let epoch = ingestor.epoch();
    Ok(Resumed {
        ingestor,
        tailer,
        replayed,
        events,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_core::{MethodKind, RewriterConfig, SimrankConfig};
    use simrankpp_graph::delta::{write_click_log, ClickLogRecord};
    use simrankpp_graph::EdgeData;
    use std::io::Write;
    use std::path::PathBuf;

    fn cfg(window: usize) -> IngestConfig {
        IngestConfig {
            window,
            decay: 1.0,
            method: MethodKind::WeightedSimrank,
            config: SimrankConfig::default()
                .with_weight_kind(simrankpp_graph::WeightKind::ExpectedClickRate),
            rewriter: RewriterConfig::default(),
            threads: 1,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srpp-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(epoch: u64, q: &str, a: &str, clicks: u64) -> ClickLogRecord {
        ClickLogRecord::Event {
            epoch,
            query: q.into(),
            ad: a.into(),
            data: EdgeData::new(10, clicks, clicks as f64 / 10.0),
        }
    }

    fn mark(epoch: u64) -> ClickLogRecord {
        ClickLogRecord::EpochMark { epoch }
    }

    /// A log long enough that bucket 0 retires: queries seen only early
    /// must survive recovery as isolated known nodes.
    fn demo_log() -> Vec<ClickLogRecord> {
        vec![
            ev(0, "retired-query", "old-ad", 4),
            ev(0, "camera", "ad-cam", 5),
            mark(1),
            ev(1, "camera", "ad-cam", 6),
            ev(1, "tv", "ad-tv", 3),
            mark(2),
            ev(2, "tv", "ad-tv", 7),
            mark(3),
            ev(3, "flights", "ad-fly", 2),
            mark(4),
        ]
    }

    fn write_log(dir: &Path, recs: &[ClickLogRecord]) -> PathBuf {
        let path = dir.join("click.log");
        // allow(file-create): test producer simulating the external log appender
        let mut f = std::fs::File::create(&path).unwrap();
        write_click_log(recs, &mut f).unwrap();
        f.flush().unwrap();
        path
    }

    /// Runs an uninterrupted checkpointed ingest over `recs` and returns
    /// (final ingestor, checkpoint captured at the last boundary).
    fn run_to_end(log: &Path, cfg: &IngestConfig) -> (EpochIngestor, Checkpoint) {
        let mut tailer = LogTailer::open(log).unwrap();
        let mut ing = EpochIngestor::new(cfg.clone());
        for SpannedRecord { start, end, rec } in tailer.drain_spanned().unwrap() {
            ing.apply_record_at(&rec, (start, end));
        }
        ing.refresh().unwrap();
        let ck = capture(&ing);
        (ing, ck)
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back, ck);
        // The window has advanced past retirement, so the replay offset is
        // a real mid-log position, not zero.
        assert!(
            ck.replay_offset > 0,
            "window 2 at epoch 4 must not replay from 0"
        );
        assert_eq!(ck.epoch, 4);
        assert_eq!(ck.generation, 1);
        // The name universe includes the retired query.
        assert!(ck.query_names.get("retired-query").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // Length and FNV-1a of the demo checkpoint, recorded before the
        // checkpoint moved onto `util::arena::Format`: the format did not
        // move.
        let dir = tmp_dir("pinned");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(bytes.len(), 392);
        assert_eq!(simrankpp_util::fnv1a(&bytes), 0x52d7_8e43_4053_9bc9);
    }

    #[test]
    fn every_single_bit_flip_is_refused_or_harmless() {
        // The sweep `graph::segments` runs over its store, over a
        // checkpoint: a mutant either fails to decode or (reserved word,
        // padding) decodes equal to the clean checkpoint — never to other
        // replay offsets, epochs, fingerprints or names — and none aborts.
        let dir = tmp_dir("bit-sweep");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let mut mutant = clean.clone();
        let (mut refused, mut harmless) = (0usize, 0usize);
        for at in 0..clean.len() {
            for bit in 0..8 {
                mutant[at] = clean[at] ^ (1 << bit);
                match decode_checkpoint(AlignedBytes::copy_from(&mutant).as_slice()) {
                    Err(_) => refused += 1,
                    Ok(back) => {
                        assert_eq!(
                            back, ck,
                            "byte {at} bit {bit} decoded as a different checkpoint"
                        );
                        harmless += 1;
                    }
                }
            }
            mutant[at] = clean[at];
        }
        eprintln!("checkpoint bit flips: {refused} refused, {harmless} harmless");
        assert_eq!(refused + harmless, clean.len() * 8);
        assert!(
            refused > harmless * 10,
            "{refused} refused, {harmless} harmless"
        );
    }

    #[test]
    fn resume_rebuilds_the_window_bit_identically() {
        let dir = tmp_dir("resume");
        let recs = demo_log();
        let log = write_log(&dir, &recs);
        let c = cfg(2);
        let (mut oracle, ck) = run_to_end(&log, &c);

        // Crash here; more records arrive while we were down.
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        let tail = vec![ev(4, "hotels", "ad-hot", 8), mark(5)];
        write_click_log(&tail, &mut f).unwrap();
        f.flush().unwrap();

        let resumed = resume_ingestor(&log, &c, &ck).unwrap();
        let mut rec_ing = resumed.ingestor;
        assert_eq!(resumed.epoch, 5);
        let (rec_index, _, full) = rec_ing.refresh().unwrap();
        assert!(full, "recovery refresh is a full build");

        // Oracle continues uninterrupted over the same tail.
        let mut t = LogTailer::open_at(&log, oracle.applied_offset()).unwrap();
        for SpannedRecord { start, end, rec } in t.drain_spanned().unwrap() {
            oracle.apply_record_at(&rec, (start, end));
        }
        let (oracle_index, _, _) = oracle.refresh().unwrap();

        assert_eq!(
            rec_ing.window().freeze().fingerprint(),
            oracle.window().freeze().fingerprint(),
            "recovered window must equal the uninterrupted one"
        );
        // Served answers identical, including the retired query staying a
        // known (isolated) node.
        for (_, q) in oracle.window().query_names().iter() {
            let a = oracle_index.rewrites_of(oracle_index.lookup(q).expect("oracle knows q"));
            let b = rec_index.rewrites_of(
                rec_index
                    .lookup(q)
                    .expect("recovered index must know q too"),
            );
            assert_eq!(a.ids(), b.ids(), "{q}: ids");
            assert_eq!(
                a.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                b.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{q}: score bits"
            );
        }
        let retired = rec_index.lookup("retired-query").unwrap();
        assert!(rec_index.row(retired).0.is_empty());
        assert_eq!(rec_ing.generation(), oracle.generation());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_checkpoint_is_refused_with_rebuild_hint() {
        let dir = tmp_dir("truncated");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 9] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = read_checkpoint(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(
                err.to_string().contains("rebuild from the click log"),
                "cut at {cut}: {err}"
            );
        }
        // Shaving only trailing alignment padding may leave the payload
        // fully intact — acceptable if and only if it decodes identically.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        match read_checkpoint(&path) {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidData),
            Ok(back) => assert_eq!(back, ck),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_anywhere_is_refused_with_rebuild_hint() {
        let dir = tmp_dir("bitflip");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Flip one bit in every byte position; every flip must be caught
        // (magic, version, table checksum, or section checksum).
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            match read_checkpoint(&path) {
                Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidData, "pos {pos}"),
                Ok(back) => assert_eq!(back, ck, "pos {pos}: undetected mutation"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_name_tables_are_refused() {
        let dir = tmp_dir("hostile_names");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let good = AlignedBytes::copy_from(&std::fs::read(&path).unwrap());
        let bytes = good.as_slice();
        let layout = FORMAT.read(bytes).unwrap();

        // Offsets that do not span the blob, re-serialized so every
        // checksum holds and only the decoder's own checks face them.
        let blob_len = layout.slice::<u8>(bytes, CK_QNAME_BLOB).len() as u64;
        for end in [blob_len - 1, blob_len + 1] {
            let mut offs = layout.slice::<u64>(bytes, CK_QNAME_OFFS).to_vec();
            *offs.last_mut().unwrap() = end;
            let mut w = FORMAT.writer();
            for tag in 1..=FORMAT.sections.len() as u64 {
                if tag == CK_QNAME_OFFS {
                    w.slice(tag, &offs);
                } else {
                    w.section(tag, layout.slice(bytes, tag));
                }
            }
            let err = decode_checkpoint(w.to_aligned_bytes().as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains("query names: name offsets do not span"),
                "{err}"
            );
        }

        // One name longer than any real query or ad string.
        let mut oversized = ck.clone();
        Arc::make_mut(&mut oversized.ad_names)
            .intern(&"x".repeat(simrankpp_util::MAX_NAME_BYTES as usize + 1));
        write_checkpoint(&path, &oversized).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("ad names: name")
                && err.to_string().contains("length out of range"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_version_is_refused_with_rebuild_hint() {
        let dir = tmp_dir("future");
        let log = write_log(&dir, &demo_log());
        let (_, ck) = run_to_end(&log, &cfg(2));
        let path = dir.join("ingest.ckpt");
        write_checkpoint(&path, &ck).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_ne_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("unsupported checkpoint version 99"),
            "{err}"
        );
        assert!(
            err.to_string().contains("rebuild from the click log"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_fingerprint_is_refused() {
        let dir = tmp_dir("stale");
        let recs = demo_log();
        let log = write_log(&dir, &recs);
        let c = cfg(2);
        let (_, ck) = run_to_end(&log, &c);
        // The log is rewritten behind the checkpoint's back: a record
        // *inside the surviving window* changes its click count (same byte
        // length, so offsets still line up — only the fingerprint can
        // catch it).
        let mut mutated = recs.clone();
        mutated[8] = ev(3, "flights", "ad-fly", 9);
        write_log(&dir, &mutated);
        let err = resume_ingestor(&log, &c, &ck).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert!(
            err.to_string().contains("rebuild from the click log"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_log_is_refused() {
        let dir = tmp_dir("shortlog");
        let log = write_log(&dir, &demo_log());
        let c = cfg(2);
        let (_, ck) = run_to_end(&log, &c);
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..ck.replay_offset as usize + 1]).unwrap();
        let err = resume_ingestor(&log, &c, &ck).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_window_or_decay_is_refused() {
        let dir = tmp_dir("mismatch");
        let log = write_log(&dir, &demo_log());
        let c = cfg(2);
        let (_, ck) = run_to_end(&log, &c);
        let err = resume_ingestor(&log, &cfg(3), &ck).unwrap_err();
        assert!(err.to_string().contains("--window"), "{err}");
        let mut c2 = c.clone();
        c2.decay = 0.5;
        let err = resume_ingestor(&log, &c2, &ck).unwrap_err();
        assert!(err.to_string().contains("--decay"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
