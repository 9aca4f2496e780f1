//! WAL codec property tests: arbitrary record streams round-trip through
//! the framed binary codec, and recovery after truncation at **every**
//! byte offset — the torn-write model — always yields a clean prefix of
//! what was logged, never garbage and never a panic. A file-level
//! property drives the same contract through `Wal::open`: a torn file
//! recovers its valid prefix, reports the dropped tail, and accepts
//! appends at the truncation point.

mod gen;

use chiller_common::ids::{NodeId, TxnId};
use chiller_storage::wal::{decode_stream, Wal, WalReader, WalRecord};
use gen::{encode_all, wal_record_strategy};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

proptest! {
    /// Any record stream decodes back to itself, consuming every byte.
    #[test]
    fn codec_round_trips(records in prop::collection::vec(wal_record_strategy(), 1..20)) {
        let buf = encode_all(&records);
        let (decoded, consumed) = decode_stream(&buf);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, records);
    }

    /// Torn tail at EVERY byte offset: truncating the stream anywhere
    /// yields exactly the records whose frames fit completely before the
    /// cut, and the reported prefix length is exactly their encoding —
    /// recovery never invents a record and never loses a whole frame.
    #[test]
    fn truncation_at_every_offset_recovers_the_frame_prefix(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
    ) {
        let buf = encode_all(&records);
        for cut in 0..=buf.len() {
            let (decoded, consumed) = decode_stream(&buf[..cut]);
            // The decode must be the longest run of whole frames under
            // the cut: re-encoding it reproduces the consumed prefix.
            prop_assert!(decoded.len() <= records.len());
            prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
            let prefix = encode_all(&decoded);
            prop_assert_eq!(consumed, prefix.len());
            prop_assert!(consumed <= cut);
            prop_assert_eq!(&buf[..consumed], &prefix[..]);
            // And nothing more would have fit: either the cut is exactly
            // frame-aligned, or the next frame straddles it.
            if decoded.len() < records.len() {
                let next = encode_all(&records[..decoded.len() + 1]);
                prop_assert!(next.len() > cut);
            }
        }
    }

    /// Flipping any single byte never panics the decoder and never
    /// corrupts the records before the damaged frame: the decode is
    /// always a clean prefix of what was written.
    #[test]
    fn single_byte_corruption_yields_a_clean_prefix(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut buf = encode_all(&records);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        let (decoded, consumed) = decode_stream(&buf);
        prop_assert!(decoded.len() <= records.len());
        prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
        prop_assert!(consumed <= pos, "decode consumed past the corrupted byte");
    }

    /// The streaming reader is `decode_stream` in bounded memory: at every
    /// truncation offset and whatever the read size — one byte, a size
    /// that straddles every header, or more than the whole log — it yields
    /// the same records and stops at the same byte.
    #[test]
    fn reader_matches_decode_stream_at_every_offset(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
    ) {
        let buf = encode_all(&records);
        for cut in 0..=buf.len() {
            let want = decode_stream(&buf[..cut]);
            for chunk in [1, 7, 4096] {
                prop_assert_eq!(&stream(&buf[..cut], chunk), &want, "cut {} chunk {}", cut, chunk);
            }
        }
    }

    /// Same under damage: a flipped byte stops the reader exactly where it
    /// stops `decode_stream`.
    #[test]
    fn reader_matches_decode_stream_under_corruption(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut buf = encode_all(&records);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        let want = decode_stream(&buf);
        for chunk in [1, 7, 4096] {
            prop_assert_eq!(&stream(&buf, chunk), &want, "flip at {} chunk {}", pos, chunk);
        }
    }

    /// A frame fetched by offset is the frame a scan found there, and a
    /// byte bound below the data ends the scan like a torn tail would.
    #[test]
    fn reader_fetches_single_frames_by_offset(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
    ) {
        let buf = encode_all(&records);
        let mut offsets = Vec::new();
        let mut reader = WalReader::with_chunk(std::io::Cursor::new(&buf[..]), buf.len() as u64, 7);
        loop {
            let at = reader.position();
            if reader.next_record().expect("cursor read").is_none() {
                break;
            }
            offsets.push(at);
        }
        prop_assert_eq!(offsets.len(), records.len());
        for (i, at) in offsets.iter().enumerate().rev() {
            let fetched = reader.record_at(*at).expect("cursor read");
            prop_assert_eq!(fetched.as_ref(), Some(&records[i]));
        }
        let last = *offsets.last().expect("at least one record");
        let bounded = WalReader::with_chunk(&buf[..], last, 4096);
        prop_assert_eq!(stream_of(bounded), (records[..records.len() - 1].to_vec(), last as usize));
    }

    /// The file-level contract: a log torn at an arbitrary byte offset
    /// reopens to the longest whole-frame prefix, reports the dropped
    /// tail, and appends land cleanly at the truncation point.
    #[test]
    fn torn_file_recovers_and_accepts_appends(
        records in prop::collection::vec(wal_record_strategy(), 1..6),
        cut_seed in any::<u64>(),
        case in 0u64..(1 << 32),
    ) {
        let path = scratch_path(case);
        let _ = std::fs::remove_file(&path);

        // Write and flush a clean log, then tear it mid-byte.
        {
            let (mut wal, _) = Wal::open(&path, 1).expect("open fresh");
            let recovered = read_all(&path);
            prop_assert!(recovered.is_empty());
            for rec in &records {
                wal.append(rec);
            }
            wal.flush();
        }
        let full = std::fs::read(&path).expect("read log");
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        std::fs::write(&path, &full[..cut]).expect("tear log");

        // Reopen: the valid prefix comes back, the tail is accounted for.
        let (expected, expected_bytes) = decode_stream(&full[..cut]);
        let (mut wal, valid_len) = Wal::open(&path, 1).expect("reopen torn");
        prop_assert_eq!(valid_len, expected_bytes as u64);
        let recovered = read_all(&path);
        prop_assert_eq!(&recovered[..], &expected[..]);
        prop_assert_eq!(wal.stats.torn_bytes_dropped, (cut - expected_bytes) as u64);

        // Appends continue from the truncation point.
        let extra = WalRecord::Ack {
            txn: TxnId::new(NodeId(7), 7),
        };
        wal.append(&extra);
        wal.flush();
        drop(wal);
        drop(Wal::open(&path, 1).expect("reopen after append"));
        let recovered = read_all(&path);
        let mut want = expected;
        want.push(extra);
        prop_assert_eq!(recovered, want);

        let _ = std::fs::remove_file(&path);
    }
}

/// Every record a [`WalReader`] finds in the file at `path`.
fn read_all(path: &Path) -> Vec<WalRecord> {
    let len = std::fs::metadata(path).expect("stat log").len();
    let mut reader = WalReader::open(path, len).expect("open log for reading");
    std::iter::from_fn(|| reader.next_record().expect("read log")).collect()
}

/// What a streaming read of `data` yields with `chunk`-byte reads: the
/// records and the valid prefix length, the pair `decode_stream` returns.
fn stream(data: &[u8], chunk: usize) -> (Vec<WalRecord>, usize) {
    stream_of(WalReader::with_chunk(data, data.len() as u64, chunk))
}

fn stream_of(mut reader: WalReader<&[u8]>) -> (Vec<WalRecord>, usize) {
    let records =
        std::iter::from_fn(|| reader.next_record().expect("slice reads cannot fail")).collect();
    (records, reader.position() as usize)
}

/// Per-case scratch file (process- and case-qualified: property cases in
/// one run must not share files, nor races across test binaries).
fn scratch_path(case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "chiller-wal-props-{}-{case}.wal",
        std::process::id()
    ))
}
