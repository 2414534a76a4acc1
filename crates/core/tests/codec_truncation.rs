//! Crash-tolerance contract (satellite of the fault-injection work): a
//! log chopped at **every** byte offset — simulating a writer that died
//! mid-record — must decode without a panic, recovering exactly the
//! maximal prefix of complete records. Damage anywhere else, the header
//! included, must never decode into records that were not written: a
//! flipped or forged header byte yields zero records and discards the
//! whole stream.

use vyrd_core::codec::{self, DecodeOutcome, FORMAT_VERSION, HEADER_LEN, MAGIC};
use vyrd_core::{Event, MethodId, ObjectId, ThreadId, Value, VarId};

fn sample_events() -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..12i64 {
        let tid = ThreadId((i % 3) as u32);
        let object = ObjectId((i % 2) as u32);
        events.push(Event::Call {
            tid,
            object,
            method: MethodId::from("Insert"),
            args: vec![Value::from(i), Value::from(format!("payload-{i}"))].into(),
        });
        events.push(Event::Write {
            tid,
            object,
            var: VarId::new("A.elt", i),
            value: Value::from(i * 7),
        });
        events.push(Event::Commit { tid, object });
        events.push(Event::Return {
            tid,
            object,
            method: MethodId::from("Insert"),
            ret: Value::success(),
        });
    }
    events
}

/// A stream in the framed format, via the public writer.
fn stream_bytes(events: &[Event]) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::write_log(&mut bytes, events).expect("vec write");
    bytes
}

/// The contract, applied at every cut: decoding a chopped stream never
/// panics, always yields a strict prefix of the full decode, and reports
/// a truncation point inside the surviving bytes.
fn assert_recovers_prefix_at_every_cut(label: &str, bytes: &[u8], full: &[Event]) {
    for cut in 0..=bytes.len() {
        let chopped = &bytes[..cut];
        let outcome = codec::read_log_recovering(chopped);
        let records = outcome.records();
        assert!(
            records.len() <= full.len(),
            "{label} cut {cut}: recovered more records than were written"
        );
        assert_eq!(
            records,
            &full[..records.len()],
            "{label} cut {cut}: recovered records are not a prefix"
        );
        match outcome {
            DecodeOutcome::Complete { ref records } => {
                // Only the intact stream (or an empty-but-clean tail) may
                // claim completeness.
                assert!(
                    cut == bytes.len() || records.len() < full.len(),
                    "{label} cut {cut}: chopped stream decoded as complete with all records"
                );
            }
            DecodeOutcome::RecoveredPrefix { truncated_at, .. } => {
                assert!(
                    truncated_at <= cut as u64,
                    "{label} cut {cut}: truncation point {truncated_at} past the cut"
                );
            }
        }
    }
    // The untouched stream decodes completely.
    let intact = codec::read_log_recovering(bytes);
    assert!(intact.is_complete(), "{label}: intact stream must be Complete");
    assert_eq!(intact.records(), full, "{label}: intact stream round-trips");
}

#[test]
fn v3_stream_chopped_at_every_offset_recovers_a_prefix() {
    let full = sample_events();
    let bytes = stream_bytes(&full);
    assert_recovers_prefix_at_every_cut("framed", &bytes, &full);
}

#[test]
fn v3_flipped_byte_is_rejected_by_the_frame_checksum_not_a_panic() {
    let full = sample_events();
    let bytes = stream_bytes(&full);
    // Flip one byte at a time across the whole stream, header included.
    // Every corruption must surface as a recovered prefix — the strict
    // header checks catch header damage, the checksum catches payload
    // damage, the length checks catch framing damage — and nothing may
    // panic.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x40;
        let outcome = codec::read_log_recovering(&corrupt[..]);
        let records = outcome.records();
        // A flipped byte can only damage its own frame and later ones,
        // so what *is* recovered is still a prefix of the original.
        assert!(
            records.len() < full.len() && records == &full[..records.len()],
            "flip at {i}: corruption went undetected or broke the prefix"
        );
        assert!(
            !outcome.is_complete(),
            "flip at {i}: corrupted stream decoded as complete"
        );
        if (i as u64) < HEADER_LEN {
            assert!(
                records.is_empty(),
                "flip at {i}: damaged header yielded records"
            );
        }
    }
}

/// Asserts that a stream with a damaged header recovers nothing: zero
/// records, damage at offset 0, and every byte discarded.
fn assert_rejected_outright(label: &str, bytes: &[u8]) {
    match codec::read_log_recovering(bytes) {
        DecodeOutcome::RecoveredPrefix {
            records,
            truncated_at,
            bytes_discarded,
            detail,
        } => {
            assert!(records.is_empty(), "{label}: forged records {records:?}");
            assert_eq!(truncated_at, 0, "{label}: {detail}");
            assert_eq!(bytes_discarded, bytes.len() as u64, "{label}: {detail}");
        }
        other => panic!("{label}: damaged header decoded as {other:?}"),
    }
}

#[test]
fn record_tag_in_the_first_byte_is_rejected_not_decoded() {
    // A headerless stream is damage, not a legacy format: a first byte
    // that happens to be a record tag must not decode as that record.
    let bytes = stream_bytes(&sample_events());
    for tag in 16u8..=21 {
        let mut forged = bytes.clone();
        forged[0] = tag;
        assert_rejected_outright(&format!("first byte {tag:#04x}"), &forged);
    }
}

#[test]
fn forged_version_or_mode_byte_is_rejected() {
    let bytes = stream_bytes(&sample_events());
    for version in [0u32, 1, 2, 3, 5, u32::MAX] {
        assert_ne!(version, FORMAT_VERSION);
        let mut forged = bytes.clone();
        forged[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        assert_rejected_outright(&format!("version {version}"), &forged);
    }
    let mode_at = MAGIC.len() + 4;
    for mode in [3u8, 4, 0x12, 0x7F, 0xFF] {
        let mut forged = bytes.clone();
        forged[mode_at] = mode;
        assert_rejected_outright(&format!("mode byte {mode:#04x}"), &forged);
    }
}
