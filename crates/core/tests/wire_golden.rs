//! Golden byte fixtures and corrupt-frame hardening for the Tempo message codec.
//!
//! `tests/golden/messages_v3.bin` freezes the framed encoding of the canonical
//! per-variant fixture (`tempo_core::wire_fixture::all_messages`): format drift fails
//! the comparison. On an intentional change, bump the fixture name and regenerate with
//! `cargo test -p tempo-core --test wire_golden -- --ignored regenerate`.
//!
//! The hardening battery then truncates every frame at every byte offset and flips
//! every byte: decoding must yield a clean error (or, never for a single flip, the
//! original value) — panics and allocation blow-ups are format bugs by definition.

use std::path::PathBuf;
use tempo_core::wire_fixture::all_messages;
use tempo_core::Message;
use tempo_net::wire::Wire;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// All fixture messages, framed back to back (the shape a socket stream has).
fn golden_stream() -> Vec<u8> {
    let mut out = Vec::new();
    for msg in all_messages() {
        out.extend_from_slice(&msg.encode_frame());
    }
    out
}

#[test]
fn fixture_covers_every_variant() {
    // 21 variants today; extending `Message` must extend the fixture (and regenerate
    // the golden file), or this count goes stale and fails.
    let tags: std::collections::BTreeSet<u8> =
        all_messages().iter().map(|m| m.encode()[0]).collect();
    assert_eq!(
        tags.len(),
        all_messages().len(),
        "each fixture message must carry a distinct variant tag"
    );
    assert_eq!(tags.len(), 21, "fixture out of sync with the Message enum");
}

#[test]
fn golden_fixture_matches_the_current_encoder() {
    let bytes = std::fs::read(fixture_path("messages_v3.bin")).expect("fixture present");
    assert_eq!(
        golden_stream(),
        bytes,
        "message encoding drifted from the v3 fixture — regenerate only on an intentional format change"
    );
}

#[test]
fn golden_fixture_decodes_to_the_expected_messages() {
    let bytes = std::fs::read(fixture_path("messages_v3.bin")).expect("fixture present");
    let mut offset = 0;
    let mut decoded = Vec::new();
    while offset < bytes.len() {
        let (payload, next) =
            tempo_store::wal::read_frame(&bytes, offset).expect("well-formed frame");
        decoded.push(Message::decode(payload).expect("payload decodes"));
        offset = next;
    }
    assert_eq!(decoded, all_messages());
}

#[test]
fn every_frame_survives_truncation_at_every_offset() {
    for msg in all_messages() {
        let frame = msg.encode_frame();
        for cut in 0..frame.len() {
            let result = Message::decode_frame(&frame[..cut]);
            assert!(
                result.is_err(),
                "truncating {msg:?} at byte {cut} decoded: {result:?}"
            );
        }
    }
}

#[test]
fn every_frame_survives_bit_flips_at_every_offset() {
    for msg in all_messages() {
        let frame = msg.encode_frame();
        for i in 0..frame.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = frame.clone();
                corrupt[i] ^= bit;
                match Message::decode_frame(&corrupt) {
                    Err(_) => {}
                    Ok(decoded) => panic!(
                        "flipping bit {bit:#x} of byte {i} in {msg:?} decoded to {decoded:?} — \
                         the CRC must catch single flips"
                    ),
                }
            }
        }
    }
}

/// Unframed payload corruption (what a codec bug — not a wire bug — would produce):
/// still no panics, though a flip may legitimately decode to a *different* value
/// because the CRC is gone. The assertion is purely "no panic, no huge allocation".
#[test]
fn unframed_payload_corruption_never_panics() {
    for msg in all_messages() {
        let payload = msg.encode();
        for cut in 0..payload.len() {
            let _ = Message::decode(&payload[..cut]);
        }
        for i in 0..payload.len() {
            let mut corrupt = payload.clone();
            corrupt[i] ^= 0xFF;
            let _ = Message::decode(&corrupt);
        }
    }
}

/// Regenerates the fixture (run manually after an intentional format change):
/// `cargo test -p tempo-core --test wire_golden -- --ignored regenerate`.
#[test]
#[ignore = "writes the golden fixture; run manually after an intentional format change"]
fn regenerate() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    std::fs::write(fixture_path("messages_v3.bin"), golden_stream()).unwrap();
}
