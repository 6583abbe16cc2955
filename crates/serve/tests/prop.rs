//! Protocol robustness properties (the PR's test-coverage satellite):
//! the wire decoder must return typed results — `Ok(None)` for
//! partial frames, `Ok(Some(..))` for complete ones, `Err(WireError)`
//! for garbage — and **never panic**, on any byte soup, any
//! truncation, any mutation.

use benes_serve::proto::{
    decode, BatchItem, Frame, ReplyItem, Status, TenantRow, WireError, MAX_FRAME_LEN,
};
use proptest::prelude::*;

/// Random bytes, skewed to start with plausible small length prefixes
/// half the time so the decoder's payload parsers actually run.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    Just(()).prop_perturb(|(), mut rng| {
        let len = (rng.random::<u64>() % 200) as usize;
        let mut bytes: Vec<u8> =
            (0..len).map(|_| (rng.random::<u64>() & 0xff) as u8).collect();
        if rng.random::<u64>() % 2 == 0 && bytes.len() >= 4 {
            let declared = (rng.random::<u64>() % 64) as u32;
            bytes[0..4].copy_from_slice(&declared.to_le_bytes());
        }
        bytes
    })
}

/// A random valid frame of every kind.
fn arb_frame() -> impl Strategy<Value = Frame> {
    Just(()).prop_perturb(|(), mut rng| {
        let mut r64 = || rng.random::<u64>();
        // A random (not necessarily valid) destination vector: the
        // protocol layer does not validate permutations.
        let destinations = |r64: &mut dyn FnMut() -> u64| {
            let n = 1usize << (r64() % 5); // 1..=16 destinations
            let mut destinations: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                destinations.swap(i, (r64() % (i as u64 + 1)) as usize);
            }
            destinations
        };
        let reply = |r64: &mut dyn FnMut() -> u64| ReplyItem {
            req_id: r64(),
            status: Status::ALL[(r64() % Status::ALL.len() as u64) as usize],
            tier: if r64().is_multiple_of(2) { None } else { Some((r64() % 5) as u8) },
            latency_ns: r64(),
        };
        match r64() % 8 {
            0 => Frame::Route {
                req_id: r64(),
                tenant: r64(),
                deadline_ms: (r64() & 0xffff) as u32,
                destinations: destinations(&mut r64),
            },
            1 => {
                let ReplyItem { req_id, status, tier, latency_ns } = reply(&mut r64);
                Frame::RouteReply { req_id, status, tier, latency_ns }
            }
            2 => Frame::Stats,
            3 => {
                let rows = (0..r64() % 4)
                    .map(|i| TenantRow {
                        tenant: i,
                        submitted: r64(),
                        completed: r64(),
                        failed: r64(),
                        shed: r64(),
                        canceled: r64(),
                        rejected: r64(),
                    })
                    .collect();
                Frame::StatsReply { rows }
            }
            4 => Frame::Drain,
            5 => Frame::ErrorReply {
                req_id: r64(),
                code: Status::ALL[(r64() % Status::ALL.len() as u64) as usize],
                message: format!("err-{}", r64() % 1000),
            },
            6 => Frame::RouteBatch {
                tenant: r64(),
                items: (0..r64() % 5)
                    .map(|_| BatchItem {
                        req_id: r64(),
                        deadline_ms: (r64() & 0xffff) as u32,
                        destinations: destinations(&mut r64),
                    })
                    .collect(),
            },
            _ => Frame::RouteBatchReply {
                items: (0..r64() % 5).map(|_| reply(&mut r64)).collect(),
            },
        }
    })
}

proptest! {
    /// Arbitrary byte soup: decode returns a typed result, never
    /// panics, and a successful decode consumes no more than the
    /// buffer.
    #[test]
    fn decode_never_panics_on_byte_soup(bytes in arb_bytes()) {
        if let Ok(Some((_, used))) = decode(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Every valid frame round-trips bit-exactly and consumes exactly
    /// its own encoding.
    #[test]
    fn encode_decode_round_trip(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        let (decoded, used) = decode(&bytes)
            .expect("own encoding decodes")
            .expect("own encoding is complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Every strict prefix of a valid frame is "incomplete", never an
    /// error: truncation mid-frame asks for more bytes.
    #[test]
    fn truncated_frames_are_incomplete_not_errors(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode(&bytes[..cut]).unwrap(), None, "cut at {}", cut);
        }
    }

    /// An oversize length prefix is a typed error no matter what
    /// follows it.
    #[test]
    fn oversize_length_prefix_is_typed(frame in arb_frame()) {
        let mut bytes = frame.to_bytes();
        let huge = MAX_FRAME_LEN + 7;
        bytes[0..4].copy_from_slice(&huge.to_le_bytes());
        prop_assert_eq!(decode(&bytes), Err(WireError::Oversize { len: huge }));
    }

    /// A wrong version byte is a typed error on every frame kind.
    #[test]
    fn unknown_version_is_typed(frame in arb_frame()) {
        let mut bytes = frame.to_bytes();
        bytes[4] = bytes[4].wrapping_add(1);
        let got = decode(&bytes);
        prop_assert_eq!(got, Err(WireError::UnknownVersion(bytes[4])));
    }

    /// Flipping any single byte of a valid frame never panics the
    /// decoder: it yields a frame (possibly different), "incomplete",
    /// or a typed error.
    #[test]
    fn single_byte_mutations_never_panic(frame in arb_frame(), pos in 0usize..4096) {
        let mut bytes = frame.to_bytes();
        let idx = pos % bytes.len();
        bytes[idx] ^= 0x41;
        if let Ok(Some((_, used))) = decode(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// Random chunkings of a random multi-frame stream reassemble the
    /// exact frame sequence (the adversarial network never gets to
    /// desynchronize the decoder, only to delay it).
    #[test]
    fn random_split_reads_reassemble_the_stream(
        frames in proptest::collection::vec(arb_frame(), 4),
        cuts in proptest::collection::vec(1usize..40, 16),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            f.encode(&mut stream);
        }
        let mut sizes: Vec<usize> = cuts;
        sizes.push(stream.len()); // guarantee the stream finishes
        prop_assert_eq!(feed_in_chunks(&stream, &sizes), frames);
    }
}

/// The byte offset of a batch frame's item count: length prefix,
/// version and type, then the tenant id for `RouteBatch` only.
fn item_count_at(frame: &Frame) -> usize {
    match frame {
        Frame::RouteBatch { .. } => 4 + 2 + 8,
        _ => 4 + 2,
    }
}

/// A batch frame whose item count says `count`, whatever it holds.
fn with_item_count(frame: &Frame, count: u32) -> Vec<u8> {
    let mut bytes = frame.to_bytes();
    let at = item_count_at(frame);
    bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
    bytes
}

proptest! {
    /// A batch frame's item count that does not match the items the
    /// payload holds — one more, one fewer, or absurdly many — is a
    /// typed `Malformed`, never a panic or an allocation past the
    /// frame.
    #[test]
    fn lying_batch_item_counts_are_malformed(frame in arb_frame(), huge in 1u32..=u32::MAX) {
        let items = match &frame {
            Frame::RouteBatch { items, .. } => items.len(),
            Frame::RouteBatchReply { items } => items.len(),
            _ => return Ok(()),
        } as u32;
        for count in [items + 1, items.wrapping_sub(1), items.saturating_add(huge)] {
            if count == items {
                continue;
            }
            let got = decode(&with_item_count(&frame, count));
            prop_assert!(matches!(got, Err(WireError::Malformed(_))), "count {}: {:?}", count, got);
        }
    }

    /// A batch whose payload is cut short inside an item (with the
    /// length prefix shrunk to match) is `Malformed`: the item list
    /// must fill the payload exactly.
    #[test]
    fn batch_payload_cut_inside_an_item_is_malformed(frame in arb_frame(), cut in 1usize..64) {
        let items = match &frame {
            Frame::RouteBatch { items, .. } => items.len(),
            Frame::RouteBatchReply { items } => items.len(),
            _ => return Ok(()),
        };
        let mut bytes = frame.to_bytes();
        let body = item_count_at(&frame) + 4;
        if items == 0 {
            return Ok(());
        }
        let keep = bytes.len() - 1 - (cut % (bytes.len() - body));
        bytes.truncate(keep);
        let len = u32::try_from(keep - 4).unwrap();
        bytes[0..4].copy_from_slice(&len.to_le_bytes());
        prop_assert!(matches!(decode(&bytes), Err(WireError::Malformed(_))));
    }
}

/// A batch at the frame cap decodes; one item more is `Oversize`
/// before a single item is read.
#[test]
fn batch_frames_respect_the_frame_cap() {
    use benes_serve::proto::{batch_item_len, ROUTE_BATCH_HEADER};
    let unit = 512usize;
    let fit = (MAX_FRAME_LEN as usize - ROUTE_BATCH_HEADER) / batch_item_len(unit);
    let frame = |k: usize| Frame::RouteBatch {
        tenant: 1,
        items: (0..k)
            .map(|i| BatchItem {
                req_id: i as u64,
                deadline_ms: 0,
                destinations: vec![0; unit],
            })
            .collect(),
    };
    let full = frame(fit).to_bytes();
    assert_eq!(full.len() - 4, ROUTE_BATCH_HEADER + fit * batch_item_len(unit));
    let got = decode(&full).map(|f| f.map(|(_, used)| used));
    assert_eq!(got, Ok(Some(full.len())));
    let over = frame(fit + 1).to_bytes();
    assert!(matches!(decode(&over), Err(WireError::Oversize { .. })));
}

/// Feeds `stream` into an incremental decode buffer `chunk_sizes` at a
/// time (cycling, trailing remainder flushed at the end), asserting
/// the decoder only ever says "incomplete" between chunks, and returns
/// every frame it produced in order.
fn feed_in_chunks(stream: &[u8], chunk_sizes: &[usize]) -> Vec<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    let mut frames = Vec::new();
    let mut offset = 0;
    let mut sizes = chunk_sizes.iter().copied().cycle();
    while offset < stream.len() {
        let take = sizes.next().expect("cycle is infinite").min(stream.len() - offset);
        buf.extend_from_slice(&stream[offset..offset + take]);
        offset += take;
        while let Some((frame, used)) =
            decode(&buf).expect("valid stream never errors mid-reassembly")
        {
            frames.push(frame);
            buf.drain(..used);
        }
    }
    assert!(buf.is_empty(), "stream ends on a frame boundary");
    frames
}

/// The deterministic half of the split-read satellite: every frame
/// kind back to back, delivered in every fixed chunk size from one
/// byte up — so every frame boundary lands mid-length-prefix and
/// mid-payload many times over.
#[test]
fn every_fixed_chunk_size_reassembles_every_frame_kind() {
    let frames = vec![
        Frame::Route {
            req_id: 1,
            tenant: 7,
            deadline_ms: 250,
            destinations: vec![3, 1, 0, 2],
        },
        Frame::RouteReply { req_id: 1, status: Status::Ok, tier: Some(1), latency_ns: 99 },
        Frame::Stats,
        Frame::StatsReply {
            rows: vec![TenantRow {
                tenant: 7,
                submitted: 4,
                completed: 4,
                ..TenantRow::default()
            }],
        },
        Frame::Drain,
        Frame::ErrorReply { req_id: 0, code: Status::BadRequest, message: "nope".into() },
        Frame::RouteBatch {
            tenant: 7,
            items: vec![
                BatchItem { req_id: 2, deadline_ms: 0, destinations: vec![1, 0] },
                BatchItem { req_id: 3, deadline_ms: 9, destinations: vec![0, 1, 3, 2] },
            ],
        },
        Frame::RouteBatchReply {
            items: vec![
                ReplyItem { req_id: 2, status: Status::Ok, tier: Some(1), latency_ns: 7 },
                ReplyItem {
                    req_id: 3,
                    status: Status::BadRequest,
                    tier: None,
                    latency_ns: 0,
                },
            ],
        },
    ];
    let mut stream = Vec::new();
    for f in &frames {
        f.encode(&mut stream);
    }
    for chunk in 1..=stream.len() {
        assert_eq!(feed_in_chunks(&stream, &[chunk]), frames, "chunk size {chunk}");
    }
}

/// Boundary-targeted splits: cut the stream exactly 1–3 bytes into a
/// frame's length prefix, and exactly one byte before a frame's end,
/// so both "mid-length-prefix" and "mid-payload" boundaries are hit by
/// name rather than by luck.
#[test]
fn splits_mid_length_prefix_and_mid_payload_reassemble() {
    let a = Frame::Route { req_id: 9, tenant: 1, deadline_ms: 0, destinations: vec![1, 0] };
    let b =
        Frame::RouteReply { req_id: 9, status: Status::Shed, tier: None, latency_ns: 5 };
    let frames = vec![a, b];
    let mut stream = Vec::new();
    for f in &frames {
        f.encode(&mut stream);
    }
    let first_len = {
        let (_, used) = decode(&stream).unwrap().unwrap();
        used
    };
    for boundary in [
        first_len - 1, // one byte short of frame A's end (mid-payload)
        first_len + 1, // 1 byte into frame B's length prefix
        first_len + 2, // 2 bytes in
        first_len + 3, // 3 bytes in
        first_len + 5, // past the prefix, mid-header
    ] {
        assert_eq!(
            decode(&stream[..boundary]).unwrap().map(|(f, _)| f),
            if boundary >= first_len { Some(frames[0].clone()) } else { None }
        );
        let sizes = [boundary, stream.len() - boundary];
        assert_eq!(feed_in_chunks(&stream, &sizes), frames, "boundary {boundary}");
    }
}
