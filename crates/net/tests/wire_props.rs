//! Wire-format properties: encode→decode is the identity for **every**
//! [`Msg`] variant — including K-column [`SmallBlock`]s straddling the
//! inline/spill boundary and the per-round wave and snapshot batches,
//! empty ones too — and decode is *total*: truncated frames, garbage
//! headers, overlong counts and random byte soup produce typed errors,
//! never panics and never an allocation sized by an unchecked count.

use dtm_core::runtime::{DtmMsg, PortUpdate, SmallBlock, Termination, SMALL_BLOCK_INLINE};
use dtm_graph::evs::{split as evs_split, EvsOptions};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_net::wire::{decode, encode, read_frame, write_frame, GroupPlan, GroupRates};
use dtm_net::wire::{FrameReader, FrameWriter, Msg, PartPlan, SnapshotBatch, Wave, MAX_FRAME_LEN};
use dtm_sparse::{generators, Error};
use proptest::prelude::*;

/// Block widths covering the scalar path, both sides of the
/// inline/spill boundary, and a wide spill.
const BLOCK_WIDTHS: [usize; 4] = [1, 4, 5, 16];

/// Deterministic f64 stream (seeded xorshift, same idiom as the sparse
/// property tests).
fn f64_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

fn wave(k: usize, n_updates: usize, seed: u64) -> Wave {
    let mut next = f64_stream(seed);
    let updates = (0..n_updates)
        .map(|p| PortUpdate {
            port: p,
            u: SmallBlock::from_fn(k, |_| next()),
            omega: SmallBlock::from_fn(k, |_| next()),
        })
        .collect();
    Wave {
        round: seed % 97,
        src: seed % 13,
        dst: seed % 7,
        msg: DtmMsg { updates },
    }
}

/// A real [`GroupPlan`]: the 6×6 grid Laplacian torn into 4 parts, with
/// genuine subdomains (matrices, ports, source shares) — the same data a
/// production `Plan` frame carries.
fn real_plan() -> GroupPlan {
    let side = 6;
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, 77);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let asg = partition::grid_blocks(side, side, 2, 2);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let ss = evs_split(&g, &plan, &EvsOptions::default()).expect("splits");
    let mut next = f64_stream(4242);
    let parts: Vec<PartPlan> = ss
        .subdomains
        .iter()
        .map(|sd| PartPlan {
            sub: sd.clone(),
            z_ports: sd.ports.iter().map(|_| next().abs() + 0.05).collect(),
        })
        .collect();
    GroupPlan {
        group: 1,
        n_groups: 2,
        n_parts: 4,
        group_of_part: vec![0, 0, 1, 1],
        colour_of_part: vec![0, 1, 1, 0],
        max_rounds: 10_000,
        termination: Termination::Residual { tol: 1e-8 },
        max_solves_per_node: 200_000,
        listen_spec: "/tmp/dtm-net-test/peer-1.sock".to_string(),
        parts,
    }
}

/// A wave batch of `n` waves of width `k`, update counts cycling 0..4 so
/// empty waves sit between full ones.
fn wave_batch(k: usize, n: usize, seed: u64) -> Vec<Wave> {
    (0..n)
        .map(|i| wave(k, i % 4, seed.wrapping_add(i as u64)))
        .collect()
}

/// A snapshot batch holding one part per entry of `sizes` (zero-length
/// parts included), values drawn from the seeded stream.
fn snapshots(round: u64, sizes: &[usize], seed: u64) -> SnapshotBatch {
    let mut next = f64_stream(seed);
    let mut batch = SnapshotBatch::with_capacity(round, sizes.len(), sizes.iter().sum());
    for (p, &n) in sizes.iter().enumerate() {
        let values: Vec<f64> = (0..n).map(|_| next()).collect();
        batch.push(p as u64 * 3, &values);
    }
    batch
}

fn roundtrip(msg: &Msg) -> Msg {
    decode(&encode(msg)).expect("decode of a valid encoding")
}

#[test]
fn every_variant_roundtrips() {
    let msgs = vec![
        Msg::Hello { group: 3 },
        Msg::PeerHello { group: 0 },
        Msg::Plan(Box::new(real_plan())),
        Msg::Listening {
            addr: "/tmp/x.sock".into(),
        },
        Msg::PeerMap {
            addrs: vec![(0, "/a".into()), (1, "127.0.0.1:4411".into())],
        },
        Msg::Ready(GroupRates {
            solves_per_round: 2,
            messages_per_round: 6,
            flops_per_round: 12_345,
        }),
        Msg::Go,
        Msg::Wave(wave(5, 3, 9)),
        Msg::WaveBatch(wave_batch(5, 6, 11)),
        Msg::WaveBatch(Vec::new()),
        Msg::SnapshotBatch(snapshots(41, &[3, 0, 7], 12)),
        Msg::SnapshotBatch(SnapshotBatch::default()),
        Msg::Stop,
        Msg::Due(150),
        Msg::Done,
        Msg::Err {
            text: "boundary ütf-8 ✓".into(),
        },
    ];
    for msg in &msgs {
        assert_eq!(&roundtrip(msg), msg, "roundtrip identity");
    }
}

/// A plan must carry one colour (and one group) per part: a colour map of
/// any other length is refused at decode with a typed error.
#[test]
fn a_plan_without_one_colour_per_part_is_refused() {
    for colours in [vec![0, 1, 1], vec![0, 1, 1, 0, 2], Vec::new()] {
        let plan = GroupPlan {
            colour_of_part: colours.clone(),
            ..real_plan()
        };
        let err = decode(&encode(&Msg::Plan(Box::new(plan)))).expect_err("refused");
        assert!(
            matches!(&err, Error::Parse(m) if m.contains("colour map")),
            "{colours:?}: {err}"
        );
    }
}

/// A plan frame whose first subdomain matrix declares 2³² + 1 columns —
/// more than its `u32` column indices can name — is refused with the typed
/// error before anything of the matrix is read.
#[test]
fn a_plan_whose_matrix_is_too_wide_for_u32_columns_is_refused() {
    let plan = real_plan();
    let mut frame = encode(&Msg::Plan(Box::new(plan.clone())));
    // Everything before the first subdomain encodes as in a plan with no
    // parts; the subdomain opens with its part id, then `n_rows`, `n_cols`.
    let header = encode(&Msg::Plan(Box::new(GroupPlan {
        parts: Vec::new(),
        ..plan
    })));
    let n_cols = header.len() + 16;
    let wide = (1u64 << 32) + 1;
    frame[n_cols..n_cols + 8].copy_from_slice(&wide.to_le_bytes());
    let err = decode(&frame).expect_err("refused");
    assert!(
        matches!(err, Error::TooManyColumns { n_cols, .. } if n_cols as u64 == wide),
        "{err}"
    );
}

#[test]
fn small_block_widths_roundtrip_losslessly() {
    for &k in &BLOCK_WIDTHS {
        let w = Msg::Wave(wave(k, 2, k as u64 + 1));
        let back = roundtrip(&w);
        let (Msg::Wave(a), Msg::Wave(b)) = (&w, &back) else {
            panic!("variant changed in roundtrip");
        };
        for (ua, ub) in a.msg.updates.iter().zip(&b.msg.updates) {
            assert_eq!(ua.u.len(), k);
            assert_eq!(ub.u.len(), k);
            // Lossless at the representation level, not just value
            // equality: the inline-vs-spill split is a function of the
            // length alone, so `as_slice` must expose identical bits.
            for (x, y) in ua.u.as_slice().iter().zip(ub.u.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in ua.omega.as_slice().iter().zip(ub.omega.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Sanity: the chosen widths actually straddle the boundary.
        assert!(BLOCK_WIDTHS.contains(&SMALL_BLOCK_INLINE));
        assert!(BLOCK_WIDTHS.contains(&(SMALL_BLOCK_INLINE + 1)));
    }
}

#[test]
fn special_float_bit_patterns_survive() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    let mut batch = SnapshotBatch::default();
    batch.push(0, &specials);
    let Msg::SnapshotBatch(back) = roundtrip(&Msg::SnapshotBatch(batch)) else {
        panic!("variant changed in roundtrip");
    };
    let (_, values) = back.iter().next().expect("one snapshot");
    assert_eq!(values.len(), specials.len());
    for (a, b) in specials.iter().zip(values) {
        assert_eq!(a.to_bits(), b.to_bits(), "bit pattern of {a:?}");
    }
}

#[test]
fn snapshot_batch_hands_back_each_part_its_own_values() {
    let sizes = [4, 0, 1, 9];
    let batch = snapshots(7, &sizes, 99);
    assert_eq!(batch.round(), 7);
    assert_eq!(batch.len(), sizes.len());
    assert_eq!(batch.n_values(), sizes.iter().sum::<usize>());
    let mut next = f64_stream(99);
    for ((part, values), (p, &n)) in batch.iter().zip(sizes.iter().enumerate()) {
        assert_eq!(part, p as u64 * 3);
        assert_eq!(values.len(), n);
        for v in values {
            assert_eq!(v.to_bits(), next().to_bits());
        }
    }
    let mut reused = batch.clone();
    reused.reset(8);
    assert!(reused.is_empty() && reused.n_values() == 0 && reused.round() == 8);
}

#[test]
fn framing_roundtrips_and_reports_clean_eof() {
    let mut buf: Vec<u8> = Vec::new();
    let msgs = [Msg::Hello { group: 7 }, Msg::Go, Msg::Stop];
    for m in &msgs {
        write_frame(&mut buf, m).expect("write");
    }
    let mut r = buf.as_slice();
    for m in &msgs {
        let got = read_frame(&mut r).expect("read").expect("frame present");
        assert_eq!(&got, m);
    }
    assert!(read_frame(&mut r).expect("clean eof").is_none());
}

#[test]
fn truncated_frames_error_never_panic() {
    let msgs = [
        Msg::Plan(Box::new(real_plan())),
        Msg::Wave(wave(16, 3, 5)),
        // Spilled K > 4 blocks inside a batch, and a batch whose last
        // part is empty (its final bytes are a count, not a value).
        Msg::WaveBatch(wave_batch(16, 5, 6)),
        Msg::WaveBatch(wave_batch(1, 4, 7)),
        Msg::SnapshotBatch(snapshots(2, &[9, 1, 0], 8)),
        Msg::PeerMap {
            addrs: vec![(0, "addr".into())],
        },
    ];
    for m in &msgs {
        let payload = encode(m);
        // Every strict prefix of the payload must decode to an error.
        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
        // Mid-frame EOF at every cut of the framed byte stream.
        let mut framed: Vec<u8> = Vec::new();
        write_frame(&mut framed, m).expect("write");
        for cut in 1..framed.len() {
            let mut r = &framed[..cut];
            assert!(
                read_frame(&mut r).is_err(),
                "stream cut at {cut} read successfully"
            );
        }
    }
}

#[test]
fn garbage_headers_error_never_panic() {
    // Oversized length prefix: rejected before any allocation.
    let mut huge = (u32::MAX).to_le_bytes().to_vec();
    huge.extend_from_slice(&[0u8; 16]);
    assert!(read_frame(&mut huge.as_slice()).is_err());

    // Unknown tag.
    assert!(decode(&[200]).is_err());
    // Empty payload.
    assert!(decode(&[]).is_err());
    // Known tag, trailing bytes.
    let mut go = encode(&Msg::Go);
    go.push(0);
    assert!(decode(&go).is_err());
    // Count fields far beyond the frame: rejected before allocation (a
    // decoder that trusted them would ask the allocator for exabytes).
    for absurd in [u64::MAX, u64::MAX / 8, 1 << 40] {
        // Snapshot batch: the part-table count, then the values count.
        let mut snaps = vec![8u8]; // TAG_SNAPSHOT_BATCH
        snaps.extend_from_slice(&0u64.to_le_bytes()); // round
        snaps.extend_from_slice(&absurd.to_le_bytes()); // parts count
        snaps.extend_from_slice(&[0u8; 64]);
        assert!(decode(&snaps).is_err());
        let mut snaps = vec![8u8];
        snaps.extend_from_slice(&0u64.to_le_bytes()); // round
        snaps.extend_from_slice(&1u64.to_le_bytes()); // one part …
        snaps.extend_from_slice(&5u64.to_le_bytes()); // … part 5 …
        snaps.extend_from_slice(&absurd.to_le_bytes()); // … of absurd size
        snaps.extend_from_slice(&absurd.to_le_bytes()); // values count
        snaps.extend_from_slice(&[0u8; 64]);
        assert!(decode(&snaps).is_err());
        // Wave batch: the wave count, then an update count inside a wave.
        let mut waves = vec![12u8]; // TAG_WAVE_BATCH
        waves.extend_from_slice(&absurd.to_le_bytes()); // waves count
        waves.extend_from_slice(&[0u8; 64]);
        assert!(decode(&waves).is_err());
        let mut waves = vec![12u8];
        waves.extend_from_slice(&1u64.to_le_bytes()); // one wave
        waves.extend_from_slice(&[0u8; 24]); // round, src, dst
        waves.extend_from_slice(&absurd.to_le_bytes()); // updates count
        waves.extend_from_slice(&[0u8; 64]);
        assert!(decode(&waves).is_err());
    }
    // Part sizes that disagree with the values that follow.
    let mut snaps = vec![8u8];
    snaps.extend_from_slice(&0u64.to_le_bytes()); // round
    snaps.extend_from_slice(&1u64.to_le_bytes()); // one part
    snaps.extend_from_slice(&0u64.to_le_bytes()); // part 0
    snaps.extend_from_slice(&2u64.to_le_bytes()); // claims 2 values
    snaps.extend_from_slice(&1u64.to_le_bytes()); // values count: 1
    snaps.extend_from_slice(&1.5f64.to_le_bytes());
    assert!(decode(&snaps).is_err());
    // Part sizes whose sum wraps around.
    let mut snaps = vec![8u8];
    snaps.extend_from_slice(&0u64.to_le_bytes()); // round
    snaps.extend_from_slice(&2u64.to_le_bytes()); // two parts
    for _ in 0..2 {
        snaps.extend_from_slice(&0u64.to_le_bytes());
        snaps.extend_from_slice(&(1u64 << 63).to_le_bytes());
    }
    snaps.extend_from_slice(&0u64.to_le_bytes()); // values count: 0
    assert!(decode(&snaps).is_err());
}

#[test]
fn frame_writer_and_reader_carry_batches_as_single_frames() {
    let waves = wave_batch(5, 7, 21);
    let snaps = snapshots(3, &[6, 2], 22);
    let mut bytes: Vec<u8> = Vec::new();
    let mut w = FrameWriter::new(&mut bytes);
    w.write_waves(&waves).expect("write");
    w.write_snapshots(&snaps).expect("write");
    w.write_waves(&[]).expect("write");
    w.write(&Msg::Done).expect("write");
    // Borrowed and owned encodings are the same bytes.
    let mut owned: Vec<u8> = Vec::new();
    write_frame(&mut owned, &Msg::WaveBatch(waves.clone())).expect("write");
    assert_eq!(&bytes[..owned.len()], owned.as_slice());
    assert!(owned.len() - 4 <= MAX_FRAME_LEN);

    let mut r = FrameReader::new(bytes.as_slice());
    assert_eq!(r.read().expect("read"), Some(Msg::WaveBatch(waves)));
    assert_eq!(r.read().expect("read"), Some(Msg::SnapshotBatch(snaps)));
    assert_eq!(r.read().expect("read"), Some(Msg::WaveBatch(Vec::new())));
    assert_eq!(r.read().expect("read"), Some(Msg::Done));
    assert_eq!(r.read().expect("clean eof"), None);

    // A stream cut anywhere inside a frame is an error for the buffered
    // reader too, never a short frame.
    for cut in 1..owned.len() {
        assert!(FrameReader::new(&owned[..cut]).read().is_err(), "cut {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode→decode identity on randomized waves across all block
    /// widths (scalar, inline boundary, first spill, wide spill).
    #[test]
    fn wave_roundtrip(
        k_idx in 0usize..BLOCK_WIDTHS.len(),
        n_updates in 0usize..5,
        seed in any::<u64>(),
    ) {
        let w = Msg::Wave(wave(BLOCK_WIDTHS[k_idx], n_updates, seed));
        prop_assert_eq!(roundtrip(&w), w);
    }

    /// Encode→decode identity on randomized wave batches: any number of
    /// waves (none included), all block widths.
    #[test]
    fn wave_batch_roundtrip(
        k_idx in 0usize..BLOCK_WIDTHS.len(),
        n_waves in 0usize..9,
        seed in any::<u64>(),
    ) {
        let b = Msg::WaveBatch(wave_batch(BLOCK_WIDTHS[k_idx], n_waves, seed));
        prop_assert_eq!(roundtrip(&b), b);
    }

    /// Encode→decode identity on randomized snapshot batches: any number
    /// of parts (none included), any sizes (zero included).
    #[test]
    fn snapshot_roundtrip(
        round in any::<u64>(),
        sizes in proptest::collection::vec(0usize..40, 0..6),
        seed in any::<u64>(),
    ) {
        let s = Msg::SnapshotBatch(snapshots(round, &sizes, seed));
        prop_assert_eq!(roundtrip(&s), s);
    }

    /// Encode→decode identity on randomized control frames.
    #[test]
    fn control_roundtrip(
        group in any::<u64>(),
        solves in any::<u64>(),
        messages in any::<u64>(),
        flops in any::<u64>(),
        text in proptest::collection::vec(0x20u64..0x7f, 0..60)
            .prop_map(|cs| cs.into_iter().map(|c| c as u8 as char).collect::<String>()),
    ) {
        for m in [
            Msg::Hello { group },
            Msg::PeerHello { group },
            Msg::Listening { addr: text.clone() },
            Msg::PeerMap { addrs: vec![(group, text.clone())] },
            Msg::Ready(GroupRates {
                solves_per_round: solves,
                messages_per_round: messages,
                flops_per_round: flops,
            }),
            Msg::Err { text: text.clone() },
        ] {
            prop_assert_eq!(roundtrip(&m), m);
        }
    }

    /// Decode is total on arbitrary byte soup: typed error or a valid
    /// message (e.g. a lone `Go` tag), never a panic. A successful decode
    /// must re-encode to the same byte string (NaN-safe canonicity check:
    /// bytes, not `PartialEq`, which NaN payloads would break).
    #[test]
    fn decode_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(0u64..256, 0..300)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
    ) {
        if let Ok(msg) = decode(&bytes) {
            prop_assert_eq!(encode(&msg), bytes);
        }
        let mut r = bytes.as_slice();
        // read_frame on the same soup: Ok(frame), Ok(None) or Err — no
        // panic, no unbounded allocation.
        let _ = read_frame(&mut r);
    }
}
