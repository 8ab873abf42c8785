//! Per-operation timings of the public wire codecs, on inputs of the
//! sizes the workloads put on the wire: a bare ACK, a 26-byte `ReqResp`
//! response and an MSS-sized bulk segment; heartbeat frames carrying one
//! record (an active2k-style delta) and 1,024 records (a full batch part).
//!
//! The event queue and the TCP deadline wheel are crate-private, so no
//! timing here covers them: only the profiler's `simnet` and `tcp_wheel`
//! buckets do.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use bytes::Bytes;
use simnet::ip::internet_checksum;
use simtcp::segment::{peek_segment, TcpFlags, TcpSegment};
use simtcp::seq::SeqNum;
use sttcp::config::Role;
use sttcp::heartbeat::{decode_any, ConnHb, HbFrame, HbFrameKind, HbPayload};
use sttcp::wire::crc32;

/// Wall time per batch of calls.
const BATCH_NS: u128 = 4_000_000;
/// Batches per operation; the median batch is reported.
const BATCHES: usize = 7;

/// Median ns per call of `op`, over [`BATCHES`] batches sized to about
/// [`BATCH_NS`] each.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        if t.elapsed().as_nanos() >= BATCH_NS / 4 || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    iters *= 4;
    let mut per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[BATCHES / 2]
}

fn segment(payload_len: usize) -> TcpSegment {
    TcpSegment {
        src_port: 80,
        dst_port: 40_000,
        seq: SeqNum(0x1234_5678),
        ack: SeqNum(0x9abc_def0),
        flags: TcpFlags::ACK,
        window: 65_535,
        payload: Bytes::from((0..payload_len).map(|i| i as u8).collect::<Vec<u8>>()),
    }
}

fn hb_frame(records: usize) -> HbFrame {
    HbFrame {
        kind: HbFrameKind::Delta,
        epoch: 7,
        link: 1,
        ack_epoch: 9,
        part: 0,
        parts: 1,
        acks: vec![41, 42, 43, 44, 45],
        hb: HbPayload {
            seqno: 42,
            role: Role::Primary,
            rank: 0,
            conns: (0..records as u32)
                .map(|k| ConnHb {
                    key: k.wrapping_mul(0x9e37_79b9),
                    last_byte_received: 17 * u64::from(k),
                    last_ack_received: 26 * u64::from(k),
                    last_app_byte_written: 26 * u64::from(k),
                    last_app_byte_read: 17 * u64::from(k),
                    ..ConnHb::default()
                })
                .collect(),
            ping: None,
        },
    }
}

/// Every codec timing, as `(metric name, ns)` pairs.
pub fn timings() -> Vec<(&'static str, f64)> {
    let src = Ipv4Addr::new(10, 0, 0, 100);
    let dst = Ipv4Addr::new(10, 1, 2, 3);
    let mut out = Vec::new();
    for (size, enc_name, dec_name) in [
        (0, "tcp.seg_encode_ns.ack", "tcp.seg_decode_ns.ack"),
        (26, "tcp.seg_encode_ns.26", "tcp.seg_decode_ns.26"),
        (1460, "tcp.seg_encode_ns.1460", "tcp.seg_decode_ns.1460"),
    ] {
        let seg = segment(size);
        out.push((
            enc_name,
            ns_per_op(|| drop(black_box(&seg).encode(src, dst))),
        ));
        let wire = seg.encode(src, dst);
        out.push((
            dec_name,
            ns_per_op(|| {
                let decoded = TcpSegment::decode(black_box(&wire), src, dst);
                assert!(decoded.is_ok(), "segment round trip failed");
            }),
        ));
    }
    let wire = segment(26).encode(src, dst);
    out.push((
        "tcp.peek_ns",
        ns_per_op(|| {
            black_box(peek_segment(black_box(&wire)));
        }),
    ));

    let kib: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
    out.push((
        "simnet.checksum_ns_per_kib",
        ns_per_op(|| {
            black_box(internet_checksum(black_box(&kib)));
        }),
    ));
    out.push((
        "core.crc32_ns_per_kib",
        ns_per_op(|| {
            black_box(crc32(black_box(&kib)));
        }),
    ));

    for (records, enc_name, dec_name) in [
        (1, "core.hb_frame_encode_ns.1", "core.hb_frame_decode_ns.1"),
        (
            1024,
            "core.hb_frame_encode_ns.1024",
            "core.hb_frame_decode_ns.1024",
        ),
    ] {
        let frame = hb_frame(records);
        out.push((enc_name, ns_per_op(|| drop(black_box(&frame).encode()))));
        let wire = frame.encode();
        out.push((
            dec_name,
            ns_per_op(|| {
                let decoded = HbFrame::decode(black_box(&wire));
                assert!(decoded.is_ok(), "heartbeat round trip failed");
            }),
        ));
    }
    let wire = hb_frame(1024).encode();
    out.push((
        "core.hb_decode_any_ns.1024",
        ns_per_op(|| {
            assert!(decode_any(black_box(&wire)).is_ok(), "decode_any failed");
        }),
    ));
    out
}

/// Round-trips every input [`timings`] uses, so a codec that stops
/// agreeing with itself fails the run instead of timing garbage.
pub fn round_trips_hold() -> bool {
    let src = Ipv4Addr::new(10, 0, 0, 100);
    let dst = Ipv4Addr::new(10, 1, 2, 3);
    let segs_ok = [0, 26, 1460].into_iter().all(|n| {
        let seg = segment(n);
        let wire = seg.encode(src, dst);
        TcpSegment::decode(&wire, src, dst).as_ref() == Ok(&seg)
            && peek_segment(&wire).is_some_and(|p| p.data_len as usize == n)
    });
    let hb_ok = [1, 1024].into_iter().all(|n| {
        let frame = hb_frame(n);
        HbFrame::decode(&frame.encode()).as_ref() == Ok(&frame)
    });
    segs_ok && hb_ok
}
