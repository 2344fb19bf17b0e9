//! Fault injection for the TCP exchange transport.
//!
//! The wire will misbehave: reads and writes split at arbitrary byte
//! boundaries, peers show up late, peers vanish mid-frame. The contract
//! (ISSUE 2): every round either completes *identically* to the
//! in-process backend or fails with a typed [`TransportError`] — it
//! never hangs. Every test here runs under a watchdog that kills the
//! test run if a transport call blocks past its deadline.

mod common;

use common::with_watchdog;
use pc_bsp::tcp::{self, configure_stream, read_frame_into, write_frame, Tcp, TcpOptions};
use pc_bsp::transport::{ExchangeTransport, TransportError};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A loopback socket pair with transport timeouts installed.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let a = TcpStream::connect(addr).unwrap();
    let (b, _) = listener.accept().unwrap();
    configure_stream(&a).unwrap();
    configure_stream(&b).unwrap();
    (a, b)
}

/// A frame written one byte at a time, with pauses, must reassemble
/// exactly — short reads and split frames are normal TCP behavior, not
/// faults.
#[test]
fn split_writes_reassemble_into_one_frame() {
    with_watchdog(Duration::from_secs(20), || {
        let (a, b) = socket_pair();
        let payload: Vec<u8> = (0..97u8).collect();
        let writer = std::thread::spawn(move || {
            let mut wire = vec![tcp::TAG_DATA];
            wire.extend_from_slice(&(97u32).to_le_bytes());
            wire.extend_from_slice(&(0..97u8).collect::<Vec<u8>>());
            for chunk in wire.chunks(1) {
                (&a).write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            a // keep the socket open until the reader is done
        });
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        let tag = read_frame_into(&b, &mut got, deadline, 9).expect("split frame must decode");
        assert_eq!(tag, tcp::TAG_DATA);
        assert_eq!(got, payload);
        drop(writer.join().unwrap());
    });
}

/// A peer that dies mid-frame yields `Truncated` — with an accurate
/// account of what was owed — not a hang and not garbage.
#[test]
fn peer_closing_mid_frame_is_truncation() {
    with_watchdog(Duration::from_secs(20), || {
        let (a, b) = socket_pair();
        // Header promises 100 payload bytes; only 10 arrive.
        let mut wire = vec![tcp::TAG_DATA];
        wire.extend_from_slice(&(100u32).to_le_bytes());
        wire.extend_from_slice(&[7u8; 10]);
        (&a).write_all(&wire).unwrap();
        drop(a); // EOF mid-payload
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        match read_frame_into(&b, &mut got, deadline, 3) {
            Err(TransportError::Truncated {
                peer,
                expected,
                got,
            }) => {
                assert_eq!(peer, 3);
                assert_eq!(expected, 100);
                assert_eq!(got, 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    });
}

/// A peer that closes on a frame boundary is a `Disconnected`, which is
/// a different failure than a truncation (the protocol position is
/// clean).
#[test]
fn peer_closing_between_frames_is_disconnect() {
    with_watchdog(Duration::from_secs(20), || {
        let (a, b) = socket_pair();
        let deadline = Instant::now() + Duration::from_secs(10);
        write_frame(&a, tcp::TAG_END, &[0; tcp::END_LEN], deadline, 0).unwrap();
        drop(a);
        let mut got = Vec::new();
        let tag = read_frame_into(&b, &mut got, deadline, 5).unwrap();
        assert_eq!(tag, tcp::TAG_END);
        match read_frame_into(&b, &mut got, deadline, 5) {
            Err(TransportError::Disconnected { peer, .. }) => assert_eq!(peer, 5),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    });
}

/// A reader whose peer sends nothing times out with a typed error at its
/// deadline instead of blocking forever.
#[test]
fn silent_peer_times_out() {
    with_watchdog(Duration::from_secs(20), || {
        let (_a, b) = socket_pair();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_millis(300);
        let started = Instant::now();
        match read_frame_into(&b, &mut got, deadline, 1) {
            Err(TransportError::Timeout { peer, .. }) => assert_eq!(peer, 1),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout honored promptly"
        );
    });
}

/// A worker that starts late (within the connect deadline) joins the
/// mesh and the round completes with the same result as an on-time run.
#[test]
fn late_peer_completes_round_identically() {
    let exchange = |delay: Duration| {
        with_watchdog(Duration::from_secs(30), move || {
            let t = std::sync::Arc::new(
                Tcp::loopback_with(
                    2,
                    TcpOptions {
                        connect_timeout: Duration::from_secs(10),
                        io_timeout: Duration::from_secs(10),
                        ..TcpOptions::default()
                    },
                )
                .unwrap(),
            );
            let mut handles = Vec::new();
            for w in 0..2usize {
                let t = std::sync::Arc::clone(&t);
                handles.push(std::thread::spawn(move || {
                    if w == 1 {
                        std::thread::sleep(delay); // the late worker
                    }
                    let mut received = Vec::new();
                    let mut seen = Vec::new();
                    for round in 0..3u8 {
                        t.post(w, 1 - w, vec![round, w as u8]);
                        t.sync(w, [u64::from(round), 1]);
                        let [mask, active] = t.take_all_into(w, &mut received);
                        for (s, buf) in received.drain(..) {
                            seen.push((s, buf.clone()));
                            t.recycle(w, s, buf);
                        }
                        seen.push((usize::MAX, vec![mask as u8, active as u8]));
                    }
                    t.flush(w);
                    seen
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    let on_time = exchange(Duration::ZERO);
    let late = exchange(Duration::from_millis(400));
    assert_eq!(on_time, late, "a late (but present) peer changes nothing");
}

/// A worker that never shows up is a typed connect/accept failure on
/// everyone waiting for it — not a deadlock.
#[test]
fn absent_peer_is_a_typed_error() {
    with_watchdog(Duration::from_secs(20), || {
        let t = Tcp::loopback_with(
            2,
            TcpOptions {
                connect_timeout: Duration::from_millis(300),
                io_timeout: Duration::from_millis(300),
                ..TcpOptions::default()
            },
        )
        .unwrap();
        // Worker 0 must accept worker 1's connection; worker 1 never
        // runs. The first operation fails at the connect deadline.
        match t.try_post(0, 1, vec![1, 2, 3]) {
            Err(TransportError::Timeout { peer, during }) => {
                assert_eq!(peer, 1);
                assert!(during.contains("accept"), "failed during {during}");
            }
            other => panic!("expected a connect timeout, got {other:?}"),
        }
    });
}

/// Frames far larger than the kernel's socket buffering: 3 ranks × 8 MiB
/// per peer. Every worker writes before it reads, so the kernel refuses
/// most of the staged bytes and the progress loop must interleave
/// `POLLOUT`- and `POLLIN`-driven work on the same pollfd set instead of
/// blocking until the io deadline. Two rounds, every byte verified.
#[test]
fn giant_frames_do_not_deadlock() {
    with_watchdog(Duration::from_secs(90), || {
        const WORKERS: usize = 3;
        const LEN: usize = 8 << 20; // 8 MiB per peer, ~16 MiB in flight per pipe pair
        let t = std::sync::Arc::new(Tcp::loopback(WORKERS).unwrap());
        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut received = Vec::new();
                for round in 0..2u8 {
                    for peer in 0..WORKERS {
                        let mut buf = vec![w as u8 ^ round; LEN];
                        buf[0] = w as u8; // sender fingerprint
                        t.post(w, peer, buf);
                    }
                    t.sync(w, [1 << w, 1]);
                    let words = t.take_all_into(w, &mut received);
                    assert_eq!(words, [0b111, WORKERS as u64]);
                    assert_eq!(received.len(), WORKERS);
                    for (s, buf) in received.drain(..) {
                        assert_eq!(buf.len(), LEN);
                        assert_eq!(buf[0], s as u8);
                        assert!(buf[1..].iter().all(|&b| b == s as u8 ^ round));
                        t.recycle(w, s, buf);
                    }
                }
                // No more rounds follow: push what is still queued, the
                // way the engine's end-of-program epilogue does.
                t.flush(w);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

// ---------------------------------------------------------------------
// Super-frame faults: the coalesced super-frame path must fail with
// the same typed-error discipline as plain frames — partial writes
// mid-super-frame, peers stalling between sub-frames, and corrupt
// coalesced directories are errors, never hangs and never bad reads.
// ---------------------------------------------------------------------

/// A 2-rank mesh where rank 1 is a raw socket under test control: it
/// completes the `HELLO` handshake like a real peer and then writes
/// whatever bytes the test wants rank 0 to choke on.
fn mesh_with_fake_peer(io_timeout: Duration) -> (Tcp, TcpStream) {
    let l0 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let l1 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let opts = TcpOptions {
        connect_timeout: Duration::from_secs(5),
        io_timeout,
        ..TcpOptions::default()
    };
    let t = Tcp::mesh(0, addrs.clone(), l0, opts).unwrap();
    let fake = TcpStream::connect(addrs[0]).unwrap();
    configure_stream(&fake).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    write_frame(&fake, tcp::TAG_HELLO, &1u32.to_le_bytes(), deadline, 0).unwrap();
    (t, fake)
}

// ---------------------------------------------------------------------
// `END` faults: every peer owes every round exactly
// one `END`, after at most one `DATA`. A peer that breaks that owes a
// typed error, never a hang.
// ---------------------------------------------------------------------

/// Rank 0 ends its round, then the fake peer writes `wire` (and closes
/// when `close`); rank 0's take must fail with what `check` accepts.
fn end_fault(wire: &[(u8, &[u8])], close: bool, check: fn(&TransportError) -> bool) {
    let wire: Vec<(u8, Vec<u8>)> = wire.iter().map(|&(t, p)| (t, p.to_vec())).collect();
    with_watchdog(Duration::from_secs(20), move || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_secs(10));
        t.try_sync(0, [0, 1]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        for (tag, payload) in &wire {
            write_frame(&fake, *tag, payload, deadline, 0).unwrap();
        }
        let fake = (!close).then_some(fake);
        let mut out = Vec::new();
        match t.try_take_all_into(0, &mut out) {
            Err(e) if check(&e) => {}
            other => panic!("unexpected {other:?}"),
        }
        drop(fake);
    });
}

/// A peer that sends its `DATA` and dies before its `END`.
#[test]
fn peer_dying_before_its_end_is_disconnect() {
    end_fault(&[(tcp::TAG_DATA, &[1, 2, 3])], true, |e| {
        matches!(e, TransportError::Disconnected { peer: 1, .. })
    });
}

/// An `END` whose payload is not the two round words.
#[test]
fn truncated_end_is_protocol_violation() {
    end_fault(
        &[(tcp::TAG_END, &[0; 8])],
        false,
        |e| matches!(e, TransportError::Protocol { peer: 1, detail } if detail.contains("END carries 8 bytes")),
    );
}

/// A second `DATA` where the round's `END` belongs.
#[test]
fn second_data_before_end_is_protocol_violation() {
    end_fault(
        &[(tcp::TAG_DATA, &[1]), (tcp::TAG_DATA, &[2])],
        false,
        |e| matches!(e, TransportError::Protocol { peer: 1, detail } if detail.contains("expected END")),
    );
}

/// A super-frame header and part of its payload, then EOF: a partial
/// write mid-super-frame is a `Truncated`, with the batch never reaching
/// the splitter.
#[test]
fn partial_super_frame_then_close_is_truncation() {
    with_watchdog(Duration::from_secs(20), || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_secs(10));
        let mut wire = vec![tcp::TAG_BATCH];
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(&[7u8; 20]); // 20 of the promised 100 bytes
        (&fake).write_all(&wire).unwrap();
        drop(fake);
        let mut out = Vec::new();
        match t.try_take_all_into(0, &mut out) {
            Err(TransportError::Truncated {
                peer,
                expected,
                got,
            }) => {
                assert_eq!(peer, 1);
                // The diagnostic owes the whole frame: header + the 100
                // promised payload bytes; 25 wire bytes arrived.
                assert_eq!(expected, 105);
                assert_eq!(got, 25);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    });
}

/// A peer that sends the super-frame directory and the first sub-frame,
/// then stalls without closing: the receiver times out at its deadline
/// instead of waiting forever for the remaining sub-frames.
#[test]
fn peer_stalling_between_sub_frames_times_out() {
    with_watchdog(Duration::from_secs(20), || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_millis(400));
        // A well-formed batch of two 8-byte sub-frames, cut after the
        // first sub-frame's payload.
        let payload = tcp::encode_batch(&[
            (tcp::TAG_DATA, vec![1u8; 8]),
            (tcp::TAG_END, vec![2u8; tcp::END_LEN]),
        ]);
        let mut wire = vec![tcp::TAG_BATCH];
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload[..payload.len() - tcp::END_LEN]);
        (&fake).write_all(&wire).unwrap();
        let started = Instant::now();
        let mut out = Vec::new();
        match t.try_take_all_into(0, &mut out) {
            Err(TransportError::Timeout { peer, .. }) => assert_eq!(peer, 1),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout honored promptly"
        );
        drop(fake); // keep the socket alive until after the verdict
    });
}

/// A coalesced header whose directory overruns the super-frame payload
/// is a protocol violation at the splitter — typed, attributed to the
/// offending peer, no allocation of the claimed lengths.
#[test]
fn truncated_coalesced_header_is_protocol_violation() {
    with_watchdog(Duration::from_secs(20), || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_secs(10));
        // Payload: directory claims 2 sub-frames of 50 bytes each, but
        // only 10 payload bytes follow.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            payload.push(tcp::TAG_DATA);
            payload.extend_from_slice(&50u32.to_le_bytes());
        }
        payload.extend_from_slice(&[9u8; 10]);
        let mut wire = vec![tcp::TAG_BATCH];
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        (&fake).write_all(&wire).unwrap();
        let mut out = Vec::new();
        match t.try_take_all_into(0, &mut out) {
            Err(TransportError::Protocol { peer, detail }) => {
                assert_eq!(peer, 1);
                assert!(detail.contains("overruns"), "{detail}");
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
        drop(fake);
    });
}

/// A super-frame claiming an absurd sub-frame count is rejected before
/// anything is allocated for it.
#[test]
fn absurd_sub_frame_count_is_rejected() {
    with_watchdog(Duration::from_secs(20), || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_secs(10));
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut wire = vec![tcp::TAG_BATCH];
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        (&fake).write_all(&wire).unwrap();
        let mut out = Vec::new();
        match t.try_take_all_into(0, &mut out) {
            Err(TransportError::Protocol { peer, detail }) => {
                assert_eq!(peer, 1);
                assert!(detail.contains("sub-frames"), "{detail}");
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
        drop(fake);
    });
}

/// The `POLLHUP` arm of the multiplexed wait: a peer that completes the
/// handshake and then dies on a clean frame boundary. The readiness
/// poll reports the hangup, the progress pass reads the orderly EOF,
/// and the consumer — still owed that peer's frame for the round —
/// gets `Disconnected`, not a hang until the io deadline.
#[test]
fn peer_hangup_after_handshake_is_disconnect() {
    with_watchdog(Duration::from_secs(20), || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_secs(10));
        drop(fake); // orderly close: FIN on a frame boundary
        let mut out = Vec::new();
        match t.try_take_all_into(0, &mut out) {
            Err(TransportError::Disconnected { peer, .. }) => assert_eq!(peer, 1),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    });
}

/// A wake-up storm: the peer dribbles a well-formed super-frame one byte
/// at a time with real pauses, so the receiver's multiplexed wait fires
/// over and over, each wake delivering almost nothing. The frame must
/// still reassemble exactly, and the readiness counters must show the
/// driver actually slept in `poll(2)` between dribbles instead of
/// spinning through them.
#[test]
fn byte_dribble_storm_reassembles_and_counts_polls() {
    with_watchdog(Duration::from_secs(60), || {
        let (t, fake) = mesh_with_fake_peer(Duration::from_secs(30));
        let mut words = 5u64.to_le_bytes().to_vec();
        words.extend_from_slice(&7u64.to_le_bytes());
        let payload = tcp::encode_batch(&[
            (tcp::TAG_DATA, (0..61u8).collect::<Vec<u8>>()),
            (tcp::TAG_END, words),
        ]);
        let mut wire = vec![tcp::TAG_BATCH];
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        let writer = std::thread::spawn(move || {
            for chunk in wire.chunks(1) {
                (&fake).write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            fake // hold the socket open until the reader is done
        });
        let mut out = Vec::new();
        let words = t
            .try_take_all_into(0, &mut out)
            .expect("dribbled super-frame must decode");
        assert_eq!(words, [5, 7], "the peer's round words");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1, (0..61u8).collect::<Vec<u8>>());
        let stats = t.stats();
        assert!(
            stats.poll_waits > 0,
            "multi-millisecond dribbles must put the driver to sleep in poll(2), \
             not leave it spinning (poll_waits = {})",
            stats.poll_waits
        );
        drop(writer.join().unwrap());
    });
}

/// Garbage where a frame tag should be is a protocol violation, not an
/// attempted gigabyte allocation or a hang.
#[test]
fn oversized_frame_length_is_rejected() {
    with_watchdog(Duration::from_secs(20), || {
        let (a, b) = socket_pair();
        let mut wire = vec![tcp::TAG_DATA];
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB claim
        (&a).write_all(&wire).unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        match read_frame_into(&b, &mut got, deadline, 2) {
            Err(TransportError::Protocol { peer, detail }) => {
                assert_eq!(peer, 2);
                assert!(detail.contains("exceeds"), "{detail}");
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
    });
}
