//! Protocol property tests: encode/decode identity for every request and
//! response variant, and rejection (never a panic) of truncated,
//! oversized and malformed frames.

use aem_machine::Cost;
use aem_serve::protocol::{
    decode_frame, encode_frame, JobKind, JobOutcome, JobSpec, Request, Response, MAX_FRAME,
};
use aem_workloads::SplitMix64;

fn rand_string(rng: &mut SplitMix64) -> String {
    // Bias toward the characters JSON escaping must handle.
    let alphabet: Vec<char> = "abcXYZ 0189-_\"\\\n\t/✓é{}".chars().collect();
    let len = rng.next_below_usize(12);
    (0..len)
        .map(|_| alphabet[rng.next_below_usize(alphabet.len())])
        .collect()
}

fn rand_cost(rng: &mut SplitMix64) -> Cost {
    Cost::new(
        rng.next_u64() >> rng.next_below(64),
        rng.next_u64() >> rng.next_below(64),
    )
}

fn rand_spec(rng: &mut SplitMix64) -> JobSpec {
    JobSpec {
        id: rng.next_u64(),
        kind: JobKind::ALL[rng.next_below_usize(4)],
        n: rng.next_below_usize(1 << 30),
        mem: rng.next_below_usize(1 << 20),
        block: rng.next_below_usize(1 << 10),
        omega: rng.next_below(1 << 20),
        delta: rng.next_below_usize(64),
        seed: rng.next_u64(),
        payload: rng.next_bool(),
        backend: if rng.next_bool() {
            Some(["vec", "arena", "ghost", "trace"][rng.next_below_usize(4)].to_string())
        } else {
            None
        },
    }
}

fn rand_request(rng: &mut SplitMix64) -> Request {
    match rng.next_below(7) {
        0 => Request::Hello {
            tenant: rand_string(rng),
            budget: rng.next_u64(),
        },
        1 => Request::Job(rand_spec(rng)),
        2 => Request::Batch(
            (0..rng.next_below_usize(5))
                .map(|_| rand_spec(rng))
                .collect(),
        ),
        3 => Request::Quote(rand_spec(rng)),
        4 => Request::Stats,
        5 => Request::Metrics,
        _ => Request::Shutdown,
    }
}

fn rand_response(rng: &mut SplitMix64, depth: u32) -> Response {
    let top = if depth == 0 { 9 } else { 7 };
    match rng.next_below(top) {
        0 => Response::Done(JobOutcome {
            id: rng.next_u64(),
            algo: rand_string(rng),
            backend: rand_string(rng),
            predicted: rand_cost(rng),
            measured: rand_cost(rng),
            q: rng.next_u64(),
            checksum: rng.next_u64(),
        }),
        1 => Response::Quoted {
            id: rng.next_u64(),
            algo: rand_string(rng),
            predicted: rand_cost(rng),
            q: rng.next_u64(),
        },
        2 => Response::Rejected {
            id: rng.next_u64(),
            reason: rand_string(rng),
            q: rng.next_u64(),
            remaining: rng.next_u64(),
        },
        3 => Response::Queued {
            id: rng.next_u64(),
            q: rng.next_u64(),
        },
        4 => Response::Stats {
            tenant: rand_string(rng),
            budget: rng.next_u64(),
            spent: rng.next_u64(),
            accepted: rng.next_u64(),
            rejected: rng.next_u64(),
            queued: rng.next_u64(),
            quotes: rng.next_u64(),
            reads: rng.next_u64(),
            writes: rng.next_u64(),
        },
        5 => Response::Metrics {
            text: rand_string(rng),
        },
        6 => Response::Error {
            message: rand_string(rng),
        },
        7 => Response::HelloOk {
            budget: rng.next_u64(),
            drained: (0..rng.next_below_usize(4))
                .map(|_| rand_response(rng, depth + 1))
                .collect(),
        },
        _ => Response::Batch(
            (0..rng.next_below_usize(4))
                .map(|_| rand_response(rng, depth + 1))
                .collect(),
        ),
    }
}

#[test]
fn request_roundtrip_identity() {
    let mut rng = SplitMix64::seed_from_u64(0xA11CE);
    for i in 0..500 {
        let req = rand_request(&mut rng);
        let frame = encode_frame(&req.to_json());
        let (json, consumed) = decode_frame(&frame)
            .unwrap_or_else(|e| panic!("iter {i}: {e}"))
            .unwrap_or_else(|| panic!("iter {i}: incomplete"));
        assert_eq!(consumed, frame.len());
        let back = Request::from_json(&json).unwrap_or_else(|e| panic!("iter {i}: {e}"));
        assert_eq!(back, req, "iter {i}");
    }
}

#[test]
fn response_roundtrip_identity() {
    let mut rng = SplitMix64::seed_from_u64(0xB0B);
    for i in 0..500 {
        let resp = rand_response(&mut rng, 0);
        let frame = encode_frame(&resp.to_json());
        let (json, consumed) = decode_frame(&frame)
            .unwrap_or_else(|e| panic!("iter {i}: {e}"))
            .unwrap_or_else(|| panic!("iter {i}: incomplete"));
        assert_eq!(consumed, frame.len());
        let back = Response::from_json(&json).unwrap_or_else(|e| panic!("iter {i}: {e}"));
        assert_eq!(back, resp, "iter {i}");
    }
}

#[test]
fn truncated_frames_are_incomplete_never_panic() {
    let mut rng = SplitMix64::seed_from_u64(7);
    for _ in 0..50 {
        let frame = encode_frame(&rand_request(&mut rng).to_json());
        for cut in 0..frame.len() {
            // Every strict prefix either wants more bytes or (if the cut
            // lands inside a multi-byte char) is not yet decodable — but
            // a prefix can never be mistaken for a complete frame.
            match decode_frame(&frame[..cut]) {
                Ok(None) => {}
                Ok(Some(_)) => panic!("prefix of {cut} bytes decoded as complete"),
                Err(_) => panic!("prefix of {cut} bytes hard-errored (should want more)"),
            }
        }
    }
}

#[test]
fn oversized_announcements_are_rejected_before_allocation() {
    for len in [MAX_FRAME as u32 + 1, u32::MAX, 1 << 24] {
        let mut frame = len.to_be_bytes().to_vec();
        frame.extend_from_slice(b"xx");
        assert!(decode_frame(&frame).is_err(), "len={len} must be rejected");
    }
    // Exactly MAX_FRAME is allowed (content-wise it will still need bytes).
    let frame = (MAX_FRAME as u32).to_be_bytes().to_vec();
    assert!(matches!(decode_frame(&frame), Ok(None)));
}

#[test]
fn garbage_payloads_error_never_panic() {
    let mut rng = SplitMix64::seed_from_u64(99);
    for _ in 0..200 {
        let len = rng.next_below_usize(64);
        let mut frame = (len as u32).to_be_bytes().to_vec();
        for _ in 0..len {
            frame.push(rng.next_u64() as u8);
        }
        // Arbitrary bytes: any Ok(Some) must at least be real JSON that
        // then fails request parsing gracefully.
        if let Ok(Some((json, _))) = decode_frame(&frame) {
            let _ = Request::from_json(&json);
            let _ = Response::from_json(&json);
        }
    }
    // Valid length, invalid UTF-8.
    let mut frame = 2u32.to_be_bytes().to_vec();
    frame.extend_from_slice(&[0xFF, 0xFE]);
    assert!(decode_frame(&frame).is_err());
    // Valid UTF-8, invalid JSON.
    let body = b"{nope";
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    assert!(decode_frame(&frame).is_err());
}

#[test]
fn back_to_back_frames_decode_in_sequence() {
    let a = encode_frame(&Request::Stats.to_json());
    let b = encode_frame(&Request::Metrics.to_json());
    let mut buf = a.clone();
    buf.extend_from_slice(&b);
    let (j1, c1) = decode_frame(&buf).unwrap().unwrap();
    assert_eq!(Request::from_json(&j1).unwrap(), Request::Stats);
    let (j2, c2) = decode_frame(&buf[c1..]).unwrap().unwrap();
    assert_eq!(Request::from_json(&j2).unwrap(), Request::Metrics);
    assert_eq!(c1 + c2, buf.len());
}

#[test]
fn a_max_frame_of_open_brackets_errors_on_a_default_thread_stack() {
    // One `[` per byte nests far past the parser's depth cap. Without the
    // cap the parser recurses once per byte and overflows a connection
    // thread's 2 MiB stack, which aborts the whole server.
    let mut frame = (MAX_FRAME as u32).to_be_bytes().to_vec();
    frame.resize(4 + MAX_FRAME, b'[');
    let decoded = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || decode_frame(&frame).map(|f| f.is_some()))
        .unwrap()
        .join()
        .expect("decoding must not overflow the stack");
    let err = decoded.unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
}
