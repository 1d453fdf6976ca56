//! End-to-end: boot the real server on a loopback socket, drive it with
//! real clients, and assert the determinism contract CI relies on — two
//! same-seed load runs produce byte-identical reports and admission logs.

use aem_serve::exec::{execute, TraceCache};
use aem_serve::load::{run_load, LoadOptions};
use aem_serve::planner::plan;
use aem_serve::protocol::{
    exchange, read_response, JobKind, JobSpec, Request, Response, MAX_FRAME,
};
use aem_serve::server::{serve, ServeOptions};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

struct Harness {
    addr: String,
    shutdown: &'static AtomicBool,
    thread: Option<std::thread::JoinHandle<Result<String, String>>>,
    dir: std::path::PathBuf,
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("aem-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn boot(tag: &str, queue_over_budget: bool) -> Harness {
    boot_with_workers(tag, queue_over_budget, 4)
}

fn boot_with_workers(tag: &str, queue_over_budget: bool, workers: usize) -> Harness {
    let dir = tmp_dir(tag);
    let addr_file = dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_over_budget,
        admission_log: Some(dir.join("admission.jsonl").to_str().unwrap().into()),
        metering_out: Some(dir.join("metering.jsonl").to_str().unwrap().into()),
        prom_out: Some(dir.join("metrics.prom").to_str().unwrap().into()),
        addr_file: Some(addr_file.to_str().unwrap().into()),
    };
    // Each harness leaks one flag; tests build a handful, which is fine.
    let shutdown: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let thread = std::thread::spawn(move || serve(&opts, shutdown));
    let addr = {
        let mut tries = 0;
        loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if s.trim().contains(':') {
                    break s.trim().to_string();
                }
            }
            tries += 1;
            assert!(tries < 200, "server never wrote its address file");
            std::thread::sleep(Duration::from_millis(25));
        }
    };
    Harness {
        addr,
        shutdown,
        thread: Some(thread),
        dir,
    }
}

impl Harness {
    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s
    }

    fn stop(&mut self) -> String {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread panicked")
            .expect("serve returned an error")
    }

    fn file(&self, name: &str) -> String {
        std::fs::read_to_string(self.dir.join(name)).unwrap_or_default()
    }
}

fn spec(id: u64, kind: JobKind, n: usize, payload: bool) -> JobSpec {
    JobSpec {
        id,
        kind,
        n,
        mem: 64,
        block: 8,
        omega: 16,
        delta: 2,
        seed: 5,
        payload,
        backend: None,
    }
}

fn hello(c: &mut TcpStream, tenant: &str, budget: u64) -> Response {
    let tenant = tenant.into();
    exchange(c, &Request::Hello { tenant, budget }).unwrap()
}

#[test]
fn basic_session_prices_admits_and_meters() {
    let mut h = boot("basic", false);
    let mut c = h.connect();

    // No hello yet: jobs are refused, shutdown-less requests error.
    let r = exchange(&mut c, &Request::Stats).unwrap();
    assert!(matches!(r, Response::Error { .. }));

    let r = hello(&mut c, "alice", 1_000_000);
    assert!(matches!(
        r,
        Response::HelloOk {
            budget: 1_000_000,
            ..
        }
    ));

    // A quote prices without debiting.
    let q = exchange(&mut c, &Request::Quote(spec(1, JobKind::Sort, 512, false))).unwrap();
    let quoted_q = match q {
        Response::Quoted { q, .. } => q,
        other => panic!("expected quote, got {other:?}"),
    };
    assert!(quoted_q > 0);

    // The same job executed: predicted must match the quote, measured is
    // a real metered cost, and the budget was debited by the prediction.
    let r = exchange(&mut c, &Request::Job(spec(2, JobKind::Sort, 512, true))).unwrap();
    let (predicted, measured) = match r {
        Response::Done(o) => {
            assert_eq!(o.id, 2);
            assert_ne!(o.checksum, 0);
            (o.predicted, o.measured)
        }
        other => panic!("expected done, got {other:?}"),
    };
    assert_eq!(predicted.q(16), quoted_q);
    assert!(measured.total_ios() > 0);

    let r = exchange(&mut c, &Request::Stats).unwrap();
    match r {
        Response::Stats {
            spent,
            accepted,
            quotes,
            reads,
            writes,
            ..
        } => {
            assert_eq!(spent, quoted_q);
            assert_eq!(accepted, 1);
            assert_eq!(quotes, 1);
            assert_eq!((reads, writes), (measured.reads, measured.writes));
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Batches reply in declaration order.
    let batch = vec![
        spec(10, JobKind::Permute, 256, true),
        spec(11, JobKind::Sort, 0, true), // invalid: n = 0
        spec(12, JobKind::Pq, 256, false),
    ];
    let r = exchange(&mut c, &Request::Batch(batch)).unwrap();
    match r {
        Response::Batch(rs) => {
            assert_eq!(rs.len(), 3);
            assert!(matches!(&rs[0], Response::Done(o) if o.id == 10));
            assert!(
                matches!(&rs[1], Response::Rejected { id: 11, reason, .. } if reason.starts_with("bad_request"))
            );
            assert!(matches!(&rs[2], Response::Done(o) if o.id == 12));
        }
        other => panic!("expected batch, got {other:?}"),
    }

    let summary = h.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
    let log = h.file("admission.jsonl");
    assert!(log.contains("\"decision\":\"accept\""));
    assert!(log.contains("bad_request"));
    let metering = h.file("metering.jsonl");
    assert!(metering.contains("\"tenant\":\"alice\""));
    let prom = h.file("metrics.prom");
    assert!(prom.contains("aem_serve_q_total{tenant=\"alice\"}"));
}

#[test]
fn over_budget_jobs_queue_and_drain_on_topup() {
    let mut h = boot("queue", true);
    let mut c = h.connect();

    hello(&mut c, "bob", 10);

    // Far beyond 10 units of Q: parked, not rejected. The second job
    // queues behind the first (strict per-tenant FIFO).
    let mut parked_q = 0;
    for id in [1, 2] {
        let r = exchange(&mut c, &Request::Job(spec(id, JobKind::Sort, 1024, false))).unwrap();
        match r {
            Response::Queued { id: got, q } if got == id => parked_q += q,
            other => panic!("expected queued, got {other:?}"),
        }
    }

    // Top up enough to cover both: the hello carries the drained outcomes,
    // run concurrently on the pool and reported in queue order.
    let r = hello(&mut c, "bob", parked_q + 1_000);
    let Response::HelloOk { drained, .. } = r else {
        panic!("expected hello_ok, got {r:?}")
    };
    assert!(
        matches!(&drained[..], [Response::Done(a), Response::Done(b)] if (a.id, b.id) == (1, 2)),
        "{drained:?}"
    );

    h.stop();
    let log = h.file("admission.jsonl");
    assert!(log.contains("\"decision\":\"queue\""));
    assert!(log.contains("\"decision\":\"drain\""));
}

#[test]
fn a_job_answers_as_a_batch_of_one() {
    let mut h = boot("twin", false);
    let (mut a, mut b) = (h.connect(), h.connect());
    hello(&mut a, "twin-a", 1_000_000);
    hello(&mut b, "twin-b", 1_000_000);
    let mut singles = Vec::new();
    for s in [
        spec(1, JobKind::Sort, 512, true),
        spec(2, JobKind::Pq, 256, false),
        spec(3, JobKind::Sort, 0, true),          // bad_request
        spec(4, JobKind::Permute, 1 << 20, true), // over budget
    ] {
        let single = exchange(&mut a, &Request::Job(s.clone())).unwrap();
        let batch = exchange(&mut b, &Request::Batch(vec![s])).unwrap();
        assert_eq!(Response::Batch(vec![single.clone()]), batch);
        singles.push(single);
    }
    // Every kind of answer was compared: done, bad request, over budget.
    assert!(
        matches!(
            &singles[..],
            [
                Response::Done(_),
                Response::Done(_),
                Response::Rejected { id: 3, .. },
                Response::Rejected { id: 4, .. },
            ]
        ),
        "{singles:?}"
    );
    h.stop();
}

/// The unsigned field `name` of one JSON report line.
fn field(line: &str, name: &str) -> u64 {
    let record = aem_obs::json::parse(line).expect("a JSON line");
    record.get(name).and_then(|v| v.as_u64()).expect(name)
}

#[test]
fn inline_and_pooled_jobs_answer_like_in_process_execution() {
    // One worker: the payload run and the first compile take the pool;
    // the ghost job and the compiled cell's repeat run on the connection.
    let mut h = boot_with_workers("inline", false, 1);
    let mut c = h.connect();
    hello(&mut c, "carol", 1 << 40);
    let payload = JobSpec {
        backend: Some("vec".into()),
        ..spec(1, JobKind::Sort, 512, true)
    };
    let compile = spec(2, JobKind::Sort, 512, false);
    let ghost = spec(3, JobKind::Search, 512, false);
    assert_eq!(plan(&ghost).unwrap().backend.name(), "ghost");
    let repeat = JobSpec {
        id: 4,
        ..compile.clone()
    };
    let mut answers = Vec::new();
    match exchange(
        &mut c,
        &Request::Batch(vec![payload.clone(), compile.clone(), ghost.clone()]),
    ) {
        Ok(Response::Batch(rs)) => answers.extend(rs),
        other => panic!("expected batch, got {other:?}"),
    }
    // Within one batch the repeat would be produced before the compile
    // finishes (a miss by construction), so it follows in its own request.
    answers.push(exchange(&mut c, &Request::Job(repeat.clone())).unwrap());
    for (s, r) in [payload, compile, ghost, repeat].iter().zip(&answers) {
        let p = plan(s).unwrap();
        let want = execute(s, &p, &TraceCache::new()).unwrap();
        let Response::Done(o) = r else {
            panic!("job {}: expected done, got {r:?}", s.id)
        };
        assert_eq!(o.id, s.id);
        assert_eq!(o.backend, p.backend.name());
        assert_eq!(
            (o.measured, o.q, o.checksum),
            (want.measured, want.measured.q(s.omega), want.checksum),
            "job {}",
            s.id
        );
    }
    h.stop();

    let metering = h.file("metering.jsonl");
    let carol = metering.lines().find(|l| l.contains("\"carol\"")).unwrap();
    assert_eq!((field(carol, "jobs_done"), field(carol, "replays")), (4, 1));
    // Admission order is slot order: the hello, then jobs 1..=4.
    let log = h.file("admission.jsonl");
    let order: Vec<(u64, u64)> = log
        .lines()
        .map(|l| (field(l, "seq"), field(l, "job_id")))
        .collect();
    assert_eq!(order, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
}

#[test]
fn shutdown_frame_stops_the_server() {
    let mut h = boot("shutdown-frame", false);
    let mut c = h.connect();
    let r = exchange(&mut c, &Request::Shutdown).unwrap();
    assert!(matches!(r, Response::Bye));
    // The accept loop observes the flag and serve() returns on its own;
    // stop() then just joins (the flag is already set).
    let summary = h.stop();
    assert!(summary.contains("drained cleanly"));
}

#[test]
fn hostile_frames_get_errors_and_other_tenants_keep_being_served() {
    let mut h = boot("hostile", false);

    // A full-size frame of `[`: the parser's depth cap answers it with an
    // error instead of overflowing the connection thread's stack.
    let mut deep = h.connect();
    let mut frame = (MAX_FRAME as u32).to_be_bytes().to_vec();
    frame.resize(4 + MAX_FRAME, b'[');
    deep.write_all(&frame).unwrap();
    let r = read_response(&mut deep).unwrap();
    assert!(
        matches!(&r, Response::Error { message } if message.contains("nesting")),
        "{r:?}"
    );

    // A frame that announces 100 bytes, sends 10 and hangs up.
    let mut torn = h.connect();
    let mut frame = 100u32.to_be_bytes().to_vec();
    frame.extend_from_slice(b"{\"type\":\"h");
    torn.write_all(&frame).unwrap();
    drop(torn);

    let mut c = h.connect();
    assert!(matches!(
        hello(&mut c, "steady", 1 << 40),
        Response::HelloOk { .. }
    ));
    for id in 0..3 {
        let r = exchange(&mut c, &Request::Job(spec(id, JobKind::Sort, 256, true))).unwrap();
        assert!(matches!(r, Response::Done(_)), "{r:?}");
    }
    let summary = h.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn same_seed_load_runs_are_byte_identical() {
    let seed = 20_260_808;

    let mut h1 = boot("det-1", true);
    let report1 = run_load(&LoadOptions {
        addr: h1.addr.clone(),
        tenants: 4,
        jobs: 8,
        seed,
    })
    .expect("load run 1");
    h1.stop();
    let log1 = h1.file("admission.jsonl");

    let mut h2 = boot("det-2", true);
    let report2 = run_load(&LoadOptions {
        addr: h2.addr.clone(),
        tenants: 4,
        jobs: 8,
        seed,
    })
    .expect("load run 2");
    h2.stop();
    let log2 = h2.file("admission.jsonl");

    assert_eq!(report1, report2, "load reports must be byte-identical");
    assert_eq!(log1, log2, "admission logs must be byte-identical");
    assert!(!log1.is_empty());

    // And a different seed genuinely changes the traffic.
    let mut h3 = boot("det-3", true);
    let report3 = run_load(&LoadOptions {
        addr: h3.addr.clone(),
        tenants: 4,
        jobs: 8,
        seed: seed + 1,
    })
    .expect("load run 3");
    h3.stop();
    assert_ne!(report1, report3, "different seeds must differ");
}
