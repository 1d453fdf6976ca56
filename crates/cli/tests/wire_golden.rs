//! Golden byte-identity of every JSON the workspace writes.
//!
//! Each string below is the exact encoding of one value of a wire or log
//! type: serve requests and responses, the admission log, the metering
//! report, flight-recorder lines, a full `RunRecord` JSONL and a fuzz
//! seed file. Each test pins the encoder's bytes and
//! then checks that decoding the string and encoding it again gives the
//! same bytes, so a codec change that moves a key, drops a field or
//! changes a default shows up here as a diff.

use aem_fuzz::{DistKind, FuzzCase};
use aem_machine::{AemConfig, BlockId, Cost, IoEvent, Trace};
use aem_obs::json::parse;
use aem_obs::{FlightEvent, Metrics, PhaseNode, RunRecord, WorkloadMeta};
use aem_serve::admission::Admission;
use aem_serve::metering::Metering;
use aem_serve::protocol::{JobKind, JobOutcome, JobSpec, Request, Response};

fn spec(id: u64, backend: Option<&str>) -> JobSpec {
    JobSpec {
        id,
        kind: JobKind::Spmv,
        n: 4096,
        mem: 256,
        block: 16,
        omega: 8,
        delta: 3,
        seed: 7,
        payload: true,
        backend: backend.map(str::to_string),
    }
}

fn done(id: u64) -> Response {
    Response::Done(JobOutcome {
        id,
        algo: "aem".into(),
        backend: "vec".into(),
        predicted: Cost::new(10, 4),
        measured: Cost::new(9, 4),
        q: 41,
        checksum: 0xdead_beef,
    })
}

/// Re-encode a generic JSON document (for log lines with no typed
/// decoder): parsing and printing must be the identity on our output.
fn reencode(text: &str) -> String {
    parse(text).unwrap().to_string_compact()
}

const REQUESTS: [&str; 7] = [
    r#"{"type":"hello","tenant":"acme \"q\"","budget":18446744073709551615}"#,
    r#"{"type":"job","id":1,"kind":"spmv","n":4096,"mem":256,"block":16,"omega":8,"delta":3,"seed":7,"payload":true,"backend":"ghost"}"#,
    r#"{"type":"quote","id":2,"kind":"spmv","n":4096,"mem":256,"block":16,"omega":8,"delta":3,"seed":7,"payload":true}"#,
    r#"{"type":"batch","jobs":[{"id":3,"kind":"spmv","n":4096,"mem":256,"block":16,"omega":8,"delta":3,"seed":7,"payload":true},{"id":4,"kind":"spmv","n":4096,"mem":256,"block":16,"omega":8,"delta":3,"seed":7,"payload":true,"backend":"vec"}]}"#,
    r#"{"type":"stats"}"#,
    r#"{"type":"metrics"}"#,
    r#"{"type":"shutdown"}"#,
];

#[test]
fn every_request_variant_encodes_to_its_golden_bytes() {
    let requests = [
        Request::Hello {
            tenant: "acme \"q\"".into(),
            budget: u64::MAX,
        },
        Request::Job(spec(1, Some("ghost"))),
        Request::Quote(spec(2, None)),
        Request::Batch(vec![spec(3, None), spec(4, Some("vec"))]),
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
    ];
    for (req, golden) in requests.iter().zip(REQUESTS) {
        assert_eq!(req.to_json().to_string_compact(), golden);
        let back = Request::from_json(&parse(golden).unwrap()).unwrap();
        assert_eq!(&back, req);
        assert_eq!(back.to_json().to_string_compact(), golden);
    }
}

const RESPONSES: [&str; 10] = [
    r#"{"type":"hello_ok","budget":500,"drained":[{"type":"done","id":5,"algo":"aem","backend":"vec","predicted":{"reads":10,"writes":4},"measured":{"reads":9,"writes":4},"q":41,"checksum":3735928559},{"type":"batch","results":[{"type":"queued","id":6,"q":70}]}]}"#,
    r#"{"type":"done","id":1,"algo":"aem","backend":"vec","predicted":{"reads":10,"writes":4},"measured":{"reads":9,"writes":4},"q":41,"checksum":3735928559}"#,
    r#"{"type":"quoted","id":2,"algo":"by-sort","predicted":{"reads":3,"writes":1},"q":11}"#,
    r#"{"type":"rejected","id":3,"reason":"over_budget","q":99,"remaining":12}"#,
    r#"{"type":"queued","id":4,"q":70}"#,
    r#"{"type":"batch","results":[{"type":"queued","id":4,"q":70},{"type":"error","message":"no hello"}]}"#,
    r#"{"type":"stats","tenant":"acme","budget":1,"spent":2,"accepted":3,"rejected":4,"queued":5,"quotes":6,"reads":7,"writes":8}"#,
    r##"{"type":"metrics","text":"# TYPE x counter\nx 1\n"}"##,
    r#"{"type":"bye"}"#,
    r#"{"type":"error","message":"bad request: missing or non-string 'type'"}"#,
];

#[test]
fn every_response_variant_encodes_to_its_golden_bytes() {
    let responses = [
        Response::HelloOk {
            budget: 500,
            drained: vec![
                done(5),
                Response::Batch(vec![Response::Queued { id: 6, q: 70 }]),
            ],
        },
        done(1),
        Response::Quoted {
            id: 2,
            algo: "by-sort".into(),
            predicted: Cost::new(3, 1),
            q: 11,
        },
        Response::Rejected {
            id: 3,
            reason: "over_budget".into(),
            q: 99,
            remaining: 12,
        },
        Response::Queued { id: 4, q: 70 },
        Response::Batch(vec![
            Response::Queued { id: 4, q: 70 },
            Response::Error {
                message: "no hello".into(),
            },
        ]),
        Response::Stats {
            tenant: "acme".into(),
            budget: 1,
            spent: 2,
            accepted: 3,
            rejected: 4,
            queued: 5,
            quotes: 6,
            reads: 7,
            writes: 8,
        },
        Response::Metrics {
            text: "# TYPE x counter\nx 1\n".into(),
        },
        Response::Bye,
        Response::Error {
            message: "bad request: missing or non-string 'type'".into(),
        },
    ];
    for (resp, golden) in responses.iter().zip(RESPONSES) {
        assert_eq!(resp.to_json().to_string_compact(), golden);
        let back = Response::from_json(&parse(golden).unwrap()).unwrap();
        assert_eq!(&back, resp);
        assert_eq!(back.to_json().to_string_compact(), golden);
    }
}

#[test]
fn decoders_keep_their_defaults() {
    let bare = r#"{"type":"job","id":1,"kind":"sort","n":64,"mem":32,"block":4,"omega":2}"#;
    let Request::Job(s) = Request::from_json(&parse(bare).unwrap()).unwrap() else {
        panic!("not a job");
    };
    assert_eq!((s.delta, s.seed, s.payload, s.backend), (0, 0, false, None));
    let hello = Response::from_json(&parse(r#"{"type":"hello_ok","budget":9}"#).unwrap()).unwrap();
    assert_eq!(
        hello,
        Response::HelloOk {
            budget: 9,
            drained: vec![]
        }
    );
    let seed = r#"{"target":"sort","mem":16,"block":4,"omega":2,"n":40,"case_seed":5}"#;
    let (_, case) = FuzzCase::from_json(seed).unwrap();
    assert_eq!((case.dist, case.delta), (DistKind::Uniform, 4));
}

const ADMISSION_LOG: &str = concat!(
    r#"{"tenant":"acme","seq":0,"job_id":0,"kind":"hello","n":0,"decision":"accept","reason":"","q":100,"remaining":100}"#,
    "\n",
    r#"{"tenant":"acme","seq":1,"job_id":1,"kind":"spmv","n":4096,"decision":"accept","reason":"","q":40,"remaining":60}"#,
    "\n",
    r#"{"tenant":"acme","seq":2,"job_id":2,"kind":"spmv","n":4096,"decision":"reject","reason":"over_budget","q":80,"remaining":60}"#,
    "\n",
    r#"{"tenant":"acme","seq":3,"job_id":3,"kind":"spmv","n":4096,"decision":"reject","reason":"bad_request: n too large","q":0,"remaining":60}"#,
    "\n",
);

#[test]
fn admission_log_lines_are_golden() {
    let adm = Admission::new(false);
    adm.hello("acme", 100);
    adm.admit("acme", &spec(1, None), 40);
    adm.admit("acme", &spec(2, None), 80);
    adm.reject_invalid("acme", &spec(3, None), "n too large");
    let log = adm.log_jsonl();
    assert_eq!(log, ADMISSION_LOG);
    for line in log.lines() {
        assert_eq!(reencode(line), line);
    }
}

const METERING: &str = concat!(
    r#"{"tenant":"acme","jobs_done":2,"replays":1,"quotes":1,"reads":12,"writes":5,"q":47}"#,
    "\n",
    r#"{"tenant":"zeta","jobs_done":0,"replays":0,"quotes":1,"reads":0,"writes":0,"q":0}"#,
    "\n",
);

#[test]
fn metering_report_lines_are_golden() {
    let m = Metering::new();
    m.record_done("acme", Cost::new(9, 4), 41, false);
    m.record_done("acme", Cost::new(3, 1), 6, true);
    m.record_quote("acme");
    m.record_quote("zeta");
    let report = m.jsonl_report();
    assert_eq!(report, METERING);
    for line in report.lines() {
        assert_eq!(reencode(line), line);
    }
}

const FLIGHT: &str = r#"{"t":"flight","seq":17,"op":"w","blk":3,"len":8,"aux":true,"phase":"merge-level-1","dq":16}"#;

#[test]
fn flight_event_line_is_golden() {
    let ev = FlightEvent {
        seq: 17,
        write: true,
        block: 3,
        len: 8,
        aux: true,
        phase: "merge-level-1".into(),
        q_delta: 16,
    };
    assert_eq!(ev.to_json_line(), FLIGHT);
    assert_eq!(reencode(FLIGHT), FLIGHT);
}

fn record() -> RunRecord {
    let mut trace = Trace::new();
    trace.push(IoEvent::Read {
        block: BlockId(0),
        len: 4,
        aux: false,
    });
    trace.push(IoEvent::Write {
        block: BlockId(9),
        len: 3,
        aux: true,
    });
    let mut metrics = Metrics::new();
    metrics.add("io.reads", 1);
    metrics.gauge_set("mem.internal_used", 4);
    metrics.gauge_set("mem.internal_used", 0);
    metrics.histogram_with_bounds("block.occupancy.read", vec![1, 2, 4]);
    metrics.observe("block.occupancy.read", 4);
    let phase = |name: &str, parent| PhaseNode {
        name: name.into(),
        parent,
        cost: Cost::new(1, 1),
        volume: 8,
        aux_reads: 0,
        aux_writes: 1,
        events: 2,
        high_water: 4,
    };
    RunRecord {
        config: AemConfig::new(16, 4, 8).unwrap(),
        workload: WorkloadMeta::with_delta("spmv", "sorted", 64, 3),
        trace,
        occupancy: vec![4, 0],
        final_internal_used: 0,
        phases: vec![phase("outer", None), phase("inner", Some(0))],
        metrics,
    }
}

const RECORD: &str = concat!(
    r#"{"t":"meta","version":1,"memory":16,"block":4,"omega":8,"kind":"spmv","algo":"sorted","n":64,"delta":3,"final_iu":0}"#,
    "\n",
    r#"{"t":"ev","op":"r","blk":0,"len":4,"aux":false,"iu":4}"#,
    "\n",
    r#"{"t":"ev","op":"w","blk":9,"len":3,"aux":true,"iu":0}"#,
    "\n",
    r#"{"t":"phase","id":0,"parent":null,"name":"outer","reads":1,"writes":1,"volume":8,"aux_reads":0,"aux_writes":1,"events":2,"high_water":4}"#,
    "\n",
    r#"{"t":"phase","id":1,"parent":0,"name":"inner","reads":1,"writes":1,"volume":8,"aux_reads":0,"aux_writes":1,"events":2,"high_water":4}"#,
    "\n",
    r#"{"t":"ctr","name":"io.reads","value":1}"#,
    "\n",
    r#"{"t":"gauge","name":"mem.internal_used","value":0,"high_water":4}"#,
    "\n",
    r#"{"t":"hist","name":"block.occupancy.read","bounds":[1,2,4],"counts":[0,0,1,0],"count":1,"sum":4,"max":4}"#,
    "\n",
);

#[test]
fn run_record_jsonl_with_every_line_kind_is_golden() {
    let rec = record();
    assert_eq!(rec.to_jsonl(), RECORD);
    let back = RunRecord::from_jsonl(RECORD).unwrap();
    assert_eq!(back, rec);
    assert_eq!(back.to_jsonl(), RECORD);
}

const SEED: &str = r#"{"target":"sort-aem","mem":24,"block":4,"omega":16,"n":61,"case_seed":12345,"dist":"few_distinct","distinct":3,"delta":2}"#;

#[test]
fn fuzz_seed_line_is_golden() {
    let case = FuzzCase {
        mem: 24,
        block: 4,
        omega: 16,
        n: 61,
        case_seed: 12345,
        dist: DistKind::FewDistinct(3),
        delta: 2,
    };
    assert_eq!(case.to_json("sort-aem"), SEED);
    let (target, back) = FuzzCase::from_json(SEED).unwrap();
    assert_eq!(back, case);
    assert_eq!(back.to_json(&target), SEED);
}
