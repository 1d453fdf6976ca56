//! The long-lived job server.
//!
//! One accept loop (non-blocking, polling the shutdown flag), one thread
//! per connection, and one shared execution pool: the workspace's
//! [`aem_obs::pool`], whose shared queue runs every job under
//! [`aem_obs::pool::catch`] so a panicking simulation downs one request
//! instead of a worker.
//!
//! Every job takes one path in two steps. `admit` prices the job,
//! checks that it can run and debits the tenant's budget, or settles it
//! with a `rejected`/`queued` response. A connection starts each admitted
//! job as soon as it is admitted, then `finish`es them in declaration
//! order, metering each completed job. A job that moves no payload and
//! compiles nothing — a cost-only replay-cache hit or a ghost run — runs
//! right there on the connection thread, since it takes less time than a
//! hand-off to a worker; every other job (payload runs, first-time trace
//! compiles) is submitted to the pool, so `--workers` caps those alone.
//! Both kinds run under [`aem_obs::pool::catch`]. A single `job` is a
//! batch of one; the jobs a top-up `hello` drains take the same path.
//!
//! Shutdown is cooperative: SIGTERM (or a `shutdown` frame) flips one
//! `AtomicBool`; the accept loop stops taking connections, every
//! connection thread finishes its in-flight request and drains, the pool
//! joins, and the canonical admission log / metering reports are written
//! before `serve` returns.

use crate::admission::{Admission, Decision};
use crate::exec::{prepare, ExecResult, Prepared, TraceCache};
use crate::metering::Metering;
use crate::planner::{self, Plan};
use crate::protocol::{
    write_frame, FrameReader, JobOutcome, JobSpec, ReadOutcome, Request, Response,
};
use aem_obs::pool;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How the server is run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (written to `addr_file`).
    pub addr: String,
    /// Execution-pool size: how many payload runs and first-time trace
    /// compiles execute at once (cost-only replay hits and ghost runs
    /// execute on their connection's thread).
    pub workers: usize,
    /// Park over-budget jobs instead of rejecting them.
    pub queue_over_budget: bool,
    /// Where to write the canonical admission log at shutdown.
    pub admission_log: Option<String>,
    /// Where to write the per-tenant JSONL metering report at shutdown.
    pub metering_out: Option<String>,
    /// Where to write the Prometheus exposition at shutdown.
    pub prom_out: Option<String>,
    /// Where to write the bound address (`host:port\n`) once listening.
    pub addr_file: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_over_budget: true,
            admission_log: None,
            metering_out: None,
            prom_out: None,
            addr_file: None,
        }
    }
}

type Pool = pool::Pool<(JobSpec, Plan, Prepared), Result<ExecResult, String>>;

/// An admitted job's result, or its panic message.
type Outcome = Result<Result<ExecResult, String>, String>;

/// An admitted job once started: run already, or queued on the pool.
enum Started {
    Inline(Outcome),
    Pooled(pool::Handle<Result<ExecResult, String>>),
}

struct State {
    admission: Admission,
    metering: Metering,
    cache: TraceCache,
}

/// Run the server until `shutdown` turns true, then drain and write the
/// reports. Returns a human-readable summary.
pub fn serve(opts: &ServeOptions, shutdown: &AtomicBool) -> Result<String, String> {
    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if let Some(path) = &opts.addr_file {
        let mut f = std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(f, "{addr}").map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let state = State {
        admission: Admission::new(opts.queue_over_budget),
        metering: Metering::new(),
        cache: TraceCache::new(),
    };
    let run = |(spec, plan, job): (JobSpec, Plan, Prepared)| job.run(&spec, &plan, &state.cache);
    pool::scope(opts.workers, run, |jobs| {
        // The scope joins every connection thread at its end, so no handle
        // is kept per connection; a panicking connection downs only itself.
        std::thread::scope(|s| {
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let state = &state;
                        s.spawn(move || pool::catch(|| handle_conn(stream, state, jobs, shutdown)));
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        eprintln!("accept: {e}");
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
            drop(listener);
        });
    }); // the pool closes here: workers drain the queue and exit

    if let Some(path) = &opts.admission_log {
        std::fs::write(path, state.admission.log_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.metering_out {
        std::fs::write(path, state.metering.jsonl_report())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.prom_out {
        std::fs::write(path, state.metering.prometheus_text())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(format!(
        "aem-serve: drained cleanly; {} admission decisions, {} compiled traces cached\n",
        state.admission.decisions(),
        state.cache.len(),
    ))
}

/// Price, check and admit one job: its plan if accepted, else the
/// response that settles it.
fn admit(state: &State, tenant: &str, spec: &JobSpec) -> Result<Plan, Response> {
    let plan = match planner::plan(spec).and_then(|p| planner::executable(spec).map(|_| p)) {
        Ok(p) => p,
        Err(e) => {
            let remaining = state.admission.reject_invalid(tenant, spec, &e);
            return Err(Response::Rejected {
                id: spec.id,
                reason: format!("bad_request: {e}"),
                q: 0,
                remaining,
            });
        }
    };
    let (decision, remaining) = state.admission.admit(tenant, spec, plan.q);
    match decision {
        Decision::Accept => Ok(plan),
        Decision::Queue => Err(Response::Queued {
            id: spec.id,
            q: plan.q,
        }),
        Decision::Reject | Decision::Drain => Err(Response::Rejected {
            id: spec.id,
            reason: "over_budget".into(),
            q: plan.q,
            remaining,
        }),
    }
}

/// Turn one job's outcome into a metered `done`, or an `error` naming the
/// job.
fn finish(state: &State, tenant: &str, spec: &JobSpec, plan: &Plan, result: Outcome) -> Response {
    let result = result
        .map_err(|panic| format!("job panicked during execution: {panic}"))
        .and_then(|r| r);
    match result {
        Ok(r) => {
            let q = r.measured.q(spec.omega);
            state
                .metering
                .record_done(tenant, r.measured, q, r.via_replay);
            Response::Done(JobOutcome {
                id: spec.id,
                algo: plan.algo.to_string(),
                backend: plan.backend.name().to_string(),
                predicted: plan.predicted,
                measured: r.measured,
                q,
                checksum: r.checksum,
            })
        }
        Err(e) => Response::Error {
            message: format!("job {} failed after admission: {e}", spec.id),
        },
    }
}

/// Start each admitted job as its slot is produced (so admission order is
/// slot order): run it on this thread if [`Prepared::runs_inline`], else
/// submit it to the pool. Then finish every job in slot order: a settled
/// slot is already its response.
fn execute_all<'a>(
    state: &State,
    pool: &Pool,
    tenant: &str,
    slots: impl IntoIterator<Item = (&'a JobSpec, Result<Plan, Response>)>,
) -> Vec<Response> {
    let running: Vec<_> = slots
        .into_iter()
        .map(|(spec, slot)| {
            let slot = slot.map(|plan| {
                let job = prepare(spec, &plan, &state.cache);
                let started = if job.runs_inline() {
                    Started::Inline(pool::catch(|| job.run(spec, &plan, &state.cache)))
                } else {
                    Started::Pooled(pool.submit((spec.clone(), plan.clone(), job)))
                };
                (plan, started)
            });
            (spec, slot)
        })
        .collect();
    running
        .into_iter()
        .map(|(spec, slot)| match slot {
            Ok((plan, started)) => {
                let result = match started {
                    Started::Inline(result) => result,
                    Started::Pooled(handle) => handle.wait().0,
                };
                finish(state, tenant, spec, &plan, result)
            }
            Err(settled) => settled,
        })
        .collect()
}

fn handle_request(
    state: &State,
    pool: &Pool,
    tenant: &mut Option<String>,
    req: Request,
    shutdown: &AtomicBool,
) -> Response {
    let tenant = match req {
        Request::Hello {
            tenant: name,
            budget,
        } => {
            let (total, drained) = state.admission.hello(&name, budget);
            // Drained jobs were admitted when they queued; they only re-plan.
            let slots = drained.iter().map(|job| {
                let plan = planner::plan(&job.spec).map_err(|e| Response::Error {
                    message: format!("drained job {} failed to re-plan: {e}", job.spec.id),
                });
                (&job.spec, plan)
            });
            let drained = execute_all(state, pool, &name, slots);
            *tenant = Some(name);
            return Response::HelloOk {
                budget: total,
                drained,
            };
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            return Response::Bye;
        }
        _ => match tenant.as_deref() {
            Some(tenant) => tenant,
            None => {
                return Response::Error {
                    message: "say hello first: {\"type\":\"hello\",\"tenant\":...,\"budget\":...}"
                        .into(),
                }
            }
        },
    };
    let admitted = |spec| (spec, admit(state, tenant, spec));
    match req {
        Request::Job(spec) => execute_all(state, pool, tenant, [admitted(&spec)]).remove(0),
        Request::Batch(jobs) => {
            Response::Batch(execute_all(state, pool, tenant, jobs.iter().map(admitted)))
        }
        Request::Quote(spec) => match planner::plan(&spec) {
            Ok(plan) => {
                state.metering.record_quote(tenant);
                Response::Quoted {
                    id: spec.id,
                    algo: plan.algo.to_string(),
                    predicted: plan.predicted,
                    q: plan.q,
                }
            }
            Err(e) => Response::Rejected {
                id: spec.id,
                reason: format!("bad_request: {e}"),
                q: 0,
                remaining: state.admission.snapshot(tenant).budget,
            },
        },
        Request::Stats => {
            let adm = state.admission.snapshot(tenant);
            let met = state.metering.snapshot(tenant);
            Response::Stats {
                tenant: tenant.to_string(),
                budget: adm.budget,
                spent: adm.spent,
                accepted: adm.accepted,
                rejected: adm.rejected,
                queued: adm.queued,
                quotes: met.quotes,
                reads: met.reads,
                writes: met.writes,
            }
        }
        Request::Metrics => Response::Metrics {
            text: state.metering.prometheus_text(),
        },
        Request::Hello { .. } | Request::Shutdown => unreachable!("handled above"),
    }
}

fn handle_conn(mut stream: TcpStream, state: &State, pool: &Pool, shutdown: &AtomicBool) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let mut reader = FrameReader::new();
    let mut tenant: Option<String> = None;
    loop {
        match reader.poll(&mut stream) {
            Ok(ReadOutcome::Frame(json)) => {
                let response = match Request::from_json(&json) {
                    Ok(req) => handle_request(state, pool, &mut tenant, req, shutdown),
                    Err(e) => Response::Error {
                        message: format!("bad request: {e}"),
                    },
                };
                let closing = matches!(response, Response::Bye);
                if write_frame(&mut stream, &response.to_json()).is_err() {
                    return;
                }
                if closing {
                    return;
                }
            }
            Ok(ReadOutcome::Idle) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Err(e) => {
                let _ = write_frame(
                    &mut stream,
                    &Response::Error {
                        message: format!("protocol error: {e}"),
                    }
                    .to_json(),
                );
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobKind;
    use std::sync::Mutex;

    fn spec(id: u64, kind: JobKind, payload: bool, backend: Option<&str>) -> JobSpec {
        JobSpec {
            id,
            kind,
            n: 512,
            mem: 64,
            block: 8,
            omega: 16,
            delta: 3,
            seed: 42,
            payload,
            backend: backend.map(str::to_string),
        }
    }

    #[test]
    fn only_payload_runs_and_first_compiles_take_the_pool() {
        let state = State {
            admission: Admission::new(false),
            metering: Metering::new(),
            cache: TraceCache::new(),
        };
        state.admission.hello("t", u64::MAX / 2);
        let pooled = Mutex::new(Vec::new());
        let run = |(spec, plan, job): (JobSpec, Plan, Prepared)| {
            pooled.lock().unwrap().push(spec.id);
            job.run(&spec, &plan, &state.cache)
        };
        let batch = |pool: &Pool, jobs: &[JobSpec]| {
            let slots = jobs.iter().map(|s| (s, admit(&state, "t", s)));
            let done = execute_all(&state, pool, "t", slots);
            let ids: Vec<u64> = done
                .iter()
                .map(|r| match r {
                    Response::Done(o) => o.id,
                    other => panic!("expected done, got {other:?}"),
                })
                .collect();
            assert_eq!(ids, jobs.iter().map(|s| s.id).collect::<Vec<_>>());
        };
        pool::scope(1, run, |pool| {
            batch(
                pool,
                &[
                    spec(1, JobKind::Sort, true, Some("vec")),
                    spec(2, JobKind::Sort, false, None), // compiles on trace
                    spec(3, JobKind::Search, false, None), // ghost
                    spec(4, JobKind::Sort, true, Some("trace")),
                ],
            );
            assert_eq!(*pooled.lock().unwrap(), [1, 2, 4]);
            // Job 2's cell is cached now: its repeat replays inline.
            batch(
                pool,
                &[
                    spec(5, JobKind::Sort, false, None),
                    spec(6, JobKind::Search, false, None),
                ],
            );
            assert_eq!(*pooled.lock().unwrap(), [1, 2, 4]);
        });
        let meter = state.metering.snapshot("t");
        assert_eq!((meter.jobs_done, meter.replays), (6, 1));
    }
}
