//! The server's request pipeline, replayed in process through the serve
//! crate's public functions, one span per layer call:
//!
//! `decode_frame`/`Request::from_json` → `planner::plan` →
//! `Admission::admit` → `exec::execute` → `Metering::record_done` →
//! `Response::to_json`/`encode_frame`.
//!
//! The control flow mirrors `aem_serve::server`'s request handler, so the
//! responses it produces are the ones the server must send; the benchmark
//! uses them as the expected output of every timed request.

use crate::sequence::TenantPlan;
use crate::spans::Tracer;
use aem_serve::admission::{Admission, Decision};
use aem_serve::exec::{execute, ExecResult, TraceCache};
use aem_serve::metering::Metering;
use aem_serve::planner::{self, Plan};
use aem_serve::protocol::{decode_frame, encode_frame, JobOutcome, JobSpec, Request, Response};

/// Per-pass exact statistics of the simulated model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    pub reads: u64,
    pub writes: u64,
    pub accepted: u64,
    pub queued: u64,
    pub drained: u64,
    pub rejected: u64,
    /// Jobs whose cost came from compiled-trace replay.
    pub replays: u64,
    /// Completed cost-only jobs.
    pub cost_only: u64,
    /// Σ measured and Σ predicted `Q` over completed jobs.
    pub measured_q: u64,
    pub predicted_q: u64,
    /// Request plus response frame bytes.
    pub frame_bytes: u64,
}

impl PassStats {
    /// Fold one response into the totals (`drained` marks a job released
    /// by a top-up).
    pub fn add_response(&mut self, r: &Response, omega_of: &dyn Fn(u64) -> u64) {
        match r {
            Response::Done(o) => self.add_done(o, false, omega_of),
            Response::HelloOk { drained, .. } => {
                for d in drained {
                    match d {
                        Response::Done(o) => self.add_done(o, true, omega_of),
                        other => self.add_response(other, omega_of),
                    }
                }
            }
            Response::Batch(rs) => rs.iter().for_each(|x| self.add_response(x, omega_of)),
            Response::Queued { .. } => self.queued += 1,
            Response::Rejected { .. } => self.rejected += 1,
            _ => {}
        }
    }

    fn add_done(&mut self, o: &JobOutcome, drained: bool, omega_of: &dyn Fn(u64) -> u64) {
        self.reads += o.measured.reads;
        self.writes += o.measured.writes;
        if drained {
            self.drained += 1;
        } else {
            self.accepted += 1;
        }
        self.measured_q += o.q;
        self.predicted_q += o.predicted.q_saturating(omega_of(o.id));
    }
}

/// Admission, metering and the replay cache of one in-process "server".
pub struct Pipeline {
    admission: Admission,
    metering: Metering,
    cache: TraceCache,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            // `aemsim serve` queues over-budget jobs unless `--no-queue`.
            admission: Admission::new(true),
            metering: Metering::new(),
            cache: TraceCache::new(),
        }
    }
}

/// What one request produced in process.
pub struct Handled {
    pub response: Response,
    pub frame_bytes: u64,
    pub replays: u64,
    pub cost_only: u64,
}

impl Pipeline {
    fn exec(
        &self,
        spec: &JobSpec,
        plan: &Plan,
        tr: &mut Tracer,
        req: u64,
        replays: &mut u64,
    ) -> Result<ExecResult, String> {
        let s = tr.enter("exec.execute", req);
        let r = execute(spec, plan, &self.cache);
        let (backend, ios) = match &r {
            Ok(x) if x.via_replay => ("replay", x.measured.total_ios()),
            Ok(x) => (plan.backend.name(), x.measured.total_ios()),
            Err(_) => (plan.backend.name(), 0),
        };
        tr.exit_exec(s, spec.kind.name(), backend, ios);
        if matches!(&r, Ok(x) if x.via_replay) {
            *replays += 1;
        }
        r
    }

    fn record(&self, tenant: &str, spec: &JobSpec, r: &ExecResult, tr: &mut Tracer, req: u64) {
        let s = tr.enter("metering.record", req);
        self.metering.record_done(
            tenant,
            r.measured,
            r.measured.q_saturating(spec.omega),
            r.via_replay,
        );
        tr.exit(s);
    }

    fn plan(&self, spec: &JobSpec, tr: &mut Tracer, req: u64) -> Result<Plan, String> {
        let s = tr.enter("planner.plan", req);
        let p = planner::plan(spec).and_then(|p| planner::executable(spec).map(|_| p));
        tr.exit(s);
        p
    }

    /// Admit and run one job as the server's `handle_job` does; batches
    /// admit every member first, then execute.
    fn admit(
        &self,
        tenant: &str,
        spec: &JobSpec,
        tr: &mut Tracer,
        req: u64,
    ) -> Result<Plan, Response> {
        let plan = match self.plan(spec, tr, req) {
            Ok(p) => p,
            Err(e) => {
                let s = tr.enter("admission.admit", req);
                let remaining = self.admission.reject_invalid(tenant, spec, &e);
                tr.exit(s);
                return Err(Response::Rejected {
                    id: spec.id,
                    reason: format!("bad_request: {e}"),
                    q: 0,
                    remaining,
                });
            }
        };
        let s = tr.enter("admission.admit", req);
        let (decision, remaining) = self.admission.admit(tenant, spec, plan.q);
        tr.exit(s);
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

    fn run_admitted(
        &self,
        tenant: &str,
        spec: &JobSpec,
        plan: &Plan,
        tr: &mut Tracer,
        req: u64,
        counts: &mut (u64, u64),
    ) -> Response {
        counts.1 += u64::from(!spec.payload);
        match self.exec(spec, plan, tr, req, &mut counts.0) {
            Ok(r) => {
                self.record(tenant, spec, &r, tr, req);
                outcome(spec, plan, &r)
            }
            Err(e) => Response::Error {
                message: format!("job {} failed after admission: {e}", spec.id),
            },
        }
    }

    /// Handle one request frame from `tenant`, tagging spans with `req`.
    pub fn handle(&self, tenant: &str, frame: &[u8], tr: &mut Tracer, req: u64) -> Handled {
        let root = tr.enter("request", req);
        let s = tr.enter("protocol.decode", req);
        let decoded = decode_frame(frame)
            .and_then(|f| f.ok_or_else(|| "truncated frame".to_string()))
            .and_then(|(j, _)| Request::from_json(&j));
        tr.exit(s);
        let mut counts = (0u64, 0u64);
        let response = match decoded {
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
            },
            Ok(Request::Hello {
                tenant: name,
                budget,
            }) => {
                let s = tr.enter("admission.admit", req);
                let (total, drained) = self.admission.hello(&name, budget);
                tr.exit(s);
                let drained = drained
                    .into_iter()
                    .map(|job| match self.plan(&job.spec, tr, req) {
                        Ok(plan) => {
                            self.run_admitted(&name, &job.spec, &plan, tr, req, &mut counts)
                        }
                        Err(e) => Response::Error {
                            message: format!("drained job {} failed to re-plan: {e}", job.spec.id),
                        },
                    })
                    .collect();
                Response::HelloOk {
                    budget: total,
                    drained,
                }
            }
            Ok(Request::Job(spec)) => match self.admit(tenant, &spec, tr, req) {
                Ok(plan) => self.run_admitted(tenant, &spec, &plan, tr, req, &mut counts),
                Err(r) => r,
            },
            Ok(Request::Batch(jobs)) => {
                let slots: Vec<_> = jobs
                    .iter()
                    .map(|spec| self.admit(tenant, spec, tr, req))
                    .collect();
                Response::Batch(
                    jobs.iter()
                        .zip(slots)
                        .map(|(spec, slot)| match slot {
                            Ok(plan) => {
                                self.run_admitted(tenant, spec, &plan, tr, req, &mut counts)
                            }
                            Err(r) => r,
                        })
                        .collect(),
                )
            }
            Ok(Request::Quote(spec)) => {
                let s = tr.enter("planner.plan", req);
                let p = planner::plan(&spec);
                tr.exit(s);
                match p {
                    Ok(plan) => {
                        let s = tr.enter("metering.record", req);
                        self.metering.record_quote(tenant);
                        tr.exit(s);
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
                        remaining: self.admission.snapshot(tenant).budget,
                    },
                }
            }
            Ok(other) => Response::Error {
                message: format!("request not part of a benchmark sequence: {other:?}"),
            },
        };
        let s = tr.enter("protocol.encode", req);
        let out = encode_frame(&response.to_json());
        tr.exit(s);
        tr.exit(root);
        Handled {
            response,
            frame_bytes: (frame.len() + out.len()) as u64,
            replays: counts.0,
            cost_only: counts.1,
        }
    }
}

fn outcome(spec: &JobSpec, plan: &Plan, r: &ExecResult) -> Response {
    Response::Done(JobOutcome {
        id: spec.id,
        algo: plan.algo.to_string(),
        backend: plan.backend.name().to_string(),
        predicted: plan.predicted,
        measured: r.measured,
        q: r.measured.q_saturating(spec.omega),
        checksum: r.checksum,
    })
}

impl std::ops::AddAssign for PassStats {
    fn add_assign(&mut self, o: PassStats) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.accepted += o.accepted;
        self.queued += o.queued;
        self.drained += o.drained;
        self.rejected += o.rejected;
        self.replays += o.replays;
        self.cost_only += o.cost_only;
        self.measured_q += o.measured_q;
        self.predicted_q += o.predicted_q;
        self.frame_bytes += o.frame_bytes;
    }
}

/// One in-process pass: the tenants' requests interleaved round-robin
/// (admission is per tenant, so the interleaving changes no outcome).
/// Returns each tenant's responses and pass totals.
pub fn run_pass(
    pipe: &Pipeline,
    plans: &[TenantPlan],
    frames: &[Vec<Vec<u8>>],
    tr: &mut Tracer,
    first_req: u64,
) -> (Vec<Vec<Response>>, Vec<PassStats>) {
    let mut out: Vec<Vec<Response>> = plans.iter().map(|_| Vec::new()).collect();
    let mut stats = vec![PassStats::default(); plans.len()];
    let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
    let mut req = first_req;
    for i in 0..longest {
        for (t, p) in plans.iter().enumerate() {
            if let Some(frame) = frames[t].get(i) {
                let h = pipe.handle(p.name, frame, tr, req);
                req += 1;
                let st = &mut stats[t];
                st.frame_bytes += h.frame_bytes;
                st.replays += h.replays;
                st.cost_only += h.cost_only;
                st.add_response(&h.response, &omega_lookup(p));
                out[t].push(h.response);
            }
        }
    }
    (out, stats)
}

/// Job id → ω of that job in `p`'s pass (ids are unique per tenant).
pub fn omega_lookup(p: &TenantPlan) -> impl Fn(u64) -> u64 + '_ {
    move |id| p.jobs().find(|s| s.id == id).map_or(1, |s| s.omega)
}

/// Jobs a response completed and their metered I/Os.
pub fn completed(r: &Response) -> (u64, u64) {
    match r {
        Response::Done(o) => (1, o.measured.total_ios()),
        Response::Batch(v) | Response::HelloOk { drained: v, .. } => v
            .iter()
            .map(completed)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
        _ => (0, 0),
    }
}

/// Operations a response covers (a batch: one per member).
fn ops(r: &Response) -> u64 {
    match r {
        Response::Batch(v) => v.len() as u64,
        _ => 1,
    }
}

/// Operations of `r` that failed: error responses and `bad_request`
/// rejections (an expectation can hold these too, when the library itself
/// fails).
pub fn failures(r: &Response) -> u64 {
    match r {
        Response::Batch(v) | Response::HelloOk { drained: v, .. } => v.iter().map(failures).sum(),
        Response::Error { .. } => 1,
        Response::Rejected { reason, .. } => u64::from(reason.starts_with("bad_request")),
        _ => 0,
    }
}

/// Operations of `got` that differ from `want`. A `hello_ok` compares by
/// its drained jobs only: its cumulative budget grows from pass to pass.
pub fn mismatches(got: &Response, want: &Response) -> u64 {
    match (got, want) {
        (Response::Batch(g), Response::Batch(w)) if g.len() == w.len() => {
            g.iter().zip(w).map(|(a, b)| mismatches(a, b)).sum()
        }
        (Response::HelloOk { drained: g, .. }, Response::HelloOk { drained: w, .. })
            if g.len() == w.len() =>
        {
            g.iter().zip(w).map(|(a, b)| mismatches(a, b)).sum()
        }
        _ if got == want => 0,
        _ => ops(want),
    }
}

/// Register the tenants as the set-up does.
pub fn hellos(pipe: &Pipeline, plans: &[TenantPlan]) {
    let mut off = Tracer::new(false);
    for p in plans {
        pipe.handle(p.name, &encode_frame(&p.hello().to_json()), &mut off, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{plans, Serving};

    #[test]
    fn mismatches_and_failures_count_operations() {
        let queued = |id| Response::Queued { id, q: 5 };
        let want = Response::Batch(vec![queued(1), queued(2), queued(3)]);
        let got = Response::Batch(vec![queued(1), queued(9), queued(3)]);
        assert_eq!(mismatches(&got, &want), 1);
        assert_eq!(mismatches(&Response::Bye, &want), 3);
        let hello = |budget| Response::HelloOk {
            budget,
            drained: vec![queued(1)],
        };
        assert_eq!(
            mismatches(&hello(10), &hello(20)),
            0,
            "budget is cumulative"
        );
        let error = Response::Error {
            message: "boom".into(),
        };
        assert_eq!(failures(&Response::Batch(vec![error, queued(1)])), 1);
    }

    #[test]
    fn serve_priced_timed_passes_are_all_replay_hits_after_warm_up() {
        let ps = plans(Serving::Priced, 3);
        let frames: Vec<_> = ps.iter().map(TenantPlan::frames).collect();
        let pipe = Pipeline::default();
        hellos(&pipe, &ps);
        let mut off = Tracer::new(false);
        let total = |v: Vec<PassStats>| {
            v.into_iter().fold(PassStats::default(), |mut a, b| {
                a += b;
                a
            })
        };
        let (warm, warm_stats) = run_pass(&pipe, &ps, &frames, &mut off, 0);
        let (again, stats) = run_pass(&pipe, &ps, &frames, &mut off, 0);
        let (warm_stats, stats) = (total(warm_stats), total(stats));
        // Every trace-routed job of a timed pass is a replay hit.
        let trace_routed: u64 = ps
            .iter()
            .flat_map(|p| p.jobs())
            .filter(|s| planner::plan(s).unwrap().backend == aem_machine::Backend::Trace)
            .count() as u64;
        assert!(trace_routed > 0);
        assert_eq!(stats.replays, trace_routed);
        assert!(warm_stats.replays < trace_routed);
        // Some jobs queue and later drain; none is rejected.
        assert!(stats.queued > 0 && stats.drained == stats.queued);
        assert_eq!(stats.rejected, 0);
        // Passes repeat response for response.
        for (a, b) in warm.iter().zip(&again) {
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(b).all(|(x, y)| mismatches(x, y) == 0));
        }
        assert_eq!(
            (warm_stats.reads, warm_stats.writes),
            (stats.reads, stats.writes)
        );
    }
}
