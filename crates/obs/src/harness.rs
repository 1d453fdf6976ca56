//! [`ProfileHarness`]: the instrumented execution environment for the
//! workload registry.
//!
//! `aem-core`'s [`run_workload`](aem_core::workload::run_workload)
//! dispatches a kind to its seeded instance + algorithm body; a
//! [`Harness`] decides what machine that body runs on and what the run
//! yields. This module contributes the observability variant: give the
//! chosen backend's machine a labelled [`RunRecorder`] sink, run the body,
//! and hand back the full [`RunRecord`] (plus the output digest and the
//! flight tail). On the trace backend the recorder rides beside the
//! compiled schedule as a sink pair. `aemsim profile` is one
//! `run_workload` call away from any registered workload — including
//! kinds registered after this file was last touched.

use aem_core::workload::{
    Body, Harness, Payload, RunCtx, Verified, WorkloadError, WorkloadMachine,
};
use aem_machine::{ArenaMachine, Backend, CompiledTrace, GhostMachine, Machine, Observer};

use crate::instrument::RunRecorder;
use crate::record::{RunRecord, WorkloadMeta};

/// Everything one instrumented workload run produces.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The complete run record (trace, phases, metrics, workload meta).
    pub record: RunRecord,
    /// FNV-1a digest of the verified output (0 when unverified).
    pub checksum: u64,
    /// Flight-recorder tail as JSONL — captured before the recorder is
    /// consumed, since it is not part of the record.
    pub flight_jsonl: String,
}

/// Runs a registry workload on an instrumented machine of the chosen
/// backend and yields the [`ProfiledRun`].
///
/// Ghost runnability is the caller's policy decision (the CLI gates on
/// the registry's `ghost_runnable` flag); this harness runs whatever
/// backend it is given.
#[derive(Debug, Clone, Copy)]
pub struct ProfileHarness {
    /// The storage backend to instrument.
    pub backend: Backend,
}

/// Run `body` on `m`, then take the recorder out of the machine.
fn recorded<T, M: WorkloadMachine<T>>(
    mut m: M,
    body: Body<'_, T>,
    recorder: fn(M) -> RunRecorder,
) -> Result<(Verified, RunRecorder), WorkloadError> {
    let v = body(&mut m)?;
    Ok((v, recorder(m)))
}

impl Harness for ProfileHarness {
    type Out = ProfiledRun;

    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<Self::Out, WorkloadError> {
        let cfg = ctx.cfg;
        let mut rec = RunRecorder::new_sink(cfg);
        rec.flight_mut().set_label(&format!(
            "{}/{} n={} backend={}",
            ctx.kind.name(),
            ctx.algo.name,
            ctx.n,
            self.backend.name()
        ));
        let (v, rec) = match self.backend {
            Backend::Vec => recorded(Machine::with_sink(cfg, rec), body, |m| m.into_sink()),
            Backend::Arena => recorded(ArenaMachine::with_sink(cfg, rec), body, |m| m.into_sink()),
            Backend::Ghost => recorded(GhostMachine::with_sink(cfg, rec), body, |m| m.into_sink()),
            Backend::Trace => {
                let sinks = (CompiledTrace::new(cfg), rec);
                recorded(Machine::with_sink(cfg, sinks), body, |m| m.into_sink().1)
            }
        }?;
        let flight_jsonl = rec.flight().to_jsonl();
        let record = rec.into_record(WorkloadMeta::with_delta(
            ctx.kind.name(),
            ctx.algo.name,
            ctx.n as u64,
            ctx.delta as u64,
        ));
        Ok(ProfiledRun {
            record,
            checksum: v.checksum,
            flight_jsonl,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_all;
    use aem_core::workload::{run_workload, WorkloadKind};
    use aem_machine::AemConfig;

    fn profiled(kind: WorkloadKind, algo: &str, n: usize, backend: Backend) -> ProfiledRun {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let w = kind.descriptor();
        let delta = w.default_delta.max(usize::from(w.requires_delta) * 3);
        let ctx = RunCtx::new(kind, algo, cfg, n, delta, 7).unwrap();
        run_workload(&ctx, &mut ProfileHarness { backend }).unwrap()
    }

    #[test]
    fn every_kind_profiles_with_invariants_holding() {
        // One registry call profiles every kind's default algorithm; the
        // paper-invariant checkers hold on each resulting record.
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            let p = profiled(kind, w.default_algo, 300, Backend::Vec);
            assert_eq!(p.record.workload.kind, w.name, "{}", w.name);
            assert_eq!(p.record.workload.algo, w.default_algo);
            assert!(p.record.q() > 0, "{}", w.name);
            assert_ne!(p.checksum, 0, "{}", w.name);
            assert!(!p.flight_jsonl.is_empty());
            for check in run_all(&p.record) {
                assert!(
                    check.passed,
                    "{}/{} {}: {}",
                    w.name, w.default_algo, check.name, check.detail
                );
            }
        }
    }

    #[test]
    fn search_record_carries_build_and_lookup_phases() {
        let p = profiled(WorkloadKind::Search, "btree", 512, Backend::Vec);
        let names: Vec<&str> = p.record.phases.iter().map(|ph| ph.name.as_str()).collect();
        assert!(names.contains(&"build"), "{names:?}");
        assert!(names.contains(&"lookups"), "{names:?}");
        assert_eq!(
            p.record.workload.delta,
            WorkloadKind::Search.descriptor().default_delta as u64
        );
    }

    #[test]
    fn ghost_profile_meters_without_verifying() {
        // permute/naive is ghost-runnable AND ghost-sound: the record's
        // cost matches a vec run, the checksum stays 0.
        let g = profiled(WorkloadKind::Permute, "naive", 256, Backend::Ghost);
        let v = profiled(WorkloadKind::Permute, "naive", 256, Backend::Vec);
        assert_eq!(g.record.trace.cost(), v.record.trace.cost());
        assert_eq!(g.checksum, 0);
        assert_ne!(v.checksum, 0);
    }
}
