//! Seeded synthetic load: thousands of simulated tenants from one seed.
//!
//! Every tenant gets an independent SplitMix64 stream derived from
//! `(seed, tenant index)`, so its request sequence — budgets, top-ups,
//! job shapes, quotes — is a pure function of the seed. Tenants run
//! concurrently on real sockets, but each tenant's transcript depends
//! only on its own stream (admission and costs are deterministic
//! per-tenant; racy details like replay-vs-live are excluded from
//! responses' deterministic fields), so the rendered report is
//! byte-identical across same-seed runs. CI runs the generator twice and
//! `cmp`s both this report and the server's admission log.

use crate::protocol::{exchange, JobKind, JobSpec, Request, Response};
use aem_obs::pool;
use aem_workloads::SplitMix64;
use std::net::TcpStream;
use std::time::Duration;

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of simulated tenants (each on its own connection).
    pub tenants: usize,
    /// Requests issued per tenant.
    pub jobs: usize,
    /// Master seed; equal seeds give byte-identical reports.
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            addr: "127.0.0.1:7979".into(),
            tenants: 8,
            jobs: 12,
            seed: 1,
        }
    }
}

/// Machine shapes the generator draws from. A small set on purpose: the
/// collisions are what exercise the compiled-trace replay cache.
const CONFIGS: [(usize, usize, u64); 3] = [(1024, 64, 16), (64, 8, 16), (512, 32, 4)];
const SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];

fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(60)))
                    .map_err(|e| format!("set_read_timeout: {e}"))?;
                return Ok(s);
            }
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(format!("cannot connect to {addr}: {last}"))
}

fn draw_spec(rng: &mut SplitMix64, id: u64, draws: usize) -> JobSpec {
    // A tenant's first |ALL| specs cycle through the registry in order,
    // so any run with enough jobs exercises every registered kind; later
    // draws are uniform. Registering a new workload kind therefore
    // extends load coverage with no change here.
    let roll = rng.next_below_usize(JobKind::ALL.len());
    let kind = JobKind::ALL[if draws < JobKind::ALL.len() {
        draws
    } else {
        roll
    }];
    let (mem, block, omega) = CONFIGS[rng.next_below_usize(CONFIGS.len())];
    JobSpec {
        id,
        kind,
        n: SIZES[rng.next_below_usize(SIZES.len())],
        mem,
        block,
        omega,
        delta: 2 + rng.next_below_usize(3),
        // Few distinct seeds so identical cells recur across tenants.
        seed: 1 + rng.next_below(4),
        payload: rng.next_bool(),
        backend: None,
    }
}

/// The deterministic digest-relevant rendering of one response.
fn render(resp: &Response) -> String {
    match resp {
        Response::HelloOk { budget, drained } => {
            let mut s = format!("hello_ok budget={budget}");
            for d in drained {
                s.push_str(&format!("\n  drained {}", render(d)));
            }
            s
        }
        Response::Done(o) => format!(
            "done id={} algo={} backend={} predicted={}r+{}w measured={}r+{}w q={} checksum={:016x}",
            o.id,
            o.algo,
            o.backend,
            o.predicted.reads,
            o.predicted.writes,
            o.measured.reads,
            o.measured.writes,
            o.q,
            o.checksum
        ),
        Response::Quoted {
            id,
            algo,
            predicted,
            q,
        } => format!(
            "quoted id={id} algo={algo} predicted={}r+{}w q={q}",
            predicted.reads, predicted.writes
        ),
        Response::Rejected {
            id,
            reason,
            q,
            remaining,
        } => format!("rejected id={id} reason={reason} q={q} remaining={remaining}"),
        Response::Queued { id, q } => format!("queued id={id} q={q}"),
        Response::Batch(rs) => {
            let mut s = "batch".to_string();
            for r in rs {
                s.push_str(&format!("\n  {}", render(r)));
            }
            s
        }
        Response::Stats {
            tenant,
            budget,
            spent,
            accepted,
            rejected,
            queued,
            quotes,
            reads,
            writes,
        } => format!(
            "stats tenant={tenant} budget={budget} spent={spent} accepted={accepted} \
             rejected={rejected} queued={queued} quotes={quotes} reads={reads} writes={writes}"
        ),
        Response::Metrics { .. } => "metrics".into(),
        Response::Bye => "bye".into(),
        Response::Error { message } => format!("error message={message}"),
    }
}

fn tenant_session(opts: &LoadOptions, tix: usize) -> Result<String, String> {
    let name = format!("t-{tix:03}");
    let mut rng = SplitMix64::seed_from_u64(
        opts.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tix as u64 + 1),
    );
    let mut stream = connect(&opts.addr)?;
    let mut out = format!("=== {name}\n");
    let say = |out: &mut String, stream: &mut TcpStream, req: &Request| {
        let resp = exchange(stream, req)?;
        out.push_str(&render(&resp));
        out.push('\n');
        Ok::<Response, String>(resp)
    };
    let budget = 5_000 + rng.next_below(45_000);
    say(
        &mut out,
        &mut stream,
        &Request::Hello {
            tenant: name.clone(),
            budget,
        },
    )?;
    let mut next_id = 1u64;
    let mut draws = 0usize;
    for _ in 0..opts.jobs {
        let roll = rng.next_f64();
        if roll < 0.10 {
            // Top-up: may drain parked jobs.
            let add = 2_000 + rng.next_below(20_000);
            say(
                &mut out,
                &mut stream,
                &Request::Hello {
                    tenant: name.clone(),
                    budget: add,
                },
            )?;
        } else if roll < 0.25 {
            let spec = draw_spec(&mut rng, next_id, draws);
            next_id += 1;
            draws += 1;
            say(&mut out, &mut stream, &Request::Quote(spec))?;
        } else if roll < 0.40 {
            let k = 2 + rng.next_below_usize(3);
            let batch: Vec<JobSpec> = (0..k)
                .map(|_| {
                    let s = draw_spec(&mut rng, next_id, draws);
                    next_id += 1;
                    draws += 1;
                    s
                })
                .collect();
            say(&mut out, &mut stream, &Request::Batch(batch))?;
        } else {
            let spec = draw_spec(&mut rng, next_id, draws);
            next_id += 1;
            draws += 1;
            say(&mut out, &mut stream, &Request::Job(spec))?;
        }
    }
    say(&mut out, &mut stream, &Request::Stats)?;
    Ok(out)
}

/// Drive the server with `opts.tenants` concurrent seeded tenants and
/// return the canonical report (tenant blocks in tenant order).
pub fn run_load(opts: &LoadOptions) -> Result<String, String> {
    // One worker per tenant, so every session runs concurrently.
    let run = |tix| tenant_session(opts, tix);
    let blocks = pool::scope(opts.tenants, run, |tenants| {
        let handles: Vec<_> = (0..opts.tenants).map(|tix| tenants.submit(tix)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.wait()
                    .0
                    .map_err(|p| format!("tenant thread panicked: {p}"))?
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(blocks.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_draws_cover_every_registered_kind() {
        // Per-tenant coverage is deterministic: the first |ALL| specs a
        // tenant draws hit every kind exactly once, in registry order.
        let mut rng = SplitMix64::seed_from_u64(9);
        let kinds: Vec<JobKind> = (0..JobKind::ALL.len())
            .map(|d| draw_spec(&mut rng, d as u64, d).kind)
            .collect();
        assert_eq!(kinds, JobKind::ALL.to_vec());
        // Deltas drawn for kinds that require one are always valid.
        for d in 0..32 {
            let s = draw_spec(&mut rng, d, usize::MAX);
            assert!(s.delta >= 1 && s.n >= 1);
        }
    }
}
