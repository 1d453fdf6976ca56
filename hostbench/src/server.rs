//! The `aemsim serve` child process and the closed-loop TCP clients.

use crate::inproc::{completed, failures, mismatches, omega_lookup, PassStats};
use crate::sequence::TenantPlan;
use crate::stats::Sample;
use aem_serve::protocol::{exchange, read_response, Request, Response};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Execution workers of the server: one per core of the 2-core host.
pub const WORKERS: usize = 2;

/// A running server; dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    addr: String,
    addr_file: PathBuf,
}

impl Server {
    /// Start `aemsim serve` with [`WORKERS`] workers on a free local port
    /// and wait until it listens.
    pub fn boot(aemsim: &Path, out_dir: &Path, tag: &str) -> Result<Server, String> {
        let addr_file = out_dir.join(format!("addr-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(aemsim)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--addr-file",
            ])
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", aemsim.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            addr_file,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&server.addr_file) {
                if let Some(line) = text.strip_suffix('\n') {
                    server.addr = line.trim().to_string();
                    return Ok(server);
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("aemsim serve exited during boot: {status}"));
            }
            if Instant::now() > deadline {
                return Err("aemsim serve did not report its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(s)
    }

    /// Ask the server to drain and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self
            .connect()
            .and_then(|mut s| exchange(&mut s, &Request::Shutdown));
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("aemsim serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("aemsim serve did not drain within 20 s".into());
                }
            }
        }
        let _ = std::fs::remove_file(&self.addr_file);
        match bye {
            Ok(Response::Bye) => Ok(()),
            Ok(other) => Err(format!("shutdown answered {other:?}")),
            Err(e) => Err(format!("shutdown: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_file(&self.addr_file);
    }
}

/// One tenant's script: its pass as frames and the response each frame
/// must get.
pub struct Script<'a> {
    pub plan: &'a TenantPlan,
    pub frames: &'a [Vec<u8>],
    pub want: &'a [Response],
}

/// One tenant's observations of one pass, checked as they arrive so that
/// a long run keeps no responses.
#[derive(Debug, Default)]
pub struct PassLog {
    /// One sample per response, timed from the phase start.
    pub samples: Vec<Sample>,
    /// Operations that failed or whose response differed from the
    /// expected one.
    pub failed: u64,
    /// The pass's totals as its responses report them.
    pub stats: PassStats,
}

/// One tenant's connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect and send the tenant's set-up hello.
    pub fn open(server: &Server, plan: &TenantPlan) -> Result<Client, String> {
        let mut stream = server.connect()?;
        match exchange(&mut stream, &plan.hello())? {
            Response::HelloOk { .. } => Ok(Client { stream }),
            other => Err(format!("hello answered {other:?}")),
        }
    }

    /// Send one pass of pre-encoded frames in a closed loop.
    pub fn pass(&mut self, script: &Script) -> Result<PassLog, String> {
        let omega = omega_lookup(script.plan);
        let mut log = PassLog {
            samples: Vec::with_capacity(script.frames.len()),
            ..PassLog::default()
        };
        for (f, want) in script.frames.iter().zip(script.want) {
            let t = Instant::now();
            self.stream
                .write_all(f)
                .map_err(|e| format!("write: {e}"))?;
            let r = read_response(&mut self.stream)?;
            let done = Instant::now();
            let (jobs, ios) = completed(&r);
            log.samples.push(Sample {
                rtt_ms: done.duration_since(t).as_secs_f64() * 1e3,
                jobs,
                ios,
            });
            log.failed += mismatches(&r, want).max(failures(&r));
            log.stats.add_response(&r, &omega);
        }
        Ok(log)
    }

    /// The server's Prometheus exposition.
    pub fn metrics(&mut self) -> Result<String, String> {
        match exchange(&mut self.stream, &Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(format!("metrics answered {other:?}")),
        }
    }
}

/// Run `passes` passes on every client concurrently. Returns each
/// tenant's pass logs and the wall time until the last client finished.
pub fn concurrent_passes(
    clients: &mut [Client],
    scripts: &[Script],
    passes: usize,
) -> Result<(Vec<Vec<PassLog>>, Duration), String> {
    let barrier = Barrier::new(clients.len());
    let t0 = Instant::now();
    let logs: Vec<Result<Vec<PassLog>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .map(|(c, script)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (0..passes)
                        .map(|_| c.pass(script))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = t0.elapsed();
    Ok((logs.into_iter().collect::<Result<_, _>>()?, elapsed))
}

/// Sum a counter of the serve exposition over tenants.
pub fn prom_sum(text: &str, metric: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(metric) && l[metric.len()..].starts_with('{'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sum_adds_tenant_samples_of_one_metric() {
        let text = "# HELP aem_serve_replays_total x\n\
                    aem_serve_replays_total{tenant=\"t0\"} 5\n\
                    aem_serve_replays_total{tenant=\"t1\"} 7\n\
                    aem_serve_replays_totalx{tenant=\"t1\"} 100\n";
        assert_eq!(prom_sum(text, "aem_serve_replays_total"), 12);
    }
}
