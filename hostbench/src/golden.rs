//! Pinned simulated statistics: exact per-pass totals per workload, kept
//! in `expected.json` beside the benchmark.
//!
//! The seed only reorders a pass, and none of these totals depends on the
//! order, so one row per workload covers every seed. Host time may change
//! between commits; these may not. A run fails when its totals differ
//! from the pinned row, or when its workload has none, so a change meant
//! only to speed up the simulator cannot silently alter the model.
//! Regenerate the file only for a change that is meant to alter the model:
//! `hostbench --write-expected hostbench/expected.json`.

use aem_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One pass's exact simulated statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub reads: u64,
    pub writes: u64,
    pub accepted: u64,
    pub queued: u64,
    pub drained: u64,
    pub rejected: u64,
    pub replays: u64,
}

const FIELDS: [&str; 7] = [
    "reads", "writes", "accepted", "queued", "drained", "rejected", "replays",
];

impl Totals {
    fn values(&self) -> [u64; 7] {
        [
            self.reads,
            self.writes,
            self.accepted,
            self.queued,
            self.drained,
            self.rejected,
            self.replays,
        ]
    }

    fn from_json(j: &Json) -> Option<Totals> {
        let v = |k: &str| j.get(k).and_then(Json::as_u64);
        Some(Totals {
            reads: v("reads")?,
            writes: v("writes")?,
            accepted: v("accepted")?,
            queued: v("queued")?,
            drained: v("drained")?,
            rejected: v("rejected")?,
            replays: v("replays")?,
        })
    }

    fn render(&self) -> String {
        let body: Vec<String> = FIELDS
            .iter()
            .zip(self.values())
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

impl std::fmt::Display for Totals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// `workload → totals`.
pub type Pinned = BTreeMap<String, Totals>;

pub fn load(path: &Path) -> Result<Pinned, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn from_text(text: &str) -> Result<Pinned, String> {
    let Json::Obj(workloads) = parse(text).map_err(|e| e.to_string())? else {
        return Err("not an object".into());
    };
    workloads
        .into_iter()
        .map(|(w, t)| {
            let t = Totals::from_json(&t).ok_or_else(|| format!("bad totals for {w}"))?;
            Ok((w, t))
        })
        .collect()
}

pub fn render(p: &Pinned) -> String {
    let rows: Vec<String> = p.iter().map(|(w, t)| format!("  \"{w}\": {t}")).collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Compare `got` with the pinned totals of `workload`: `Err` on drift or
/// when the workload has no pinned row.
pub fn check(p: &Pinned, workload: &str, got: &Totals) -> Result<(), String> {
    match p.get(workload) {
        None => Err(format!("no pinned simulated statistics for {workload}")),
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "simulated statistics drifted for {workload}: pinned {want}, measured {got}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_file_round_trips_and_flags_drift() {
        let mut p = Pinned::new();
        let t = Totals {
            reads: 10,
            writes: 2,
            accepted: 3,
            ..Totals::default()
        };
        p.insert("sim-large".into(), t);
        let back = from_text(&render(&p)).unwrap();
        assert_eq!(back, p);
        assert_eq!(check(&back, "sim-large", &t), Ok(()));
        assert!(check(&back, "serve-priced", &t).is_err());
        let drifted = Totals { reads: 11, ..t };
        assert!(check(&back, "sim-large", &drifted).is_err());
    }

    #[test]
    fn committed_file_parses() {
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json"));
        let p = load(path).unwrap();
        let names: Vec<&str> = p.keys().map(String::as_str).collect();
        assert_eq!(names, ["serve-payload", "serve-priced", "sim-large"]);
    }

    #[test]
    fn one_pinned_row_covers_every_seed() {
        use crate::sequence::Serving;
        use crate::serving::pinned_totals;
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json"));
        let want = load(path).unwrap()["serve-priced"];
        for seed in [0, 3, 1 << 40] {
            assert_eq!(pinned_totals(Serving::Priced, seed), want, "seed {seed}");
        }
    }
}
