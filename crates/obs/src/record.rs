//! The serializable run record and its JSONL wire format.
//!
//! A [`RunRecord`] captures everything one instrumented algorithm execution
//! produced: machine configuration, workload identity, the full I/O trace
//! with per-event internal-memory occupancy, the phase tree and the metrics
//! registry. It serializes to JSON Lines — one self-describing JSON object
//! per line, discriminated by a `"t"` field — so records can be streamed,
//! grepped and diffed without a JSON library on the consuming side:
//!
//! ```text
//! {"t":"meta","version":1,"memory":64,"block":8,"omega":16,"kind":"sort",...}
//! {"t":"ev","op":"r","blk":0,"len":8,"aux":false,"iu":8}
//! {"t":"phase","id":0,"parent":null,"name":"base-runs","reads":12,...}
//! {"t":"ctr","name":"io.reads","value":42}
//! {"t":"gauge","name":"mem.internal_used","value":0,"high_water":64}
//! {"t":"hist","name":"block.occupancy.read","bounds":[2,4,6,8],...}
//! ```

use aem_machine::{AemConfig, BlockId, IoEvent, Trace};

use crate::error::ObsError;
use crate::json::parse;
use crate::metrics::{Gauge, Histogram, Metrics};
use crate::phase::PhaseNode;

/// Version of the JSONL format; bumped on incompatible changes.
pub const FORMAT_VERSION: u64 = 1;

crate::json_table! {
    /// Identity of the workload an instrumented run executed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkloadMeta {
        /// Workload family: `"sort"`, `"permute"`, `"spmv"`, ….
        pub kind: String,
        /// Algorithm within the family: `"aem"`, `"em"`, `"by_sort"`, ….
        pub algo: String,
        /// Problem size (elements, or rows for SpMxV).
        pub n: u64,
        /// Row density δ for SpMxV; `0` when not applicable.
        pub delta: u64,
    }
}

impl WorkloadMeta {
    /// A workload without a δ parameter.
    pub fn new(kind: &str, algo: &str, n: u64) -> Self {
        Self {
            kind: kind.to_string(),
            algo: algo.to_string(),
            n,
            delta: 0,
        }
    }

    /// A workload with a δ parameter (SpMxV).
    pub fn with_delta(kind: &str, algo: &str, n: u64, delta: u64) -> Self {
        Self {
            delta,
            ..Self::new(kind, algo, n)
        }
    }
}

/// Everything one instrumented run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Machine configuration the run used.
    pub config: AemConfig,
    /// What was executed.
    pub workload: WorkloadMeta,
    /// The recorded I/O program.
    pub trace: Trace,
    /// Internal-memory occupancy (elements) after each event;
    /// `occupancy[i]` corresponds to `trace.events()[i]`.
    pub occupancy: Vec<u64>,
    /// Internal-memory occupancy when the run finished (should be `0` for a
    /// well-behaved algorithm — Lemma 4.1's round conversion assumes it).
    pub final_internal_used: u64,
    /// The phase tree, parents before children.
    pub phases: Vec<PhaseNode>,
    /// Counters, gauges and histograms.
    pub metrics: Metrics,
}

impl RunRecord {
    /// Total cost of the recorded program in the `Q = Q_r + ω·Q_w` metric.
    pub fn q(&self) -> u64 {
        self.trace.cost().q(self.config.omega)
    }

    /// Serialize to JSON Lines (one object per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut put = |line: Line| {
            out.push_str(&line.to_json().to_string_compact());
            out.push('\n');
        };
        put(Line::Meta(Meta {
            version: FORMAT_VERSION,
            memory: self.config.memory,
            block: self.config.block,
            omega: self.config.omega,
            workload: self.workload.clone(),
            final_iu: self.final_internal_used,
        }));
        for (i, ev) in self.trace.events().iter().enumerate() {
            let (IoEvent::Read { block, len, aux } | IoEvent::Write { block, len, aux }) = *ev;
            put(Line::Ev {
                write: ev.is_write(),
                blk: block.index(),
                len,
                aux,
                iu: self.occupancy.get(i).copied().unwrap_or(0),
            });
        }
        for (id, node) in self.phases.iter().cloned().enumerate() {
            put(Line::Phase {
                id: id as u64,
                node,
            });
        }
        for (name, value) in self.metrics.counters() {
            put(Line::Ctr {
                name: name.into(),
                value,
            });
        }
        for (name, gauge) in self.metrics.gauges() {
            put(Line::Gauge {
                name: name.into(),
                gauge,
            });
        }
        for (name, hist) in self.metrics.histograms() {
            put(Line::Hist {
                name: name.into(),
                hist: hist.clone(),
            });
        }
        out
    }

    /// Parse a record back from its JSONL form.
    pub fn from_jsonl(text: &str) -> Result<Self, ObsError> {
        let mut meta: Option<(AemConfig, WorkloadMeta, u64)> = None;
        let mut trace = Trace::new();
        let mut occupancy = Vec::new();
        let mut phases: Vec<(u64, PhaseNode)> = Vec::new();
        let mut metrics = Metrics::new();

        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match Line::from_json(&parse(line)?).map_err(ObsError::Format)? {
                Line::Meta(m) => {
                    if m.version != FORMAT_VERSION {
                        return Err(ObsError::Format(format!(
                            "unsupported format version {} (expected {FORMAT_VERSION})",
                            m.version
                        )));
                    }
                    let cfg = AemConfig::new(m.memory, m.block, m.omega)
                        .map_err(|e| ObsError::Format(format!("invalid config in meta: {e}")))?;
                    meta = Some((cfg, m.workload, m.final_iu));
                }
                Line::Ev {
                    write,
                    blk,
                    len,
                    aux,
                    iu,
                } => {
                    let block = BlockId(blk);
                    trace.push(if write {
                        IoEvent::Write { block, len, aux }
                    } else {
                        IoEvent::Read { block, len, aux }
                    });
                    occupancy.push(iu);
                }
                Line::Phase { id, node } => phases.push((id, node)),
                Line::Ctr { name, value } => metrics.add(&name, value),
                Line::Gauge { name, gauge } => metrics.insert_gauge(&name, gauge),
                Line::Hist { name, hist } => {
                    if hist.counts.len() != hist.bounds.len() + 1 {
                        return Err(ObsError::Format(format!(
                            "histogram {name:?}: {} counts for {} bounds",
                            hist.counts.len(),
                            hist.bounds.len()
                        )));
                    }
                    metrics.insert_histogram(&name, hist);
                }
            }
        }

        let (config, workload, final_internal_used) =
            meta.ok_or_else(|| ObsError::Format("no meta line in record".into()))?;
        phases.sort_by_key(|(id, _)| *id);
        for (want, (id, _)) in phases.iter().enumerate() {
            if *id != want as u64 {
                return Err(ObsError::Format(format!(
                    "phase ids are not contiguous: expected {want}, found {id}"
                )));
            }
        }
        Ok(Self {
            config,
            workload,
            trace,
            occupancy,
            final_internal_used,
            phases: phases.into_iter().map(|(_, p)| p).collect(),
            metrics,
        })
    }
}

crate::json_table! {
    /// Whether a block transfer read or wrote, as the `op` field spells it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Op: "op" {
        /// A block read.
        Read = "r",
        /// A block write.
        Write = "w",
    }
}

impl From<bool> for Op {
    fn from(write: bool) -> Self {
        [Op::Read, Op::Write][write as usize]
    }
}

impl From<Op> for bool {
    fn from(op: Op) -> Self {
        op == Op::Write
    }
}

crate::json_table! {
    /// The `meta` line's fields.
    struct Meta {
        version: u64,
        memory: usize,
        block: usize,
        omega: u64,
        workload: WorkloadMeta = flat,
        final_iu: u64,
    }
}

crate::json_table! {
    /// One JSONL line, discriminated by `t`.
    enum Line: "t" {
        Meta = "meta" (Meta = flat),
        Ev = "ev" { write: bool = (via Op), blk: usize, len: usize, aux: bool, iu: u64 },
        Phase = "phase" { id: u64, node: PhaseNode = flat },
        Ctr = "ctr" { name: String, value: u64 },
        Gauge = "gauge" { name: String, gauge: Gauge = flat },
        Hist = "hist" { name: String, hist: Histogram = flat },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::Cost;

    fn sample_record() -> RunRecord {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let mut trace = Trace::new();
        trace.push(IoEvent::Read {
            block: BlockId(0),
            len: 4,
            aux: false,
        });
        trace.push(IoEvent::Write {
            block: BlockId(1),
            len: 4,
            aux: true,
        });
        let mut metrics = Metrics::new();
        metrics.add("io.reads", 1);
        metrics.gauge_set("mem.internal_used", 4);
        metrics.gauge_set("mem.internal_used", 0);
        metrics.histogram_with_bounds("block.occupancy.read", vec![1, 2, 4]);
        metrics.observe("block.occupancy.read", 4);
        RunRecord {
            config: cfg,
            workload: WorkloadMeta::with_delta("spmv", "sorted", 64, 3),
            trace,
            occupancy: vec![4, 0],
            final_internal_used: 0,
            phases: vec![
                PhaseNode {
                    name: "outer".into(),
                    parent: None,
                    cost: Cost::new(1, 1),
                    volume: 8,
                    aux_reads: 0,
                    aux_writes: 1,
                    events: 2,
                    high_water: 4,
                },
                PhaseNode {
                    name: "inner".into(),
                    parent: Some(0),
                    cost: Cost::new(0, 1),
                    volume: 4,
                    aux_reads: 0,
                    aux_writes: 1,
                    events: 1,
                    high_water: 4,
                },
            ],
            metrics,
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let rec = sample_record();
        let text = rec.to_jsonl();
        let back = RunRecord::from_jsonl(&text).unwrap();
        assert_eq!(back, rec);
        // And serialization is deterministic.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn q_uses_omega() {
        let rec = sample_record();
        assert_eq!(rec.q(), 1 + 8);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let rec = sample_record();
        let text = format!("\n{}\n\n", rec.to_jsonl());
        assert_eq!(RunRecord::from_jsonl(&text).unwrap(), rec);
    }

    #[test]
    fn missing_meta_is_an_error() {
        let err = RunRecord::from_jsonl("").unwrap_err();
        assert!(matches!(err, ObsError::Format(_)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = sample_record()
            .to_jsonl()
            .replace("\"version\":1", "\"version\":99");
        assert!(RunRecord::from_jsonl(&text).is_err());
    }

    #[test]
    fn unknown_record_type_is_rejected() {
        let mut text = sample_record().to_jsonl();
        text.push_str("{\"t\":\"mystery\"}\n");
        assert!(RunRecord::from_jsonl(&text).is_err());
    }

    #[test]
    fn malformed_fields_are_rejected() {
        for bad in [
            "{\"t\":\"ev\",\"op\":\"x\",\"blk\":0,\"len\":0,\"aux\":false,\"iu\":0}",
            "{\"t\":\"ev\",\"op\":\"r\",\"len\":0,\"aux\":false,\"iu\":0}",
            "{\"t\":\"hist\",\"name\":\"h\",\"bounds\":[1],\"counts\":[1],\"count\":1,\"sum\":1,\"max\":1}",
        ] {
            let text = format!("{}{bad}\n", sample_record().to_jsonl());
            assert!(RunRecord::from_jsonl(&text).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn phase_lines_may_arrive_out_of_order() {
        let rec = sample_record();
        let text = rec.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        // Swap the two phase lines.
        let phase_idx: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"t\":\"phase\""))
            .map(|(i, _)| i)
            .collect();
        lines.swap(phase_idx[0], phase_idx[1]);
        let back = RunRecord::from_jsonl(&lines.join("\n")).unwrap();
        assert_eq!(back, rec);
    }
}
