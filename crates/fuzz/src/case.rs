//! A fuzz case: one fully-specified `(M, B, ω, n, workload)` point.
//!
//! A [`FuzzCase`] is everything needed to reproduce one differential
//! check byte-for-byte: the machine parameters, the input size, the seed
//! and shape of the generated workload, and (for SpMxV) the row density.
//! Cases serialize to single-line JSON seed files — the format of
//! `crates/fuzz/corpus/` and of the repro file the runner writes when a
//! check fails — and render to a one-line `aemsim fuzz` replay command.

use aem_machine::{AemConfig, MachineError};
use aem_obs::json::{self, Field, Json, Table};
use aem_obs::json_table;
use aem_workloads::KeyDist;

/// Key-distribution shape of a case, biased toward the degenerate corner
/// the paper cares about: duplicate-heavy inputs (`FewDistinct` with a
/// tiny alphabet stresses tie handling in every comparison sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// Uniform random 64-bit keys.
    Uniform,
    /// Already sorted (best case / adversarial for balance).
    Sorted,
    /// Reverse sorted.
    Reversed,
    /// Duplicate-heavy: keys drawn from an alphabet of this size.
    FewDistinct(u64),
    /// Ascending then descending.
    OrganPipe,
}

impl DistKind {
    /// The stable name used in seed files and replay commands.
    pub fn name(self) -> &'static str {
        match self {
            DistKind::Uniform => "uniform",
            DistKind::Sorted => "sorted",
            DistKind::Reversed => "reversed",
            DistKind::FewDistinct(_) => "few_distinct",
            DistKind::OrganPipe => "organ_pipe",
        }
    }

    /// Alphabet size for duplicate-heavy shapes (1 otherwise).
    pub fn distinct(self) -> u64 {
        match self {
            DistKind::FewDistinct(d) => d,
            _ => 1,
        }
    }

    /// Parse a `(name, distinct)` pair back into a shape.
    pub fn from_name(name: &str, distinct: u64) -> Result<Self, String> {
        Ok(match name {
            "uniform" => DistKind::Uniform,
            "sorted" => DistKind::Sorted,
            "reversed" => DistKind::Reversed,
            "few_distinct" => DistKind::FewDistinct(distinct.max(1)),
            "organ_pipe" => DistKind::OrganPipe,
            other => return Err(format!("unknown dist '{other}'")),
        })
    }

    /// The corresponding workload generator.
    pub fn key_dist(self, seed: u64) -> KeyDist {
        match self {
            DistKind::Uniform => KeyDist::Uniform { seed },
            DistKind::Sorted => KeyDist::Sorted,
            DistKind::Reversed => KeyDist::Reversed,
            DistKind::FewDistinct(distinct) => KeyDist::FewDistinct { distinct, seed },
            DistKind::OrganPipe => KeyDist::OrganPipe,
        }
    }
}

json_table! {
    /// How a seed file spells a [`DistKind`]: its name and alphabet size.
    struct DistFields {
        dist: String = ("uniform".to_string()),
        distinct: u64 = 1,
    }
}

impl Table for DistKind {
    fn write_fields(&self, out: &mut Vec<(String, Json)>) {
        let (dist, distinct) = (self.name().to_string(), self.distinct());
        DistFields { dist, distinct }.write_fields(out);
    }

    fn read_fields(j: &Json) -> Result<Self, String> {
        let DistFields { dist, distinct } = DistFields::read_fields(j)?;
        DistKind::from_name(&dist, distinct)
    }
}

json_table! {
    /// One sampled configuration-and-workload point.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FuzzCase {
        /// Internal memory `M` in elements.
        pub mem: usize,
        /// Block size `B` in elements.
        pub block: usize,
        /// Write/read cost ratio `ω`.
        pub omega: u64,
        /// Input size `n` in elements.
        pub n: usize,
        /// Seed of the generated workload (keys, permutation, matrix).
        pub case_seed: u64,
        /// Key-distribution shape (sort targets).
        pub dist: DistKind = flat,
        /// Row density `δ` (SpMxV targets).
        pub delta: usize = 4,
    }
}

json_table! {
    /// A seed file: the target to check, then the case.
    struct SeedFile {
        target: String,
        case: FuzzCase = flat,
    }
}

impl FuzzCase {
    /// The validated machine configuration of this case.
    pub fn cfg(&self) -> Result<AemConfig, MachineError> {
        AemConfig::new(self.mem, self.block, self.omega)
    }

    /// Generated sort keys for this case.
    pub fn keys(&self) -> Vec<u64> {
        self.dist.key_dist(self.case_seed).generate(self.n)
    }

    /// `true` when the case sits in a corner the paper's theorems must
    /// survive: `ω ≥ B`, single-element blocks, minimal memory, or a
    /// non-block-aligned input.
    pub fn is_degenerate(&self) -> bool {
        self.omega >= self.block as u64
            || self.block == 1
            || self.mem <= 2 * self.block + 1
            || (self.block > 0 && self.n % self.block != 0)
    }

    /// Single-line JSON seed-file form (the corpus / repro format).
    pub fn to_json(&self, target: &str) -> String {
        let (target, case) = (target.to_string(), self.clone());
        SeedFile { target, case }.to_json().to_string_compact()
    }

    /// Parse a seed file produced by [`FuzzCase::to_json`]; returns the
    /// target name alongside the case.
    pub fn from_json(text: &str) -> Result<(String, FuzzCase), String> {
        let v = json::parse(text).map_err(|e| format!("seed file is not JSON: {e}"))?;
        let seed = SeedFile::from_json(&v).map_err(|e| format!("seed file: {e}"))?;
        Ok((seed.target, seed.case))
    }

    /// The one-line `aemsim` command that replays exactly this case.
    pub fn replay_command(&self, target: &str) -> String {
        format!(
            "cargo run -p aem-cli -- fuzz --target {target} --mem {} --block {} --omega {} \
             --n {} --case-seed {} --dist {} --distinct {} --delta {}",
            self.mem,
            self.block,
            self.omega,
            self.n,
            self.case_seed,
            self.dist.name(),
            self.dist.distinct(),
            self.delta,
        )
    }
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(M={}, B={}, ω={}) n={} seed={} dist={}/{} δ={}",
            self.mem,
            self.block,
            self.omega,
            self.n,
            self.case_seed,
            self.dist.name(),
            self.dist.distinct(),
            self.delta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> FuzzCase {
        FuzzCase {
            mem: 4,
            block: 2,
            omega: 32,
            n: 37,
            case_seed: 99,
            dist: DistKind::FewDistinct(2),
            delta: 3,
        }
    }

    #[test]
    fn json_round_trip() {
        let c = case();
        let text = c.to_json("merge_sort");
        let (target, back) = FuzzCase::from_json(&text).unwrap();
        assert_eq!(target, "merge_sort");
        assert_eq!(back, c);
    }

    #[test]
    fn rejects_malformed_seed_files() {
        assert!(FuzzCase::from_json("not json").is_err());
        assert!(FuzzCase::from_json("{\"target\":\"x\"}").is_err());
        assert!(FuzzCase::from_json(
            "{\"target\":\"x\",\"mem\":4,\"block\":2,\"omega\":1,\"n\":1,\
                 \"case_seed\":0,\"dist\":\"bogus\",\"distinct\":1,\"delta\":1}"
        )
        .is_err());
    }

    #[test]
    fn degenerate_detection() {
        assert!(case().is_degenerate()); // ω = 32 ≥ B = 2 and n % B ≠ 0
        let tame = FuzzCase {
            mem: 64,
            block: 8,
            omega: 2,
            n: 64,
            case_seed: 1,
            dist: DistKind::Uniform,
            delta: 4,
        };
        assert!(!tame.is_degenerate());
    }

    #[test]
    fn replay_command_mentions_every_field() {
        let cmd = case().replay_command("merge_sort");
        for needle in [
            "--target merge_sort",
            "--mem 4",
            "--block 2",
            "--omega 32",
            "--n 37",
            "--case-seed 99",
            "--dist few_distinct",
            "--distinct 2",
            "--delta 3",
        ] {
            assert!(cmd.contains(needle), "missing {needle} in {cmd}");
        }
    }

    #[test]
    fn keys_are_deterministic_and_duplicate_heavy() {
        let c = case();
        assert_eq!(c.keys(), c.keys());
        let distinct: std::collections::HashSet<u64> = c.keys().into_iter().collect();
        assert!(distinct.len() <= 2);
    }
}
