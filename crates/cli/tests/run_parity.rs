//! Parity of `aemsim run --input` with the per-kind commands it replaced.
//!
//! Each row is the `(Q_r, Q_w)` that `aemsim sort|pq --dist`,
//! `aemsim permute --kind` and `aemsim spmv --shape` printed for one
//! (kind, algo, input) at seed 1 and ω = 16, recorded before those
//! commands were folded into `run`. `run` must reproduce every row.

use std::process::Command;

/// (kind, algo, input, M, B, n, delta, Q_r, Q_w)
type Row = (
    &'static str,
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    u64,
    u64,
);

const ROWS: &[Row] = &[
    ("sort", "aem", "uniform", 64, 8, 4096, 0, 8564, 1153),
    ("sort", "em", "uniform", 64, 8, 4096, 0, 2040, 2040),
    ("sort", "dist", "uniform", 64, 8, 4096, 0, 4540, 3916),
    ("sort", "pq", "uniform", 64, 8, 4096, 0, 14331, 7167),
    ("pq", "pq", "uniform", 64, 8, 4096, 0, 14331, 7167),
    ("sort", "aem", "sorted", 64, 8, 4096, 0, 7608, 1153),
    ("sort", "em", "sorted", 64, 8, 4096, 0, 2040, 2040),
    ("sort", "dist", "sorted", 64, 8, 4096, 0, 4241, 3626),
    ("sort", "pq", "sorted", 64, 8, 4096, 0, 13883, 7167),
    ("pq", "pq", "sorted", 64, 8, 4096, 0, 13883, 7167),
    ("sort", "aem", "reversed", 64, 8, 4096, 0, 7608, 1153),
    ("sort", "em", "reversed", 64, 8, 4096, 0, 2040, 2040),
    ("sort", "dist", "reversed", 64, 8, 4096, 0, 4337, 3710),
    ("sort", "pq", "reversed", 64, 8, 4096, 0, 13883, 7167),
    ("pq", "pq", "reversed", 64, 8, 4096, 0, 13883, 7167),
    ("sort", "aem", "few-distinct", 64, 8, 4096, 0, 8780, 1153),
    ("sort", "em", "few-distinct", 64, 8, 4096, 0, 2040, 2040),
    ("sort", "dist", "few-distinct", 64, 8, 4096, 0, 4811, 4259),
    ("sort", "pq", "few-distinct", 64, 8, 4096, 0, 14535, 7167),
    ("pq", "pq", "few-distinct", 64, 8, 4096, 0, 14535, 7167),
    ("sort", "aem", "organ-pipe", 64, 8, 4096, 0, 7672, 1153),
    ("sort", "em", "organ-pipe", 64, 8, 4096, 0, 2040, 2040),
    ("sort", "dist", "organ-pipe", 64, 8, 4096, 0, 4265, 3650),
    ("sort", "pq", "organ-pipe", 64, 8, 4096, 0, 13947, 7167),
    ("pq", "pq", "organ-pipe", 64, 8, 4096, 0, 13947, 7167),
    ("permute", "naive", "random", 64, 8, 4096, 0, 4086, 512),
    ("permute", "by-sort", "random", 64, 8, 4096, 0, 8564, 1153),
    ("permute", "naive", "identity", 64, 8, 4096, 0, 512, 512),
    ("permute", "by-sort", "identity", 64, 8, 4096, 0, 7608, 1153),
    ("permute", "naive", "reverse", 64, 8, 4096, 0, 512, 512),
    ("permute", "by-sort", "reverse", 64, 8, 4096, 0, 7608, 1153),
    (
        "permute",
        "naive",
        "bit-reversal",
        64,
        8,
        4096,
        0,
        4096,
        512,
    ),
    (
        "permute",
        "by-sort",
        "bit-reversal",
        64,
        8,
        4096,
        0,
        8560,
        1089,
    ),
    ("permute", "naive", "transpose", 64, 8, 4096, 0, 4096, 512),
    (
        "permute",
        "by-sort",
        "transpose",
        64,
        8,
        4096,
        0,
        8548,
        1153,
    ),
    ("spmv", "direct", "random", 64, 8, 1024, 4, 8141, 128),
    ("spmv", "sorted", "random", 64, 8, 1024, 4, 7798, 1922),
    ("spmv", "direct", "banded", 64, 8, 1024, 4, 6564, 128),
    ("spmv", "sorted", "banded", 64, 8, 1024, 4, 7744, 1922),
    (
        "spmv",
        "direct",
        "block-diagonal",
        64,
        8,
        1024,
        4,
        3162,
        128,
    ),
    (
        "spmv",
        "sorted",
        "block-diagonal",
        64,
        8,
        1024,
        4,
        7736,
        1924,
    ),
    ("sort", "aem", "uniform", 1024, 64, 4096, 0, 320, 64),
    ("sort", "em", "uniform", 1024, 64, 4096, 0, 128, 128),
    ("sort", "dist", "uniform", 1024, 64, 4096, 0, 262, 206),
    ("sort", "pq", "uniform", 1024, 64, 4096, 0, 715, 478),
    ("pq", "pq", "uniform", 1024, 64, 4096, 0, 715, 478),
    ("sort", "aem", "sorted", 1024, 64, 4096, 0, 320, 64),
    ("sort", "em", "sorted", 1024, 64, 4096, 0, 128, 128),
    ("sort", "dist", "sorted", 1024, 64, 4096, 0, 260, 204),
    ("sort", "pq", "sorted", 1024, 64, 4096, 0, 703, 478),
    ("pq", "pq", "sorted", 1024, 64, 4096, 0, 703, 478),
    ("sort", "aem", "reversed", 1024, 64, 4096, 0, 320, 64),
    ("sort", "em", "reversed", 1024, 64, 4096, 0, 128, 128),
    ("sort", "dist", "reversed", 1024, 64, 4096, 0, 260, 204),
    ("sort", "pq", "reversed", 1024, 64, 4096, 0, 703, 478),
    ("pq", "pq", "reversed", 1024, 64, 4096, 0, 703, 478),
    ("sort", "aem", "few-distinct", 1024, 64, 4096, 0, 320, 64),
    ("sort", "em", "few-distinct", 1024, 64, 4096, 0, 128, 128),
    ("sort", "dist", "few-distinct", 1024, 64, 4096, 0, 262, 206),
    ("sort", "pq", "few-distinct", 1024, 64, 4096, 0, 715, 478),
    ("pq", "pq", "few-distinct", 1024, 64, 4096, 0, 715, 478),
    ("sort", "aem", "organ-pipe", 1024, 64, 4096, 0, 320, 64),
    ("sort", "em", "organ-pipe", 1024, 64, 4096, 0, 128, 128),
    ("sort", "dist", "organ-pipe", 1024, 64, 4096, 0, 260, 204),
    ("sort", "pq", "organ-pipe", 1024, 64, 4096, 0, 707, 478),
    ("pq", "pq", "organ-pipe", 1024, 64, 4096, 0, 707, 478),
    ("permute", "naive", "random", 1024, 64, 4096, 0, 4029, 64),
    ("permute", "by-sort", "random", 1024, 64, 4096, 0, 320, 64),
    ("permute", "naive", "identity", 1024, 64, 4096, 0, 64, 64),
    ("permute", "by-sort", "identity", 1024, 64, 4096, 0, 320, 64),
    ("permute", "naive", "reverse", 1024, 64, 4096, 0, 64, 64),
    ("permute", "by-sort", "reverse", 1024, 64, 4096, 0, 320, 64),
    (
        "permute",
        "naive",
        "bit-reversal",
        1024,
        64,
        4096,
        0,
        4096,
        64,
    ),
    (
        "permute",
        "by-sort",
        "bit-reversal",
        1024,
        64,
        4096,
        0,
        320,
        64,
    ),
    ("permute", "naive", "transpose", 1024, 64, 4096, 0, 4096, 64),
    (
        "permute",
        "by-sort",
        "transpose",
        1024,
        64,
        4096,
        0,
        320,
        64,
    ),
    ("spmv", "direct", "random", 1024, 64, 1024, 4, 7586, 16),
    ("spmv", "sorted", "random", 1024, 64, 1024, 4, 288, 160),
    ("spmv", "direct", "banded", 1024, 64, 1024, 4, 2519, 16),
    ("spmv", "sorted", "banded", 1024, 64, 1024, 4, 288, 160),
    (
        "spmv",
        "direct",
        "block-diagonal",
        1024,
        64,
        1024,
        4,
        80,
        16,
    ),
    (
        "spmv",
        "sorted",
        "block-diagonal",
        1024,
        64,
        1024,
        4,
        288,
        160,
    ),
];

/// The `(reads, writes)` of the `measured` line of a `run` report.
fn measured(report: &str) -> (u64, u64) {
    let line = report
        .lines()
        .find(|l| l.starts_with("measured"))
        .unwrap_or_else(|| panic!("no measured line in:\n{report}"));
    let nums: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    (nums[0], nums[1])
}

#[test]
fn run_reproduces_every_recorded_row_of_the_folded_commands() {
    assert_eq!(ROWS.len(), 82);
    for &(kind, algo, input, mem, block, n, delta, reads, writes) in ROWS {
        let args = format!(
            "run {kind} --algo {algo} --input {input} --n {n} --delta {delta} \
             --mem {mem} --block {block} --omega 16 --seed 1"
        );
        let out = Command::new(env!("CARGO_BIN_EXE_aemsim"))
            .args(args.split_whitespace())
            .output()
            .expect("aemsim runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "`{args}`: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(measured(&stdout), (reads, writes), "`{args}`");
    }
}
