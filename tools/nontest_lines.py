#!/usr/bin/env python3
"""Count non-test source lines under crates/*/src.

A file's non-test lines are the lines before the `#[cfg(test)]` that opens
its test module: the first `#[cfg(test)]` whose next line declares a
`mod`. A `#[cfg(test)]` on a single `use`, `const`, `impl` or statement
does not end the count. A file with no test module counts in full.

Usage: python3 tools/nontest_lines.py [ROOT]

ROOT defaults to the repository that holds this script. The output is one
`lines path` row per file, largest first, then the total.
"""

import pathlib
import re
import sys

TEST_MOD = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{")


def nontest_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[:-1]):
        if line.strip() == "#[cfg(test)]" and TEST_MOD.match(lines[i + 1]):
            return i
    return len(lines)


def main(argv):
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parent.parent
    counts = sorted(
        ((nontest_lines(p), p.relative_to(root)) for p in root.glob("crates/*/src/**/*.rs")),
        key=lambda c: (-c[0], str(c[1])),
    )
    total = sum(n for n, _ in counts)
    for n, p in counts:
        print(f"{n:6} {p}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1:])
