#!/usr/bin/env python3
"""Check the end-to-end benchmark's deterministic counters against a pinned table.

`e2ebench/run.py --selftest` prints 32 deterministic counters (work
counters, partitions/bundles, index bytes, refit/rebuild/tile lifecycle
decisions) and checks that they repeat across runs and worker counts of
one checkout. It cannot see a change that moves them consistently. This
script runs it at seed 1 and compares its first counter table with the
committed one (bench/selftest_seed1.txt): any counter that differs, appears or
disappears fails the check. A change that moves a counter on purpose
updates the table in the same commit (--update) and says why.

    python3 tools/check_selftest.py             # run the selftest, compare
    python3 tools/check_selftest.py --update    # rewrite the pinned table

Stdlib only.
"""

import argparse
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
PINNED = ROOT / "bench" / "selftest_seed1.txt"
COUNTER_LINE = re.compile(r"^\s+(\S+)\s+(-?\d+)\s*$")


def parse_table(lines):
    """Counters of the first `selftest run` table: {name: value}."""
    counters = {}
    in_table = False
    for line in lines:
        if line.startswith("selftest run "):
            if in_table:
                break
            in_table = True
            continue
        match = COUNTER_LINE.match(line)
        if in_table and match:
            counters[match.group(1)] = int(match.group(2))
        elif in_table and counters:
            break
    return counters


def read_pinned(path):
    counters = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, value = line.split()
            counters[name] = int(value)
    return counters


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the pinned table from this run instead of comparing")
    args = parser.parse_args()

    run = subprocess.run([sys.executable, str(ROOT / "e2ebench" / "run.py"), "--selftest",
                          "--seed", str(SEED)],
                         capture_output=True, text=True, timeout=1800)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"check_selftest: the selftest itself failed (exit {run.returncode})")
    actual = parse_table(run.stdout.splitlines())
    if not actual:
        sys.exit("check_selftest: no counter table in the selftest output")

    if args.update:
        width = max(len(name) for name in actual)
        PINNED.write_text(
            "".join(f"{name:<{width}}  {value}\n" for name, value in sorted(actual.items())),
            encoding="utf-8")
        print(f"check_selftest: wrote {len(actual)} counters to {PINNED}")
        return

    expected = read_pinned(PINNED)
    failures = []
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual:
            failures.append(f"  {name}: pinned {expected[name]}, missing from this run")
        elif name not in expected:
            failures.append(f"  {name}: {actual[name]} in this run, not pinned")
        elif expected[name] != actual[name]:
            failures.append(f"  {name}: pinned {expected[name]}, this run {actual[name]}")
    if failures:
        print(f"check_selftest: FAIL, {len(failures)} counter(s) differ from {PINNED}:")
        print("\n".join(failures))
        sys.exit(1)
    print(f"check_selftest: OK, all {len(expected)} counters match {PINNED}")


if __name__ == "__main__":
    main()
