"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--workloads a,b]

For each workload, makes the inputs twice from one seed and runs one traced
pass on each copy, then checks that:

* the inputs are byte-identical;
* the work counters repeat exactly: every call count, the search, gluing and
  segment counters, cache hits and misses, and ``report.bytes``;
* the reports are byte-identical after ``sepcert.report.stripped`` (see
  README.md for the one difference the seed commit leaves, which is
  reported and tolerated only for the ``stats.millis_*`` keys);
* every layer of ``layers.LAYER_MAP`` is called on the workloads it should
  be busy on and never on those it should be idle on.

Exits 1 if any check fails.  All four workloads take about five minutes.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run as bench
from layers import LAYER_MAP, call_counts
from workloads import WORKLOADS

#: Per-layer metrics that count work and must repeat exactly.
COUNTERS = (
    "search.nodes",
    "search.leaves",
    "search.rejected_at_emission",
    "gluing.equations",
    "complexes.segments",
    "cutset.subdivision_distances.misses",
    "cutset.complement_labels.hit_ratio",
    "report.bytes",
)


def _diff_paths(a, b, path="") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            out += _diff_paths(a.get(k), b.get(k), f"{path}.{k}" if path else k)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in _diff_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [path]


def compare_reports(name: str, r1: bench.Run, r2: bench.Run) -> list[str]:
    from sepcert.report import stripped

    problems = []
    for p in r1.workload.procs(r1.inputs, r1.d, r1.python):
        for path1 in p.reports:
            path2 = r2.d / path1.name
            if path1.suffix != ".json":
                if path1.read_bytes() != path2.read_bytes():
                    problems.append(f"{path1.name} differs between runs")
                continue
            s1, s2 = stripped(path1.read_text()), stripped(path2.read_text())
            if s1 != s2:
                diffs = _diff_paths(json.loads(s1), json.loads(s2))
                known = [d for d in diffs if d.startswith("stats.millis_")]
                print(f"  {name}: report.stripped() differs at {diffs}"
                      f"{' (known: stats.millis_* timings are not stripped)' if known == diffs else ''}")
                if known != diffs:
                    problems.append(f"{path1.name}: stripped reports differ at {diffs}")
            if bench.stripped_bytes(path1) != bench.stripped_bytes(path2):
                problems.append(f"{path1.name}: reports differ after nulling timings")
    return problems


def check_workload(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name]
    bench.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK, prefix=f"selftest-{name}-") as tmp:
        d1, d2 = Path(tmp) / "a", Path(tmp) / "b"
        d1.mkdir()
        d2.mkdir()
        r1, r2 = bench.Run(workload, seed, d1), bench.Run(workload, seed, d2)
        _, sum1, m1 = bench.traced_pass(r1)
        _, sum2, m2 = bench.traced_pass(r2)
        problems = list(r1.problems + r2.problems)
        for key in r1.inputs:
            if bench.sha256(r1.inputs[key]) != bench.sha256(r2.inputs[key]):
                problems.append(f"input {key} differs between two makes from seed {seed}")
        calls1, calls2 = call_counts(sum1), call_counts(sum2)
        for fn in LAYER_MAP:
            if calls1[fn] != calls2[fn]:
                problems.append(f"{fn}: {calls1[fn]} calls, then {calls2[fn]}")
        for key in COUNTERS:
            if m1[key] != m2[key]:
                problems.append(f"{key}: {m1[key]}, then {m2[key]}")
        caches1 = [s["caches"] for s in sum1]
        if caches1 != [s["caches"] for s in sum2]:
            problems.append("cache hits or misses differ between runs")
        problems += compare_reports(name, r1, r2)
        for fn, (busy, idle) in LAYER_MAP.items():
            if name in idle and calls1[fn]:
                problems.append(f"{fn} predicted idle but called {calls1[fn]} times")
            if name in busy and not calls1[fn]:
                problems.append(f"{fn} predicted busy but never called")
        print(f"  {name}: " + ", ".join(f"{k}={m1[k]}" for k in COUNTERS))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    if not (bench.SRC / "sepcert" / "__init__.py").is_file():
        print(f"error: no sepcert package under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    failed = False
    for name in args.workloads.split(","):
        problems = check_workload(name, args.seed)
        for p in problems:
            print(f"FAIL {name}: {p}")
        print(f"{'FAIL' if problems else 'ok'} {name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
