"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/stability.py [--runs 10] [--workloads a,b] [--raw FILE] [--baseline FILE]

Runs ``run.py`` once per seed on each workload (seeds 1 .. runs, one
process at a time) and prints, for each
end-to-end metric, the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and their distance as a share of the median next to the
metric's bound in BENCHMARK.json.  ``--raw`` keeps every result line;
``--baseline`` writes the summary with commit, Python version and machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--raw", type=Path)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(last)
            ok = ok and result["correct"]
            if args.raw:
                with args.raw.open("a") as fh:
                    notes = [ln for ln in out.stdout.splitlines() if ln.startswith("#")]
                    fh.write(json.dumps({"workload": name, "seed": seed, "took_s": took, "notes": notes, **result}) + "\n")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed} ({took:.1f} s): "
                  + " ".join(f"{m}={v[-1]:.4f}" for m, v in values.items()), flush=True)
        summary[name] = {m: summarise(v) for m, v in values.items()}
        for metric, s in summary[name].items():
            flag = "ok" if s["spread"] < bounds[metric] / 3 else "WIDE"
            print(f"  {name} {metric}: median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"spread {s['spread']:.4f} bound {bounds[metric]} ({flag})", flush=True)
    if args.baseline:
        doc = {
            "commit": _commit(),
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {_cpu_model()}, {os.cpu_count()} cpus",
            "run_seconds": bench["run_seconds"],
            "seeds": [1, args.runs],
            "workloads": summary,
        }
        args.baseline.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
