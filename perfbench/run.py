"""Benchmark driver: whole certifications, cold, one fresh process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the program under test is ``src/sepcert``
of that checkout.  The driver makes the workload's inputs from the seed,
then, with ``--trace 0``:

* starts a set-up probe (``import sepcert.cli`` plus loading the inputs)
  several times, spread between the passes, and reports the median as
  ``setup_s``;
* runs whole passes of the workload until ``--seconds`` is spent (at least
  two), each pass as fresh processes timed from spawn to exit, and reports
  the median ``wall_s`` and ``peak_rss_mb`` over passes.

With ``--trace 1`` it runs one untraced pass and one traced pass, whose
spans give the per-layer metrics (see README.md).  Every process is one
operation; it fails on an exit status other than 0 or 1, a traceback, an
unparsable report or a broken invariant of the workload.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--all`` runs every workload once untraced and
prints a table that adds ``fail_frac``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up probes per run (after one untimed warm-up that compiles bytecode),
#: spread over the run so that their median sees the same host as the passes.
SETUP_PROBES = 15
#: Fewest passes in a measured run, whatever ``--seconds`` says.
MIN_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Process:
    """Outcome of one finished child process."""

    wall_s: float
    status: int
    rss_mb: float
    cpu_s: float
    stderr: str


def spawn(argv: list[str], d: Path, label: str) -> Process:
    """Run one child to completion, timed from spawn to exit, with its
    output in files under ``d``.  If the driver is interrupted, the child
    is killed and reaped before the interruption propagates."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = d / f"{label}.stdout", d / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, raw_status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(raw_status)
    return Process(
        wall,
        child.returncode,
        usage.ru_maxrss / 1024.0,
        usage.ru_utime + usage.ru_stime,
        err_path.read_text(errors="replace"),
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload, seed: int, d: Path):
        self.workload = workload
        self.d = d
        self.python = sys.executable
        self.inputs = workload.make_inputs(seed, d)
        self.attempted = 0
        self.problems: list[str] = []

    def _account(self, label: str, proc: Process, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def setup_probe(self) -> float:
        argv = [self.python, str(Path(__file__).with_name("worker.py")), "setup"]
        argv += self.workload.setup(self.inputs)
        proc = spawn(argv, self.d, "setup")
        bad = [f"exit status {proc.status}"] if proc.status != 0 else []
        self._account("setup", proc, bad)
        return proc.wall_s

    def run_pass(self, trace_dir: Path | None = None) -> tuple[float, float, float]:
        """One pass: (wall_s summed over its processes, peak RSS, CPU s)."""
        wall = rss = cpu = 0.0
        for i, p in enumerate(self.workload.procs(self.inputs, self.d, self.python)):
            argv = p.argv if trace_dir is None else p.traced(trace_dir / f"{i}-{p.label}.json")
            proc = spawn(argv, self.d, p.label)
            self._account(p.label, proc, p.check(proc.status, proc.stderr))
            wall += proc.wall_s
            rss = max(rss, proc.rss_mb)
            cpu += proc.cpu_s
        return wall, rss, cpu

    def report_bytes(self) -> int:
        """Bytes of the pass's reports with timings nulled, so that the
        count repeats exactly across runs."""
        total = 0
        for p in self.workload.procs(self.inputs, self.d, self.python):
            for path in p.reports:
                try:
                    total += len(stripped_bytes(path))
                except (OSError, ValueError):
                    pass  # a missing or broken report is already a failed operation
        return total


def stripped_bytes(path: Path) -> bytes:
    """A report as ``sepcert.report.stripped`` renders it, with the
    ``stats.millis_*`` timings it leaves in place also nulled (see
    README.md, "Seed-commit observations"); other files verbatim."""
    raw = path.read_bytes()
    if path.suffix != ".json":
        return raw
    from sepcert.report import stripped

    doc = json.loads(stripped(raw.decode()))
    stats = doc.get("stats") if isinstance(doc, dict) else None
    if isinstance(stats, dict):
        for key in stats:
            if key.startswith("millis_"):
                stats[key] = None
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def measure(run: Run, seconds: float) -> dict:
    run.setup_probe()  # warm-up: writes bytecode caches, not timed
    setups, walls, peaks = [run.setup_probe()], [], []
    start = time.perf_counter()
    while True:
        wall, rss, _ = run.run_pass()
        walls.append(wall)
        peaks.append(rss)
        elapsed = time.perf_counter() - start
        done = len(walls) >= MIN_PASSES and elapsed + statistics.mean(walls) / 2 >= seconds
        # Probes keep pace with the share of the run that has passed.
        while len(setups) < SETUP_PROBES * (1.0 if done else elapsed / seconds):
            setups.append(run.setup_probe())
        if done:
            break
    print(f"# passes {len(walls)} wall_s {[round(w, 4) for w in walls]} "
          f"setup_s {[round(s, 4) for s in setups]} peak_rss_mb {peaks}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peaks),
    }


def traced_pass(run: Run) -> tuple[float, list[dict], dict]:
    """One traced pass: its wall_s, the span summaries of its processes,
    and the per-layer metrics they give."""
    from layers import per_layer_metrics

    trace_dir = run.d / "trace"
    trace_dir.mkdir()
    wall, _, _ = run.run_pass(trace_dir)
    summaries = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    metrics = per_layer_metrics(summaries)
    metrics["report.bytes"] = run.report_bytes()
    return wall, summaries, metrics


def traced(run: Run) -> dict:
    """One untraced and one traced pass; per-layer metrics from the spans."""
    untraced_wall, _, cpu = run.run_pass()
    traced_wall, summaries, metrics = traced_pass(run)
    metrics["proc.cpu_s"] = cpu
    metrics["proc.tracing_overhead_s"] = traced_wall - untraced_wall
    missing = sorted({m for s in summaries for m in s["missing"]})
    if missing:
        print(f"# not traced (absent from sepcert): {missing}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        run = Run(WORKLOADS[name], seed, Path(tmp))
        digests = {k: sha256(v) for k, v in sorted(run.inputs.items())}
        print(f"# workload {name} seed {seed} inputs {json.dumps(digests)}")
        values = traced(run) if trace else measure(run, seconds)
    for problem in run.problems:
        print(f"# FAILED {problem}")
    return {"attempted": run.attempted, "failed": len(run.problems), "values": values}


def _result_line(result: dict, trace: bool) -> str:
    if trace:
        from layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    metrics = {k: {"value": result["values"][k], "unit": u} for k, u in units.items()}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (SRC / "sepcert" / "__init__.py").is_file():
        print(f"error: no sepcert package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(_result_line(result, bool(args.trace)))
        return 0

    rows = {}
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, trace=False)
        v = result["values"]
        rows[name] = {
            **{k: {"value": v[k], "unit": u} for k, u in END_TO_END_UNITS.items()},
            "fail_frac": {"value": result["failed"] / result["attempted"], "unit": "1"},
        }
        print(f"{name:12s}" + "".join(f"  {k} {m['value']:.4f} {m['unit']}" for k, m in rows[name].items()))
    print(json.dumps(rows))
    return 0 if all(r["fail_frac"]["value"] == 0 for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
