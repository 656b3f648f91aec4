"""Certificates, run reports, and the one JSON writer for them.

A Check is one named verdict with an optional witness and timing. A
Certificate groups the checks for one target; a RunReport groups
certificates with the input digests and tool version. ``dumps`` writes every
JSON file the CLI emits, deterministically: keys sorted, sets sorted, exact
rationals rendered as strings. Timings are the only field expected to vary
between identical runs, so comparisons should strip them (see ``stripped``).

A certifying command's ``--out`` report has the top-level keys
``command``, ``version``, ``pass``, ``inputs``, ``stats`` and
``certificates``; each certificate is ``{"target", "pass", "checks"}`` and
each check ``{"name", "pass", "witness"?, "millis"?}``, the last two left
out when absent. ``graph info`` writes ``{"command", "report"}``, ``aut``
writes ``{"command", "order", "generators", "vertex_orbits"}``, an
infeasible ``gluing solve`` writes ``{"command", "pass", "detail",
"equations", "certificate"}``, the certificate being ``{"rows", "y"}``
with yᵀ·rows ≥ 0 and ≠ 0 (a feasible one writes its weights as text),
and ``cutset search`` writes its family as text with ``<out>.stats.json``
beside it: ``found``, ``exhausted`` and the search counters.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import Mapping

from . import __version__
from .cutset import Cutset, Verdict


class Stopwatch:
    """Times a ``with`` block: once it ends, ``millis`` is its wall time in
    milliseconds, rounded to 3 decimals."""

    millis: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.millis = round((time.perf_counter() - self._start) * 1000.0, 3)


@dataclass
class Check:
    name: str
    ok: bool
    witness: Mapping | None = None
    millis: float | None = None

    def doc(self) -> dict:
        doc = {"name": self.name, "pass": self.ok}
        if self.witness is not None:
            doc["witness"] = jsonable(self.witness)
        if self.millis is not None:
            doc["millis"] = self.millis
        return doc


@dataclass
class Certificate:
    target: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def witness(self) -> dict:
        """What a parent certificate records of this one: every check's
        verdict, and the witnesses of the failing ones."""
        return {
            "checks": {c.name: c.ok for c in self.checks},
            "failures": {c.name: c.witness for c in self.checks if not c.ok},
        }

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in certificate {self.target!r}")

    def add(self, name: str, outcome, witness: Mapping | None = None, millis: float | None = None) -> Check:
        """Append a check; ``outcome`` may be a bool, a Verdict or a
        sub-Certificate, whose witness is merged under the given one."""
        if isinstance(outcome, (Verdict, Certificate)):
            merged = dict(outcome.witness or {})
            merged.update(witness or {})
            c = Check(name, outcome.ok, merged or None, millis)
        else:
            c = Check(name, bool(outcome), witness, millis)
        self.checks.append(c)
        return c

    def doc(self) -> dict:
        return {"target": self.target, "pass": self.ok, "checks": [c.doc() for c in self.checks]}


@dataclass
class RunReport:
    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    certificates: list[Certificate] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def ok(self) -> bool:
        return all(cert.ok for cert in self.certificates)

    def certificate(self, target: str) -> Certificate:
        for cert in self.certificates:
            if cert.target == target:
                return cert
        raise KeyError(f"no certificate for target {target!r}")

    def new_certificate(self, target: str) -> Certificate:
        cert = Certificate(target)
        self.certificates.append(cert)
        return cert

    def doc(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "pass": self.ok,
            "inputs": jsonable(self.inputs),
            "stats": jsonable(self.stats),
            "certificates": [c.doc() for c in self.certificates],
        }


def jsonable(obj):
    """Exact, deterministic JSON image: rationals as 'p/q' strings,
    infinities as 'inf', sets sorted, tuples as lists, cutsets as their
    kind and sorted elements, checks and reports as their documents."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj == inf:
            return "inf"
        if obj == -inf:
            return "-inf"
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (set, frozenset)):
        return [jsonable(x) for x in sorted(obj, key=_sort_key)]
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, Mapping):
        out = {}
        for k, v in obj.items():
            key = k if isinstance(k, str) else str(k)
            out[key] = jsonable(v)
        return out
    if isinstance(obj, Cutset):
        return {"kind": obj.kind, "elements": jsonable(obj.sorted_elements())}
    if isinstance(obj, (Check, Certificate, RunReport)):
        return obj.doc()
    return str(obj)


def _sort_key(x):
    return (str(type(x).__name__), str(x))


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def stripped(report_json: str) -> str:
    """The same JSON with every 'millis' and 'millis_*' value nulled (check
    timings and the stage timings in ``stats``), for byte-level comparison
    of two runs."""
    data = json.loads(report_json)

    def scrub(node):
        if isinstance(node, dict):
            return {
                k: (None if k == "millis" or k.startswith("millis_") else scrub(v))
                for k, v in node.items()
            }
        if isinstance(node, list):
            return [scrub(x) for x in node]
        return node

    return json.dumps(scrub(data), sort_keys=True, indent=2) + "\n"
