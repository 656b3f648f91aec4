"""Certificates, run reports, and reproducible JSON output.

A Check is one named verdict with an optional witness and timing. A
Certificate groups the checks for one target; a RunReport groups
certificates with the input digests and tool version. Serialization is
deterministic: keys sorted, sets sorted, exact rationals rendered as
strings. Timings are the only field expected to vary between identical
runs, so comparisons should strip them (see ``stripped``).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from math import inf
from typing import Any, Callable, Iterable, Mapping

from . import __version__
from .cutset import Verdict


@dataclass
class Check:
    name: str
    ok: bool
    witness: Mapping | None = None
    millis: float | None = None


@dataclass
class Certificate:
    target: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in certificate {self.target!r}")

    def add(self, name: str, outcome, witness: Mapping | None = None, millis: float | None = None) -> Check:
        """Append a check; ``outcome`` may be a bool or a Verdict (whose
        witness is merged under the given one)."""
        if isinstance(outcome, Verdict):
            merged = dict(outcome.witness or {})
            merged.update(witness or {})
            c = Check(name, outcome.ok, merged or None, millis)
        else:
            c = Check(name, bool(outcome), witness, millis)
        self.checks.append(c)
        return c

    def timed(self, name: str, fn: Callable[[], Any], witness: Mapping | None = None) -> Check:
        t0 = time.perf_counter()
        outcome = fn()
        millis = (time.perf_counter() - t0) * 1000.0
        return self.add(name, outcome, witness, round(millis, 3))


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


def jsonable(obj):
    """Exact, deterministic JSON image: rationals as 'p/q' strings,
    infinities as 'inf', sets sorted, tuples as lists."""
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
    if is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "kind") and hasattr(obj, "sorted_elements"):
            # cutsets print as their sorted elements plus kind
            return {"kind": obj.kind, "elements": jsonable(obj.sorted_elements())}
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
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
