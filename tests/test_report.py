"""Certificate bookkeeping and deterministic JSON serialization."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from sepcert.cutset import Cutset, Verdict
from sepcert.report import Certificate, RunReport, dumps, jsonable, stripped


def test_certificate_aggregates_checks():
    cert = Certificate("demo")
    assert cert.ok  # vacuously true until a check fails
    cert.add("a", True)
    cert.add("b", Verdict(True, {"detail": 1}))
    assert cert.ok
    cert.add("c", False, {"why": "so"})
    assert not cert.ok
    assert cert.check("b").witness == {"detail": 1}
    with pytest.raises(KeyError):
        cert.check("missing")


def test_add_merges_verdict_witness():
    cert = Certificate("demo")
    c = cert.add("x", Verdict(False, {"base": 1}), {"extra": 2})
    assert c.ok is False
    assert c.witness == {"base": 1, "extra": 2}


def test_timed_records_millis():
    cert = Certificate("demo")
    c = cert.timed("slow", lambda: True)
    assert c.ok and c.millis is not None and c.millis >= 0


def test_run_report_lookup():
    rep = RunReport(command="demo")
    cert = rep.new_certificate("t1")
    cert.add("a", True)
    assert rep.ok
    assert rep.certificate("t1") is cert
    with pytest.raises(KeyError):
        rep.certificate("t2")
    rep.new_certificate("t2").add("b", False)
    assert not rep.ok


def test_jsonable_exact_values():
    doc = jsonable(
        {
            "frac": Fraction(2, 3),
            "inf": math.inf,
            "ninf": -math.inf,
            "set": {3, 1, 2},
            "tuple": (1, (2, 3)),
            "cutset": Cutset.of_vertices([2, 1]),
            5: "int-key",
        }
    )
    assert doc["frac"] == "2/3"
    assert doc["inf"] == "inf" and doc["ninf"] == "-inf"
    assert doc["set"] == [1, 2, 3]
    assert doc["tuple"] == [1, [2, 3]]
    assert doc["cutset"] == {"kind": "vertex", "elements": [1, 2]}
    assert doc["5"] == "int-key"


def test_dumps_is_deterministic_and_valid_json():
    rep = RunReport(command="demo", inputs={"graph": "builtin:q3"})
    rep.new_certificate("t").add("a", True, {"d": Fraction(1, 2)})
    a, b = dumps(rep), dumps(rep)
    assert a == b
    parsed = json.loads(a)
    assert parsed["command"] == "demo"
    assert parsed["certificates"][0]["checks"][0]["witness"]["d"] == "1/2"


def test_stripped_nulls_timings_only():
    rep = RunReport(command="demo")
    rep.new_certificate("t").timed("x", lambda: True, {"kept": 7})
    doc = json.loads(stripped(dumps(rep)))
    check = doc["certificates"][0]["checks"][0]
    assert check["millis"] is None
    assert check["witness"] == {"kept": 7}


def test_stripped_makes_reruns_byte_identical():
    def run():
        rep = RunReport(command="demo")
        rep.new_certificate("t").timed("x", lambda: sum(range(1000)) >= 0)
        return dumps(rep)

    assert stripped(run()) == stripped(run())


def test_stripped_nulls_stage_timings_in_stats():
    rep = RunReport(command="demo", stats={"millis_stage": 12.5, "nodes": 3})
    doc = json.loads(stripped(dumps(rep)))
    assert doc["stats"] == {"millis_stage": None, "nodes": 3}
