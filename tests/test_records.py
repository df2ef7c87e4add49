"""Records are plain classes: a ``@dataclass`` decorator costs every command
about half a millisecond of import time, so only the frozen value types that
``dataclasses.replace`` is offered on keep it.  The JSON of each record is
pinned to what ``dataclasses.asdict`` gave before."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import ckgraph
from ckgraph.analysis import (BarrierCertificate, ConditionEntry,
                              HypothesisReport, MaxPrincipleReport)
from ckgraph.solver import NewtonRecord

KEPT = {"ckgraph.ambient.AmbientSpace", "ckgraph.mesh.PolarDomain"}


def test_only_the_replaceable_value_types_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(ckgraph.__path__):
        module = importlib.import_module(f"ckgraph.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "__dataclass_fields__" in vars(cls):
                found.add(f"{cls.__module__}.{cls.__qualname__}")
    assert found == KEPT


_CONDITIONS = [ConditionEntry("H_nonneg", "H >= 0", 0.5, True),
               ConditionEntry("ricci_simple", "Ric >= 0", math.inf, False,
                              evaluable=False, note="no curvature model")]

_RECORDS = {
    "condition": (_CONDITIONS[1], {
        "name": "ricci_simple", "inequality": "Ric >= 0", "margin": math.inf,
        "passed": False, "evaluable": False, "note": "no curvature model"}),
    "hypotheses": (HypothesisReport(_CONDITIONS, 1.25, 2.5), {
        "conditions": [
            {"name": "H_nonneg", "inequality": "H >= 0", "margin": 0.5,
             "passed": True, "evaluable": True, "note": ""},
            {"name": "ricci_simple", "inequality": "Ric >= 0", "margin": math.inf,
             "passed": False, "evaluable": False, "note": "no curvature model"}],
        "inf_HK": 1.25, "inf_HGamma": 2.5, "passed": True}),
    "max_principle": (MaxPrincipleReport(0.0, -0.25, (-1.5, 1e-9), 512, False), {
        "rho_t_margin": 0.0, "lambda_t_H_margin": -0.25, "t_range": (-1.5, 1e-9),
        "samples": 512, "passed": False}),
    "barrier": (BarrierCertificate("boundary_lower", {"mu": 10.0, "c": 0.5},
                                   0.125, 17, True, -0.0, 3, True, 2.08,
                                   "search: 1 rejected candidates"), {
        "kind": "boundary_lower", "params": {"mu": 10.0, "c": 0.5},
        "min_margin": 0.125, "margin_location": 17, "ordering_ok": True,
        "worst_ordering_violation": -0.0, "skipped": 3, "valid": True,
        "gradient_bound": 2.08, "note": "search: 1 rejected candidates"}),
    "barrier_defaults": (BarrierCertificate("height", {"D": 2.0}, math.nan, 4,
                                            None, 0.0, 0, False), {
        "kind": "height", "params": {"D": 2.0}, "min_margin": math.nan,
        "margin_location": 4, "ordering_ok": None, "worst_ordering_violation": 0.0,
        "skipped": 0, "valid": False, "gradient_bound": None, "note": ""}),
    "newton": (NewtonRecord(0.25, 3, 1e-11, 2e-6, 1), {
        "tau": 0.25, "iter": 3, "residual_norm": 1e-11, "step_norm": 2e-6,
        "damping_halvings": 1}),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_json_is_the_former_asdict(name):
    record, expected = _RECORDS[name]
    assert not dataclasses.is_dataclass(record)
    got = record.to_json()
    assert list(got) == list(expected)
    for key, value in expected.items():
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(got[key]), key
        else:
            assert got[key] == value and type(got[key]) is type(value), key


def test_certificate_json_copies_its_params():
    cert = _RECORDS["barrier"][0]
    assert cert.to_json()["params"] is not cert.params


@pytest.mark.parametrize("record", [
    _RECORDS["condition"][0], _RECORDS["max_principle"][0], _RECORDS["barrier"][0],
    BarrierCertificate.failed("height", "height barrier search exhausted"),
    _RECORDS["newton"][0]], ids=["condition", "max_principle", "barrier",
                                 "failed_barrier", "newton"])
def test_record_json_keys_are_its_constructor_parameters(record):
    # each record lists its fields once, in its constructor: no attribute
    # set elsewhere reaches report.json, log.jsonl or the certify JSON
    params = list(inspect.signature(type(record)).parameters)
    assert list(record.to_json()) == params


def test_failed_certificate_has_the_certificate_keys_with_nulls():
    got = BarrierCertificate.failed("boundary_upper", "tubular strip is empty").to_json()
    assert got == dict.fromkeys(_RECORDS["barrier"][1], None) | {
        "kind": "boundary_upper", "valid": False, "note": "tubular strip is empty"}
