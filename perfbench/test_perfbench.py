"""Tests of the benchmark's own code: inputs, output checks and the tracer.

    python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import json
import sys
from fractions import Fraction

import workloads
from run import Run
from tracer import Tracer, dp1_modules
from workloads import (
    WORKLOADS,
    affine_of,
    candidates,
    check_generate,
    on_surface,
    op_order,
    prepass,
    recorded,
)

GEN = WORKLOADS["gen-multiples"]
CENSUS = WORKLOADS["census"]


def first(workload, n):
    return list(itertools.islice(candidates(workload), n))


def test_generator_is_deterministic_per_seed():
    for wl in (GEN, CENSUS):
        assert first(wl, 5) == first(wl, 5)
        assert op_order(wl, 7) == op_order(wl, 7)
        assert op_order(wl, 7) != op_order(wl, 8)
        assert sorted(op_order(wl, 7)) == list(range(wl.pool_size))


def test_recorded_prepass_matches_the_generator():
    for wl in (GEN, CENSUS):
        accepted = recorded()[wl.name]["accepted"]
        assert len(accepted) == len(recorded()[wl.name]["outputs"]) == wl.pool_size
        assert prepass(wl, 5) == accepted[:5]


def test_generated_seed_lies_on_its_surface():
    for inp in first(GEN, 20):
        assert on_surface(inp["params"], *affine_of(inp["seed"]))


def test_point_check_rejects_an_off_surface_point():
    inp = workloads.load_pool(GEN, prepass(GEN, 1))[0]
    t, x, y = affine_of(inp["seed"])
    assert not on_surface(inp["params"], t, x, y + 1)
    out = json.loads(GEN.run_op(inp))
    assert check_generate(inp, json.dumps(out)) is None
    last = out["points"][-1]
    last["y"] = str(Fraction(last["y"]) + Fraction(1, 3))
    assert "off the surface" in check_generate(inp, json.dumps(out))


def _raise(inp):
    raise RuntimeError("boom")


def test_an_unexpected_exception_fails_the_check():
    inp = first(CENSUS, 1)
    for wl in (GEN, CENSUS):
        run = Run(dataclasses.replace(wl, run_op=_raise), inp, None)
        assert run.op(0)[1] is False
        assert run.failed == 1 and len(run.check_errors) == 1


def test_census_records_the_cross_check_false_alarm():
    # smooth over Q, but singular mod 7, 11 and 13 (see README)
    params = {"a": "-4/3", "b": "2/5", "c": "-1", "d": "-2", "e": "-1",
              "f": ["2", "-1", "2", "-3/4"]}
    inp = {"params": params}
    text = CENSUS.run_op(inp)
    out = json.loads(text)
    assert out["cross_check"].startswith("OracleDisagreementError: declared smooth")
    assert out["row"]["smooth"] == "smooth"
    assert CENSUS.check(inp, text) is None
    out["row"]["smooth"] = "singular"
    assert "smooth verdict" in CENSUS.check(inp, json.dumps(out))


def test_a_changed_output_fails_the_digest_check():
    inp = first(CENSUS, 1)
    run = Run(CENSUS, inp, ["000000000000"])
    assert run.op(0)[1] is False
    assert "digest" in run.check_errors[0][1]


def _namespaces():
    """Identity of every attribute of the dp1 modules and their classes."""
    seen = {}
    for mod in dp1_modules():
        for key, value in vars(mod).items():
            seen[(mod.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("dp1"):
                for attr, raw in vars(value).items():
                    seen[(mod.__name__, key, attr)] = id(raw)
    return seen


def test_tracer_restores_module_attributes():
    from dp1 import cli, engine, surface

    before = _namespaces()
    original = surface.smoothness_check
    with Tracer() as tracer:
        assert engine.smoothness_check is cli.smoothness_check is surface.smoothness_check
        assert surface.smoothness_check is not original
        workloads.census_op(first(CENSUS, 1)[0])
    assert _namespaces() == before
    assert surface.smoothness_check is original
    metrics = tracer.layer_metrics()
    assert metrics["cli.census_row.calls"] == 1
    assert metrics["surface.smoothness_check.calls"] >= 2


def test_sweep_fibers_are_counted_from_spans():
    inp = workloads.load_pool(GEN, prepass(GEN, 1))[0]
    with Tracer() as tracer:
        GEN.run_op(inp)
    metrics = tracer.layer_metrics()
    # t-height 1 scans the fibers t = 0, 1, -1
    assert metrics["engine.cp_sweep.calls"] > 0
    assert metrics["engine.cp_sweep.fibers_scanned"] == 3 * metrics["engine.cp_sweep.calls"]
    assert metrics == tracer.layer_metrics()


def test_oracle_cells_are_counted_from_spans():
    with Tracer() as tracer:
        for inp in first(CENSUS, 20):
            workloads.census_op(inp)
    metrics = tracer.layer_metrics()
    # box (5, 1, 2, 2): 11 abscissae times the 7 fibers 0, ±1, ±2, ±1/2
    calls = metrics["engine.brute_force_oracle.calls"]
    points = tracer.extra["engine.brute_force_oracle"]["points"]
    assert calls > 0 and points > 0
    assert metrics["engine.brute_force_oracle.hit_ratio"] == points / (77 * calls)


def test_benchmark_source_path_is_the_checkout():
    assert workloads.dp1_source() == workloads.SRC / "dp1"
    assert str(workloads.SRC) in sys.path
