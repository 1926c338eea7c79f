"""Self-tests for the benchmark's helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ellipsoidlab  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ellipsoidlab import graphmat, harness, hermite, spectral  # noqa: E402
from stats import tail  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(x) for x in range(30, 0, -1)]  # 1..30, unsorted
    assert tail(values) == (20.0, 100.0 * 20 / 30, 30)
    assert tail(values[:11]) == (20.0, 100.0 / 11, 11)
    # too few samples for any percentile: the minimum, as percentile 0
    assert tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)
    with pytest.raises(ValueError):
        tail([])


def _span(sid, start, end, parent=None, name="harness.x"):
    span = spans.Span(sid, name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 6.0, parent=0),
        _span(4, 20.0, 30.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 10.0})
    # self times add up to the roots' durations
    assert sum(own.values()) == pytest.approx(20.0)


def test_traced_fit_accounts_for_root_and_counts_calls():
    with spans.Tracer(ellipsoidlab) as tracer:
        harness.run_fit_trial(3, 12, 30)
    names = [s.name for s in tracer.spans]
    for name in ("harness.run_fit_trial", "sampling.sample_vectors",
                 "construction.decompose", "construction.solve_weights",
                 "spectral.spectral_norm", "spectral.psd_check"):
        assert name in names
    root = next(s for s in tracer.spans if s.parent is None)
    assert root.name == "harness.run_fit_trial"
    totals = spans.totals(tracer.spans)
    layer_self = sum(totals.get(f"{layer}.self_s", 0.0) for layer in spans.LAYERS)
    assert layer_self == pytest.approx(root.end - root.start, rel=1e-9)
    # psd_check reaches spectral_norm through the module attribute
    assert totals["spectral.calls"] == 3


def test_tracer_restores_every_wrapped_attribute():
    namespaces = [ellipsoidlab, *spans.Tracer(ellipsoidlab).modules.values()]
    before = [dict(vars(ns)) for ns in namespaces]
    original_norm = spectral.spectral_norm
    original_hermite = hermite.hermite_scaled_eval
    with pytest.raises(ValueError):
        with spans.Tracer(ellipsoidlab):
            assert spectral.spectral_norm is not original_norm
            # a name graphmat imported is wrapped where graphmat looks it up
            assert graphmat.hermite_scaled_eval is not original_hermite
            assert graphmat.hermite_scaled_eval is hermite.hermite_scaled_eval
            assert ellipsoidlab.run_fit_trial is harness.run_fit_trial
            spectral.spectral_norm([[1.0, 2.0]])  # not square: raises through the wrapper
    for ns, saved in zip(namespaces, before):
        for attr, obj in saved.items():
            assert vars(ns)[attr] is obj, f"{ns.__name__}.{attr} not restored"


def test_construct_check_passes_and_flags_perturbed_outputs():
    seed = 11
    out = workloads.run_construct(seed)
    assert workloads.check_construct(seed, out) == []
    perturbed = {
        "u": dict(out, u=out["u"] * (1 + 1e-6)),
        "R differs": dict(out, R=out["R"] + np.eye(workloads.CONSTRUCT_D) * 1e-6),
        "residual": dict(out, residual=1e-6),
        "split remainder": dict(out, split_remainder=1e-6),
    }
    for what, bad in perturbed.items():
        problems = workloads.check_construct(seed, bad)
        assert len(problems) == 1 and what in problems[0], (what, problems)


def test_blockbound_check_flags_perturbed_norm_and_verdict():
    seed = 3
    out = workloads.run_blockbound(seed)
    assert workloads.check_blockbound(seed, out) == []
    bad = copy.deepcopy(out)
    bad[1]["max_norm"] *= 1 + 1e-6
    bad[2]["trace_pass"] = not bad[2]["trace_pass"]
    problems = workloads.check_blockbound(seed, bad)
    assert any("malpha max_norm" in p for p in problems)
    assert any("mbeta trace_pass" in p for p in problems)


def test_names_agree_with_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(w["name"] for w in bench["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
