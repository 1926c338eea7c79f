"""Shape catalog, realization oracles, block-value rows, and MC verification."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ellipsoidlab import graphmat, sampling

NAMES = ["goe", "malpha", "mbeta", "md1", "md2", "md3", "sumvv"]


# ---------------------------------------------------------------------------
# catalog


def test_catalog_names_and_order():
    assert [s.name for s in graphmat.catalog()] == NAMES


def test_get_shape_roundtrip():
    for name in NAMES:
        shape = graphmat.get_shape(name)
        assert shape.name == name
        assert shape is graphmat.get_shape(name)


def test_unknown_shape_message_lists_catalog():
    with pytest.raises(graphmat.UnknownShapeError) as exc:
        graphmat.get_shape("mystery")
    assert "goe" in str(exc.value)
    assert "sumvv" in str(exc.value)


def test_forged_shape_rejected():
    true_goe = graphmat.get_shape("goe")
    forged = graphmat.Shape(
        name="goe",
        vertices=true_goe.vertices,
        u_boundary=true_goe.u_boundary,
        v_boundary=true_goe.v_boundary,
        edges=(("a", "b", 2),),
    )
    with pytest.raises(graphmat.UnknownShapeError):
        graphmat.realize(forged, sampling.sample_vectors(0, 4, 3))


def test_default_block_cap():
    assert graphmat.default_block_cap() == 8


def test_shape_validation():
    base = dict(u_boundary=("a",), v_boundary=("a",), edges=())
    with pytest.raises(ValueError):
        graphmat.Shape(name="x",
                       vertices=(("a", "circle"), ("a", "circle")), **base)
    with pytest.raises(ValueError):
        graphmat.Shape(name="x", vertices=(("a", "triangle"),), **base)
    with pytest.raises(ValueError):
        graphmat.Shape(name="x", vertices=(("a", "circle"),),
                       u_boundary=(), v_boundary=("a",), edges=())
    with pytest.raises(ValueError):
        graphmat.Shape(name="x", vertices=(("a", "circle"),),
                       u_boundary=("a",), v_boundary=("zz",), edges=())
    with pytest.raises(ValueError):
        graphmat.Shape(name="x", vertices=(("a", "circle"),),
                       u_boundary=("a",), v_boundary=("a",),
                       edges=(("a", "zz", 1),))
    with pytest.raises(ValueError):
        graphmat.Shape(name="x", vertices=(("a", "circle"),),
                       u_boundary=("a",), v_boundary=("a",),
                       edges=(("a", "a", 9),))


def test_shape_properties():
    md1 = graphmat.get_shape("md1")
    assert md1.is_diagonal and md1.has_squares
    goe = graphmat.get_shape("goe")
    assert not goe.is_diagonal and not goe.has_squares
    assert graphmat.get_shape("sumvv").kind_of["i"] == graphmat.SQUARE


# ---------------------------------------------------------------------------
# realization


def test_realize_matches_brute_oracles():
    s = sampling.sample_vectors(2, 5, 4)
    v = s.vectors
    assert np.allclose(graphmat.realize("malpha", s),
                       oracles.brute_malpha(v), atol=1e-12)
    assert np.allclose(graphmat.realize("mbeta", s),
                       oracles.brute_mbeta(v), atol=1e-12)
    assert np.allclose(graphmat.realize("md1", s),
                       np.diag(oracles.brute_md1(v)), atol=1e-12)
    assert np.allclose(graphmat.realize("md2", s),
                       np.diag(oracles.brute_md2(v)), atol=1e-12)
    assert np.allclose(graphmat.realize("md3", s),
                       np.diag(oracles.brute_md3(v)), atol=1e-12)
    assert np.allclose(graphmat.realize("sumvv", s),
                       oracles.brute_sumvv(v), atol=1e-12)


@pytest.mark.parametrize("d,m", [(9, 6), (4, 11), (7, 7)])
def test_offdiagonal_triangle_and_mirror_match_brute_oracles(d, m):
    # one lower triangle per shape, mirrored in place, is the whole matrix;
    # (9, 6) has m < d
    v = sampling.sample_vectors(d + m, d, m).vectors
    for name, brute in (("malpha", oracles.brute_malpha),
                        ("mbeta", oracles.brute_mbeta),
                        ("sumvv", oracles.brute_sumvv)):
        lower = graphmat._offdiagonal_lower(name, v, d)
        assert lower.flags.f_contiguous
        full = graphmat._mirror(lower.T)
        assert np.shares_memory(full, lower)
        assert np.array_equal(full, full.T)
        assert np.allclose(full, brute(v), rtol=0.0, atol=1e-13), name
        assert np.array_equal(graphmat.realize(name, sampling.SampleSet(0, d, m, v)),
                              full)


def test_realize_md2_matches_brute_oracle_relative():
    # h4 by multiplication against the oracle's x**4 - 6x^2/d + 3/d^2
    s = sampling.sample_vectors(5, 40, 30)
    want = oracles.brute_md2(s.vectors)
    got = np.diagonal(graphmat.realize("md2", s))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_realize_goe_uses_sample_seed():
    s = sampling.sample_vectors(7, 30, 2)
    got = graphmat.realize("goe", s)
    want = sampling.sample_goe(7, 30, 1.0 / 30).entries
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.T)
    assert np.all(np.diagonal(got) == 0.0)


def test_realize_agrees_with_decompose_fields():
    from ellipsoidlab import construction

    s = sampling.sample_vectors(4, 20, 30)
    dec = construction.decompose(s)
    assert np.allclose(graphmat.realize("malpha", s), dec.malpha, atol=1e-12)
    assert np.allclose(graphmat.realize("mbeta", s), dec.mbeta, atol=1e-12)
    assert np.allclose(graphmat.realize("md1", s), np.diag(dec.md1), atol=1e-12)
    assert np.allclose(graphmat.realize("md2", s), np.diag(dec.md2), atol=1e-12)
    assert np.allclose(graphmat.realize("md3", s), np.diag(dec.md3), atol=1e-12)


def test_realize_degenerate_dimensions_are_zero():
    # injective labelings need distinct circles / squares; when the space is
    # too small the sum is empty
    s1 = sampling.sample_vectors(0, 1, 3)
    for name in ("malpha", "md1"):
        assert np.allclose(graphmat.realize(name, s1),
                           np.zeros((3, 3)), atol=1e-15)
    assert np.allclose(graphmat.realize("sumvv", s1),
                       np.zeros((1, 1)), atol=1e-15)
    s2 = sampling.sample_vectors(0, 6, 1)
    for name in ("mbeta", "malpha"):
        assert np.allclose(graphmat.realize(name, s2),
                           np.zeros((1, 1)), atol=1e-15)


def test_realize_dimension_guard():
    empty = sampling.SampleSet(seed=0, d=5, m=0, vectors=np.zeros((0, 5)))
    with pytest.raises(graphmat.DimensionTooSmallError):
        graphmat.realize("mbeta", empty)
    goe = graphmat.realize("goe", empty)  # no square vertices, m is unused
    assert goe.shape == (5, 5)


# ---------------------------------------------------------------------------
# block value: pinned breakdowns


def test_block_value_goe_pinned():
    bd = graphmat.block_value("goe", 10**12, 1, 40, 2)
    assert bd.candidates == 4
    assert len(bd.rows) == 4
    assert bd.row_for("F").product == pytest.approx(1.0, rel=1e-12)
    assert bd.row_for("R").product == pytest.approx(1.0, rel=1e-12)
    assert bd.row_for("S").product == pytest.approx(0.0256, rel=1e-12)
    assert bd.row_for("H").product == pytest.approx(0.0128, rel=1e-12)
    assert bd.total == pytest.approx(2.0384, rel=1e-12)
    with pytest.raises(KeyError):
        bd.row_for("Q")


def test_block_value_goe_asymptotics():
    # the surprise and high-multiplicity rows vanish as d grows, leaving the
    # fresh and return rows at 1 each
    huge = graphmat.block_value("goe", 10**16, 1, 40, 2)
    assert huge.total == pytest.approx(2.0, abs=1e-3)
    small = graphmat.block_value("goe", 100, 1, 40, 2)
    assert small.total > huge.total


def test_block_value_mbeta_pinned():
    bd = graphmat.block_value("mbeta", 100, 50, 3, 8)
    assert bd.candidates == 16
    assert len(bd.rows) == 14
    labels = {row.labels for row in bd.rows}
    assert "FR" not in labels and "FH" not in labels
    ff = bd.row_for("FF")
    assert ff.vertex_factor == pytest.approx(math.sqrt(100 * 50), rel=1e-12)
    assert ff.pur_factor == 1.0
    assert ff.edge_factor == pytest.approx(2.0 / 100**2, rel=1e-12)
    assert bd.row_for("RR").pur_factor == 2.0
    assert bd.row_for("RF").vertex_factor == pytest.approx(50.0, rel=1e-12)


def test_block_value_malpha_pinned():
    bd = graphmat.block_value("malpha", 200, 300, 2, 8)
    assert bd.candidates == 256
    ffff = bd.row_for("FFFF")
    assert ffff.vertex_factor == pytest.approx(200 * math.sqrt(300), rel=1e-12)
    assert ffff.edge_factor == pytest.approx(1.0 / 200**2, rel=1e-12)
    rfrf = bd.row_for("RFRF")
    assert rfrf.vertex_factor == pytest.approx(300.0, rel=1e-12)
    assert rfrf.pur_factor == 2.0
    assert bd.row_for("RRRR").pur_factor == 2.0


def test_block_value_default_dv():
    bd = graphmat.block_value("goe", 50, 1, 2)
    assert bd.dv == graphmat.default_block_cap()


def test_block_value_validation():
    with pytest.raises(ValueError):
        graphmat.block_value("goe", 0, 1, 2)
    with pytest.raises(ValueError):
        graphmat.block_value("goe", 10, 1, 0)
    with pytest.raises(ValueError):
        graphmat.block_value("mbeta", 10, 0, 2)


_ORDER = {"F": 0, "R": 1, "S": 2, "H": 3}


@settings(deadline=None, max_examples=25)
@given(
    name=st.sampled_from(NAMES),
    d=st.integers(min_value=2, max_value=10**6),
    m=st.integers(min_value=1, max_value=10**6),
    q=st.integers(min_value=1, max_value=50),
    dv=st.integers(min_value=1, max_value=16),
)
def test_block_value_structure(name, d, m, q, dv):
    bd = graphmat.block_value(name, d, m, q, dv)
    n_edges = len(graphmat.get_shape(name).edges)
    assert bd.candidates == 4**n_edges
    labels = [row.labels for row in bd.rows]
    assert len(set(labels)) == len(labels)
    keys = [tuple(_ORDER[c] for c in lab) for lab in labels]
    assert keys == sorted(keys)
    assert "F" * n_edges in labels
    assert "R" * n_edges in labels
    total = 0.0
    for row in bd.rows:
        assert row.vertex_factor > 0
        assert row.pur_factor > 0
        assert row.edge_factor > 0
        assert row.product == pytest.approx(
            row.vertex_factor * row.pur_factor * row.edge_factor, rel=1e-12)
        total += row.product
    assert bd.total == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo traces


def _expected_first_moment(name: str, d: int, m: int) -> float:
    # E tr(M M^T) in closed form, entrywise second moments
    if name == "goe":
        return d - 1.0
    if name == "malpha":
        return 2.0 * m * (m - 1) * (d - 1) / d**3
    if name == "mbeta":
        return 4.0 * m * (m - 1) / d**3
    if name == "md1":
        return 8.0 * m * (d - 1) / d**3
    if name == "md2":
        return 24.0 * m / d**3
    if name == "md3":
        return 2.0 * m / d
    if name == "sumvv":
        return m * (d - 1.0) / d
    raise AssertionError(name)


def test_trace_mc_q1_matches_closed_forms():
    d, m = 30, 90
    for name in NAMES:
        rep = graphmat.verify_block_bound(name, d, m, 1, 400, 0)
        expect = _expected_first_moment(name, d, m)
        assert rep.mc_stderr > 0
        assert abs(rep.mc_mean - expect) <= 3 * rep.mc_stderr, (
            name, rep.mc_mean, expect, rep.mc_stderr)


def test_trace_mc_determinism_and_trivia():
    a = graphmat.verify_block_bound("md3", 20, 40, 2, 9, 5)
    b = graphmat.verify_block_bound("md3", 20, 40, 2, 9, 5)
    assert a == b
    rep = graphmat.verify_block_bound("goe", 10, 1, 1, 1, 0)
    assert rep.mc_stderr == 0.0 and rep.mc_mean > 0


def test_trace_mc_guards():
    with pytest.raises(ValueError):
        graphmat.verify_block_bound("goe", 2001, 1, 1, 2, 0)
    with pytest.raises(ValueError):
        graphmat.verify_block_bound("mbeta", 10, 2001, 1, 2, 0)
    with pytest.raises(ValueError):
        graphmat.verify_block_bound("goe", 10, 1, 0, 2, 0)
    with pytest.raises(ValueError):
        graphmat.verify_block_bound("goe", 10, 1, 1, 0, 0)


def test_goe_block_bound_draws_no_vectors(monkeypatch):
    def no_vectors(*_args, **_kw):
        raise AssertionError("the goe shape reads no vector set")

    monkeypatch.setattr(sampling, "sample_vectors", no_vectors)
    rep = graphmat.verify_block_bound("goe", 40, 1, 2, 3, 6)
    assert rep.passed
    traces = []
    for t in range(3):
        goe = sampling.sample_goe(sampling.trial_seed(6, t), 40, 1.0 / 40).entries
        traces.append(oracles.brute_goe_trace(goe, 2))
    assert rep.mc_mean == pytest.approx(np.mean(traces), rel=1e-12)


@pytest.mark.parametrize("name", ["md1", "md2", "md3"])
def test_diagonal_shape_measures_match_dense_realization(name):
    # the trial loop measures a diagonal shape from its vector; realize
    # places the same vector on a dense diagonal
    d, m, trials, seed = 15, 25, 4, 8
    diags = [
        np.diagonal(graphmat.realize(
            name, sampling.sample_vectors(sampling.trial_seed(seed, t), d, m)))
        for t in range(trials)
    ]
    for q in (2, 3):
        rep = graphmat.verify_block_bound(name, d, m, q, trials, seed)
        traces = [float(np.sum(diag ** (2 * q))) for diag in diags]
        assert rep.mc_mean == float(np.mean(traces))
        assert rep.mc_stderr == float(np.std(traces, ddof=1) / trials**0.5)
        assert rep.max_norm == max(float(np.max(np.abs(diag))) for diag in diags)


@pytest.mark.parametrize("name", ["goe", "malpha", "mbeta", "sumvv"])
def test_trial_measures_match_dense_eigensolve_of_realization(name):
    # the in-place eigensolve of the stored triangle gives the spectrum of
    # the full realized matrix
    d, m, trials, seed = 12, 30, 3, 11
    shape = graphmat.get_shape(name)
    eigs = [
        np.linalg.eigvalsh(graphmat.realize(
            shape, sampling.sample_vectors(sampling.trial_seed(seed, t), d, m)))
        for t in range(trials)
    ]
    for q in (1, 3):
        (traces,), (norms,) = graphmat._trial_measures((shape,), d, m, q, trials, seed)
        for t, e in enumerate(eigs):
            assert traces[t] == pytest.approx(float(np.sum(e ** (2 * q))), rel=1e-12)
            assert norms[t] == pytest.approx(float(np.max(np.abs(e))), rel=1e-12)


def _block_bound_peak_arrays(name: str) -> float:
    # tracemalloc peak of a verify_block_bound call, in m x m float64 arrays
    m = 800
    graphmat.verify_block_bound(name, 20, 40, 2, 2, 3)  # warm imports
    tracemalloc.start()
    try:
        graphmat.verify_block_bound(name, 200, m, 2, 2, 3)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * m * m)


def test_malpha_block_bound_memory_peak():
    # each trial's matrix is one m x m triangle, eigensolved in place: one
    # such array, plus the m x d vector set and one m x d temporary, is live
    # at once
    assert _block_bound_peak_arrays("malpha") <= 1.6


def test_mbeta_block_bound_memory_peak():
    assert _block_bound_peak_arrays("mbeta") <= 1.6


def test_verify_block_bound_report_coherence():
    rep = graphmat.verify_block_bound("goe", 150, 1, 2, 10, 1)
    assert rep.dimension == 150
    assert rep.trace_bound == pytest.approx(150 * rep.block_total**4, rel=1e-12)
    assert rep.norm_bound == pytest.approx(1.2 * rep.block_total, rel=1e-12)
    assert rep.passed == (rep.trace_pass and rep.norm_pass)
    assert rep.passed
    rows = rep.rows()
    assert [r[0] for r in rows] == ["trace", "norm"]
    assert all(len(r) == 4 for r in rows)
