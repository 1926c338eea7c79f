"""Trial records, sweep grid, lemma suite, serialization, CLI contracts."""
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import eig_extremes
from ellipsoidlab import construction, graphmat, harness, sampling


def run_cli(argv):
    buf = io.StringIO()
    code = harness.main(argv, stdout=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# fit trials


def test_fit_trial_healthy_instance():
    rec = harness.run_fit_trial(7, 100, 300)
    assert rec.feasible is True and rec.degenerate is False
    assert rec.residual < 1e-12
    assert 0.8 < rec.normR < 0.9
    assert rec.lambdaMinLambda == pytest.approx(0.5, abs=0.1)
    assert 2.5 < rec.r < 4.0
    assert -1.1 < rec.u < -0.7
    assert 0.7 < rec.s < 1.1
    assert rec.normEtaSq == pytest.approx(2 * 300 / 100, rel=0.35)
    assert rec.wallMillis > 0


def test_fit_trial_overdetermined_is_degenerate():
    # m > d(d+1)/2 forces an exactly singular interaction part
    rec = harness.run_fit_trial(0, 60, 2160)
    assert rec.degenerate is True and rec.feasible is False
    assert rec.reason == "singular-interaction-part"
    assert rec.residual is None and rec.r is None
    assert rec.normEtaSq is not None


def test_fit_trial_near_tied_spectrum_ends():
    # R's two spectrum ends have near-equal modulus on this draw; power
    # iteration stopped unconverged and reported lambdaMinLambda = -0.0604
    seed, d, m = 7242001090113686551, 150, 2812
    rec = harness.run_fit_trial(seed, d, m)
    sample = sampling.sample_vectors(seed, d, m)
    cand = construction.solve_weights(construction.decompose(sample), sample)
    _norm, _lmin, lmax = eig_extremes(cand.R)
    assert rec.lambdaMinLambda == pytest.approx(1.0 - lmax, abs=1e-9)
    assert rec.lambdaMinLambda == pytest.approx(-0.23466, abs=1e-5)
    assert rec.feasible is False


def test_fit_trial_singular_gram_reason(monkeypatch):
    def boom(dec, sample):
        raise construction.SingularMatrixError("forced")

    monkeypatch.setattr(harness.construction, "solve_weights", boom)
    rec = harness.run_fit_trial(0, 20, 40)
    assert rec.degenerate is True
    assert rec.reason == "singular-gram"
    assert rec.r is not None  # decomposition succeeded, scalars are known


def test_fit_trial_degenerate_scalars_reason(monkeypatch):
    # s^2 - ru = 0 makes the Woodbury route to w undefined: a singular Gram
    real = construction.decompose

    def broken(sample):
        return dataclasses.replace(real(sample), r=1.0, s=0.0, u=0.0)

    monkeypatch.setattr(harness.construction, "decompose", broken)
    rec = harness.run_fit_trial(0, 20, 40)
    assert rec.degenerate is True and rec.feasible is False
    assert rec.reason == "singular-gram"
    assert (rec.r, rec.s, rec.u) == (1.0, 0.0, 0.0)


def test_record_payload_drops_wall_clock():
    rec = harness.run_fit_trial(1, 30, 60)
    payload = harness.record_payload(rec)
    assert tuple(payload) == harness.FIT_FIELDS
    assert "wallMillis" not in payload


# ---------------------------------------------------------------------------
# fit CLI


def test_fit_cli_json_deterministic():
    argv = ["fit", "--d", "50", "--m", "100", "--seed", "2"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "9"
    assert "wallMillis" not in out1
    assert set(payload["record"]) == set(harness.FIT_FIELDS)


def test_fit_cli_csv_format():
    code, out = run_cli(["fit", "--d", "50", "--m", "100", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header == ",".join(harness.FIT_FIELDS)
    assert "np.float64" not in out


def test_fit_cli_out_writes_both_formats(tmp_path):
    base = str(tmp_path / "rep")
    code, out = run_cli(["fit", "--d", "30", "--m", "60", "--out", base])
    assert code == 0
    assert (tmp_path / "rep.json").exists()
    assert (tmp_path / "rep.csv").exists()
    on_disk = json.loads((tmp_path / "rep.json").read_text())
    assert on_disk["schema"] == "9"


def test_sweep_cli_out_single_format(tmp_path):
    base = str(tmp_path / "grid")
    code, _ = run_cli(["sweep", "--d-list", "20", "--ratios", "1/20",
                       "--trials", "2", "--out", base, "--format", "csv"])
    assert code == 0
    assert (tmp_path / "grid.csv").exists()
    assert not (tmp_path / "grid.json").exists()


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("argv", [
    ["fit", "--d", "0", "--m", "5"],
    ["fit", "--d", "10"],
    ["no-such-command"],
    [],
    ["fit", "--d", "10", "--m", "5", "--seed", "-1"],
    ["fit", "--d", "10", "--m", "5", "--seed", str(2**64)],
    ["sweep", "--d-list", "10", "--ratios", "zz", "--trials", "2"],
    ["verify-lemmas", "--sizes", "500x2500", "--trials", "1", "--quick"],
    ["fit", "--d", "10", "--m", "20", "--tol", "1e-6"],
    ["trace-mc", "--shape", "md3", "--d", "40", "--m", "80", "--q", "2"],
    ["fit", "--d", "10", "--m", "20", "--threads", "2"],
    ["block-value", "--shape", "goe", "--d", "10", "--q", "2", "--threads", "2"],
    ["norms", "--shape", "goe", "--d", "10", "--threads", "2"],
])
def test_usage_errors_exit_one(argv, capsys):
    code, _ = run_cli(argv)
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_module_entry_point_runs_without_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ellipsoidlab", "fit", "--d", "5", "--m", "8"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "fit"
    assert "RuntimeWarning" not in proc.stderr


def test_unknown_shape_exits_one(capsys):
    code, _ = run_cli(["block-value", "--shape", "zzz", "--d", "10", "--q", "2"])
    assert code == 1
    assert "catalog" in capsys.readouterr().err


def test_internal_error_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(harness, "run_fit_trial", boom)
    code, _ = run_cli(["fit", "--d", "10", "--m", "20"])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_partial_on_interrupt(monkeypatch):
    real = harness.run_fit_trial
    calls = {"n": 0}

    def flaky(seed, d, m):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt
        return real(seed, d, m)

    monkeypatch.setattr(harness, "run_fit_trial", flaky)
    report = harness.run_sweep([10], [0.1, 0.2], trials=3, seed=0, threads=1)
    assert report.interrupted is True
    assert len(report.cells) == 1
    assert report.cells[0].trials == 3


def test_sweep_cli_interrupt_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_fit_trial", boom)
    code, out = run_cli(["sweep", "--d-list", "10", "--ratios", "0.1",
                         "--trials", "2", "--threads", "1"])
    assert code == 130
    assert json.loads(out)["interrupted"] is True


def test_sweep_rates_track_feasibility_transition():
    report = harness.run_sweep([60], [1 / 200, 0.6], trials=8, seed=0)
    assert report.schema == "9"
    easy, hard = report.cells
    assert easy.m == 18 and hard.m == 2160
    assert easy.feasibility_rate >= 0.9
    assert hard.feasibility_rate <= 0.1
    assert hard.degenerate == 8


def test_sweep_threads_byte_identical():
    outs = []
    for threads in ("1", "2", "3"):
        code, out = run_cli(["sweep", "--d-list", "25", "--ratios", "1/50",
                             "1/10", "--trials", "6", "--seed", "3",
                             "--threads", threads])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_auto_threads_start_one_worker_per_usable_core():
    cores = len(os.sched_getaffinity(0))
    assert harness._AUTO_WORKERS == cores
    # the first `cores` trials wait for each other, so they run on `cores`
    # distinct threads at once; no trial may run on a thread beyond those
    barrier = threading.Barrier(cores, timeout=30)
    seen = set()

    def worker(t):
        seen.add(threading.get_ident())
        if t < cores:
            barrier.wait()
        return t

    assert harness._run_trials(worker, 4 * cores, 0) == list(range(4 * cores))
    assert len(seen) == cores
    assert harness.cell_workers(10, 0.1, 10, 50, 0) == cores


def test_sweep_validation():
    with pytest.raises(harness.UsageError):
        harness.run_sweep([0], [0.1], trials=2)
    with pytest.raises(harness.UsageError):
        harness.run_sweep([10], [0.0], trials=2)
    with pytest.raises(harness.UsageError):
        harness.run_sweep([10], [0.1], trials=0)
    with pytest.raises(harness.UsageError):
        harness.run_sweep([10], [1 / 200], trials=2)  # m = 0 cell


def test_sweep_memory_guard_passes_default_grid_at_two_threads(monkeypatch):
    monkeypatch.setattr(harness, "physical_memory", lambda: 7 * 10**9)
    for d in harness.DEFAULT_GRID_D:
        for ratio in harness.DEFAULT_GRID_RATIOS:
            m = int(d * d * ratio)
            assert harness.cell_workers(d, ratio, m, 50, 2) == 2


def test_sweep_memory_guard_rejects_cell_before_any_trial(monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a trial ran before the memory check")

    monkeypatch.setattr(harness, "physical_memory", lambda: 7 * 10**9)
    monkeypatch.setattr(harness, "run_fit_trial", no_trial)
    # three trials of m = 11250 need 3 * 2.5 * 11250^2 * 8 bytes
    with pytest.raises(harness.UsageError,
                       match=r"d=150 ratio=0\.5 \(m=11250\) needs 7593750000 bytes"):
        harness.run_sweep([20, 150], [1 / 2], trials=4, threads=3)
    code, _ = run_cli(["sweep", "--d-list", "20", "150", "--ratios", "1/2",
                       "--trials", "4", "--threads", "3"])
    assert code == 1
    assert "d=150 ratio=0.5" in capsys.readouterr().err


def test_sweep_memory_guard_auto_threads_fit_memory(monkeypatch):
    # memory, not the core count, sets the worker count here
    monkeypatch.setattr(harness, "_AUTO_WORKERS", 4)
    monkeypatch.setattr(harness, "physical_memory", lambda: 7 * 10**9)
    assert harness.cell_workers(150, 0.5, 11250, 50, 0) == 2
    assert harness.cell_workers(150, 0.5, 11250, 1, 0) == 1
    # auto mode still refuses a cell where one trial alone does not fit
    monkeypatch.setattr(harness, "physical_memory", lambda: 2 * 10**9)
    with pytest.raises(harness.UsageError, match="d=150"):
        harness.cell_workers(150, 0.5, 11250, 50, 0)


def test_sweep_cli_empty_ratio_list():
    code, out = run_cli(["sweep", "--d-list", "20", "--ratios",
                         "--trials", "2"])
    assert code == 0
    assert json.loads(out)["cells"] == []


# ---------------------------------------------------------------------------
# lemma suite


def test_lemma_row_rate():
    row = harness.LemmaRow(
        name="x", d=1, m=1, trials=4, passes=2, required_rate=0.5,
        threshold="", claim="", stat_min=0.0, stat_mean=0.0, stat_max=0.0,
        verdict="PASS",
    )
    assert row.rate == 0.5
    observe = harness.LemmaRow(
        name="x", d=1, m=1, trials=4, passes=None, required_rate=None,
        threshold="", claim="", stat_min=0.0, stat_mean=0.0, stat_max=0.0,
        verdict="OBSERVE",
    )
    assert observe.rate is None


QUICK_NAMES = [
    "a-spectrum-lower", "a-spectrum-upper", "eta-norm-band", "scalar-r",
    "scalar-u", "scalar-s", "scalar-denominator", "scalars-joint", "md-norm",
]


def test_mbeta_norm_prediction_tracks_realized_norm():
    d, m = 100, 600
    pred = harness.mbeta_norm_prediction(d, m)
    assert pred == pytest.approx(
        2 / d**2 * (m**0.5 + d**0.5) ** 2 - 2 / d, rel=1e-12)
    for seed in range(5):
        mbeta = graphmat.realize("mbeta", sampling.sample_vectors(seed, d, m))
        norm = float(np.max(np.abs(np.linalg.eigvalsh(mbeta))))
        assert 0.9 <= norm / pred <= 1.1
    # the limit value 2m/d^2 is approached from above as m/d grows
    ratios = [harness.mbeta_norm_prediction(d, k) / (2 * k / d**2)
              for k in (10**3, 10**5, 10**7)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] < 1.01


def test_lemma_suite_quick_names():
    rows = harness.lemma_suite(seed=0, trials=3, sizes=[(60, 120)], quick=True)
    assert [row.name for row in rows] == QUICK_NAMES
    assert all(row.d == 60 and row.m == 120 for row in rows)


def test_lemma_suite_full_row_set():
    rows = harness.lemma_suite(seed=0, trials=2, sizes=[(60, 120)])
    names = [row.name for row in rows]
    assert names[:9] == QUICK_NAMES
    assert "mbeta-norm" in names and "r-norm" in names
    assert any(name.startswith("split-residual-K") for name in names)
    by_verdict = {row.name for row in rows if row.verdict == "OBSERVE"}
    assert by_verdict == {"t-norm", "sumvv-ratio"}
    assert all(row.verdict in ("PASS", "FAIL", "OBSERVE", "NODATA")
               for row in rows)


def test_lemma_suite_offdiagonal_norms_memory_peak(monkeypatch):
    # traced peak from the start of each realize until the next stage, in
    # m x m float64 arrays: the realized part itself and no symmetry-check
    # temporaries (with those it was 3.0)
    d, m = 60, 1000
    realize = graphmat.realize
    names, peaks, opened = [], [], []

    def mark(name):
        now, peak = tracemalloc.get_traced_memory()
        if opened:
            peaks.append((peak - opened.pop()) / (m * m * 8))
        names.append(name)
        opened.append(now)
        tracemalloc.reset_peak()

    def marked_realize(name, sample):
        mark(name)
        return realize(name, sample)

    def stop(dec, sample):
        mark("solve")
        raise construction.SingularMatrixError("stop after the norm rows")

    monkeypatch.setattr(graphmat, "realize", marked_realize)
    monkeypatch.setattr(harness.construction, "solve_weights", stop)
    tracemalloc.start()
    try:
        harness.lemma_suite(seed=1, trials=1, sizes=[(d, m)], threads=1)
    finally:
        tracemalloc.stop()
    assert names == ["mbeta", "malpha", "solve"]
    assert max(peaks) <= 1.6, peaks


def test_lemma_suite_size_validation():
    with pytest.raises(harness.UsageError):
        harness.lemma_suite(sizes=[(0, 5)], trials=1)


def test_verify_lemmas_cli(tmp_path):
    base = str(tmp_path / "lem")
    code, out = run_cli(["verify-lemmas", "--sizes", "60:120", "--trials", "2",
                         "--quick", "--out", base])
    assert code == 0
    assert "a-spectrum-lower" in out
    payload = json.loads((tmp_path / "lem.json").read_text())
    assert len(payload["rows"]) == 9
    assert (tmp_path / "lem.csv").exists()


def test_verify_lemmas_cli_failures_still_exit_zero(capsys):
    # tiny sizes break the spectrum band; the command reports, never fails
    code, out = run_cli(["verify-lemmas", "--sizes", "30:60", "--trials", "2",
                         "--quick"])
    assert code == 0
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# block-value, norms CLIs


def test_block_value_cli_table():
    code, out = run_cli(["block-value", "--shape", "mbeta", "--d", "100",
                         "--m", "50", "--q", "3"])
    assert code == 0
    assert "admissible=14/16" in out
    assert "total" in out


def test_block_value_cli_requires_m(capsys):
    code, _ = run_cli(["block-value", "--shape", "mbeta", "--d", "100",
                       "--q", "3"])
    assert code == 1
    assert "requires --m" in capsys.readouterr().err


def test_block_value_cli_verify_and_out(tmp_path):
    base = str(tmp_path / "blk")
    code, out = run_cli(["block-value", "--shape", "goe", "--d", "80",
                         "--q", "2", "--verify", "--trials", "5",
                         "--out", base])
    assert code == 0
    assert "trace: measured" in out
    assert (tmp_path / "blk.json").exists()


def test_block_value_cli_verify_prints_trace_mc_numbers():
    code, out = run_cli(["block-value", "--shape", "md3", "--d", "40",
                         "--m", "80", "--q", "2", "--verify", "--trials", "5"])
    assert code == 0
    assert "trace mc mean" in out
    rep = graphmat.verify_block_bound("md3", 40, 80, 2, 5, 0)
    assert f"shape=md3 d=40 m=80 q=2 dv={rep.dv} " in out
    assert f"total {rep.block_total!r}\n" in out
    assert (f"trials=5 dimension={rep.dimension} trace mc mean "
            f"{rep.mc_mean!r} stderr {rep.mc_stderr!r}\n") in out
    for name, ok, measured, bound in rep.rows():
        assert (f"{'PASS' if ok else 'FAIL'} {name}: measured {measured!r} "
                f"vs bound {bound!r}\n") in out


def test_block_value_cli_verify_out_json_holds_report(tmp_path):
    texts = []
    for run in ("a", "b"):
        base = str(tmp_path / run)
        code, _ = run_cli(["block-value", "--shape", "md3", "--d", "40",
                           "--m", "80", "--q", "2", "--verify", "--trials",
                           "5", "--seed", "3", "--out", base])
        assert code == 0
        texts.append((tmp_path / f"{run}.json").read_text())
        header = (tmp_path / f"{run}.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.BLOCK_FIELDS)
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    rep = graphmat.verify_block_bound("md3", 40, 80, 2, 5, 3)
    assert payload["report"] == {f.name: getattr(rep, f.name)
                                 for f in dataclasses.fields(rep)}
    assert payload["breakdown"]["total"] == rep.block_total


def test_norms_cli_all_shapes():
    code, out = run_cli(["norms", "--d", "40", "--m", "80", "--trials", "3"])
    assert code == 0
    for name in ("goe", "malpha", "mbeta", "md1", "md2", "md3", "sumvv"):
        assert name in out


def test_norms_cli_draws_each_trial_once(monkeypatch):
    calls = []
    draw = sampling.sample_vectors

    def counted(seed, d, m):
        calls.append(seed)
        return draw(seed, d, m)

    monkeypatch.setattr(sampling, "sample_vectors", counted)
    code, _ = run_cli(["norms", "--d", "20", "--m", "30", "--trials", "3",
                       "--seed", "4"])
    assert code == 0
    assert calls == [sampling.trial_seed(4, t) for t in range(3)]


def test_norms_cli_requires_m_for_square_shapes(capsys):
    code, _ = run_cli(["norms", "--d", "40", "--trials", "2"])
    assert code == 1
    assert "requires --m" in capsys.readouterr().err


def test_norms_cli_goe_without_m():
    code, out = run_cli(["norms", "--shape", "goe", "--d", "40",
                         "--trials", "2"])
    assert code == 0
    assert "goe" in out


# ---------------------------------------------------------------------------
# serialization


def test_csv_cell_rendering():
    cell = harness._csv_cell
    assert cell(None) == ""
    assert cell(True) == "true"
    assert cell(np.bool_(False)) == "false"
    assert cell(0.5) == "0.5"
    assert cell(np.float64(0.25)) == "0.25"
    assert cell(np.float64(1) / 3) == repr(1 / 3)
    assert cell("x") == "x"
    assert cell(7) == "7"


def test_render_json_layout():
    got = harness.render_json({"b": 0.5, "a": [2]})
    assert got == '{\n  "a": [\n    2\n  ],\n  "b": 0.5\n}\n'


def test_ratio_and_size_parsers():
    import argparse

    assert harness._ratio_type("1/4") == 0.25
    assert harness._ratio_type("0.125") == 0.125
    with pytest.raises(argparse.ArgumentTypeError):
        harness._ratio_type("1/0")
    assert harness._size_type("500:2500") == (500, 2500)
    with pytest.raises(argparse.ArgumentTypeError):
        harness._size_type("500x2500")
