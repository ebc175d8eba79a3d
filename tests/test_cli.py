"""Command-line behavior: flags, config files, CSV determinism, exit codes.

``tests/data/cli_sha256.json`` holds the sha256 of every file written by
``tdac reproduce`` for each figure, by the two config-file sweeps and by the
flag commands below, and of the flag commands' stdout. Regenerate it only
when a correctness fix changes output values:

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tdacsim import (
    LN2,
    DigitalCode,
    LeakConfig,
    TdacConfig,
    Waveform,
    _csvtext,
    alpha_waveform,
    cli,
    convert_quadrature,
    core,
    dual_exp_waveform,
    leaky_voltage,
    simulate_leaky,
)
from tdacsim.cli import main


def run_cli(args):
    """Invoke the CLI in-process; a usage error that escapes main fails the test."""
    return main([str(a) for a in args])


def listing(directory):
    """Sorted file names in a directory; a directory never created lists as empty."""
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


# --- transfer ----------------------------------------------------------------

def test_transfer_linear_at_ln2(tmp_path, capsys):
    code = run_cli(["transfer", "--q", 8, "--ratio", LN2, "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotone=true" in out
    inl = float(out.split("max_abs_inl=")[1].splitlines()[0])
    assert inl < 1e-6
    header, rows = read_rows(tmp_path / "transfer.csv")
    assert header == "code,v_out"
    assert len(rows) == 256


def test_transfer_seven_digit_ratio_still_monotone(tmp_path, capsys):
    # |INL| is steep in the ratio (~1e2 per unit), so seven digits of ln 2
    # leave a few 1e-6 LSB of residual curvature but keep monotonicity
    code = run_cli(["transfer", "--q", 8, "--ratio", 0.6931472, "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotone=true" in out
    assert float(out.split("max_abs_inl=")[1].splitlines()[0]) < 1e-5


def test_transfer_non_monotone_below_ln2(tmp_path, capsys):
    code = run_cli(["transfer", "--q", 8, "--ratio", 0.5, "--out", tmp_path])
    assert code == 0
    assert "monotone=false" in capsys.readouterr().out


def test_transfer_single_bit(tmp_path, capsys):
    code = run_cli(["transfer", "--q", 1, "--ratio", 1.0, "--out", tmp_path])
    assert code == 0
    _, rows = read_rows(tmp_path / "transfer.csv")
    assert len(rows) == 2


def test_transfer_quadrature_engine_matches(tmp_path):
    run_cli(["transfer", "--q", 4, "--ratio", 0.8, "--out", tmp_path / "a"])
    run_cli(["transfer", "--q", 4, "--ratio", 0.8, "--engine", "quadrature",
             "--steps-per-slot", 512, "--out", tmp_path / "b"])
    _, rows_a = read_rows(tmp_path / "a" / "transfer.csv")
    _, rows_b = read_rows(tmp_path / "b" / "transfer.csv")
    for ra, rb in zip(rows_a, rows_b):
        va, vb = float(ra.split(",")[1]), float(rb.split(",")[1])
        assert vb == pytest.approx(va, abs=1e-9)


def test_transfer_quadrature_values_equal_per_code_conversion(tmp_path):
    assert run_cli(["transfer", "--q", 4, "--ratio", 0.7, "--tau2", 1.7, "--vset", 1.3,
                    "--cout", 0.6, "--engine", "quadrature", "--steps-per-slot", 32,
                    "--out", tmp_path]) == 0
    cfg = TdacConfig(q=4, t_w=0.7 * 1.7, tau2=1.7, v_set=1.3, c_out=0.6)
    _, rows = read_rows(tmp_path / "transfer.csv")
    # 17 significant digits round-trip, so the written values compare exactly
    assert [float(r.split(",")[1]) for r in rows] == [
        convert_quadrature(cfg, DigitalCode.from_int(c, 4), 32) for c in range(16)
    ]


def test_transfer_quadrature_rejects_coarse_rule(tmp_path, capsys):
    argv = ["transfer", "--q", 4, "--ratio", 0.7, "--engine", "quadrature",
            "--steps-per-slot", 8, "--out", tmp_path]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: steps_per_slot must be >= 16\n"
    assert not (tmp_path / "transfer.csv").exists()


@pytest.mark.parametrize("engine", ["closed-form", "quadrature"])
def test_transfer_width_limit(engine, tmp_path, capsys):
    argv = ["transfer", "--q", 17, "--ratio", 0.7, "--engine", engine, "--out", tmp_path]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (
        "error: full transfer-curve enumeration is limited to q <= 16\n"
    )
    assert not (tmp_path / "transfer.csv").exists()


@pytest.mark.parametrize("engine", [["--engine", "closed-form"], ["--engine", "quadrature"],
                                    ["--signed"]])
def test_transfer_non_finite_curve_exits_1(engine, tmp_path, capsys):
    # v_set / c_out past the float range: every output of the curve is inf
    argv = ["transfer", "--q", 8, "--ratio", LN2, "--vset", 1e300, "--cout", 1e-10,
            *engine, "--out", tmp_path]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "transfer.csv").exists()


@pytest.mark.parametrize("engine", ["closed-form", "quadrature"])
def test_transfer_report_error_leaves_no_file(engine, tmp_path, capsys):
    # every output underflows to 0.0: the curve is valid, its linearity report is not
    argv = ["transfer", "--q", 8, "--ratio", 0.69, "--vset", 1e-300, "--cout", 1e300,
            "--engine", engine, "--out", tmp_path]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degenerate flat curve: endpoint step is zero\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine", ["closed-form", "quadrature"])
def test_transfer_makes_no_per_code_calls(engine, per_code_calls, tmp_path):
    argv = ["transfer", "--q", 12, "--ratio", 0.7, "--engine", engine, "--out", tmp_path]
    assert run_cli(argv) == 0
    assert sum(per_code_calls.values()) == 0


def test_transfer_requires_tw_or_ratio(tmp_path, capsys):
    assert run_cli(["transfer", "--q", 8, "--out", tmp_path]) == 2


def test_transfer_rejects_bad_numbers(tmp_path):
    assert run_cli(["transfer", "--q", 0, "--ratio", 0.5, "--out", tmp_path]) == 1
    assert run_cli(["transfer", "--q", 8, "--tw", -1.0, "--out", tmp_path]) == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert run_cli(["transfer", "--q", 8, "--ratio", 0.5, "--frobnicate", 1]) == 2


@pytest.mark.parametrize("config", [None, (
    "experiment=transfer\nbase.ratio=0.6931471805599453\n"
    "signed.enabled=true\nengine=quadrature\n"
)], ids=["flags", "config"])
def test_transfer_signed_quadrature_is_usage_error(config, tmp_path, capsys):
    # the signed curve has only the closed-form engine
    if config is None:
        argv = ["transfer", "--ratio", LN2, "--signed", "--engine", "quadrature"]
    else:
        (tmp_path / "exp.cfg").write_text(config)
        argv = ["--config", tmp_path / "exp.cfg"]
    assert run_cli([*argv, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        "usage error: signed.enabled needs engine=closed-form\n"
    )
    assert not (tmp_path / "transfer.csv").exists()


# a parameter the chosen mode does not read: its flag, its file line and the
# usage error naming the (parameter, value) pair it needs
IGNORED_PARAMS = {
    "steps-per-slot": (["transfer", "--q", 6, "--ratio", LN2, "--steps-per-slot", 16],
                       "experiment=transfer\nbase.q=6\nbase.ratio=0.7\nsampling.steps_per_slot=16\n",
                       "sampling.steps_per_slot needs engine=quadrature"),
    "gain-pos": (["transfer", "--q", 6, "--ratio", LN2, "--gain-pos", 2, "--baseline", 5],
                 "experiment=transfer\nbase.q=6\nbase.ratio=0.7\nsigned.gain_pos=2\n"
                 "signed.baseline=5\n",
                 "signed.gain_pos needs signed.enabled=true"),
    "gain-neg": (["transfer", "--ratio", LN2, "--gain-neg", 0.5],
                 "experiment=transfer\nbase.ratio=0.7\nsigned.gain_neg=0.5\n",
                 "signed.gain_neg needs signed.enabled=true"),
    "baseline": (["transfer", "--ratio", LN2, "--baseline", 5],
                 "experiment=transfer\nbase.ratio=0.7\nsigned.baseline=5\n",
                 "signed.baseline needs signed.enabled=true"),
    "dt": (["waveform", "--code", "1101", "--ratio", 0.4, "--dt", 0.01],
           "experiment=waveform\ncode=1101\nbase.ratio=0.4\nsampling.dt=0.01\n",
           "sampling.dt needs engine=numeric"),
}


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("case", sorted(IGNORED_PARAMS))
def test_ignored_parameter_is_usage_error(case, source, tmp_path, capsys):
    flags, text, message = IGNORED_PARAMS[case]
    if source == "flags":
        argv = flags
    else:
        (tmp_path / "exp.cfg").write_text(text)
        argv = ["--config", tmp_path / "exp.cfg"]
    assert run_cli([*argv, "--out", tmp_path / "out"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    ["--steps-per-slot", 256],
    ["--gain-pos", 1.0, "--gain-neg", 1, "--baseline", 0],
    ["--engine", "closed-form"],
], ids=["steps-per-slot", "gains", "engine"])
def test_ignored_parameter_at_its_default_is_accepted(extra, tmp_path, capsys):
    argv = ["transfer", "--q", 6, "--ratio", LN2]
    assert run_cli([*argv, "--out", tmp_path / "plain"]) == 0
    plain = capsys.readouterr().out.replace(str(tmp_path / "plain"), "@")
    assert run_cli([*argv, *extra, "--out", tmp_path / "extra"]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path / "extra"), "@") == plain
    csv = "transfer.csv"
    assert (tmp_path / "extra" / csv).read_bytes() == (tmp_path / "plain" / csv).read_bytes()


def test_transfer_signed_curve(tmp_path, capsys):
    code = run_cli(["transfer", "--q", 8, "--ratio", LN2, "--signed",
                    "--gain-pos", 2.0, "--out", tmp_path])
    assert code == 0
    _, rows = read_rows(tmp_path / "transfer.csv")
    values = [float(r.split(",")[1]) for r in rows]
    assert values[0] == 0.0 and values[128] == 0.0
    assert values[1] < 0.0 and values[255] > 0.0


# --- waveform ----------------------------------------------------------------

def test_waveform_all_ones_long_code_peaks_at_dual_extremum(tmp_path, capsys):
    # 2000 bits at t_w = 0.005 keep the gate up for ten leak constants
    code = run_cli(["waveform", "--code", "1" * 2000, "--tau1", 1.0,
                    "--tau2", 0.5, "--tw", 0.005, "--t-end", 5.0,
                    "--dt-out", 0.002, "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    peak_value = float(out.split("peak_value=")[1].splitlines()[0])
    assert peak_value == pytest.approx(0.25, rel=0.01)


def test_waveform_zero_code_is_flat(tmp_path, capsys):
    code = run_cli(["waveform", "--code", "00000000", "--tau1", 1.0,
                    "--tau2", 1.0, "--tw", 0.1, "--out", tmp_path])
    assert code == 0
    _, rows = read_rows(tmp_path / "waveform.csv")
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_waveform_alternating_codes_have_different_peaks(tmp_path, capsys):
    peaks = {}
    for text in ("10101010", "01010101"):
        run_cli(["waveform", "--code", text, "--tau1", 1.0, "--tau2", 1.0,
                 "--tw", LN2, "--out", tmp_path])
        out = capsys.readouterr().out
        peaks[text] = float(out.split("peak_value=")[1].splitlines()[0])
    assert peaks["10101010"] > peaks["01010101"]


def test_waveform_code_length_mismatch_exits_1(tmp_path):
    assert run_cli(["waveform", "--code", "1010", "--q", 8, "--tw", 0.1,
                    "--out", tmp_path]) == 1


@pytest.mark.parametrize("engine", [["analytic"], ["numeric", "--dt", 1e-3]])
def test_waveform_sample_budget_exits_1(engine, tmp_path, capsys):
    # 1e12 samples: rejected from the count alone, before any array or step
    argv = ["waveform", "--code", "1010", "--tw", 0.5, "--t-end", 1e9, "--dt-out", 1e-3,
            "--engine", *engine, "--out", tmp_path]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--tau1", 0.01, "--dt", 0.02785],
     "dt must be at most 0.1 * min(tau1, tau2) for RK4 to be accurate"),
    # the RK4 state passes the float range in plain float arithmetic
    (["--tau1", 1000, "--vset", 1.7e308, "--v0", 1.7e308, "--t-end", 2],
     "waveform times and values must be finite"),
], ids=["rk4-accuracy", "overflow"])
def test_waveform_numeric_errors_exit_1(argv, message, tmp_path, capsys):
    argv = ["waveform", "--code", "11", "--tw", 1, "--tau2", 1, "--engine", "numeric",
            *argv, "--out", tmp_path]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


WINDOW_OVERFLOW = "the default t_end, 10 * max(tau1, tau2) + q * t_w, overflows a float"


@pytest.mark.parametrize("argv, message", [
    (["--tw", 1e308], WINDOW_OVERFLOW),
    (["--tw", 1e308, "--engine", "numeric"], WINDOW_OVERFLOW),
    (["--tw", 1, "--t-end", "inf"], "t_end must be finite and positive"),
    (["--tw", 1, "--dt-out", "nan"], "dt_out must be finite and positive"),
], ids=["analytic", "numeric", "t-end-inf", "dt-out-nan"])
def test_waveform_window_errors_name_their_cause(argv, message, tmp_path, capsys):
    # an overflowing default window used to blame a t_end that was never given
    assert run_cli(["waveform", "--code", "1111", *argv, "--out", tmp_path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_code_window_overflow_is_one_line_exit_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment=sweep-code\nbase.tw=1e308\nsweep.codes=1111,01\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {WINDOW_OVERFLOW}\n"
    assert not (tmp_path / "out").exists()


def test_waveform_numeric_step_may_span_slots(tmp_path):
    # dt is half a slot: each drive stretch gets its own steps, so the rows
    # stay within RK4's accuracy bound of the exact response
    argv = ["waveform", "--code", "1101", "--tw", 0.1, "--engine", "numeric", "--dt", 0.05,
            "--out", tmp_path]
    assert run_cli(argv) == 0
    _, rows = read_rows(tmp_path / "waveform.csv")
    t, v = np.array([row.split(",") for row in rows], dtype=float).T
    exact = leaky_voltage(TdacConfig(q=4, t_w=0.1), LeakConfig(tau1=1.0),
                          DigitalCode.from_string("1101"), t)
    assert len(rows) == 210
    assert np.max(np.abs(v - exact)) <= 1e-6


def test_waveform_peak_falls_back_to_sample_maximum(tmp_path, capsys):
    # every row is finite, but the quadratic peak refinement overflows
    argv = ["waveform", "--code", 1, "--tw", 1, "--tau2", 1, "--tau1", 1,
            "--vset", 1e308, "--out", tmp_path]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "peak_time=1\npeak_value=3.6787944117144235e+307\n" in out


def test_waveform_tiny_tau2_is_finite(tmp_path):
    # -a / tau2 passes the float range in the sample path, and exp(-inf) is the right 0
    argv = ["waveform", "--code", "1000000000000000001", "--tw", 1, "--tau2", 1e-307,
            "--tau1", 1, "--out", tmp_path]
    assert run_cli(argv) == 0
    _, rows = read_rows(tmp_path / "waveform.csv")
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def test_waveform_tiny_tau2_long_drive_is_finite(tmp_path, capsys):
    # on a long driven stretch lam * dt passes the float range too, as -inf,
    # and phi(-inf) is the right 0
    argv = ["waveform", "--code", 1, "--tw", 100, "--tau2", 1e-307, "--tau1", 1,
            "--out", tmp_path]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.endswith(
        "peak_time=0.077897229106700952\npeak_value=1.0488159485995741e-307\n"
    )


def test_waveform_tiny_tau1_long_drive_is_finite(tmp_path, capsys):
    # lam * dt passes the float range as +inf; the propagator hands phi
    # -|lam| dt = -inf instead, and phi(-inf) is the right 0
    argv = ["waveform", "--code", 1, "--tw", 100, "--tau2", 1, "--tau1", 1e-307,
            "--out", tmp_path]
    assert run_cli(argv) == 0
    _, rows = read_rows(tmp_path / "waveform.csv")
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    assert capsys.readouterr().err == ""


def test_waveform_fast_leak_is_finite(tmp_path, capsys):
    # lam * dt reaches 3996: a leak much faster than the drive, which stays on
    # up to t_end, so every row is the dual-exponential shape
    argv = ["waveform", "--code", "11111111", "--tw", 6.931471805599453, "--tau2", 10,
            "--tau1", 0.01, "--t-end", 40, "--out", tmp_path]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_rows(tmp_path / "waveform.csv")
    t, v = np.array([row.split(",") for row in rows], dtype=float).T
    assert len(rows) == 2054 and np.isfinite(v).all()
    assert np.max(np.abs(v - dual_exp_waveform(1.0, 0.01, 10.0, t))) <= 1e-6 * 0.01


# the initial state plus the drive pass the float range on the first stretch
PROPAGATOR_OVERFLOW = ["waveform", "--code", "11", "--tw", "1", "--tau2", "1", "--tau1", "1000",
                       "--vset", "1.7e308", "--v0", "1.7e308", "--t-end", "1"]


def test_waveform_propagator_overflow_is_one_line_exit_1(tmp_path, capsys):
    assert run_cli([*PROPAGATOR_OVERFLOW, "--out", tmp_path]) == 1
    assert capsys.readouterr().err == "error: overflow encountered in add\n"
    assert list(tmp_path.iterdir()) == []


def test_waveform_numeric_engine_agrees(tmp_path):
    args = ["waveform", "--code", "1101", "--tau1", 1.0, "--tau2", 1.0,
            "--tw", 0.4, "--t-end", 3.0, "--out"]
    run_cli(args + [tmp_path / "a", "--engine", "analytic", "--dt-out", 0.01])
    run_cli(args + [tmp_path / "b", "--engine", "numeric", "--dt", 0.004])
    _, rows_a = read_rows(tmp_path / "a" / "waveform.csv")
    _, rows_b = read_rows(tmp_path / "b" / "waveform.csv")
    va = {r.split(",")[0]: float(r.split(",")[1]) for r in rows_a}
    vb = {r.split(",")[0]: float(r.split(",")[1]) for r in rows_b}
    common = set(va) & set(vb)
    assert len(common) > 5
    assert all(abs(va[t] - vb[t]) < 1e-9 for t in common)


# --- fit -----------------------------------------------------------------------

def _write_csv(path, t, v):
    rows = "\n".join(f"{float(ti)!r},{float(vi)!r}" for ti, vi in zip(t, v))
    path.write_text(f"t,v\n{rows}\n")


def test_fit_recovers_dual_parameters(tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(tmp_path / "in.csv", t, dual_exp_waveform(1.0, 1.0, 0.5, t))
    code = run_cli(["fit", "--input", tmp_path / "in.csv", "--model", "dual"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.split("tau1_fit=")[1].splitlines()[0]) == pytest.approx(1.0, rel=0.01)
    assert float(out.split("tau2_fit=")[1].splitlines()[0]) == pytest.approx(0.5, rel=0.01)


def test_fit_flat_file_is_input_error(tmp_path, capsys):
    t = np.linspace(0.0, 4.0, 40)
    _write_csv(tmp_path / "flat.csv", t, np.full_like(t, 1.5))
    assert run_cli(["fit", "--input", tmp_path / "flat.csv", "--model", "alpha"]) == 1


def test_fit_alpha_on_dual_data_converges_with_larger_sse(tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(tmp_path / "in.csv", t, dual_exp_waveform(1.0, 1.0, 0.25, t))
    run_cli(["fit", "--input", tmp_path / "in.csv", "--model", "dual"])
    sse_dual = float(capsys.readouterr().out.split("sse=")[1].splitlines()[0])
    code = run_cli(["fit", "--input", tmp_path / "in.csv", "--model", "alpha"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged=true" in out
    assert float(out.split("sse=")[1].splitlines()[0]) > sse_dual


@pytest.mark.parametrize("model", ["alpha", "dual"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("{t},oops", "non-numeric row"),
        ("{t},inf", "non-finite value"),
        ("nan,{v}", "non-finite value"),
        ("{t},{v},3", "expected two comma-separated fields"),
        ("\n{t_prev},{v}", "time values must be strictly increasing"),
    ],
    ids=["oops", "inf", "nan", "three-fields", "blank-then-repeated-time"],
)
def test_fit_malformed_csv_reports_line(row, message, model, tmp_path, capsys):
    # one bad row in an otherwise fittable trace: without the row check an
    # inf or nan gave tau1_fit=nan and exit 3
    t = np.linspace(0.0, 8.0, 40)
    _write_csv(tmp_path / "bad.csv", t, alpha_waveform(1.0, 1.0, t))
    lines = (tmp_path / "bad.csv").read_text().splitlines()
    t2, v2 = lines[2].split(",")
    lines[2] = row.format(t=t2, v=v2, t_prev=lines[1].split(",")[0])
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    assert run_cli(["fit", "--input", tmp_path / "bad.csv", "--model", model]) == 1
    lineno = 3 + row.count("\n")  # a blank line before the bad row is counted
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty input file"),
    ("x,y\n0,1\n", "line 1: expected header 't,v'"),
    ("t,v\n", "line 2: no data rows"),
], ids=["empty", "header", "no-rows"])
def test_fit_input_file_errors_exit_1(text, message, tmp_path, capsys):
    (tmp_path / "in.csv").write_text(text)
    assert run_cli(["fit", "--input", tmp_path / "in.csv", "--model", "dual"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fit_missing_input_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli(["fit", "--input", missing, "--model", "dual"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1


# _read_waveform_csv as it was before it handed the rows to numpy's C reader,
# kept verbatim: the new reader must give the same times and values to the
# last bit, or the same error, on every body

def _read_waveform_csv_reference(path) -> Waveform:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise ValueError("line 1: empty input file")
    if lines[0].strip() != "t,v":
        raise ValueError("line 1: expected header 't,v'")
    times: list[float] = []
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two comma-separated fields")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric row {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValueError(f"line {lineno}: non-finite value")
        if times and t <= times[-1]:
            raise ValueError(f"line {lineno}: time values must be strictly increasing")
        times.append(t)
        values.append(v)
    if not times:
        raise ValueError("line 2: no data rows")
    return Waveform(times, values)


# text put into a row, or a row put in place of one; the first three are the
# separators that str.splitlines() splits on and the CSV writer never writes
CSV_INSERTS = ["\x0c", "\x1c", "\u2028", "#", ",", ",3", " ", "\t"]
CSV_FIELDS = ["1_0", "\u0661", "inf", "-inf", "nan", "1e400", "-1e400", " 2.5 ", "", "0x10"]
CSV_ROWS = ["", "   ", "\t", ","]


@st.composite
def csv_bodies(draw):
    """Rows of increasing %.17g times and values, then a few mutations."""
    n = draw(st.integers(0, 12))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    rows = ["%.17g,%.17g" % tv for tv in zip(np.cumsum(steps).tolist(), values)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["insert", "field", "row", "repeat", "swap"]))
        if kind == "row" or i == len(rows):
            rows.insert(i, draw(st.sampled_from(CSV_ROWS)))
        elif kind == "insert":
            j = draw(st.integers(0, len(rows[i])))
            rows[i] = rows[i][:j] + draw(st.sampled_from(CSV_INSERTS)) + rows[i][j:]
        elif kind == "field":
            fields = rows[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(CSV_FIELDS))
            rows[i] = ",".join(fields)
        elif kind == "repeat" and i > 0:
            rows[i] = rows[i - 1].split(",")[0] + "," + rows[i].split(",")[-1]
        elif i > 0:
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
    if draw(st.booleans()):
        rows = [draw(st.sampled_from(CSV_ROWS[:3])) for _ in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(["t,v", *rows]) + draw(st.sampled_from(["", newline]))


def _read_outcome(read, path):
    try:
        wf = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return wf.times.tobytes(), wf.values.tobytes()


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=csv_bodies())
@example(body="t,v")
@example(body="t,v\n\n  \n")
@example(body="t,v\n0,1\n1_0,2\n")
@example(body="t,v\n0,1\n1,2 # x\n")
@example(body="t,v\r\n0,1\r\n\u0661,2\r\n")
@example(body="t,v\n0,1\n1,2,\n")
def test_fit_csv_reader_equals_the_line_walk(body, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(body, encoding="utf-8", newline="")
    # a warning, such as numpy's on a body without data, must not escape
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = _read_outcome(cli._read_waveform_csv, path)
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert new == _read_outcome(_read_waveform_csv_reference, path)


@pytest.mark.parametrize("model", ["alpha", "dual"])
def test_fit_of_a_huge_waveform_is_one_line_exit_1(model, tmp_path, capsys):
    # the sse floor squares the peak; past about 1e154 that overflows
    t = np.linspace(0.0, 8.0, 40)
    _write_csv(tmp_path / "huge.csv", t, -1e200 * alpha_waveform(1.0, 1.0, t))
    assert run_cli(["fit", "--input", tmp_path / "huge.csv", "--model", model]) == 1
    assert capsys.readouterr().err == (
        "error: waveform peak squared overflows a float (|v| above about 1e154)\n")


def test_fit_non_converged_exits_3(tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 200)
    v = alpha_waveform(1.0, 1.0, t) + 0.05 * np.sin(40.0 * t)
    _write_csv(tmp_path / "wob.csv", t, v)
    code = run_cli(["fit", "--input", tmp_path / "wob.csv", "--model", "alpha",
                    "--max-iterations", 1])
    out = capsys.readouterr().out
    assert code == 3
    assert "converged=false" in out  # data still printed


@pytest.mark.parametrize("source", ["flag", "file"])
def test_fit_negative_max_iterations_is_one_line_exit_1(source, tmp_path, capsys):
    # it used to exit 3 and print the unfitted seed as iterations=0
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(tmp_path / "in.csv", t, dual_exp_waveform(1.0, 1.0, 0.5, t))
    argv = ["fit", "--input", tmp_path / "in.csv", "--model", "dual", "--max-iterations", -1]
    if source == "file":
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"experiment=fit\ninput={tmp_path / 'in.csv'}\nmodel=dual\n"
                       "fit.max_iterations=-1\n")
        argv = ["--config", cfg]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_iterations must be >= 0\n"


def test_fit_with_zero_iterations_reports_the_seed(tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(tmp_path / "in.csv", t, dual_exp_waveform(1.0, 1.0, 0.5, t))
    assert run_cli(["fit", "--input", tmp_path / "in.csv", "--model", "dual",
                    "--max-iterations", 0]) == 3
    out = capsys.readouterr().out
    assert "converged=false\n" in out and "iterations=0\n" in out


def test_fit_reports_convergence_of_the_kept_run(tmp_path, capsys):
    # the first dual run stalls; the reseeded polish converges to a slightly
    # larger sse and is discarded, so its convergence flag must go with it
    argv = ["waveform", "--code", "00000011", "--ratio", LN2, "--tau2", 0.5, "--tau1", 5,
            "--out", tmp_path]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert run_cli(["fit", "--input", tmp_path / "waveform.csv", "--model", "dual"]) == 3
    out = capsys.readouterr().out
    assert "sse=0.00054889004436767426\n" in out
    assert "converged=false\n" in out


# --- calibrate -----------------------------------------------------------------

def test_calibrate_finds_ln2(capsys):
    assert run_cli(["calibrate", "--tau2", 1, "--q", 8, "--lo", 0.3, "--hi", 1.2]) == 0
    got = float(capsys.readouterr().out.split("t_w=")[1].splitlines()[0])
    assert got == LN2


def test_calibrate_scales(capsys):
    assert run_cli(["calibrate", "--tau2", 2, "--q", 8, "--lo", 0.6, "--hi", 2.4]) == 0
    got = float(capsys.readouterr().out.split("t_w=")[1].splitlines()[0])
    assert got == 2 * LN2


def test_calibrate_non_bracketing_exits_1(capsys):
    assert run_cli(["calibrate", "--tau2", 1, "--q", 8, "--lo", 0.8, "--hi", 1.2]) == 1


def test_calibrate_keeps_the_curve_width_limit(capsys):
    # the library calibrates past 16 bits, but the command also prints the
    # enumerated curve's max |INL|
    assert run_cli(["calibrate", "--tau2", 1, "--q", 17, "--lo", 0.3, "--hi", 1.2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: full transfer-curve enumeration is limited to q <= 16\n"


# --- usage and dispatch ----------------------------------------------------------

def test_no_command_is_usage_error():
    assert run_cli([]) == 2


def test_unknown_figure_is_usage_error(tmp_path):
    assert run_cli(["reproduce", "fig99", "--out", tmp_path]) == 2


def test_negative_value_in_e_notation_is_a_value(tmp_path):
    argv = ["waveform", "--code", "1010", "--tw", 0.4, "--v0", "-1e-05", "--out", tmp_path]
    assert run_cli(argv) == 0
    _, rows = read_rows(tmp_path / "waveform.csv")
    assert float(rows[0].split(",")[1]) == -1e-05
    assert run_cli(["transfer", "--q", -3, "--ratio", 0.5, "--out", tmp_path]) == 1


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-INF", "-NaN"])
def test_negative_non_finite_flag_value_is_a_value(value, tmp_path, capsys):
    # float() reads each of these, so the flag fails as the config file does
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment=waveform\ncode=1\nbase.tw=1\nleak.v0={value}\n")
    for argv in (["waveform", "--code", "1", "--tw", 1, "--v0", value], ["--config", cfg]):
        assert run_cli([*argv, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: v0 must be finite\n"
    assert not (tmp_path / "out").exists()
    assert run_cli(["waveform", "--code", "1", "--tw", 1, "--v0", f"{value}x"]) == 2


@pytest.mark.parametrize("argv, config, message", [
    (["fit", "--input", "f.csv"], None, "fit needs model"),
    (["reproduce"], None, "reproduce needs figure"),
    ([], "experiment=sweep-ratio\n", "sweep-ratio needs sweep.ratios"),
], ids=["fit-model", "reproduce-figure", "sweep-ratios"])
def test_missing_required_value_is_usage_error(argv, config, message, tmp_path, capsys):
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv = ["--config", tmp_path / "exp.cfg"]
    assert run_cli([*argv, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_seed_flag_is_gone(tmp_path):
    assert run_cli(["transfer", "--q", 4, "--ratio", 0.5, "--seed", 1, "--out", tmp_path]) == 2


@pytest.mark.parametrize("argv", [
    ["transfer", "--q", "abc", "--ratio", 0.5],
    ["transfer", "--ratio", 0.5, "--engine", "spline"],
    ["reproduce", "fig9"],
    ["frobnicate"],
    ["transfer", "--ratio", 0.5, "--frobnicate", 1],
    ["waveform", "--code", 1, "--tw", 1, "--v0"],
], ids=["bad-int", "bad-choice", "bad-figure", "bad-command", "unknown-flag", "no-value"])
def test_bad_flag_is_one_usage_line(argv, tmp_path, capsys):
    assert run_cli(["--out", tmp_path / "new", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "new").exists()


def test_command_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["transfer", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tdac transfer ")


def test_main_builds_no_parser(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["transfer", "--q", "4", "--ratio", "0.7", "--out", str(tmp_path)]) == 0


# each pair runs in both orders on one parser; a leak of the first run's
# values (--signed, the config file's parameters, --out held as a
# subcommand default) would change what the second writes or prints
PARSE_PAIRS = {
    "signed": (["transfer", "--q", 8, "--ratio", 0.7, "--signed", "--out", "a"],
               ["transfer", "--q", 8, "--ratio", 0.7, "--out", "b"]),
    "config": (["--config", "{cfg}"],
               ["waveform", "--code", "110", "--tw", 0.5, "--out", "b"]),
    "out-placement": (["--out", "a", "transfer", "--q", 4, "--ratio", 0.7],
                      ["transfer", "--q", 5, "--ratio", 0.6, "--out", "b"]),
}


@pytest.mark.parametrize("pair", sorted(PARSE_PAIRS))
def test_one_parse_leaves_no_state_for_the_next(pair, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=waveform\ncode=1011\nbase.tw=0.3\nleak.tau1=2.0\nout=a\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)

    def run(argv):
        status = run_cli([str(a).replace("{cfg}", str(cfg)) for a in argv])
        captured = capsys.readouterr()
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        for p in work.iterdir():
            shutil.rmtree(p)
        return status, captured.out, captured.err, files

    alone = []
    for argv in PARSE_PAIRS[pair]:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        alone.append(run(argv))
    assert [result[0] for result in alone] == [0, 0]
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    for order in ((0, 1), (1, 0)):
        for i in order:
            assert run(PARSE_PAIRS[pair][i]) == alone[i]


@pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
@pytest.mark.parametrize(
    "argv", [["waveform", "--code", "1010", "--tw", 0.4], ["reproduce", "fig3b"]],
    ids=["waveform", "fig3b"],
)
def test_arithmetic_error_is_one_line_exit_1(argv, error, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error("math range error")

    monkeypatch.setattr(cli, "simulate_leaky", fail)
    assert run_cli(argv + ["--out", tmp_path]) == 1
    assert capsys.readouterr().err == "error: math range error\n"
    assert list(tmp_path.iterdir()) == []


# --- output contract: files only from a run that succeeds ------------------------

@pytest.mark.parametrize("argv", [
    ["transfer", "--q", 0, "--ratio", 0.5],
    ["waveform", "--code", "10201", "--ratio", 0.7],
    ["reproduce", "fig3b"],  # fails in the patched simulate_leaky
], ids=["transfer", "waveform", "fig3b"])
def test_failed_run_creates_no_out_dir(argv, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "simulate_leaky", fail)
    assert run_cli([*argv, "--out", tmp_path / "new"]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "{tmp}/in.csv", "--model", "dual"],
    ["calibrate", "--tau2", 1, "--q", 8, "--lo", 0.3, "--hi", 1.2],
], ids=["fit", "calibrate"])
def test_commands_without_files_create_nothing(argv, tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(tmp_path / "in.csv", t, dual_exp_waveform(1.0, 1.0, 0.5, t))
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in argv]
    assert run_cli([*argv, "--out", tmp_path / "new"]) == 0
    assert "=" in capsys.readouterr().out
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_naming_a_file_is_exit_1(below, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if below else blocker
    assert run_cli(["transfer", "--q", 4, "--ratio", 0.7, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("tiny", ["tau2", "tau1"])
def test_subnormal_time_constant_exits_1(tiny, tmp_path, capsys):
    # 1 / 5e-324 is inf: rejected with the parameters, before numpy sees it
    taus = {"tau2": 1, "tau1": 1, tiny: 5e-324}
    argv = ["waveform", "--code", 1, "--tw", 1, "--tau2", taus["tau2"], "--tau1", taus["tau1"],
            "--out", tmp_path / "new"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 1 / {tiny} must be finite\n"
    assert not (tmp_path / "new").exists()


def test_readme_parameter_table_mirrors_params():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | flag | commands | default |\n|---|---|---|---|\n")[1]
    rows = [line.strip("|").split("|") for line in table.split("\n\n")[0].splitlines()]
    file_only = {command for command, (_, help_) in cli._COMMANDS.items() if help_ is None}
    expected = []
    for p in cli._PARAMS:
        if p.positional:
            flag = "positional"
        elif set(p.commands) <= file_only:
            flag = "none"
        else:
            flag = f"`--{p.name.replace('_', '-')}`"
        expected.append((f"`{p.key}`", flag, ", ".join(p.commands), p.required))
    got = [(k.strip(), f.strip(), c.strip(), d.strip().startswith("required"))
           for k, f, c, d in rows]
    assert got == expected


def _readme_block(heading, fence):
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {heading}\n\n{fence}\n")[1].split("```\n")[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the quick start, then each command line in order: fit reads the
    # waveform.csv that the line before it wrote
    monkeypatch.chdir(tmp_path)
    exec(_readme_block("Library quick start", "```python"), {})
    for line in _readme_block("Command line", "```").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "tdac"
        assert run_cli(argv[1:]) == 0, line
    assert capsys.readouterr().err == ""


# --- reproduce content -------------------------------------------------------

def test_reproduce_fig6_sign_boundary(tmp_path):
    assert run_cli(["reproduce", "fig6-shape", "--out", tmp_path]) == 0
    _, rows = read_rows(tmp_path / "fig6_signed_transfer.csv")
    values = [float(r.split(",")[1]) for r in rows]
    assert len(values) == 256
    assert values[128] == 0.0
    assert values[127] < 0.0 < values[129]


def test_reproduce_fig3b_all_ones_peak_largest(tmp_path):
    assert run_cli(["reproduce", "fig3b", "--out", tmp_path]) == 0
    peaks = {}
    for code in ("11111111", "10101010", "01010101"):
        _, rows = read_rows(tmp_path / f"fig3b_code_{code}.csv")
        peaks[code] = max(float(r.split(",")[1]) for r in rows)
    assert peaks["11111111"] > peaks["10101010"]
    assert peaks["11111111"] > peaks["01010101"]


def test_reproduce_fig2_members(tmp_path):
    assert run_cli(["reproduce", "fig2", "--out", tmp_path]) == 0
    values = {}
    for label in ("0.5", "ln2", "0.9"):
        _, rows = read_rows(tmp_path / f"fig2_ratio_{label}.csv")
        values[label] = np.array([float(r.split(",")[1]) for r in rows])
    # the ln2 member is linear, the 0.5 member is not monotone
    diffs = np.diff(values["ln2"])
    assert np.allclose(diffs, diffs[0], rtol=1e-9)
    assert np.any(np.diff(values["0.5"]) < 0.0)


# --- config files ----------------------------------------------------------------

# each case: flag form, and the same experiment as config-file lines
EQUIVALENT_FORMS = {
    "transfer": (
        ["transfer", "--q", 6, "--ratio", 0.8, "--tau2", 2.0],
        ["base.q=6", "base.ratio=0.8", "base.tau2=2.0"],
    ),
    "transfer-signed": (
        ["transfer", "--q", 8, "--tw", 0.6, "--vset", 1.5, "--cout", 2.0, "--signed",
         "--gain-pos", 1.25, "--gain-neg", 0.75, "--baseline", -0.1],
        ["base.q=8", "base.tw=0.6", "base.vset=1.5", "base.cout=2.0", "signed.enabled=true",
         "signed.gain_pos=1.25", "signed.gain_neg=0.75", "signed.baseline=-0.1"],
    ),
    "transfer-quadrature": (
        ["transfer", "--q", 4, "--ratio", 0.7, "--engine", "quadrature", "--steps-per-slot", 32],
        ["base.q=4", "base.ratio=0.7", "engine=quadrature", "sampling.steps_per_slot=32"],
    ),
    "waveform": (
        ["waveform", "--code", "10110001", "--q", 8, "--tau1", 1.3, "--tau2", 0.7, "--tw", 0.2,
         "--vset", 1.1, "--v0", 0.1, "--t-end", 4.0, "--dt-out", 0.05],
        ["code=10110001", "base.q=8", "leak.tau1=1.3", "base.tau2=0.7", "base.tw=0.2",
         "base.vset=1.1", "leak.v0=0.1", "sampling.t_end=4.0", "sampling.dt_out=0.05"],
    ),
    "waveform-numeric": (
        ["waveform", "--code", "1101", "--ratio", 0.4, "--engine", "numeric", "--dt", 0.01,
         "--t-end", 2.0],
        ["code=1101", "base.ratio=0.4", "engine=numeric", "sampling.dt=0.01",
         "sampling.t_end=2.0"],
    ),
    "fit": (
        ["fit", "--input", "{tmp}/in.csv", "--model", "dual", "--max-iterations", 50],
        ["input={tmp}/in.csv", "model=dual", "fit.max_iterations=50"],
    ),
    "calibrate": (
        ["calibrate", "--tau2", 2.0, "--q", 6, "--lo", 0.6, "--hi", 2.4],
        ["base.tau2=2.0", "base.q=6", "lo=0.6", "hi=2.4"],
    ),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENT_FORMS))
def test_config_file_equivalent_to_flags(case, tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(tmp_path / "in.csv", t, dual_exp_waveform(1.0, 1.0, 0.5, t))
    flags, lines = EQUIVALENT_FORMS[case]
    flags = [str(a).replace("{tmp}", str(tmp_path)) for a in flags]
    assert run_cli(flags + ["--out", tmp_path / "flags"]) == 0
    out_flags = capsys.readouterr().out.replace(str(tmp_path / "flags"), "@")
    cfg = tmp_path / "exp.cfg"
    body = "\n".join(line.replace("{tmp}", str(tmp_path)) for line in lines)
    cfg.write_text(
        "# same experiment, file form\n"
        f"experiment={flags[0]}\n{body}\n"
        f"out={tmp_path / 'file'}\n"
    )
    assert run_cli(["--config", cfg]) == 0
    out_file = capsys.readouterr().out.replace(str(tmp_path / "file"), "@")
    assert out_flags == out_file
    names = listing(tmp_path / "flags")
    assert names == listing(tmp_path / "file")
    for name in names:
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=transfer\nbase.q=4\nbase.ratio=0.5\n")
    assert run_cli(["--config", cfg, "transfer", "--ratio", LN2,
                    "--out", tmp_path]) == 0
    assert "monotone=true" in capsys.readouterr().out


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=transfer\nbase.q=4\nbase.ratioo=0.5\n")
    assert run_cli(["--config", cfg]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "experiment=transfer\nbase.q=4\nbase.ratio=0.5\nengine=spline\n",
        "experiment=waveform\ncode=1010\nbase.tw=0.4\nengine=closed-form\n",
        "experiment=fit\ninput=in.csv\nmodel=dual-exponential\n",
        "experiment=reproduce\nfigure=fig99\n",
    ],
    ids=["transfer-engine", "waveform-engine", "fit-model", "figure"],
)
def test_config_choices_checked_like_flags(text, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert run_cli(["--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["engine=analytic", "sampling.dt=0.01", "base.q=3"])
def test_sweep_code_rejects_engine_and_step_keys(line, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIGS["sweep-code"] + line + "\n")
    assert run_cli(["--config", cfg, "--out", tmp_path]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("experiment=transfer\nbase.q=4\nbase.q=5\n", "exp.cfg:3: duplicate key 'base.q'"),
    ("base.q=4\n", "exp.cfg: missing experiment= line"),
    ("experiment=plot\n", "exp.cfg: unknown experiment kind 'plot'"),
    ("experiment=transfer\nbase.q\n", "exp.cfg:2: expected key=value"),
    ("experiment=transfer\nbase.q=four\n",
     "exp.cfg: key 'base.q': invalid literal for int() with base 10: 'four'"),
], ids=["duplicate", "no-experiment", "unknown-kind", "no-equals", "bad-value"])
def test_config_file_errors_exit_1(text, message, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert run_cli(["--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_boolean_values(tmp_path, capsys):
    transfer = "experiment=transfer\nbase.ratio=0.6931471805599453\n"
    (tmp_path / "off.cfg").write_text(transfer + "signed.enabled=off\n")
    assert run_cli(["--config", tmp_path / "off.cfg", "--out", tmp_path / "off"]) == 0
    assert run_cli(["transfer", "--ratio", LN2, "--out", tmp_path / "plain"]) == 0
    off, plain = (tmp_path / name / "transfer.csv" for name in ("off", "plain"))
    assert off.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    cfg = tmp_path / "maybe.cfg"
    cfg.write_text(transfer + "signed.enabled=maybe\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "maybe"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: key 'signed.enabled': not a boolean: 'maybe'\n"
    )
    assert not (tmp_path / "maybe").exists()


def test_unreadable_config_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli(["--config", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {missing}: ")
    assert err.count("\n") == 1


def test_config_command_mismatch_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=transfer\nbase.q=4\nbase.ratio=0.5\n")
    assert run_cli(["--config", cfg, "calibrate"]) == 1


SWEEP_CONFIGS = {
    "sweep-ratio": (
        "experiment=sweep-ratio\n"
        "base.q=4\n"
        "sweep.ratios=0.5,0.6931471805599453,0.9\n"
    ),
    "sweep-code": (
        "experiment=sweep-code\n"
        "base.tw=0.25\n"
        "base.tau2=0.5\n"
        "leak.tau1=1.0\n"
        "sampling.t_end=4.0\n"
        "sampling.dt_out=0.02\n"
        "sweep.codes=11111111,10101010\n"
    ),
}


def test_config_sweep_ratio_experiment(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIGS["sweep-ratio"])
    assert run_cli(["--config", cfg, "--out", tmp_path]) == 0
    manifest = (tmp_path / "sweep_ratio_manifest.txt").read_text()
    names = manifest.split("files=")[1].strip().split(",")
    assert len(names) == 3
    for name in names:
        header, rows = read_rows(tmp_path / name)
        assert header == "code,v_out"
        assert len(rows) == 16


def test_config_sweep_code_experiment(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIGS["sweep-code"])
    assert run_cli(["--config", cfg, "--out", tmp_path]) == 0
    for name in ("sweep_code_11111111.csv", "sweep_code_10101010.csv"):
        header, rows = read_rows(tmp_path / name)
        assert header == "t,v"
        assert len(rows) > 10


# --- determinism ------------------------------------------------------------------

def test_repeat_runs_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_cli(["transfer", "--q", 8, "--ratio", 0.77, "--out", tmp_path / sub])
        run_cli(["waveform", "--code", "10110001", "--tau1", 1.3, "--tau2", 0.7,
                 "--tw", 0.2, "--out", tmp_path / sub])
    for name in ("transfer.csv", "waveform.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_csv_uses_17_significant_digits(tmp_path):
    run_cli(["transfer", "--q", 2, "--ratio", 0.9, "--out", tmp_path])
    _, rows = read_rows(tmp_path / "transfer.csv")
    # full round-trip precision: parsing and reformatting reproduces the text
    for row in rows:
        text = row.split(",")[1]
        assert format(float(text), ".17g") == text


# the edge values of the 17-digit text rule: signed zero, the smallest
# subnormal and normal, the largest float, an even integer past 2^53 and
# values whose 17th digit rounds
EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               2.0**53 + 2, 0.1 + 0.2, 1 / 3]


def reference_text(x):
    return format(float(x), ".17g")


def test_text_rule_is_17_digits():
    for x in [*EDGE_VALUES, 0, 65535, math.inf, -math.inf, math.nan]:
        assert cli._text(x) == reference_text(x)


@pytest.mark.parametrize("x, y", [
    (EDGE_VALUES[::-1], EDGE_VALUES),
    ([0, 65535], [0.1 + 0.2, 1 / 3]),  # a code column is integer
], ids=["floats", "codes"])
def test_csv_rows_follow_the_text_rule(x, y):
    rows = "".join(f"{reference_text(a)},{reference_text(b)}\n" for a, b in zip(x, y))
    assert _csvtext.csv_text("x,y", np.array(x), np.array(y)) == "x,y\n" + rows


def per_row_csv_text(header, x, y):
    """The row-at-a-time rule that ``csv_text`` formats in one call."""
    return "\n".join([header, *("%.17g,%.17g" % xy for xy in zip(x.tolist(), y.tolist()))]) + "\n"


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))


@st.composite
def csv_columns(draw):
    n = draw(st.integers(1, 40))
    x = draw(st.one_of(st.lists(st.integers(0, 2**16 - 1), min_size=n, max_size=n),
                       st.lists(FINITE, min_size=n, max_size=n)))
    return np.array(x), np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_columns())
@example((np.array([0]), np.array([-0.0])))
@example((np.array([1.7e308]), np.array([-1.7e308])))
@example((np.array([2**16 - 1, 5]), np.array([5e-324, 2.2250738585072014e-308])))
@example((np.zeros(0), np.zeros(0)))
def test_csv_text_equals_the_per_row_rule(columns):
    x, y = columns
    assert _csvtext.csv_text("x,y", x, y) == per_row_csv_text("x,y", x, y)


def assert_per_row_text(header, x, y):
    # names the first row that differs, not a diff of two long texts
    got, want = _csvtext.csv_text(header, x, y), per_row_csv_text(header, x, y)
    if got != want:
        rows = zip(got.split("\n"), want.split("\n"))
        row, (line, expected) = next((i, pair) for i, pair in enumerate(rows) if pair[0] != pair[1])
        pytest.fail(f"row {row}: {line!r} != {expected!r}")


def _ulp_neighbours(values):
    values = np.asarray(values, float)
    return np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)])


# p = 16 - X for the exponent X in -6..15 of a value that an exact power of
# ten scales; the kernel's own range is every finite value
_KERNEL_P = range(1, 23)


def _seventeenth_digit_ties():
    # |x| = r / 2**(p + 1) with r odd and r * 5**p in [2e16, 2e17) scales to
    # x * 10**p = r * 5**p / 2, exactly halfway between two 17-digit integers.
    # p = 0 has none: such an x would be an odd half-integer above 1e16, which
    # no double is
    ties = []
    for p in _KERNEL_P:
        lo, hi = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
        odd = range(lo | 1, hi, 2)
        for r in [*odd[:8], *odd[len(odd) // 2:][:8], *odd[-8:]]:
            x = r / 2 ** (p + 1)
            assert x * 2 ** (p + 1) == r and 2 * 10**16 <= r * 5**p < 2 * 10**17
            ties += [x, -x]
    return np.array(ties)


def _powers(mantissa, exponents):
    # the doubles nearest mantissa * 10**k, as a literal reads
    return np.array([float(f"{mantissa}e{k}") for k in exponents])


def _alternating(first, second, runs):
    # runs of the two values, of the given lengths in turn
    return np.concatenate([np.full(n, (first, second)[i % 2]) for i, n in enumerate(runs)])


_RUNS = [1, 1, 2, 1, 3, 5, 1, 1, 8, 2, 13, 1]
# the values whose rows % writes, whatever the rest of the row
_FALLBACK = [math.inf, -math.inf, math.nan]
_SMALLEST_NORMAL, _LARGEST_SUBNORMAL = 2.2250738585072014e-308, 2.225073858507201e-308


def _odd_multiples_of_powers_of_two(exponents):
    # m * 2**e for odd m < 200, as far as it stays finite
    values = np.ldexp(np.arange(1.0, 200.0, 2.0)[:, None], np.asarray(exponents)[None, :]).ravel()
    return values[values < math.inf]


@pytest.mark.parametrize("values", [
    _ulp_neighbours(10.0 ** np.arange(-8, 19)),
    _ulp_neighbours(-(10.0 ** np.arange(-8, 19))),
    _ulp_neighbours([1e-6, -1e-6, 1e16, -1e16]),
    _seventeenth_digit_ties(),
    np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-5, 1e-4, 1e15, 9999999999999998.0]),
    np.array(_FALLBACK),
    _ulp_neighbours(np.concatenate([_powers(1, range(-323, -307)), -_powers(1, range(-323, -307))])),
    np.concatenate([_ulp_neighbours([5e-324, -5e-324, _LARGEST_SUBNORMAL, -_LARGEST_SUBNORMAL]),
                    [_SMALLEST_NORMAL, 1e-323, 1e-320, 3e-310]]),
    _odd_multiples_of_powers_of_two(range(-1074, -1021)),
], ids=["ulps-of-powers", "ulps-of-negative-powers", "fallback-edges", "ties", "plain",
        "all-fallback", "ulps-of-subnormal-powers", "subnormal-edges", "subnormal-odd-multiples"])
def test_csv_text_at_the_kernel_edges(values):
    # every value in both columns, next to a code and next to each other value
    codes = np.arange(values.size)
    for x, y in [(codes, values), (values, codes), (values, values[::-1])]:
        assert_per_row_text("x,y", x, y)


def test_csv_text_of_code_columns():
    # integer codes up to 2**16 - 1 next to signed zeros and kernel values
    codes = np.arange(2**16)
    values = np.resize([0.0, -0.0, 0.6931471805599453, -1.5e-6, 123456.78901234567], codes.size)
    assert_per_row_text("code,v_out", codes, values)


@pytest.mark.parametrize("fallback", _FALLBACK)
def test_csv_text_splices_fallback_runs_in_order(fallback):
    kernel = _alternating(0.25, -1e-3, _RUNS)
    rows = _alternating(0.75, fallback, _RUNS)
    ramp = np.linspace(-2.0, 2.0, rows.size)
    for x, y in [(ramp, rows), (rows, ramp), (rows, kernel), (rows, rows[::-1])]:
        assert_per_row_text("x,y", x, y)


def test_csv_text_writes_no_subnormal_row_with_percent(monkeypatch):
    # a fast leak ends a waveform in subnormal values; with % writing %r, a
    # row that reached it would lose its 17-digit text
    config = TdacConfig(q=8, t_w=0.005, tau2=1.0)
    wf = simulate_leaky(config, LeakConfig(tau1=0.003), DigitalCode.from_int(255, 8), t_end=20.0)
    a = np.abs(wf.values)
    assert ((a > 0.0) & (a < _SMALLEST_NORMAL)).sum() >= 10
    expected = per_row_csv_text("t,v", wf.times, wf.values)
    monkeypatch.setattr(_csvtext, "_NUMBER", "%r")
    assert _csvtext.csv_text("t,v", wf.times, wf.values) == expected


# a subnormal v0 that a 1e9 leak keeps: the waveform's times are exact binary
# fractions, many of them ties of their 17th digit under an exact power of ten
PERCENT_RUNS = {
    "ties": ["waveform", "--code", "0000", "--v0", "5e-324", "--tau1", "1e9", "--tw", "1"],
    **{figure: ["reproduce", figure] for figure in cli._FIGURES},
}


@pytest.mark.parametrize("case", sorted(PERCENT_RUNS))
def test_no_figure_or_tie_row_is_written_with_percent(case, monkeypatch, tmp_path):
    # with % writing %r, a row that reached it would lose its 17-digit text
    monkeypatch.setattr(_csvtext, "_NUMBER", "%r")
    assert run_cli([*PERCENT_RUNS[case], "--out", tmp_path]) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        header, rows = read_rows(path)
        values = np.array([row.split(",") for row in rows], float)
        want = per_row_csv_text(header, values[:, 0], values[:, 1]).splitlines()[1:]
        differ = [(row, expected) for row, expected in zip(rows, want) if row != expected]
        assert not differ, f"{path.name}: {len(differ)} rows by %, the first {differ[0]}"


def _wide_ties():
    # |x| = r / 2**(p + 1) with r odd scales to r * 5**p / 2, a 17th-digit
    # tie, where r * 5**p lies in [2e16, 2e17); past the exact powers of ten,
    # p = 23 and 24 have such r, from p = 25 on 5**p is too large
    ties = []
    for p in range(23, 26):
        odd = range(-(-2 * 10**16 // 5**p) | 1, -(-2 * 10**17 // 5**p), 2)
        for r in odd:
            x = r / 2 ** (p + 1)
            assert x * 2 ** (p + 1) == r and 2 * 10**16 <= r * 5**p < 2 * 10**17
            ties += [x, -x]
    assert len(ties) == 2 * (7 + 2)
    return np.array(ties)


_LARGEST = 1.7976931348623157e308


@pytest.mark.parametrize("values", [
    _ulp_neighbours(_powers(1, range(-307, 309))),
    _ulp_neighbours(-_powers(1, range(-307, 309))),
    _ulp_neighbours(np.concatenate([_powers(5, range(-308, 308)), -_powers(5, range(-308, 308))])),
    np.concatenate([_ulp_neighbours([_SMALLEST_NORMAL, -_SMALLEST_NORMAL, -_LARGEST]),
                    np.nextafter([_LARGEST, _LARGEST], 0.0), [_LARGEST],
                    [1e-6, -1e-6, 9.9999999999999995e-07, 1e-7, 1e-300, 1e16, -1e16, 1e17, 1.7e308]]),
    _wide_ties(),
    _odd_multiples_of_powers_of_two(range(-1022, 1017)),
], ids=["ulps-of-powers", "ulps-of-negative-powers", "ulps-of-five-powers", "normal-edges", "ties",
        "odd-multiples-of-powers-of-two"])
def test_csv_text_over_the_whole_normal_range(values):
    # every value in both columns, next to a code and next to each other value
    codes = np.arange(values.size)
    for x, y in [(codes, values), (values, codes), (values, values[::-1])]:
        assert_per_row_text("x,y", x, y)


def test_csv_text_on_random_normal_values():
    # 10**6 values with random sign and mantissa and an exponent field
    # uniform over the whole finite range, field 0 of the subnormals included
    rng = np.random.default_rng(29)
    bits = np.frombuffer(rng.bytes(8 * 10**6), np.uint64) & ~np.uint64(0x7FF << 52)
    bits |= rng.integers(0, 2047, bits.size).astype(np.uint64) << np.uint64(52)
    values = bits.view(np.float64)
    assert_per_row_text("x,y", values[0::2], values[1::2])


@pytest.mark.parametrize("wide", [1e-7, -3e-300, 1e17, -1.7e308])
def test_csv_text_formats_unproven_rows_with_percent(monkeypatch, wide):
    # a value scaled past the exact powers of ten gets a lo just past a
    # half-integer, which the certificate leaves unproven and which rounds
    # one unit up in its 17th digit, so a row that kept its kernel digits
    # would differ from %; the values of exact powers keep theirs
    scaled = _csvtext._scaled

    def off_by_one(a, p):
        hi, lo = scaled(a, p)
        return hi, np.where(_csvtext._TENS[3, p + 292] != 0.0, np.rint(lo) + (0.5 + 2.0**-40), lo)

    monkeypatch.setattr(_csvtext, "_scaled", off_by_one)
    kernel = _alternating(0.25, -1e-3, _RUNS)
    rows = _alternating(0.75, wide, _RUNS)
    ramp = np.linspace(-2.0, 2.0, rows.size)
    mixed = _alternating(wide, 5e-324, _RUNS)
    for x, y in [(ramp, rows), (rows, ramp), (rows, kernel), (rows, rows[::-1]), (mixed, rows)]:
        assert_per_row_text("x,y", x, y)


def test_csv_text_leaves_the_floating_point_state():
    finite = np.concatenate([[0.0, -0.0], _ulp_neighbours(_powers(1, range(-323, 309))),
                             _odd_multiples_of_powers_of_two(range(-1074, -1021))])
    values = np.concatenate([finite, _FALLBACK])
    before = np.geterr()
    assert_per_row_text("x,y", values, values[::-1])
    assert np.geterr() == before
    # and no operation on a finite value, zero or subnormal included, raises
    # a floating-point flag
    with np.errstate(all="raise"):
        assert_per_row_text("x,y", finite, finite[::-1])


def test_power_of_ten_table():
    # 10**p == (hi + lo) * 2**E within the relative 2**-106 that the error
    # bound of the double-double scaling assumes, exactly for p in 0..22
    assert _csvtext._TENS.shape == (5, 633)
    for p in range(-292, 341):
        hi, hi_hi, hi_lo, lo, power = map(float, _csvtext._TENS[:, p + 292])
        exact = Fraction(10) ** p / Fraction(power)
        assert math.frexp(power)[0] == 0.5 and power <= 2.0**1023
        assert 1.0 <= hi < 2.0 or power == 2.0**1023 and 1.0 <= hi < 2.0**107 or hi == 10**p
        assert abs(lo) <= hi * 2.0**-53
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(1, 2**106)
        assert (lo == 0.0) == (0 <= p <= 22) == (power == 1.0)
        assert (hi_hi, hi_lo) == _csvtext._split(hi) and hi_hi + hi_lo == hi


def test_csv_text_on_random_bit_patterns():
    # 10**6 patterns: half keep their bits, half get an exponent of the
    # exact powers' range (2**-20 .. 2**53) with their own sign and mantissa
    bits = np.frombuffer(np.random.default_rng(28).bytes(8 * 10**6), np.uint64).copy()
    near = bits[: bits.size // 2]
    exponent = np.uint64(1003) + (near >> np.uint64(52)) % np.uint64(74)
    near &= ~np.uint64(0x7FF << 52)
    near |= exponent << np.uint64(52)
    values = bits.view(np.float64)
    assert_per_row_text("x,y", values[0::2], values[1::2])


def test_seventeen_digit_rounding_carries_into_the_next_decade():
    # no double of 1e-6..1e16 rounds up to a power of ten, so the carry is
    # checked on the scaled value itself: hi + lo just below 10**17 rounds
    # to 10**17, which is 10**16 of the next decade, ties to even
    hi = np.array([1e17, 1e17, 1e17, 99999999999999984.0, 1e16])
    lo = np.array([-0.25, -0.5, -0.75, 6.0, 0.5])
    n, exponent = _csvtext._rounded(hi, lo, np.full(hi.size, 3))
    assert n.tolist() == [10**16, 10**16, 10**17 - 1, 99999999999999990, 10**16]
    assert exponent.tolist() == [4, 4, 3, 3, 3]
    # past that range doubles reach it: each fl(10**k) here lies below 10**k
    # by less than half a unit of its 17th digit
    k = np.array([-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220])
    values = _powers(1, k.tolist())
    hi, lo, exponent = _csvtext._digits(values)
    assert (hi == 1e17).all() and (-0.5 < lo).all() and (lo < 0.0).all()
    assert (exponent == k - 1).all()
    n, exponent = _csvtext._rounded(hi, lo, exponent)
    assert (n == 10**16).all() and (exponent == k).all()
    assert_per_row_text("x,y", values, -values)
    # and no subnormal fl(10**k) carries
    hi, lo, exponent = _csvtext._digits(_powers(1, range(-323, -307)))
    assert (_csvtext._rounded(hi, lo, exponent)[1] == exponent).all()


# --- byte identity ------------------------------------------------------------------

FIGURES = ["fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig6-shape", "fig7-shape"]
DIGESTS = Path(__file__).parent / "data" / "cli_sha256.json"


# flag commands, each with its exit status; {tmp} holds the fit inputs
FLAG_RUNS = {
    "transfer-closed-form": (0, ["transfer", "--q", 8, "--ratio", 0.77]),
    "transfer-quadrature": (0, ["transfer", "--q", 4, "--ratio", 0.7, "--tau2", 1.7, "--vset", 1.3,
                                "--cout", 0.6, "--engine", "quadrature", "--steps-per-slot", 32]),
    "transfer-signed": (0, ["transfer", "--q", 8, "--tw", 0.6, "--vset", 1.5, "--cout", 2.0,
                            "--signed", "--gain-pos", 1.25, "--gain-neg", 0.75,
                            "--baseline", -0.1]),
    "waveform-analytic": (0, ["waveform", "--code", "10110001", "--tau1", 1.3, "--tau2", 0.7,
                              "--tw", 0.2]),
    "waveform-numeric": (0, ["waveform", "--code", "1101", "--ratio", 0.4, "--engine", "numeric",
                             "--dt", 0.01, "--t-end", 2.0]),
    "fit-alpha": (0, ["fit", "--input", "{tmp}/dual.csv", "--model", "alpha"]),
    "fit-dual": (0, ["fit", "--input", "{tmp}/dual.csv", "--model", "dual"]),
    "fit-exit-3": (3, ["fit", "--input", "{tmp}/wobble.csv", "--model", "alpha",
                       "--max-iterations", 1]),
    "fit-negative": (0, ["fit", "--input", "{tmp}/fig7/fig7_code_01111111.csv", "--model", "dual"]),
    "calibrate": (0, ["calibrate", "--tau2", 2.0, "--q", 6, "--lo", 0.6, "--hi", 2.4]),
}


def write_fit_inputs(directory):
    t = np.linspace(0.0, 8.0, 300)
    _write_csv(directory / "dual.csv", t, dual_exp_waveform(1.0, 1.0, 0.25, t))
    t = np.linspace(0.0, 8.0, 200)
    _write_csv(directory / "wobble.csv", t, alpha_waveform(1.0, 1.0, t) + 0.05 * np.sin(40.0 * t))
    # the signed converter's negative codes, as tdac writes them
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["reproduce", "fig7-shape", "--out", directory / "fig7"]) == 0


def output_digests(case, out_dir):
    """sha256 of every file one run writes, keyed by file name, and of a flag
    command's stdout under the key ``stdout``, its output directory as {out}."""
    out = out_dir / "out"
    status = 0
    if case in SWEEP_CONFIGS:
        cfg = out_dir / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIGS[case])
        argv = ["--config", cfg]
    elif case in FLAG_RUNS:
        write_fit_inputs(out_dir)
        status, argv = FLAG_RUNS[case]
        argv = [str(a).replace("{tmp}", str(out_dir)) for a in argv]
    else:
        argv = ["reproduce", case]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli([*argv, "--out", out]) == status
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (sorted(out.iterdir()) if out.exists() else [])
    }
    if case in FLAG_RUNS:
        text = stdout.getvalue().replace(str(out), "{out}")
        digests["stdout"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


CASES = FIGURES + sorted(SWEEP_CONFIGS) + sorted(FLAG_RUNS)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_committed_digests(case, tmp_path):
    expected = json.loads(DIGESTS.read_text())[case]
    assert output_digests(case, tmp_path) == expected


# --- manifests rerun their figures ---------------------------------------------------

# figure -> the command that remakes its members, and the config lines that the
# manifest leaves to the figure's name
RERUNS = {
    "fig2": ("sweep-ratio", []),
    "fig3b": ("sweep-code", []),
    "fig3d": ("sweep-code", []),
    "fig6-shape": ("transfer", ["signed.enabled=true"]),
}


def written_members(out_dir, manifest_name):
    """The bytes of the members one run wrote, in manifest order."""
    manifest = out_dir / manifest_name
    if not manifest.exists():
        return [(out_dir / "transfer.csv").read_bytes()]
    names = manifest.read_text().split("files=")[1].strip().split(",")
    return [(out_dir / name).read_bytes() for name in names]


@pytest.mark.parametrize("figure", sorted(RERUNS))
def test_manifest_reruns_its_figure(figure, tmp_path):
    command, extra = RERUNS[figure]
    assert run_cli(["reproduce", figure, "--out", tmp_path / "figure"]) == 0
    text = (tmp_path / "figure" / f"{figure}_manifest.txt").read_text()
    values = dict(line.split("=", 1) for line in text.splitlines())
    assert values.pop("figure") == figure
    del values["files"]
    if command == "sweep-code":
        # the code width and the engine are fixed by the codes and by the sweep
        assert {len(code) for code in values["codes"].split(",")} == {int(values.pop("q"))}
        assert values.pop("engine") == "analytic"
    keys = {param.name: param.key for param in cli._params_of(command)}
    lines = [f"experiment={command}", *(f"{keys[k]}={v}" for k, v in values.items()), *extra]
    cfg = tmp_path / "rerun.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "rerun"]) == 0
    rerun_manifest = f"{command.replace('-', '_')}_manifest.txt"
    assert written_members(tmp_path / "rerun", rerun_manifest) == written_members(
        tmp_path / "figure", f"{figure}_manifest.txt"
    )


def test_leaky_commands_take_no_cout(tmp_path, capsys):
    # no leaky engine reads c_out, so neither waveform nor sweep-code has it
    argv = ["waveform", "--code", "1101", "--ratio", 0.4, "--cout", 7, "--out", tmp_path / "new"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --cout 7\n"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment=sweep-code\nbase.tw=0.25\nbase.cout=7\nsweep.codes=11\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "new"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: unknown key 'base.cout' for experiment 'sweep-code'\n"
    )
    assert not (tmp_path / "new").exists()


def test_sweep_code_manifest_reruns_to_the_same_bytes(tmp_path):
    # a run that leaves t_end and dt_out to their defaults lists the values it
    # used, so its manifest read back as a config file makes the same files
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment=sweep-code\nbase.ratio=0.6931471805599453\nleak.tau1=0.5\n"
                   "sweep.codes=1011,01100110\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "first"]) == 0
    manifest = tmp_path / "first" / "sweep_code_manifest.txt"
    values = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
    del values["files"]
    assert values.pop("engine") == "analytic"
    keys = {param.name: param.key for param in cli._params_of("sweep-code")}
    keys["experiment"] = "experiment"
    back = tmp_path / "back.cfg"
    back.write_text("".join(f"{keys[k]}={v}\n" for k, v in values.items()))
    assert run_cli(["--config", back, "--out", tmp_path / "back"]) == 0
    first = sorted((tmp_path / "first").iterdir())
    assert [p.name for p in first] == sorted(p.name for p in (tmp_path / "back").iterdir())
    for path in first:
        assert path.read_bytes() == (tmp_path / "back" / path.name).read_bytes()


def test_sweep_code_members_do_not_depend_on_code_order(tmp_path):
    # the default t_end is the widest code's, whichever code comes first
    manifests = {}
    for sub, codes in (("fwd", "1011,01100110"), ("rev", "01100110,1011")):
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(f"experiment=sweep-code\nbase.ratio=0.6931471805599453\n"
                       f"leak.tau1=0.5\nsweep.codes={codes}\n")
        assert run_cli(["--config", cfg, "--out", tmp_path / sub]) == 0
        text = (tmp_path / sub / "sweep_code_manifest.txt").read_text()
        manifests[sub] = dict(line.split("=", 1) for line in text.splitlines())
    assert manifests["fwd"]["t_end"] == manifests["rev"]["t_end"]
    assert float(manifests["fwd"]["t_end"]) == 10.0 + 8 * 0.6931471805599453
    for name in ("sweep_code_1011.csv", "sweep_code_01100110.csv"):
        assert (tmp_path / "fwd" / name).read_bytes() == (tmp_path / "rev" / name).read_bytes()


# --- the output contract over generated argv -----------------------------------------

FUZZ_SPECIALS = [0.0, -1.0, math.nan, math.inf, 5e-324, 1e-300, 1e300, 1e308]


def fuzz_value(rng, param):
    """A flag value for one parameter row, drawn by its converter and choices."""
    if param.choices is not None:
        return rng.choice(param.choices)
    if param.conv is str:  # the code, the one free-text parameter of these commands
        return "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
    x = rng.choice(FUZZ_SPECIALS) if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 3.0)
    return str(math.ceil(x)) if param.conv is int and math.isfinite(x) else repr(x)


def fuzz_catalogue(n, seed):
    """n argv of transfer, waveform and calibrate; each row of cli._PARAMS that
    a command has is given a drawn value with probability 1/2, or always if required.
    A drawn row whose ``needs`` pair does not hold, defaults counted, is dropped
    until nothing more drops, so that --signed dropped under --engine quadrature
    takes the gains with it."""
    rng = random.Random(seed)
    catalogue = []
    for _ in range(n):
        command = rng.choice(["transfer", "waveform", "calibrate"])
        rows = {param.name: param for param in cli._params_of(command)}
        drawn = {}
        for param in rows.values():
            if param.required or rng.random() < 0.5:
                drawn[param.name] = True if param.conv is cli._parse_bool else fuzz_value(rng, param)
        while True:
            value = {name: drawn.get(name, param.default) for name, param in rows.items()}
            kept = {name: text for name, text in drawn.items()
                    if rows[name].needs is None or value[rows[name].needs[0]] == rows[name].needs[1]}
            if kept == drawn:
                break
            drawn = kept
        argv = [command]
        for name, text in drawn.items():
            argv.append("--" + name.replace("_", "-"))
            if text is not True:
                argv.append(text)
        catalogue.append(argv)
    return catalogue


def keeps_output_contract(status, captured, out):
    """exit 0: every written CSV value and printed number is finite; exit 1 or 2:
    one error or usage-error line and no output directory."""
    if status == 0:
        numbers = []
        for key, value in (line.split("=", 1) for line in captured.out.splitlines()):
            if key == "csv":
                numbers += [x for row in read_rows(Path(value))[1] for x in row.split(",")]
            elif value not in ("true", "false"):
                numbers.append(value)
        return captured.err == "" and all(math.isfinite(float(x)) for x in numbers)
    prefix = {1: "error: ", 2: "usage error: "}.get(status)
    return (prefix is not None and captured.err.startswith(prefix)
            and captured.err.count("\n") == 1 and not out.exists())


# breaks the generated argv found at other seeds: each used to print a numpy warning
@pytest.mark.parametrize("argv, status, err", [
    (["transfer", "--tw", 0.3916370715679214, "--cout", 0.008991913922480003, "--signed",
      "--gain-pos", 1e308], 1, "error: overflow encountered in multiply\n"),
    (["transfer", "--ratio", 3.196373944843211, "--vset", 1e308, "--signed"],
     1, "error: overflow encountered in subtract\n"),
    (["waveform", "--code", 1, "--tw", 415.27150215670275, "--tau2", 186.8856625119386,
      "--vset", 1e308],
     1, "error: overflow encountered in multiply\n"),
    (["waveform", "--code", "01110", "--tw", 1e308, "--tau2", 0.01209146324626358,
      "--tau1", 1e300, "--t-end", 0.012295643932210666], 0, ""),
], ids=["signed-gain", "report-spread", "leaky-state", "slot-edges"])
def test_generated_argv_breaks_stay_mended(argv, status, err, tmp_path, capsys):
    out = tmp_path / "new"
    assert run_cli([*argv, "--out", out]) == status
    captured = capsys.readouterr()
    assert captured.err == err
    assert keeps_output_contract(status, captured, out)


def test_generated_argv_keep_the_output_contract(tmp_path, capsys, monkeypatch):
    # a lowered sample budget keeps every run small; a run past it is one more
    # exit-1 case of the contract
    monkeypatch.setattr(core, "MAX_SAMPLES", 20_000)
    broken = []
    for i, argv in enumerate(fuzz_catalogue(300, seed=14)):
        out = tmp_path / str(i)
        status = run_cli([*argv, "--out", out])
        captured = capsys.readouterr()
        if not keeps_output_contract(status, captured, out):
            broken.append((argv, status, captured.err))
    assert broken == []


# --- the entry point in a fresh process ---------------------------------------------

def run_entry_point(argv, *options):
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *options, "-m", "tdacsim", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=False,
    )


def test_entry_point_reproduces_fig2(tmp_path):
    proc = run_entry_point(["reproduce", "fig2", "--out", tmp_path], "-W", "error::RuntimeWarning")
    assert (proc.returncode, proc.stderr) == (0, "")
    labels = [line.split("=", 1)[0] for line in proc.stdout.splitlines()]
    assert labels == ["file", "file", "file", "manifest"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == json.loads(DIGESTS.read_text())["fig2"]


def test_entry_point_overflow_prints_one_line(tmp_path):
    # numpy prints its warnings on stderr unless the run turns them into errors
    proc = run_entry_point([*PROPAGATOR_OVERFLOW, "--out", tmp_path / "new"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: overflow encountered in add\n"
    assert not (tmp_path / "new").exists()


# v_set * dt passes the float range on a long driven stretch; at a tiny tau1
# the drive's decay is 0, which must not hide the overflow as inf * 0
@pytest.mark.parametrize("leak", [["--tau1", 1, "--vset", 1e308],
                                  ["--tau1", 1e-307, "--vset", 1e308]],
                         ids=["vset", "tau1"])
def test_entry_point_driven_sample_overflow_prints_one_line(leak, tmp_path):
    argv = ["waveform", "--code", 1, "--tw", 100, "--tau2", 1, *leak, "--out", tmp_path / "new"]
    proc = run_entry_point(argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: overflow encountered in multiply\n"
    assert not (tmp_path / "new").exists()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = {}
        for case in CASES:
            (Path(tmp) / case).mkdir()
            table[case] = output_digests(case, Path(tmp) / case)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} digests written to {DIGESTS}")
