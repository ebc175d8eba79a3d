"""Command-line behavior: flags, config files, CSV determinism, exit codes.

``tests/data/cli_sha256.json`` holds the sha256 of every file written by
``tdac reproduce`` for each figure and by the two config-file sweeps below.
Regenerate it only when a correctness fix changes output values:

    PYTHONPATH=src python tests/test_cli.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tdacsim import (
    LN2,
    DigitalCode,
    TdacConfig,
    alpha_waveform,
    cli,
    convert_quadrature,
    dual_exp_waveform,
)
from tdacsim.cli import main


def run_cli(args):
    """Invoke the CLI in-process; argparse exits become plain return codes."""
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code


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
    ],
    ids=["oops", "inf", "nan"],
)
def test_fit_malformed_csv_reports_line(row, message, model, tmp_path, capsys):
    # one bad row in an otherwise fittable trace: without the row check an
    # inf or nan gave tau1_fit=nan and exit 3
    t = np.linspace(0.0, 8.0, 40)
    _write_csv(tmp_path / "bad.csv", t, alpha_waveform(1.0, 1.0, t))
    lines = (tmp_path / "bad.csv").read_text().splitlines()
    t2, v2 = lines[2].split(",")
    lines[2] = row.format(t=t2, v=v2)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    assert run_cli(["fit", "--input", tmp_path / "bad.csv", "--model", model]) == 1
    assert f"line 3: {message}" in capsys.readouterr().err


def test_fit_non_converged_exits_3(tmp_path, capsys):
    t = np.linspace(0.0, 8.0, 200)
    v = alpha_waveform(1.0, 1.0, t) + 0.05 * np.sin(40.0 * t)
    _write_csv(tmp_path / "wob.csv", t, v)
    code = run_cli(["fit", "--input", tmp_path / "wob.csv", "--model", "alpha",
                    "--max-iterations", 1])
    out = capsys.readouterr().out
    assert code == 3
    assert "converged=false" in out  # data still printed


# --- calibrate -----------------------------------------------------------------

def test_calibrate_finds_ln2(capsys):
    assert run_cli(["calibrate", "--tau2", 1, "--q", 8, "--lo", 0.3, "--hi", 1.2]) == 0
    got = float(capsys.readouterr().out.split("t_w=")[1].splitlines()[0])
    assert got == pytest.approx(LN2, rel=1e-6)


def test_calibrate_scales(capsys):
    assert run_cli(["calibrate", "--tau2", 2, "--q", 8, "--lo", 0.6, "--hi", 2.4]) == 0
    got = float(capsys.readouterr().out.split("t_w=")[1].splitlines()[0])
    assert got == pytest.approx(2 * LN2, abs=2e-6)


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


def test_seed_flag_is_gone(tmp_path):
    assert run_cli(["transfer", "--q", 4, "--ratio", 0.5, "--seed", 1, "--out", tmp_path]) == 2


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
         "--vset", 1.1, "--cout", 0.9, "--v0", 0.1, "--t-end", 4.0, "--dt-out", 0.05],
        ["code=10110001", "base.q=8", "leak.tau1=1.3", "base.tau2=0.7", "base.tw=0.2",
         "base.vset=1.1", "base.cout=0.9", "leak.v0=0.1", "sampling.t_end=4.0",
         "sampling.dt_out=0.05"],
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
    names = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
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


# --- byte identity ------------------------------------------------------------------

FIGURES = ["fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig6-shape", "fig7-shape"]
DIGESTS = Path(__file__).parent / "data" / "cli_sha256.json"


def output_digests(case, out_dir):
    """sha256 of every file one figure or sweep writes, keyed by file name."""
    if case in SWEEP_CONFIGS:
        cfg = out_dir / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIGS[case])
        argv = ["--config", cfg, "--out", out_dir / "out"]
    else:
        argv = ["reproduce", case, "--out", out_dir / "out"]
    assert run_cli(argv) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((out_dir / "out").iterdir())
    }


@pytest.mark.parametrize("case", FIGURES + sorted(SWEEP_CONFIGS))
def test_outputs_match_committed_digests(case, tmp_path):
    expected = json.loads(DIGESTS.read_text())[case]
    assert output_digests(case, tmp_path) == expected


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = {}
        for case in FIGURES + sorted(SWEEP_CONFIGS):
            (Path(tmp) / case).mkdir()
            table[case] = output_digests(case, Path(tmp) / case)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} digests written to {DIGESTS}")
