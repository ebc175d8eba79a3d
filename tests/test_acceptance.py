"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance NN] name: PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them live.
"""

import math
import time
from dataclasses import replace

import numpy as np

from tdacsim import (
    LN2,
    DigitalCode,
    LeakConfig,
    SignedTdacConfig,
    TdacConfig,
    Waveform,
    alpha_waveform,
    calibrate_pulse_width,
    convert_closed_form,
    convert_quadrature,
    dual_exp_waveform,
    fit_waveform,
    leaky_voltage,
    linearity_report,
    peak_of,
    signed_transfer_curve,
    simulate_leaky,
    simulate_leaky_numeric,
    transfer_curve,
)
from tdacsim.cli import main as cli_main


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _all_ones(q):
    return DigitalCode.from_int((1 << q) - 1, q)


def test_criterion_01_linearity_at_ln2():
    start = time.perf_counter()
    report = linearity_report(transfer_curve(TdacConfig(q=8, t_w=LN2, tau2=1.0)))
    elapsed = time.perf_counter() - start
    ok = report.max_abs_inl < 1e-9 and report.max_abs_dnl < 1e-9 and elapsed < 1.0
    _report(1, "linearity at ratio ln 2", ok,
            f"max|INL|={report.max_abs_inl:.3g} max|DNL|={report.max_abs_dnl:.3g} t={elapsed:.2f}s")


def test_criterion_02_monotonicity_boundary():
    start = time.perf_counter()
    # a q-bit curve is non-monotone exactly when the lower slot weights
    # together outweigh the MSB weight: 2 e^-r - e^-(q r) > 1. That needs
    # q >= 3, and the boundary rises toward ln 2 as q grows:
    #   q=2: never (the single lower weight is e^-r times the MSB weight)
    #   q=3: r < ln(golden ratio) ~ 0.4812
    #   q=4: r < ~0.6094
    #   q=8: r < ~0.6891
    # so q=3 is already monotone at 0.5 and 0.6, where q=4 and q=8 are not
    ratios = (0.4, 0.5, 0.6, LN2, 0.8, 1.0)
    expected_monotone = {
        2: (True, True, True, True, True, True),
        3: (False, True, True, True, True, True),
        4: (False, False, False, True, True, True),
        8: (False, False, False, True, True, True),
    }
    mismatches = []
    for q, expectations in expected_monotone.items():
        for ratio, expect_monotone in zip(ratios, expectations):
            got = linearity_report(transfer_curve(TdacConfig(q=q, t_w=ratio, tau2=1.0))).monotone
            if got != expect_monotone:
                mismatches.append(f"q={q} ratio={ratio:.4g}: monotone={got}")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _report(2, "monotone boundary at ln 2", ok, "; ".join(mismatches))


def test_criterion_03_conversion_oracle_equivalence():
    start = time.perf_counter()
    cfg = TdacConfig(q=8, t_w=LN2, tau2=1.0)
    scale = cfg.v_set * cfg.tau2 / cfg.c_out
    worst = 0.0
    for value in range(256):
        code = DigitalCode.from_int(value, 8)
        delta = abs(convert_quadrature(cfg, code, 256) - convert_closed_form(cfg, code))
        worst = max(worst, delta)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 * scale and elapsed < 1.0
    _report(3, "quadrature vs closed form over all codes", ok,
            f"worst={worst:.3g} t={elapsed:.2f}s")


def test_criterion_04_propagator_vs_fixed_step():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    tau_pairs = [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0)]
    worst_rel = 0.0
    for i in range(16):
        tau1, tau2 = tau_pairs[i % 3]
        cfg = TdacConfig(q=8, t_w=LN2 * tau2, tau2=tau2)
        leak = LeakConfig(tau1=tau1)
        code = DigitalCode.from_int(int(rng.integers(1, 256)), 8)
        dt = 1e-3 * min(tau1, tau2, cfg.t_w)
        t_end = 8 * cfg.t_w + 2.0 * max(tau1, tau2)
        num = simulate_leaky_numeric(cfg, leak, code, t_end, dt)
        ana = leaky_voltage(cfg, leak, code, num.times)
        err = float(np.max(np.abs(num.values - ana)))
        worst_rel = max(worst_rel, err / (cfg.v_set * tau1))
    discrepancy_ok = worst_rel <= 1e-6

    # fourth-order check at a coarser step so truncation error stays far
    # above the roundoff floor; ratio must land in [12, 20]
    ratios = []
    for tau1, tau2 in tau_pairs:
        cfg = TdacConfig(q=8, t_w=LN2 * tau2, tau2=tau2)
        leak = LeakConfig(tau1=tau1)
        code = DigitalCode.from_int(int(rng.integers(1, 256)), 8)
        t_end = 8 * cfg.t_w + 2.0 * max(tau1, tau2)
        errs = []
        for dt in (cfg.t_w / 32.0, cfg.t_w / 64.0):
            num = simulate_leaky_numeric(cfg, leak, code, t_end, dt)
            ana = leaky_voltage(cfg, leak, code, num.times)
            errs.append(float(np.max(np.abs(num.values - ana))))
        ratios.append(errs[0] / errs[1])
    order_ok = all(12.0 <= r <= 20.0 for r in ratios)
    elapsed = time.perf_counter() - start
    ok = discrepancy_ok and order_ok and elapsed < 10.0
    _report(4, "fixed-step oracle agreement and order", ok,
            f"worst rel={worst_rel:.3g} ratios={[f'{r:.1f}' for r in ratios]} t={elapsed:.2f}s")


def test_criterion_05_alpha_equivalence():
    q, tw = 1000, 0.01  # q t_w = 10 with tau1 = tau2 = 1
    cfg = TdacConfig(q=q, t_w=tw, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 5.0, 0.002)
    t_peak, v_peak = peak_of(wf)
    value_ok = abs(v_peak - math.exp(-1.0)) <= 0.01 * math.exp(-1.0)
    time_ok = abs(t_peak - 1.0) <= 0.02
    _report(5, "all-ones equals alpha shape", value_ok and time_ok,
            f"peak=({t_peak:.4f}, {v_peak:.6f})")


def test_criterion_06_dual_exponential_equivalence():
    q, tw = 2000, 0.005  # q t_w = 10 with tau1 = 1, tau2 = 0.5
    cfg = TdacConfig(q=q, t_w=tw, tau2=0.5)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 5.0, 0.002)
    t_peak, v_peak = peak_of(wf)
    value_ok = abs(v_peak - 0.25) <= 0.01 * 0.25
    time_ok = abs(t_peak - LN2) <= 0.02 * LN2
    _report(6, "all-ones equals dual-exponential shape", value_ok and time_ok,
            f"peak=({t_peak:.4f}, {v_peak:.6f})")


def test_criterion_07_peak_invariance_under_pulse_width():
    spreads = []
    for tau2 in (1.0, 0.5):
        peaks = []
        for factor in (0.01, 0.02, 0.05):
            tw = factor * tau2
            q = round(12.0 / tw)  # keeps the gate up well past the peak
            cfg = TdacConfig(q=q, t_w=tw, tau2=tau2)
            wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 5.0, 0.002)
            peaks.append(peak_of(wf)[1])
        spreads.append((max(peaks) - min(peaks)) / min(peaks))
    ok = all(s < 0.02 for s in spreads)
    _report(7, "peak invariant under pulse width", ok,
            f"spreads={[f'{s:.2e}' for s in spreads]}")


def test_criterion_08_code_dependent_peaks():
    # conversion much faster than the leak while keeping binary weighting:
    # t_w = 0.01 tau1 and tau2 = t_w / ln 2
    tw = 0.01
    cfg = TdacConfig(q=8, t_w=tw, tau2=tw / LN2)
    leak = LeakConfig(tau1=1.0)
    hi = simulate_leaky(cfg, leak, DigitalCode.from_string("10101010"), 1.0, 2e-4)
    lo = simulate_leaky(cfg, leak, DigitalCode.from_string("01010101"), 1.0, 2e-4)
    ratio = peak_of(hi)[1] / peak_of(lo)[1]
    _report(8, "alternating-code peak ratio near 2", 1.9 <= ratio <= 2.1,
            f"ratio={ratio:.4f}")


def test_criterion_09_fit_recovery():
    t = np.linspace(0.0, 8.0, 400)
    alpha_fit = fit_waveform(Waveform(t, alpha_waveform(1.0, 1.0, t)), "alpha")
    dual_fit = fit_waveform(Waveform(t, dual_exp_waveform(1.0, 1.0, 0.5, t)), "dual")
    self_ok = (
        abs(alpha_fit.tau1_fit - 1.0) <= 1e-4
        and abs(dual_fit.tau1_fit - 1.0) <= 1e-4
        and abs(dual_fit.tau2_fit - 0.5) <= 1e-4 * 0.5
    )

    q, tw = 2000, 0.005
    cfg = TdacConfig(q=q, t_w=tw, tau2=0.5)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 8.0, 0.01)
    leaky_fit = fit_waveform(wf, "dual")
    rms = math.sqrt(leaky_fit.sse / len(wf))
    v_peak = float(np.max(wf.values))
    leaky_ok = rms < 0.01 * v_peak
    _report(9, "fit recovery", self_ok and leaky_ok,
            f"alpha tau={alpha_fit.tau1_fit:.6f} dual taus=({dual_fit.tau1_fit:.6f},"
            f" {dual_fit.tau2_fit:.6f}) rms/peak={rms / v_peak:.2e}")


def test_criterion_10_calibration():
    worst = 0.0
    for tau2 in (0.1, 1.0, 10.0):
        for q in (4, 8):
            got = calibrate_pulse_width(tau2, q, (0.4 * tau2, 1.1 * tau2))
            worst = max(worst, abs(got - tau2 * LN2) / (tau2 * LN2))
    _report(10, "calibration reaches tau2 ln 2", worst <= 1e-6,
            f"worst rel err={worst:.2e}")


def test_criterion_11_signed_model():
    cfg = SignedTdacConfig(base=TdacConfig(q=8, t_w=LN2, tau2=1.0))
    v = signed_transfer_curve(cfg).outputs
    zeros_ok = v[0] == 0.0 and v[128] == 0.0
    signs_ok = bool(np.all(v[1:128] < 0.0) and np.all(v[129:] > 0.0))
    v2 = signed_transfer_curve(replace(cfg, gain_pos=2.0)).outputs
    gain_ok = bool(
        np.array_equal(v2[:129], v[:129]) and np.array_equal(v2[129:], 2.0 * v[129:])
    )
    _report(11, "signed model regions and gains", zeros_ok and signs_ok and gain_ok,
            f"zeros={zeros_ok} signs={signs_ok} gain={gain_ok}")


_EXPECTED_FIGURE_FILES = {
    "fig2": 3,
    "fig3a": 3,
    "fig3b": 3,
    "fig3c": 3,
    "fig3d": 3,
    "fig6-shape": 1,
    "fig7-shape": 4,
}

_TRANSFER_FIGURES = {"fig2", "fig6-shape"}


def test_criterion_12_figure_reproduction(tmp_path, capsys):
    problems = []
    for figure, n_files in _EXPECTED_FIGURE_FILES.items():
        dirs = [tmp_path / figure / "run1", tmp_path / figure / "run2"]
        for d in dirs:
            code = cli_main(["reproduce", figure, "--out", str(d)])
            if code != 0:
                problems.append(f"{figure}: exit {code}")
        manifest = (dirs[0] / f"{figure}_manifest.txt").read_text()
        names = manifest.split("files=")[1].strip().split(",")
        if len(names) != n_files:
            problems.append(f"{figure}: {len(names)} files, expected {n_files}")
        header = "code,v_out" if figure in _TRANSFER_FIGURES else "t,v"
        for name in names:
            lines = (dirs[0] / name).read_text().splitlines()
            if lines[0] != header:
                problems.append(f"{figure}/{name}: header {lines[0]!r}")
            rows = len(lines) - 1
            if figure in _TRANSFER_FIGURES and rows != 256:
                problems.append(f"{figure}/{name}: {rows} rows, expected 256")
            if figure not in _TRANSFER_FIGURES and rows < 10:
                problems.append(f"{figure}/{name}: only {rows} rows")
        for name in names + [f"{figure}_manifest.txt"]:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                problems.append(f"{figure}/{name}: rerun differs")
    capsys.readouterr()  # swallow the CLI's own prints
    _report(12, "figure reproduction determinism", not problems, "; ".join(problems))
