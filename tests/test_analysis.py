"""Transfer-curve metrics, shape fitting, and pulse-width calibration."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdacsim import (
    LN2,
    BracketingError,
    DigitalCode,
    FitResult,
    TdacConfig,
    TransferCurve,
    UnsupportedCharacteristicError,
    Waveform,
    alpha_waveform,
    calibrate_pulse_width,
    convert_closed_form,
    convert_quadrature,
    dual_exp_waveform,
    fit_waveform,
    linearity_report,
    simulate_leaky,
    transfer_curve,
)


# --- transfer_curve ---------------------------------------------------------

def test_transfer_curve_two_bits_at_ln2():
    curve = transfer_curve(TdacConfig(q=2, t_w=LN2, tau2=1.0))
    assert curve.outputs[0] == 0.0
    expected = [0.0, 0.25, 0.5, 0.75]
    assert np.allclose(curve.outputs, expected, rtol=0, atol=1e-12)
    # cross-check against the quadrature oracle
    cfg = TdacConfig(q=2, t_w=LN2, tau2=1.0)
    for value, v_out in enumerate(curve.outputs):
        assert v_out == pytest.approx(
            convert_quadrature(cfg, DigitalCode.from_int(value, 2), 512), abs=1e-9
        )


def test_transfer_curve_single_bit():
    curve = transfer_curve(TdacConfig(q=1, t_w=0.4, tau2=1.0))
    assert len(curve) == 2
    assert curve.outputs[0] == 0.0
    assert curve.outputs[1] == pytest.approx(1.0 - math.exp(-0.4), rel=1e-14)


def test_transfer_curve_equally_spaced_at_ln2():
    curve = transfer_curve(TdacConfig(q=8, t_w=LN2, tau2=1.0))
    steps = np.diff(curve.outputs)
    assert np.allclose(steps, steps[0], rtol=1e-9, atol=0)


def test_transfer_curve_resource_limit():
    with pytest.raises(ValueError):
        transfer_curve(TdacConfig(q=17, t_w=LN2))


@pytest.mark.parametrize("q", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("ratio", [0.5, LN2, 0.9])
def test_transfer_curve_equals_per_code_conversion(q, ratio):
    # the per-code fold is the oracle: equal to the last bit, not approximately
    cfg = TdacConfig(q=q, t_w=ratio * 2.3, tau2=2.3, v_set=1.37, c_out=0.61)
    expected = [convert_closed_form(cfg, DigitalCode.from_int(c, q)) for c in range(1 << q)]
    assert np.array_equal(transfer_curve(cfg).outputs, expected)


@pytest.mark.parametrize("size", [2, 15, 17, 32])
def test_transfer_curve_rejects_wrong_output_count(size):
    cfg = TdacConfig(q=4, t_w=LN2)
    assert len(TransferCurve(np.zeros(16), cfg)) == 16
    with pytest.raises(ValueError, match="every code"):
        TransferCurve(np.zeros(size), cfg)


def test_transfer_curve_rejects_non_identity_scc():
    with pytest.raises(UnsupportedCharacteristicError):
        transfer_curve(TdacConfig(q=4, t_w=LN2, scc=lambda v: v * v))


def test_curves_make_no_per_code_calls(per_code_calls):
    transfer_curve(TdacConfig(q=12, t_w=0.6))
    calibrate_pulse_width(1.0, 8, (0.3, 1.2))
    assert sum(per_code_calls.values()) == 0


# --- linearity_report -------------------------------------------------------

def test_report_at_ln2_is_ideal():
    report = linearity_report(transfer_curve(TdacConfig(q=8, t_w=LN2, tau2=1.0)))
    assert report.monotone
    assert report.max_abs_inl < 1e-9
    assert report.max_abs_dnl < 1e-9
    assert report.lsb_step == pytest.approx(1.0 / 256.0, rel=1e-12)


@pytest.mark.parametrize("q", [2, 3, 4, 6, 8, 10, 12])
def test_report_ideal_at_ln2_for_all_widths(q):
    report = linearity_report(transfer_curve(TdacConfig(q=q, t_w=LN2, tau2=1.0)))
    assert report.max_abs_inl < 1e-9
    assert report.max_abs_dnl < 1e-9


def test_report_detects_non_monotone_below_ln2():
    # at ratio 0.5 the three lower slot weights of a 4-bit curve add up to
    # 0.4711953764760207, above the MSB slot weight 0.3934693402873666, so
    # the 7 -> 8 transition drops
    curve = transfer_curve(TdacConfig(q=4, t_w=0.5, tau2=1.0))
    assert curve.outputs[7] == pytest.approx(0.4711953764760207, rel=1e-12)
    assert curve.outputs[8] == pytest.approx(0.3934693402873666, rel=1e-12)
    report = linearity_report(curve)
    assert not report.monotone


def test_report_above_ln2_monotone_but_bent():
    curve = transfer_curve(TdacConfig(q=8, t_w=0.9, tau2=1.0))
    report = linearity_report(curve)
    assert report.monotone
    assert report.max_abs_inl > 0.5
    # independent enumeration of the same endpoint-fit deviation
    v = curve.outputs
    step = (v[-1] - v[0]) / (len(v) - 1)
    dev = np.max(np.abs(v - (v[0] + step * np.arange(len(v)))) / step)
    assert report.max_abs_inl == pytest.approx(dev, rel=1e-12)


def test_monotone_boundary_matches_weight_algebra():
    # non-monotone exactly when the summed lower weights beat the MSB weight,
    # i.e. 2 exp(-r) - exp(-q r) > 1; q = 2 never satisfies it
    for q in (2, 3, 4, 8):
        for r in (0.3, 0.4, 0.5, 0.6, LN2, 0.8, 1.0, 1.5):
            predicted = 2.0 * math.exp(-r) - math.exp(-q * r) > 1.0
            report = linearity_report(transfer_curve(TdacConfig(q=q, t_w=r, tau2=1.0)))
            assert report.monotone == (not predicted), (q, r)


def test_report_endpoint_inl_pins_to_zero():
    report = linearity_report(transfer_curve(TdacConfig(q=6, t_w=0.9, tau2=1.0)))
    assert report.inl[0] == 0.0
    assert abs(report.inl[-1]) < 1e-9
    assert len(report.dnl) == 63
    assert len(report.inl) == 64


def test_report_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        linearity_report(np.array([1.0]))
    with pytest.raises(ValueError):
        linearity_report(np.array([0.5, 0.5, 0.5]))


@pytest.mark.parametrize("values", [
    [2.225073858507203e-309, 1.0, 0.0],  # subnormal step: a unit spread is 1e309 steps
    [0.0, 0.0, 5e-324],  # endpoints differ, but their step underflows to zero
])
def test_report_rejects_step_too_small_for_its_spread(values):
    with pytest.raises(ValueError, match="too small"):
        linearity_report(np.array(values))


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2, max_size=40)
)
# an endpoint step one ulp of the values wide
@example([9.999999999999998, 10.0, 10.0])
# a subnormal endpoint step beside a unit spread, and one that rounds to zero
@example([2.225073858507203e-309, 1.0, 0.0])
@example([0.0, 0.0, 5e-324])
def test_dnl_inl_telescoping(values):
    v = np.asarray(values)
    if v[-1] == v[0]:
        v[-1] = v[0] + 1.0
    step = (float(v[-1]) - float(v[0])) / (v.size - 1)
    if step == 0.0 or float(np.ptp(v)) / abs(step) > sys.float_info.max / v.size:
        # no finite DNL and INL in step units: rejected, not returned as inf/nan
        with pytest.raises(ValueError):
            linearity_report(v)
        return
    report = linearity_report(v)
    # sum of DNL[0..i-1] equals INL[i] - INL[0] within roundoff, which
    # scales with the DNL magnitude when the endpoint step is tiny
    acc = np.concatenate([[0.0], np.cumsum(report.dnl)])
    tol = 1e-9 * max(1.0, report.max_abs_dnl)
    assert np.allclose(acc, report.inl - report.inl[0], rtol=1e-9, atol=tol)


# --- fit_waveform -----------------------------------------------------------

def _sampled(fn, t_hi=8.0, n=400):
    t = np.linspace(0.0, t_hi, n)
    return Waveform(t, fn(t))


def test_fit_alpha_self_recovery():
    wf = _sampled(lambda t: alpha_waveform(1.0, 1.0, t))
    result = fit_waveform(wf, "alpha")
    assert result.converged
    assert result.tau1_fit == pytest.approx(1.0, abs=1e-6)
    assert result.tau2_fit == result.tau1_fit
    assert result.sse < 1e-12


def test_fit_dual_self_recovery():
    wf = _sampled(lambda t: dual_exp_waveform(1.0, 1.0, 0.5, t))
    result = fit_waveform(wf, "dual")
    assert result.converged
    assert result.tau1_fit == pytest.approx(1.0, rel=0.01)
    assert result.tau2_fit == pytest.approx(0.5, rel=0.01)
    assert result.model == "dual-exponential"


def test_fit_dual_canonical_order():
    wf = _sampled(lambda t: dual_exp_waveform(2.0, 0.3, 1.7, t))
    result = fit_waveform(wf, "dual")
    assert result.tau1_fit >= result.tau2_fit
    assert result.tau1_fit == pytest.approx(1.7, rel=1e-4)
    assert result.tau2_fit == pytest.approx(0.3, rel=1e-4)


def test_fit_simulated_all_ones_waveform():
    q, tw = 2000, 0.005
    cfg = TdacConfig(q=q, t_w=tw, tau2=0.5)
    from tdacsim import LeakConfig

    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int((1 << q) - 1, q), 8.0, 0.01)
    result = fit_waveform(wf, "dual")
    rms = math.sqrt(result.sse / len(wf))
    assert rms <= 0.01 * wf.peak_value


def test_fit_alpha_on_dual_data_has_larger_sse():
    wf = _sampled(lambda t: dual_exp_waveform(1.0, 1.0, 0.25, t))
    dual = fit_waveform(wf, "dual")
    alpha = fit_waveform(wf, "alpha")
    assert alpha.converged
    assert alpha.sse > dual.sse


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_waveform(Waveform([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.5, 0.2]), "alpha")
    flat = Waveform(np.linspace(0, 1, 16), np.full(16, 2.0))
    with pytest.raises(ValueError):
        fit_waveform(flat, "alpha")
    with pytest.raises(ValueError):
        fit_waveform(_sampled(lambda t: alpha_waveform(1.0, 1.0, t)), "cubic")


@pytest.mark.parametrize("model", ["dual-exponential", "dual_exp", "ALPHA", "Dual"])
def test_fit_accepts_only_alpha_and_dual(model):
    with pytest.raises(ValueError, match="expected alpha or dual"):
        fit_waveform(_sampled(lambda t: alpha_waveform(1.0, 1.0, t)), model)


def test_fit_non_convergence_is_reported_not_raised():
    t = np.linspace(0.0, 8.0, 200)
    v = alpha_waveform(1.0, 1.0, t) + 0.05 * np.sin(40.0 * t)
    result = fit_waveform(Waveform(t, v), "alpha", max_iterations=1)
    assert not result.converged
    assert result.iterations == 1


@pytest.mark.parametrize("field", ["v_set_fit", "tau1_fit", "tau2_fit", "sse"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_result_rejects_non_finite_values(field, bad):
    good = dict(model="alpha", v_set_fit=1.0, tau1_fit=1.0, tau2_fit=1.0, sse=0.0,
                converged=False, iterations=3)
    FitResult(**good)
    with pytest.raises(ValueError, match="finite"):
        FitResult(**dict(good, **{field: bad}))


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=0.5, max_value=3.0),
)
def test_fit_identifiability(amp, tau1):
    tau2 = 0.35 * tau1
    t = np.linspace(0.0, 10.0 * tau1, 600)
    wf = Waveform(t, dual_exp_waveform(amp, tau1, tau2, t))
    result = fit_waveform(wf, "dual")
    assert result.tau1_fit == pytest.approx(tau1, rel=1e-4)
    assert result.tau2_fit == pytest.approx(tau2, rel=1e-4)


# --- calibrate_pulse_width ---------------------------------------------------

def test_calibration_finds_ln2():
    got = calibrate_pulse_width(1.0, 8, (0.3, 1.2))
    assert got == pytest.approx(LN2, rel=1e-6)


def test_calibration_scales_with_tau2():
    got = calibrate_pulse_width(2.0, 8, (0.6, 2.4))
    assert got == pytest.approx(2.0 * LN2, abs=2e-6)


def test_calibration_independent_of_q():
    got4 = calibrate_pulse_width(1.0, 4, (0.3, 1.2))
    got8 = calibrate_pulse_width(1.0, 8, (0.3, 1.2))
    assert got4 == pytest.approx(LN2, rel=1e-6)
    assert got8 == pytest.approx(LN2, rel=1e-6)


def test_calibration_across_scales():
    for tau2 in (0.1, 1.0, 10.0):
        got = calibrate_pulse_width(tau2, 8, (0.4 * tau2, 1.1 * tau2))
        assert abs(got - tau2 * LN2) <= 1e-6 * tau2 * LN2


def test_calibration_has_no_tolerance_parameter():
    # the stopping tolerance is a module constant: a NaN tolerance would end
    # the search at once and return the bracket midpoint as a calibrated width
    with pytest.raises(TypeError):
        calibrate_pulse_width(1.0, 8, (0.3, 1.2), 1.0, 1.0, float("nan"))


def test_calibration_rejects_non_bracketing_bounds():
    with pytest.raises(BracketingError):
        calibrate_pulse_width(1.0, 8, (0.8, 1.2))
    with pytest.raises(ValueError):
        calibrate_pulse_width(1.0, 8, (1.2, 0.8))
