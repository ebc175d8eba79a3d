"""Sign-magnitude eight-bit converter behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdacsim import (
    LN2,
    DigitalCode,
    LeakConfig,
    SignedTdacConfig,
    TdacConfig,
    Waveform,
    convert_signed,
    linearity_report,
    signed,
    signed_transfer_curve,
    simulate_leaky,
    simulate_signed_leaky,
)


def _scfg(**kwargs):
    base = kwargs.pop("base", TdacConfig(q=8, t_w=LN2, tau2=1.0))
    return SignedTdacConfig(base=base, **kwargs)


def test_config_requires_eight_bits():
    with pytest.raises(ValueError):
        SignedTdacConfig(base=TdacConfig(q=7, t_w=LN2))
    with pytest.raises(ValueError):
        _scfg(gain_pos=0.0)


def test_dual_zero_codes():
    cfg = _scfg(baseline=0.35)
    assert convert_signed(cfg, DigitalCode.from_int(128, 8)) == 0.35
    assert convert_signed(cfg, DigitalCode.from_int(0, 8)) == 0.35


def test_sign_selection_and_symmetry():
    cfg = _scfg()
    pos = convert_signed(cfg, DigitalCode.from_string("11111111"))
    neg = convert_signed(cfg, DigitalCode.from_string("01111111"))
    assert pos > 0.0 > neg
    assert pos == -neg


def test_wrong_width_rejected():
    with pytest.raises(ValueError):
        convert_signed(_scfg(), DigitalCode.from_int(3, 4))


def test_transfer_curve_regions():
    curve = signed_transfer_curve(_scfg())
    v = curve.outputs
    assert v[0] == 0.0 and v[128] == 0.0
    assert np.all(v[1:128] < 0.0)
    assert np.all(v[129:] > 0.0)
    # sign-magnitude mirror: code 128+m carries the same magnitude as code m
    m = np.arange(1, 128)
    assert np.array_equal(v[128 + m], -v[m])


def test_transfer_curve_equals_per_code_conversion(per_code_calls):
    base = TdacConfig(q=8, t_w=0.61, tau2=0.9, v_set=1.2, c_out=0.8)
    cfg = _scfg(base=base, gain_pos=1.3, gain_neg=0.7, baseline=-0.25)
    curve = signed_transfer_curve(cfg)
    assert sum(per_code_calls.values()) == 0
    expected = [convert_signed(cfg, DigitalCode.from_int(v, 8)) for v in range(256)]
    assert np.array_equal(curve.outputs, expected)


@pytest.mark.parametrize("base, gain_pos", [
    (TdacConfig(q=8, t_w=LN2, v_set=1e300, c_out=1e-10), 1.0),
    (TdacConfig(q=8, t_w=LN2, v_set=4.0), 1e308),
], ids=["magnitude", "gain"])
def test_convert_signed_rejects_non_finite_output(base, gain_pos):
    cfg = _scfg(base=base, gain_pos=gain_pos)
    with pytest.raises(ValueError, match="overflows a float"):
        convert_signed(cfg, DigitalCode.from_string("11000000"))


@pytest.mark.parametrize("base, kwargs, error, message", [
    # v_set * tau2 / c_out = 1e310: the magnitude curve itself is not finite
    (TdacConfig(q=8, t_w=LN2, v_set=1e300, c_out=1e-10), {}, ValueError,
     "transfer curve outputs must be finite"),
    (TdacConfig(q=8, t_w=LN2, v_set=1e300), {"gain_pos": 1e10}, FloatingPointError,
     "overflow encountered in multiply"),
    (TdacConfig(q=8, t_w=LN2, v_set=1e308), {"baseline": -1.7e308}, FloatingPointError,
     "overflow encountered in subtract"),
], ids=["magnitude", "gain", "baseline"])
def test_signed_transfer_curve_rejects_a_curve_past_the_float_range(base, kwargs, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        signed_transfer_curve(_scfg(base=base, **kwargs))


def test_gain_pos_scales_only_positive_region():
    cfg = _scfg()
    v = signed_transfer_curve(cfg).outputs
    v2 = signed_transfer_curve(replace(cfg, gain_pos=2.0)).outputs
    assert np.array_equal(v2[:129], v[:129])
    assert np.array_equal(v2[129:], 2.0 * v[129:])


def test_gain_neg_scales_only_negative_region():
    cfg = _scfg()
    v = signed_transfer_curve(cfg).outputs
    v2 = signed_transfer_curve(replace(cfg, gain_neg=3.0)).outputs
    assert np.array_equal(v2[128:], v[128:])
    assert np.array_equal(v2[1:128], 3.0 * v[1:128])


def test_regional_linearity_at_ln2():
    v = signed_transfer_curve(_scfg()).outputs
    assert linearity_report(v[:128]).max_abs_inl < 1e-9
    assert linearity_report(v[128:]).max_abs_inl < 1e-9


def test_unequal_gains_break_overall_symmetry_not_regions():
    v = signed_transfer_curve(_scfg(gain_pos=1.5, gain_neg=0.5)).outputs
    assert linearity_report(v[:128]).max_abs_inl < 1e-9
    assert linearity_report(v[128:]).max_abs_inl < 1e-9
    assert not np.array_equal(v[128 + np.arange(1, 128)], -v[np.arange(1, 128)])


def test_waveform_polarity_and_antisymmetry():
    cfg = _scfg()
    leak = LeakConfig(tau1=1.0)
    pos = simulate_signed_leaky(cfg, leak, DigitalCode.from_string("11111111"), 10.0, 0.02)
    neg = simulate_signed_leaky(cfg, leak, DigitalCode.from_string("01111111"), 10.0, 0.02)
    assert np.array_equal(pos.times, neg.times)
    assert np.array_equal(neg.values, -pos.values)
    assert float(np.max(pos.values)) > 0.0


def test_waveform_magnitude_bits_occupy_seven_slots():
    cfg = _scfg(base=TdacConfig(q=8, t_w=0.3, tau2=1.0))
    leak = LeakConfig(tau1=1.0)
    wf = simulate_signed_leaky(cfg, leak, DigitalCode.from_string("11111111"), 5.0, 0.05)
    # drive ends after 7 slots: from there the trace is a pure decay
    t_conv = 7 * 0.3
    idx = np.where(wf.times == t_conv)[0][0]
    tail = wf.times >= t_conv
    expected = wf.values[idx] * np.exp(-(wf.times[tail] - t_conv) / leak.tau1)
    assert np.allclose(wf.values[tail], expected, rtol=1e-13, atol=0)


def test_alternating_code_shows_ripple():
    cfg = _scfg(base=TdacConfig(q=8, t_w=0.25, tau2=0.5))
    leak = LeakConfig(tau1=1.0)
    wf = simulate_signed_leaky(cfg, leak, DigitalCode.from_string("10101010"), 6.0, 0.005)
    v = wf.values
    interior_maxima = int(np.sum((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])))
    assert interior_maxima >= 2


def test_baseline_offsets_waveform():
    cfg = _scfg(baseline=0.35)
    leak = LeakConfig(tau1=1.0)
    zero = simulate_signed_leaky(_scfg(), leak, DigitalCode.from_string("10000001"), 4.0, 0.05)
    offs = simulate_signed_leaky(cfg, leak, DigitalCode.from_string("10000001"), 4.0, 0.05)
    assert np.allclose(offs.values, zero.values + 0.35, rtol=0, atol=1e-15)


def test_waveform_baseline_overflow_is_one_error():
    # the drive stays finite; only the baseline added to it passes the float range
    cfg = _scfg(base=TdacConfig(q=8, t_w=LN2, tau2=1.0, v_set=1e307), baseline=1.79e308)
    with pytest.raises(FloatingPointError, match="overflow encountered in add"):
        simulate_signed_leaky(cfg, LeakConfig(tau1=1.0), DigitalCode.from_string("11111111"),
                              12.0, 0.5)


def test_waveform_state_overflow_is_reported_before_the_baseline_add():
    # the state passes the float range at the end of the first slot, and the
    # first sample plus the baseline passes it too: the overflowed state is
    # the error, as when the magnitude waveform was checked before the add
    cfg = _scfg(base=TdacConfig(q=8, t_w=1.0, tau2=1.0, v_set=1e308), baseline=1e308)
    leak = LeakConfig(tau1=1000.0, v0=1.5e308)
    with pytest.raises(ValueError, match="^waveform times and values must be finite$"):
        simulate_signed_leaky(cfg, leak, DigitalCode.from_string("11000000"), 3.0, 1.0)


@pytest.mark.parametrize("code", ["10110001", "00110001"], ids=["positive", "negative"])
def test_signed_waveform_keeps_the_engine_arrays(code, monkeypatch):
    calls = []
    check = Waveform.__post_init__
    monkeypatch.setattr(Waveform, "__post_init__", lambda self: calls.append(check(self)))
    wf = simulate_signed_leaky(_scfg(baseline=0.2), LeakConfig(tau1=1.0, v0=0.1),
                               DigitalCode.from_string(code), 4.0, 0.05)
    assert calls == []
    for array in (wf.times, wf.values):
        assert not array.flags.writeable and array.flags.owndata
    assert not np.shares_memory(wf.times, wf.values)


# simulate_signed_leaky as it was before it built its waveform from the
# sample times and the propagator directly, kept verbatim: a checked
# magnitude waveform from simulate_leaky, then a second Waveform. The new
# form must equal it to the last bit, errors included.

def _simulate_signed_leaky_reference(config, leak, code, t_end=None, dt_out=None):
    positive, magnitude = signed._split_code(code)
    gain = config.gain_pos if positive else config.gain_neg
    sign = 1.0 if positive else -1.0
    cfg = signed._magnitude_config(config, gain)
    wf = simulate_leaky(cfg, replace(leak, v0=sign * leak.v0), magnitude, t_end, dt_out)
    with np.errstate(over="raise"):
        values = config.baseline + sign * wf.values
    return Waveform(wf.times, values)


def _run_bytes(simulate, *args):
    # the bytes of times and values, or the type and message of the error
    try:
        wf = simulate(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return wf.times.tobytes(), wf.values.tobytes()


_NEAR_OVERFLOW = st.sampled_from([1e307, 1e308, 1.5e308, 1.7976931348623157e308])


def _signed_values(small):
    # signed zeros, ordinary values and values whose sums pass the float range
    return (st.sampled_from([0.0, -0.0]) | small | _NEAR_OVERFLOW
            | _NEAR_OVERFLOW.map(lambda x: -x))


@st.composite
def _signed_cases(draw):
    # both signs, gains that can push v_set past the float range, time
    # constants up to e^8 apart, the default window or one of whole slots
    tau2 = math.exp(draw(st.floats(-8.0, 8.0)))
    base = TdacConfig(q=8, t_w=tau2 * draw(st.floats(0.05, 2.0)), tau2=tau2,
                      v_set=draw(st.floats(0.1, 10.0) | _NEAR_OVERFLOW))
    cfg = SignedTdacConfig(
        base,
        gain_pos=draw(st.just(1.0) | st.floats(0.5, 2.0)),
        gain_neg=draw(st.just(1.0) | st.floats(0.5, 2.0)),
        baseline=draw(_signed_values(st.floats(-1.0, 1.0))),
    )
    leak = LeakConfig(tau1=tau2 * math.exp(draw(st.floats(-8.0, 8.0))),
                      v0=draw(_signed_values(st.floats(-2.0, 2.0))))
    code = DigitalCode.from_int(draw(st.integers(0, 255)), 8)
    if draw(st.booleans()):
        return cfg, leak, code, None, None
    t_w = base.t_w
    return cfg, leak, code, draw(st.integers(1, 10)) * t_w, t_w / draw(st.integers(1, 16))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_signed_cases())
@example((_scfg(base=TdacConfig(q=8, t_w=1.0, tau2=1.0, v_set=1e308), baseline=1e308),
          LeakConfig(tau1=1000.0, v0=1.5e308), DigitalCode.from_string("11000000"), 3.0, 1.0))
@example((_scfg(base=TdacConfig(q=8, t_w=1.0, tau2=1.0, v_set=1e308), baseline=-1e308),
          LeakConfig(tau1=1000.0, v0=1.5e308), DigitalCode.from_string("01000000"), 3.0, 1.0))
@example((_scfg(base=TdacConfig(q=8, t_w=LN2, tau2=1.0, v_set=1e307), baseline=1.79e308),
          LeakConfig(tau1=1.0), DigitalCode.from_string("11111111"), 12.0, 0.5))
@example((_scfg(), LeakConfig(tau1=1.0, v0=-0.0), DigitalCode.from_string("10001111"), None, None))
def test_signed_waveform_equals_the_reference_bit_for_bit(case):
    expected = _run_bytes(_simulate_signed_leaky_reference, *case)
    assert _run_bytes(simulate_signed_leaky, *case) == expected
