"""Package exports, codes, converter parameters, and the leak-free conversion
paths."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tdacsim
from tdacsim import (
    LN2,
    DigitalCode,
    TdacConfig,
    convert_closed_form,
    convert_quadrature,
    core,
)


# --- package exports -------------------------------------------------------

def test_public_names_are_pinned():
    # an export added or left behind shows up here as a diff
    assert sorted(tdacsim.__all__) == [
        "BracketingError", "DigitalCode", "FitResult", "LN2", "LeakConfig",
        "LinearityReport", "SignedTdacConfig", "TdacConfig", "TransferCurve",
        "Waveform", "alpha_waveform",
        "calibrate_pulse_width", "convert_closed_form", "convert_quadrature",
        "convert_signed", "default_t_end", "dual_exp_waveform", "fit_waveform",
        "leaky_voltage", "linearity_report", "peak_of", "signed_transfer_curve",
        "simulate_leaky", "simulate_leaky_numeric", "simulate_signed_leaky",
        "transfer_curve",
    ]
    for name in tdacsim.__all__:
        assert hasattr(tdacsim, name), name


def test_settable_config_fields_are_pinned():
    # a knob added to or left on a config class shows up here as a diff
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (TdacConfig, tdacsim.LeakConfig, tdacsim.SignedTdacConfig,
                    tdacsim.TransferCurve)
    }
    assert fields == {
        "TdacConfig": ["q", "t_w", "v_set", "tau2", "c_out"],
        "LeakConfig": ["tau1", "v0"],
        "SignedTdacConfig": ["base", "gain_pos", "gain_neg", "baseline"],
        "TransferCurve": ["outputs"],
    }


def test_code_and_config_attributes_are_pinned():
    # a method or property added to or left on these classes shows up here
    def public(obj):
        return sorted(name for name in dir(obj) if not name.startswith("_"))

    assert public(DigitalCode.from_int(5, 4)) == ["bits", "from_int", "from_string", "q"]
    assert public(TdacConfig(q=4, t_w=LN2)) == ["c_out", "q", "t_w", "tau2", "v_set"]


# --- DigitalCode -----------------------------------------------------------

def test_code_from_int_bit_layout():
    code = DigitalCode.from_int(0b1010, 4)
    # bits[0] is B_1 (LSB)
    assert code.bits == (False, True, False, True)
    assert str(code) == "1010"


def test_code_from_string_msb_first():
    code = DigitalCode.from_string("1000")
    assert code.bits == (False, False, False, True)
    assert str(code) == "1000"


@pytest.mark.parametrize("value,q", [(-1, 4), (16, 4), (0, 0)])
def test_code_rejects_out_of_range(value, q):
    with pytest.raises(ValueError):
        DigitalCode.from_int(value, q)


def test_code_rejects_bad_string():
    with pytest.raises(ValueError):
        DigitalCode.from_string("10x0")
    with pytest.raises(ValueError):
        DigitalCode.from_string("")


@given(st.integers(min_value=1, max_value=24).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, 2**q - 1))
))
def test_code_int_round_trip(q_value):
    q, value = q_value
    code = DigitalCode.from_int(value, q)
    assert int(str(code), 2) == value
    assert code.q == q
    assert DigitalCode.from_string(str(code)) == code


# --- TdacConfig ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TdacConfig(q=0, t_w=1.0)
    with pytest.raises(ValueError):
        TdacConfig(q=4, t_w=-1.0)
    with pytest.raises(ValueError):
        TdacConfig(q=4, t_w=1.0, tau2=0.0)
    cfg = TdacConfig(q=4, t_w=0.5, tau2=2.0)
    assert (cfg.q, cfg.t_w, cfg.tau2, cfg.v_set, cfg.c_out) == (4, 0.5, 2.0, 1.0, 1.0)


def _rejections():
    # (call, exact message) for each bad field of a config or window, one at a time
    base = TdacConfig(q=4, t_w=1.0)
    leak, code = tdacsim.LeakConfig(tau1=1.0), DigitalCode.from_int(5, 4)
    signed = TdacConfig(q=8, t_w=LN2)
    not_positive = [0.0, -1.0, math.nan, math.inf]
    cases = []
    for bad in not_positive:
        for name in ("t_w", "v_set", "tau2", "c_out"):
            cases.append((lambda n=name, b=bad: dataclasses.replace(base, **{n: b}), name))
        cases.append((lambda b=bad: tdacsim.LeakConfig(tau1=b), "tau1"))
        for name in ("gain_pos", "gain_neg"):
            cases.append((lambda n=name, b=bad: tdacsim.SignedTdacConfig(signed, **{n: b}), name))
        for simulate, step in ((tdacsim.simulate_leaky, "dt_out"),
                               (tdacsim.simulate_leaky_numeric, "dt")):
            cases.append((lambda f=simulate, b=bad: f(base, leak, code, b, 0.01), "t_end"))
            cases.append((lambda f=simulate, b=bad: f(base, leak, code, 2.0, b), step))
        cases.append((lambda b=bad: tdacsim.alpha_waveform(1.0, b, 1.0), "tau1"))
    cases = [(call, f"{name} must be finite and positive") for call, name in cases]
    for bad in (math.nan, math.inf, -math.inf):
        cases.append((lambda b=bad: tdacsim.LeakConfig(tau1=1.0, v0=b), "v0 must be finite"))
        cases.append((lambda b=bad: tdacsim.SignedTdacConfig(signed, baseline=b),
                      "baseline must be finite"))
    cases += [
        (lambda: TdacConfig(q=4, t_w=1.0, tau2=5e-324), "1 / tau2 must be finite"),
        (lambda: tdacsim.LeakConfig(tau1=5e-324), "1 / tau1 must be finite"),
        # with two bad fields, the first in check order is named
        (lambda: tdacsim.LeakConfig(tau1=-1.0, v0=math.nan), "tau1 must be finite and positive"),
        (lambda: TdacConfig(q=8, t_w=0.0, v_set=math.nan), "t_w must be finite and positive"),
    ]
    return cases


@pytest.mark.parametrize("call, message", _rejections())
def test_every_config_and_window_rejection_names_its_field(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# --- convert_closed_form ---------------------------------------------------

def _cfg_ln2(q=4):
    return TdacConfig(q=q, t_w=LN2, tau2=1.0)


def test_closed_form_examples():
    assert convert_closed_form(_cfg_ln2(), DigitalCode.from_int(0, 4)) == 0.0
    assert convert_closed_form(_cfg_ln2(), DigitalCode.from_int(0b1000, 4)) == pytest.approx(0.5, rel=1e-14)
    assert convert_closed_form(_cfg_ln2(), DigitalCode.from_int(0b1111, 4)) == pytest.approx(0.9375, rel=1e-14)


@pytest.mark.parametrize("convert", [convert_closed_form, convert_quadrature])
def test_conversion_rejects_non_finite_output(convert):
    # v_set * tau2 / c_out = 1e310 is past the float range
    cfg = TdacConfig(q=8, t_w=LN2, v_set=1e300, c_out=1e-10)
    with pytest.raises(ValueError, match="overflows a float"):
        convert(cfg, DigitalCode.from_string("10000000"))


def test_closed_form_rejects_width_mismatch():
    with pytest.raises(ValueError):
        convert_closed_form(_cfg_ln2(4), DigitalCode.from_int(3, 5))


@pytest.mark.parametrize("convert", [convert_closed_form, convert_quadrature])
def test_width_mismatch_is_raised_before_the_slot_work(convert, slot_value_calls):
    # the slot work grows with the converter's q, and a million quadrature
    # slots are past the sample budget: the code's width is checked first
    cfg = TdacConfig(q=10**6, t_w=1.0)
    with pytest.raises(ValueError, match="^code has 1 bits but the converter expects 1000000$"):
        convert(cfg, DigitalCode.from_string("1"))
    assert sum(slot_value_calls.values()) == 0


@given(st.integers(1, 255))
def test_binary_weighting_at_ln2(value):
    # at t_w / tau2 = ln 2 slot k weighs 2^-(k+1) v_set tau2 / c_out, so the
    # output is proportional to the integer code value
    cfg = TdacConfig(q=8, t_w=LN2, tau2=1.0, v_set=1.25, c_out=0.5)
    out = convert_closed_form(cfg, DigitalCode.from_int(value, 8))
    expected = value * cfg.v_set * cfg.tau2 / (cfg.c_out * 2**8)
    assert out == pytest.approx(expected, rel=1e-12)


@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_adjacent_slot_weight_ratio(q, ratio):
    # w_k / w_{k+1} = exp(t_w / tau2) independent of k
    cfg = TdacConfig(q=q, t_w=ratio, tau2=1.0)
    singles = [
        convert_closed_form(cfg, DigitalCode.from_int(1 << (q - 1 - k), q))
        for k in range(q)
    ]
    for k in range(q - 1):
        assert singles[k] / singles[k + 1] == pytest.approx(math.exp(ratio), rel=1e-12)


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.integers(0, 2**q - 1),
            st.integers(0, 2**q - 1),
        )
    ),
    st.floats(min_value=0.05, max_value=2.5),
)
def test_superposition_over_disjoint_codes(q_a_b, ratio):
    q, a, b = q_a_b
    a &= ~b  # force disjoint bit sets
    cfg = TdacConfig(q=q, t_w=ratio, tau2=1.0)
    v_union = convert_closed_form(cfg, DigitalCode.from_int(a | b, q))
    v_a = convert_closed_form(cfg, DigitalCode.from_int(a, q))
    v_b = convert_closed_form(cfg, DigitalCode.from_int(b, q))
    assert v_union == pytest.approx(v_a + v_b, rel=1e-12, abs=1e-15)


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.1, max_value=4.0),
    st.integers(1, 63),
)
def test_scaling_in_vset_and_cout(v_set, c_out, value):
    base = TdacConfig(q=6, t_w=0.4, tau2=1.0)
    scaled = TdacConfig(q=6, t_w=0.4, tau2=1.0, v_set=v_set, c_out=c_out)
    code = DigitalCode.from_int(value, 6)
    ref = convert_closed_form(base, code)
    assert convert_closed_form(scaled, code) == pytest.approx(
        ref * v_set / c_out, rel=1e-12
    )


# --- convert_quadrature ----------------------------------------------------

def test_quadrature_zero_code():
    assert convert_quadrature(_cfg_ln2(), DigitalCode.from_int(0, 4)) == 0.0


def test_quadrature_matches_geometric_sum():
    got = convert_quadrature(_cfg_ln2(), DigitalCode.from_int(0b1111, 4), 1024)
    assert got == pytest.approx(0.9375, abs=1e-9)


def test_quadrature_alternating_code():
    cfg = TdacConfig(q=8, t_w=LN2, tau2=1.0)
    code = DigitalCode.from_string("10101010")
    got = convert_quadrature(cfg, code, 1024)
    assert got == pytest.approx(170 / 256, abs=1e-9)
    assert got == pytest.approx(convert_closed_form(cfg, code), abs=1e-9)


def test_quadrature_rejects_coarse_rule():
    with pytest.raises(ValueError):
        convert_quadrature(_cfg_ln2(), DigitalCode.from_int(1, 4), 8)


def test_quadrature_sample_budget(monkeypatch):
    # q * (2 * steps_per_slot + 1) Simpson points, counted before any array exists
    monkeypatch.setattr(core, "MAX_SAMPLES", 3 * 33)
    cfg, code = TdacConfig(q=3, t_w=0.37, tau2=1.3), DigitalCode.from_int(5, 3)
    assert convert_quadrature(cfg, code, 16) > 0.0
    with pytest.raises(ValueError, match="steps_per_slot asks for more than 99 samples"):
        convert_quadrature(cfg, code, 17)


def _per_slot_quadratures(config, steps_per_slot):
    # the quadrature as one linspace, one exp and one dot per slot: the
    # reference the array form must equal bit for bit
    out = []
    n_points = 2 * steps_per_slot + 1
    weights = np.ones(n_points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = config.t_w / (2 * steps_per_slot)
    for k in range(config.q):
        grid = k * config.t_w + np.linspace(0.0, config.t_w, n_points)
        v = config.v_set * np.exp(-grid / config.tau2)
        out.append(float(h / 3.0 * np.dot(weights, v)))
    return tuple(out)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 40),
    st.integers(16, 400),
    _log_uniform(1e-3, 1e3),
    st.floats(0.05, 3.0),
    _log_uniform(1e-3, 1e3),
)
def test_slot_quadratures_equal_the_per_slot_rule(q, steps_per_slot, tau2, ratio, v_set):
    cfg = TdacConfig(q=q, t_w=ratio * tau2, tau2=tau2, v_set=v_set)
    got = core._slot_quadratures(cfg, steps_per_slot)
    assert got == _per_slot_quadratures(cfg, steps_per_slot)


def _with_drive(monkeypatch, quadratures, config, steps_per_slot):
    # the quadratures and, row by row, the drive values of their np.exp calls
    rows = []
    exp = np.exp

    def recorded(*args, **kwargs):
        out = exp(*args, **kwargs)
        rows.extend(np.atleast_2d(out).copy())
        return out

    with monkeypatch.context() as m:
        m.setattr(np, "exp", recorded)
        return quadratures(config, steps_per_slot), np.array(rows)


@pytest.mark.parametrize("t_w, steps_per_slot",
                         [(5e-324, 16), (5e-324, 256), (1e-322, 33), (1e-322, 256)])
def test_slot_quadratures_take_linspace_subnormal_branch(monkeypatch, t_w, steps_per_slot):
    # t_w / (n - 1) underflows to 0, so linspace divides by n - 1 and then
    # multiplies by t_w. At tau2 = 5.6e-309 the drive at those points is
    # not 1.0, so the points show in it; h / 3 underflows to 0 as well, so
    # the quadratures alone would not show them
    cfg = TdacConfig(q=3, t_w=t_w, tau2=5.6e-309)
    assert t_w / (2 * steps_per_slot) == 0.0
    got, drive = _with_drive(monkeypatch, core._slot_quadratures, cfg, steps_per_slot)
    want, want_drive = _with_drive(monkeypatch, _per_slot_quadratures, cfg, steps_per_slot)
    assert got == want
    assert drive.tobytes() == want_drive.tobytes()
    assert (drive != 1.0).any()


@pytest.mark.parametrize("q", [1, 8, 16])
def test_slot_quadratures_make_one_exp_call(exp_calls, q):
    cfg = TdacConfig(q=q, t_w=0.37, tau2=1.3)
    assert len(core._slot_quadratures(cfg, 33)) == q
    assert exp_calls["exp"] == 1


# The slot weights and code_sums as they were before the weights shared their
# exponentials and the sums were built in one array, kept verbatim. The new
# forms must equal them to the last bit.

def _slot_weights_reference(config):
    # weight of slot k: integral of the drive over [k t_w, (k+1) t_w],
    # divided by c_out
    r = config.t_w / config.tau2
    scale = config.v_set * config.tau2 / config.c_out
    return tuple(
        scale * (math.exp(-k * r) - math.exp(-(k + 1) * r))
        for k in range(config.q)
    )


def _code_sums_reference(slot_values):
    sums = np.zeros(1)
    for value in slot_values:
        sums = (sums[:, None] + np.array([0.0, value])).ravel()
    return sums


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


@st.composite
def _converters(draw):
    # t_w / tau2 up to 50, where the last slots' exponentials underflow to 0.0
    tau2 = draw(_log_uniform(1e-3, 1e3))
    return TdacConfig(
        q=draw(st.integers(1, 16)),
        t_w=draw(_log_uniform(1e-9, 50.0)) * tau2,
        tau2=tau2,
        v_set=draw(_log_uniform(1e-3, 1e3)),
        c_out=draw(_log_uniform(1e-3, 1e3)),
    )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_converters())
@example(TdacConfig(q=16, t_w=50.0))
# t_w / tau2 overflows to inf, and exp(0 * inf) makes the first weight NaN
@example(TdacConfig(q=3, t_w=1e300, tau2=1e-10))
def test_slot_weights_equal_the_reference(config):
    assert _bytes(core._slot_weights(config)) == _bytes(_slot_weights_reference(config))


@pytest.mark.parametrize("q", [1, 8, 16])
def test_slot_weights_take_q_plus_one_exponentials(math_exp_calls, q):
    assert len(core._slot_weights(TdacConfig(q=q, t_w=0.37, tau2=1.3))) == q
    assert math_exp_calls["exp"] == q + 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    _converters().map(_slot_weights_reference),
    # signed values, signed zeros and subnormals; no sum may come out as -0.0
    st.lists(st.floats(-1e3, 1e3), max_size=12).map(tuple),
))
@example(_slot_weights_reference(TdacConfig(q=3, t_w=1e300, tau2=1e-10)))
def test_code_sums_equal_the_reference(slot_values):
    assert core.code_sums(slot_values).tobytes() == _code_sums_reference(slot_values).tobytes()


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, 2**q - 1))
    ),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_quadrature_agrees_with_closed_form(q_value, ratio):
    q, value = q_value
    cfg = TdacConfig(q=q, t_w=ratio, tau2=1.0, v_set=1.3, c_out=0.7)
    code = DigitalCode.from_int(value, q)
    scale = cfg.v_set * cfg.tau2 / cfg.c_out
    delta = abs(
        convert_quadrature(cfg, code, 256) - convert_closed_form(cfg, code)
    )
    assert delta <= 1e-6 * scale

