"""Leaky-mode dynamics: exact propagator, numeric oracle, shape functions."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdacsim import (
    LN2,
    DigitalCode,
    LeakConfig,
    TdacConfig,
    Waveform,
    alpha_waveform,
    cli,
    core,
    dual_exp_waveform,
    leaky_voltage,
    linearity_report,
    ode,
    peak_of,
    simulate_leaky,
    simulate_leaky_numeric,
)


def _all_ones(q):
    return DigitalCode.from_int((1 << q) - 1, q)


# --- Waveform --------------------------------------------------------------

def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Waveform([0.0, 1.0, bad], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            Waveform([0.0, 1.0, 2.0], [0.0, bad, 2.0])
    wf = Waveform([0.0, 1.0, 2.0], [0.0, 3.0, 1.0])
    assert len(wf) == 3


def test_waveform_is_immutable():
    wf = Waveform([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        wf.values[0] = 5.0


def test_public_waveform_copies_its_input():
    t, v = np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0, 1.0])
    wf = Waveform(t, v)
    t[1], v[1] = 0.5, -7.0
    assert wf.times.tolist() == [0.0, 1.0, 2.0] and wf.values.tolist() == [0.0, 3.0, 1.0]
    assert t.flags.writeable and v.flags.writeable


def test_simulate_leaky_keeps_the_engine_arrays(monkeypatch):
    # the engine builds its times strictly increasing and its values fresh, so
    # the waveform keeps both without the public constructor's copy and checks
    calls = []
    check = Waveform.__post_init__
    monkeypatch.setattr(Waveform, "__post_init__", lambda self: calls.append(check(self)))
    cfg = TdacConfig(q=4, t_w=0.3, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int(11, 4))
    assert calls == []
    for array in (wf.times, wf.values):
        assert not array.flags.writeable and array.flags.owndata
    assert not np.shares_memory(wf.times, wf.values)
    assert (np.diff(wf.times) > 0.0).all()


def test_simulate_leaky_numeric_keeps_the_engine_arrays(monkeypatch):
    # the RK4 oracle builds its step ends strictly increasing and its samples
    # fresh, so the waveform keeps both without a copy; only the samples are
    # checked
    calls = []
    check = Waveform.__post_init__
    monkeypatch.setattr(Waveform, "__post_init__", lambda self: calls.append(check(self)))
    cfg = TdacConfig(q=4, t_w=0.3, tau2=1.0)
    wf = simulate_leaky_numeric(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int(11, 4), 2.0, 0.01)
    assert calls == []
    for array in (wf.times, wf.values):
        assert not array.flags.writeable and array.flags.owndata
    assert not np.shares_memory(wf.times, wf.values)
    with pytest.raises(ValueError, match="^waveform times and values must be finite$"):
        simulate_leaky_numeric(TdacConfig(q=1, t_w=1.0, v_set=1e308),
                               LeakConfig(tau1=1.0, v0=1e308), DigitalCode.from_int(1, 1), 1.0, 0.1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.sampled_from(["random", "10", "01"]), st.integers(0, 1023),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(1e-4, 2.0), st.floats(0.01, 1.0),
       st.floats(0.0, 1.0))
def test_numeric_step_ends_strictly_increase(q, pattern, bits, log_tau2, log_tau1, ratio, dt_frac,
                                             tail):
    # slots from far below to far above the step, a window that ends inside a
    # slot or past them all, and steps up to the accuracy bound: the times
    # the waveform keeps unchecked still strictly increase
    code = (DigitalCode.from_int(bits % (1 << q), q) if pattern == "random"
            else DigitalCode.from_string((pattern * q)[:q]))
    tau1, tau2 = 10.0**log_tau1, 10.0**log_tau2
    cfg = TdacConfig(q=q, t_w=ratio * tau2, tau2=tau2)
    dt = dt_frac * 0.1 * min(tau1, tau2)
    t_end = min((q * (1.0 + tail) + 1e-3) * cfg.t_w, 3000 * dt)
    wf = simulate_leaky_numeric(cfg, LeakConfig(tau1=tau1), code, t_end, dt)
    assert wf.times[0] == 0.0 and wf.times[-1] == t_end
    assert (wf.times[1:] > wf.times[:-1]).all()


def test_simulate_leaky_overflowed_state_is_the_public_message():
    # a state past the float range reaches the values as inf
    cfg = TdacConfig(q=2, t_w=1.0, tau2=1.0, v_set=1e308)
    with pytest.raises(ValueError, match="^waveform times and values must be finite$"):
        simulate_leaky(cfg, LeakConfig(tau1=1000.0, v0=1.5e308), DigitalCode.from_int(2, 2),
                       3.0, 1.0)


def test_waveform_peak_tie_breaks_to_earliest():
    wf = Waveform([0.0, 1.0, 2.0], [2.0, 1.0, 2.0])
    assert peak_of(wf) == (0.0, 2.0)


# --- simulate_leaky --------------------------------------------------------

def test_zero_code_zero_initial_is_identically_zero():
    cfg = TdacConfig(q=4, t_w=0.3, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int(0, 4), 5.0, 0.01)
    assert np.all(wf.values == 0.0)


def test_pure_decay_from_initial_condition():
    cfg = TdacConfig(q=4, t_w=0.3, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=2.0, v0=1.5), DigitalCode.from_int(0, 4), 6.0, 0.01)
    assert np.allclose(wf.values, 1.5 * np.exp(-wf.times / 2.0), rtol=1e-14, atol=0)


def test_samples_include_slot_boundaries_and_dt_out_grid():
    cfg = TdacConfig(q=3, t_w=0.25, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int(5, 3), 2.0, 0.4)
    for edge in (0.0, 0.25, 0.5, 0.75):
        assert edge in wf.times
    for k in range(6):
        assert k * 0.4 in wf.times
    assert wf.times[-1] == 2.0


def test_all_ones_matches_alpha_function():
    # gate stays up well past the peak, so the response is the equal-constant
    # shape; 1% at the peak is the acceptance yardstick
    q, tw = 1000, 0.01
    cfg = TdacConfig(q=q, t_w=tw, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 5.0, 0.002)
    t_peak, v_peak = peak_of(wf)
    assert v_peak == pytest.approx(math.exp(-1.0), rel=0.01)
    assert t_peak == pytest.approx(1.0, rel=0.02)


def test_all_ones_matches_dual_exponential():
    q, tw = 2000, 0.005
    cfg = TdacConfig(q=q, t_w=tw, tau2=0.5)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 5.0, 0.002)
    t_peak, v_peak = peak_of(wf)
    assert v_peak == pytest.approx(0.25, rel=0.01)
    assert t_peak == pytest.approx(LN2, rel=0.02)
    # pointwise agreement with the closed shape while the gate is up
    inside = wf.times <= q * tw
    ref = dual_exp_waveform(1.0, 1.0, 0.5, wf.times[inside])
    assert np.max(np.abs(wf.values[inside] - ref)) <= 0.01 * 0.25


def test_post_conversion_decay_is_exact():
    cfg = TdacConfig(q=4, t_w=0.2, tau2=0.7)
    leak = LeakConfig(tau1=1.3)
    code = DigitalCode.from_int(0b1011, 4)
    wf = simulate_leaky(cfg, leak, code, 4.0, 0.01)
    t_conv = 4 * 0.2
    v_end = wf.values[np.where(wf.times == t_conv)[0][0]]
    tail = wf.times >= t_conv
    expected = v_end * np.exp(-(wf.times[tail] - t_conv) / leak.tau1)
    assert np.allclose(wf.values[tail], expected, rtol=1e-14, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 255),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_non_negativity_with_zero_initial(value, tau1, tau2, tw):
    cfg = TdacConfig(q=8, t_w=tw, tau2=tau2)
    wf = simulate_leaky(cfg, LeakConfig(tau1=tau1), DigitalCode.from_int(value, 8), 6.0, 0.05)
    assert np.all(wf.values >= 0.0)


def test_peak_invariance_under_pulse_width():
    for tau2 in (1.0, 0.5):
        peaks = []
        for factor in (0.01, 0.02, 0.05):
            tw = factor * tau2
            q = round(12.0 / tw)
            cfg = TdacConfig(q=q, t_w=tw, tau2=tau2)
            wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(q), 5.0, 0.002)
            peaks.append(peak_of(wf)[1])
        assert (max(peaks) - min(peaks)) / min(peaks) < 0.02


def test_alternating_codes_peak_ratio_approaches_two():
    # binary slot weighting with the conversion much faster than the leak
    tw = 0.01
    cfg = TdacConfig(q=8, t_w=tw, tau2=tw / LN2)
    leak = LeakConfig(tau1=1.0)
    hi = simulate_leaky(cfg, leak, DigitalCode.from_string("10101010"), 1.0, 2e-4)
    lo = simulate_leaky(cfg, leak, DigitalCode.from_string("01010101"), 1.0, 2e-4)
    assert peak_of(hi)[1] > peak_of(lo)[1]
    assert peak_of(hi)[1] / peak_of(lo)[1] == pytest.approx(2.0, abs=0.1)


def test_default_t_end_reaches_deep_decay():
    cfg = TdacConfig(q=8, t_w=0.1, tau2=1.0)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), _all_ones(8))
    assert wf.values[-1] < 1e-4 * float(np.max(wf.values))


# --- leaky_voltage ---------------------------------------------------------

def test_leaky_voltage_input_checks():
    cfg = TdacConfig(q=2, t_w=0.5, tau2=1.0)
    leak = LeakConfig(tau1=1.0)
    code = DigitalCode.from_int(3, 2)
    with pytest.raises(ValueError):
        leaky_voltage(cfg, leak, code, [-0.1, 0.5])
    with pytest.raises(ValueError):
        leaky_voltage(cfg, leak, code, [0.5, 0.1])
    # NaN passes both the sign and the order check, so finiteness is its own
    for bad in ([0.0, math.nan], [math.nan], [0.0, math.inf], [-math.inf, 0.5],
                [0.0, math.nan, 0.5]):
        with pytest.raises(ValueError, match="sample times must be finite"):
            leaky_voltage(cfg, leak, code, bad)
    assert leaky_voltage(cfg, leak, code, [0.0])[0] == 0.0


@pytest.mark.parametrize("times", [[], [[0.0, 0.5]], np.zeros((2, 2))],
                         ids=["empty", "row", "square"])
def test_leaky_voltage_needs_one_dimensional_times(times):
    cfg = TdacConfig(q=2, t_w=0.5, tau2=1.0)
    with pytest.raises(ValueError, match="^times must be a non-empty 1-D array$"):
        leaky_voltage(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int(3, 2), times)


# Reference for the propagator: a scalar loop over spans enumerated bit by
# bit, one math step per span end and per sample, in the form whose phi
# argument is never positive. The one-pass propagator must match it to a few
# units in the last place of the output scale.

def _enumerated_intervals(config, code, t_end):
    # gate of every slot [k t_w, (k+1) t_w], B_q first, merged over equal gates
    spans = []
    for k in range(config.q):
        start = k * config.t_w
        if start >= t_end:
            break
        on = str(code)[k] == "1"
        end = min((k + 1) * config.t_w, t_end)
        if spans and spans[-1][2] == on:
            spans[-1][1] = end
        else:
            spans.append([start, end, on])
    tail_start = config.q * config.t_w
    if tail_start < t_end:
        if spans and spans[-1][2] is False:
            spans[-1][1] = t_end
        else:
            spans.append([tail_start, t_end, False])
    if not spans:
        spans.append([0.0, t_end, False])
    return [tuple(s) for s in spans]


def _exact_step(config, leak, v, a, dt, on):
    # exp(-dt/tau1) phi(lam dt) = exp(-dt/slow) phi(-|lam| dt), slow the
    # larger time constant, phi(x) = (e^x - 1)/x
    tau1, tau2 = leak.tau1, config.tau2
    v = v * math.exp(-dt / tau1)
    if on:
        x = -abs(1.0 / tau1 - 1.0 / tau2) * dt
        phi = math.expm1(x) / x if x != 0.0 else 1.0
        v += config.v_set * dt * math.exp(-a / tau2 - dt / max(tau1, tau2)) * phi
    return v


def _per_span_leaky_voltage(config, leak, code, times):
    t = [float(x) for x in times]
    spans = _enumerated_intervals(config, code, t[-1]) if t[-1] > 0.0 else [(0.0, t[-1], False)]
    out = []
    v_state = leak.v0
    i = 0
    for idx, (a, b, on) in enumerate(spans):
        last = idx == len(spans) - 1
        while i < len(t) and (last or t[i] < b):
            out.append(_exact_step(config, leak, v_state, a, t[i] - a, on))
            i += 1
        if not last:
            v_state = _exact_step(config, leak, v_state, a, b - a, on)
    return np.array(out)


def _t_end_cases(config):
    # before the first edge, on an inner edge, inside a slot, on the end of
    # the conversion window and past it
    window = config.q * config.t_w
    return [
        0.3 * config.t_w,
        (config.q // 2) * config.t_w,
        0.55 * window,
        window,
        window + 0.5 * config.t_w,
        3.0 * window,
    ]


def _sample_times(config, t_end, rng):
    # a grid, every slot edge up to t_end exactly, and repeated times
    edges = np.arange(config.q + 1) * config.t_w
    grid = np.linspace(0.0, t_end, 97)
    t = np.concatenate([grid, edges[edges <= t_end], [t_end]])
    t = np.sort(np.concatenate([t, rng.choice(t, size=8)]))
    return t


def _random_cases():
    rng = np.random.default_rng(20260)
    cases = []
    for q in range(1, 17):
        for _ in range(3):
            value = int(rng.integers(0, 1 << q))
            t_w = float(rng.uniform(0.05, 1.0))
            tau2 = float(rng.uniform(0.2, 2.0))
            tau1 = float(rng.uniform(0.2, 2.0))
            v0 = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
            cases.append((q, value, t_w, tau2, tau1, v0))
    return cases


_ALTERNATING = "10" * 128
_PROPAGATOR_CASES = _random_cases() + [
    # q = 256 alternating codes, lam > 0, lam < 0 and lam == 0
    (256, int(code, 2), 0.01, tau2, tau1, v0)
    for code in (_ALTERNATING, _ALTERNATING[::-1])
    for tau2, tau1, v0 in ((1.0, 0.5, 0.0), (0.5, 1.0, 0.3), (0.7, 0.7, -1.2))
]

_CASE_IDS = [f"q{case[0]}-{i}" for i, case in enumerate(_PROPAGATOR_CASES)]


@pytest.mark.parametrize("q, value, t_w, tau2, tau1, v0", _PROPAGATOR_CASES, ids=_CASE_IDS)
def test_propagator_equals_per_span_loop(q, value, t_w, tau2, tau1, v0):
    cfg = TdacConfig(q=q, t_w=t_w, tau2=tau2, v_set=1.7)
    leak = LeakConfig(tau1=tau1, v0=v0)
    code = DigitalCode.from_int(value, q)
    rng = np.random.default_rng(value)
    # fixed before any comparison: 8 eps of the output scale
    tol = 8.0 * np.finfo(float).eps * (cfg.v_set * max(tau1, tau2) + abs(v0))
    cases = [_sample_times(cfg, t_end, rng) for t_end in _t_end_cases(cfg)]
    for t in cases + [[0.0], [0.0, 0.0], [t_w, t_w, 2.5 * t_w]]:
        expected = _per_span_leaky_voltage(cfg, leak, code, t)
        assert np.max(np.abs(leaky_voltage(cfg, leak, code, t) - expected)) <= tol


def _drive_spans(config, code, t_end):
    # the (starts, ends, gates) arrays as a list of (a, b, on) tuples
    return list(zip(*(x.tolist() for x in ode._drive_intervals(config, code, t_end))))


@pytest.mark.parametrize("q, value, t_w, tau2, tau1, v0", _PROPAGATOR_CASES, ids=_CASE_IDS)
def test_drive_spans_equal_per_bit_enumeration(q, value, t_w, tau2, tau1, v0):
    cfg = TdacConfig(q=q, t_w=t_w, tau2=tau2)
    code = DigitalCode.from_int(value, q)
    for t_end in _t_end_cases(cfg) + [0.0]:
        assert _drive_spans(cfg, code, t_end) == _enumerated_intervals(cfg, code, t_end)


@st.composite
def _walk_cases(draw):
    # a code of any width up to 1,100, random or alternating either way, and
    # a t_end at 0, on a slot edge, inside a slot or past the conversion window
    q = draw(st.integers(1, 1100))
    pattern = draw(st.sampled_from(["random", "10", "01"]))
    if pattern == "random":
        code = DigitalCode.from_int(draw(st.integers(0, (1 << q) - 1)), q)
    else:
        code = DigitalCode.from_string((pattern * q)[:q])
    t_w = draw(st.floats(min_value=1e-3, max_value=1e3))
    k = draw(st.integers(0, q))
    frac = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    t_end = draw(st.sampled_from([0.0, k * t_w, (min(k, q - 1) + frac) * t_w,
                                  q * t_w * (1.0 + frac), 3.0 * q * t_w]))
    return TdacConfig(q=q, t_w=t_w), code, t_end


def _assert_tiles(spans, t_end):
    assert spans[0][0] == 0.0 and spans[-1][1] == t_end
    for (_, b, on), (a, _, on_next) in zip(spans, spans[1:]):
        assert b == a and on != on_next
    if t_end > 0.0:
        assert all(a < b for a, b, _ in spans)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_walk_cases())
def test_drive_walk_tiles_the_window(case):
    cfg, code, t_end = case
    spans = _drive_spans(cfg, code, t_end)
    assert spans == _enumerated_intervals(cfg, code, t_end)
    _assert_tiles(spans, t_end)


@pytest.mark.parametrize("code", ["10" * 550, "01" * 550])
def test_drive_starts_past_the_float_range_are_dropped(code):
    # from slot 180 on k t_w passes the float range; t_end ends slot 149
    cfg = TdacConfig(q=1100, t_w=1e306)
    code = DigitalCode.from_string(code)
    spans = _drive_spans(cfg, code, 1.495e308)
    assert spans == _enumerated_intervals(cfg, code, 1.495e308)
    assert len(spans) == 150
    _assert_tiles(spans, 1.495e308)


# with lam = 1/tau1 - 1/tau2, slot k (MSB first) adds to every readout at or
# after the window in proportion to e^{lam k t_w}, so the readout is exactly
# binary at t_w = ln 2 / (1/tau2 - 1/tau1), which needs tau1 > tau2
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.tuples(st.floats(-3.0, 3.0), st.floats(1.05, 100.0)).map(
    lambda p: (10.0 ** p[0] * p[1], 10.0 ** p[0])))
@example((1.0, 0.5))
@example((5.0, 1.0))
@example((2.0, 1.9))
@example((100.0, 1.0))
def test_leaky_readout_is_binary_at_its_ln2_width(taus):
    tau1, tau2 = taus
    cfg = TdacConfig(q=8, t_w=LN2 / (1.0 / tau2 - 1.0 / tau1), tau2=tau2)
    leak = LeakConfig(tau1=tau1)
    readouts = [leaky_voltage(cfg, leak, DigitalCode.from_int(c, 8), [8 * cfg.t_w])[0]
                for c in range(256)]
    assert linearity_report(readouts).max_abs_inl <= 1e-11


# --- the array path, pinned bit for bit -------------------------------------

def _unique_merge(config, t_end, dt_out):
    # the former sample times: np.unique over the dt_out grid, the slot edges
    # up to t_end and t_end itself, less a grid point past t_end
    n_out = int(math.floor(t_end / dt_out * (1.0 + 1e-12)))
    grid = np.arange(n_out + 1) * dt_out
    edges = np.arange(config.q + 1) * config.t_w
    times = np.unique(np.concatenate([grid, edges[edges <= t_end], [t_end]]))
    return times[times <= t_end]


@st.composite
def _grid_cases(draw):
    # a dt_out that divides t_w puts grid points on slot edges, so a time
    # comes from two runs; t_end on an edge, inside a slot or past the window
    q = draw(st.integers(1, 64))
    t_w = draw(st.floats(min_value=1e-3, max_value=1e3))
    if draw(st.booleans()):
        dt_out = t_w / draw(st.integers(1, 16))
    else:
        dt_out = t_w * draw(st.floats(min_value=0.05, max_value=3.0))
    k = draw(st.integers(1, q))
    frac = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    t_end = draw(st.sampled_from([k * t_w, (k - frac) * t_w, q * t_w * (1.0 + frac)]))
    return TdacConfig(q=q, t_w=t_w), t_end, dt_out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grid_cases())
# every slot edge and t_end are grid points too
@example((TdacConfig(q=4, t_w=1.0), 4.0, 0.25))
@example((TdacConfig(q=8, t_w=LN2), 8 * LN2, LN2 / 4))
def test_sample_grid_is_the_former_unique_merge(case):
    cfg, t_end, dt_out = case
    code = DigitalCode.from_int(1, cfg.q)
    wf = simulate_leaky(cfg, LeakConfig(tau1=1.0), code, t_end, dt_out)
    assert wf.times.tobytes() == _unique_merge(cfg, t_end, dt_out).tobytes()


# Reference for the exact engine, bit for bit: simulate_leaky as it was when
# it merged its grid with a mask against t_end and handed the times to
# leaky_voltage, kept verbatim with leaky_voltage's checks, its stretch index,
# the propagator kernel, the state chain and the combine. The window checks,
# the sample budget and the stretch arrays are the library's own, which have
# references of their own above.

def _phi_reference(x):
    y = np.minimum(x, -1e-300)
    return np.expm1(y) / y


def _advance_reference(a, dt, level, tau1, tau2):
    lam = 1.0 / tau1 - 1.0 / tau2
    slow = tau2 if lam > 0.0 else tau1
    with np.errstate(over="ignore"):
        decay = np.exp(dt / -tau1)
        tilt = np.exp(a / -tau2 - dt / slow)
        x = -abs(lam) * dt
    with np.errstate(over="raise"):
        return decay, level * dt * tilt * _phi_reference(x)


def _simulate_leaky_reference(config, leak, code, t_end=None, dt_out=None):
    t_end = ode._positive("t_end", ode.default_t_end(config, leak) if t_end is None else t_end)
    dt_out = ode._positive("dt_out", ode._default_dt_out(t_end) if dt_out is None else dt_out)
    n_grid = t_end / dt_out * (1.0 + 1e-12)
    core._require_sample_budget(n_grid + 1 + config.q + 2, "t_end / dt_out")
    n_out = int(math.floor(n_grid))
    grid = np.arange(n_out + 1) * dt_out
    with np.errstate(over="ignore"):
        edges = np.arange(config.q + 1) * config.t_w
    times = np.concatenate([grid, edges[edges <= t_end], [t_end]])
    times.sort(kind="stable")
    times = times[np.append(True, times[1:] != times[:-1]) & (times <= t_end)]

    core._require_matching_width(config, code)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValueError("sample times must be finite")
    if t[0] < 0.0:
        raise ValueError("sample times must be >= 0")
    if np.any(t[1:] < t[:-1]):
        raise ValueError("sample times must be sorted")
    starts, ends, gates = ode._drive_intervals(config, code, float(t[-1]))
    n = starts.size - 1
    k = np.searchsorted(ends[:-1], t, side="right")
    idx = np.concatenate([np.arange(n), k])
    a = starts[idx]
    level = np.where(gates, config.v_set, -0.0)[idx]
    decay, drive = _advance_reference(a, np.concatenate([ends[:-1], t]) - a, level,
                                      leak.tau1, config.tau2)
    s = leak.v0
    states = [s]
    for d, g in zip(decay[:n].tolist(), drive[:n].tolist()):
        s = s * d + g
        states.append(s)
    with np.errstate(over="raise", invalid="raise"):
        values = np.array(states)[k] * decay[n:] + drive[n:]
    return Waveform(times, values)


def _run_bytes(simulate, *args):
    # the bytes of times and values, or the type and message of the error
    try:
        wf = simulate(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return wf.times.tobytes(), wf.values.tobytes()


@st.composite
def _simulate_cases(draw):
    # a code of any width up to 1,100, random or alternating either way; time
    # constants up to 1e3 apart, whose fast leaks overflow a state or drive;
    # the default window, or one that ends on a slot edge or on a grid point
    # of dt_out = t_w / m, where the 1e-12 slack can put a grid point past t_end
    q = draw(st.integers(1, 1100))
    pattern = draw(st.sampled_from(["random", "10", "01"]))
    if pattern == "random":
        code = DigitalCode.from_int(draw(st.integers(0, (1 << q) - 1)), q)
    else:
        code = DigitalCode.from_string((pattern * q)[:q])
    tau2 = 10.0 ** draw(st.floats(-3.0, 3.0))
    cfg = TdacConfig(q=q, t_w=tau2 * draw(st.floats(0.05, 2.0)), tau2=tau2,
                     v_set=draw(st.floats(0.1, 10.0)))
    leak = LeakConfig(tau1=tau2 * 10.0 ** draw(st.floats(-3.0, 3.0)),
                      v0=draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)))
    window = draw(st.sampled_from(["default", "edge", "grid"]))
    if window == "default":
        return cfg, leak, code, None, None
    m = draw(st.integers(1, 16))
    dt_out = cfg.t_w / m
    if window == "edge":
        return cfg, leak, code, draw(st.integers(1, q + 2)) * cfg.t_w, dt_out
    return cfg, leak, code, draw(st.integers(1, (q + 2) * m)) * dt_out, dt_out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_simulate_cases())
# the 44th grid point of dt_out = t_w / 11 ends 1 ulp past t_end = 4 t_w
@example((TdacConfig(q=4, t_w=0.1), LeakConfig(tau1=1.0), DigitalCode.from_int(5, 4),
          4 * 0.1, 0.1 / 11))
def test_simulate_leaky_equals_the_reference_bit_for_bit(case):
    expected = _run_bytes(_simulate_leaky_reference, *case)
    assert _run_bytes(simulate_leaky, *case) == expected


def _digest(wf):
    return hashlib.sha256(wf.times.tobytes() + wf.values.tobytes()).hexdigest()


# sha256 of times then values of simulate_leaky (default window and grid)
# and of simulate_leaky_numeric (t_end 1.285, dt t_w / 16) for 1,024-bit
# alternating codes, made with the former tuple-list stretch walk
_PINS = [
    ("10", 1.0, 0.5, 0.0,
     "79fac68bcfb668bfb5fcc672046148eaef882e65b11ffa2a03b9a380c2102335",
     "5f25fbf8b9f93adf16be215b0af595ee808d3821d6f7f5e74048131127802e67"),
    ("10", 0.5, 1.0, 0.3,
     "7a3dea5dbd7b2586524a4bbb41c6e70dc6df185a19b85feffb517d812be64cfb",
     "fb3a00cecf17e4f45adf35a06d277999f6fecac22c912ecdf76b22dc4e432705"),
    ("10", 0.7, 0.7, -1.2,
     "7d962f23015169f4034979927cfa803e5b5941d1be72cff6146e344af8e93b9c",
     "a31fdc4f9ee52d0e81180b3ff1c5bc16d51c3c8b58747f33a0a81789b4fd33e1"),
    ("01", 1.0, 0.5, 0.0,
     "d4a2b0707bfed37619ce23ad68e98dea6e7a3fc83e2e0c171734ddc4e7ef1a8c",
     "99260af3852bbe07e782d85dfa93869b46a2b5a90120ae05cfb2adeebcc4b748"),
    ("01", 0.5, 1.0, 0.3,
     "aab1ca86ece9b591d3bac73888890f7fa107597a428dce6858e7d31fff991094",
     "295f5de3f2df941f3a5f8cac67cb69183fd5eff9c0114571c2b9acae646cdd72"),
    ("01", 0.7, 0.7, -1.2,
     "3f8ee1ebe0e5413583508db0487d26fc2fcef0a9c1dc63a1aa71286adae0e55a",
     "84f07d9edb37182adf65f02483986e3b3fe3ee726f9ed95559af23147359e277"),
]


@pytest.mark.parametrize("pair, tau2, tau1, v0, exact, rk4", _PINS, ids=[
    f"{pair}-lam{'>' if tau1 < tau2 else '<' if tau1 > tau2 else '='}0"
    for pair, tau2, tau1, *_ in _PINS
])
def test_alternating_1024_bit_outputs_are_pinned(pair, tau2, tau1, v0, exact, rk4):
    cfg = TdacConfig(q=1024, t_w=0.01, tau2=tau2, v_set=1.7)
    leak = LeakConfig(tau1=tau1, v0=v0)
    code = DigitalCode.from_string(pair * 512)
    assert _digest(simulate_leaky(cfg, leak, code)) == exact
    assert _digest(simulate_leaky_numeric(cfg, leak, code, 1.285, cfg.t_w / 16)) == rk4


_EVERY_ENGINE = """
import sys
from tdacsim import *
cfg = TdacConfig(q=4, t_w=LN2)
leak = LeakConfig(tau1=0.5)
code = DigitalCode.from_string("1011")
wf = simulate_leaky(cfg, leak, code)
simulate_leaky_numeric(cfg, leak, code)
simulate_signed_leaky(SignedTdacConfig(TdacConfig(q=8, t_w=LN2)), leak,
                      DigitalCode.from_string("10110011"))
fit_waveform(wf, "alpha")
fit_waveform(wf, "dual")
transfer_curve(cfg)
calibrate_pulse_width(1.0, 4, (0.3, 1.2))
convert_quadrature(cfg, code)
print("numpy.ma" in sys.modules)
"""


def test_engines_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which every fresh
    # process that simulates would pay for
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _EVERY_ENGINE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=False)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


def test_propagator_makes_no_per_span_calls(propagator_calls):
    q = 512
    cfg = TdacConfig(q=q, t_w=0.01, tau2=0.01 / LN2)
    code = DigitalCode.from_string("10" * (q // 2))
    t = np.linspace(0.0, 3.0 * q * cfg.t_w, 4001)
    v = leaky_voltage(cfg, LeakConfig(tau1=1.0), code, t)
    assert np.all(np.isfinite(v)) and v.max() > 0.0
    assert propagator_calls["_phi"] <= 1


def test_drive_is_computed_only_under_the_gate(expm1_sizes):
    # code 1000 drives slot 0 only: phi sees the end of that stretch and the
    # samples before t_w (one on t_w belongs to the undriven stretch after it)
    cfg = TdacConfig(q=4, t_w=LN2)
    leak = LeakConfig(tau1=0.5)
    wf = simulate_leaky(cfg, leak, DigitalCode.from_string("1000"))
    driven = 1 + int((wf.times < cfg.t_w).sum())
    assert expm1_sizes == [driven] and driven < len(wf) // 10
    expm1_sizes.clear()
    simulate_leaky(cfg, leak, DigitalCode.from_string("0000"))
    assert sum(expm1_sizes) == 0


# --- simulate_leaky_numeric ------------------------------------------------

def test_numeric_pure_decay_accuracy():
    cfg = TdacConfig(q=4, t_w=1.0, tau2=1.0)
    wf = simulate_leaky_numeric(cfg, LeakConfig(tau1=1.0, v0=1.0), DigitalCode.from_int(0, 4), 3.0, 1e-4)
    assert np.max(np.abs(wf.values - np.exp(-wf.times))) < 1e-8


@st.composite
def _coarse_step_cases(draw):
    # a step past t_w / 16, even past t_w, but inside 0.1 min(tau1, tau2): each
    # stretch is split into its own steps, so no step straddles a slot edge.
    # t_end stays within 60 steps past the window, so each run is short
    tau1, tau2 = draw(_LOG_TAU), draw(_LOG_TAU)
    dt = draw(st.floats(0.05, 1.0)) * 0.1 * min(tau1, tau2)
    q = draw(st.integers(1, 12))
    cfg = TdacConfig(q=q, t_w=draw(st.floats(0.01, 0.99)) * 16.0 * dt, tau2=tau2,
                     v_set=draw(st.floats(0.1, 10.0)))
    v0 = draw(st.just(0.0) | st.floats(-10.0, 10.0))
    code = DigitalCode.from_int(draw(st.integers(0, (1 << q) - 1)), q)
    t_end = q * cfg.t_w + draw(st.floats(0.0, 60.0)) * dt
    return cfg, LeakConfig(tau1=tau1, v0=v0), code, t_end, dt


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_coarse_step_cases())
@example((TdacConfig(q=4, t_w=0.1, tau2=1.0), LeakConfig(tau1=1.0),
          DigitalCode.from_int(5, 4), 1.0, 0.05))
def test_numeric_accepts_steps_past_a_sixteenth_slot(case):
    cfg, leak, code, t_end, dt = case
    assert cfg.t_w / 16.0 < dt <= 0.1 * min(leak.tau1, cfg.tau2)
    wf = simulate_leaky_numeric(cfg, leak, code, t_end, dt)
    exact = leaky_voltage(cfg, leak, code, wf.times)
    assert np.max(np.abs(wf.values - exact)) <= 1e-6 * (cfg.v_set * leak.tau1 + abs(leak.v0))


def test_numeric_refuses_steps_past_its_accuracy_bound():
    # at dt = 2.785 tau1, inside RK4's stability limit, every row was <= 0
    # where the exact response peaks at 0.0095; the bound is 0.1 min(tau1, tau2)
    cfg = TdacConfig(q=2, t_w=1.0, tau2=1.0)
    leak = LeakConfig(tau1=0.01)
    code = DigitalCode.from_string("11")
    for dt in (2.785 * leak.tau1, 0.0011):
        with pytest.raises(ValueError, match=r"^dt must be at most 0.1 \* min\(tau1, tau2\)"):
            simulate_leaky_numeric(cfg, leak, code, 3.0, dt)
    wf = simulate_leaky_numeric(cfg, leak, code, 3.0, 0.1 * leak.tau1)
    exact = leaky_voltage(cfg, leak, code, wf.times)
    assert np.max(np.abs(wf.values - exact)) <= 1e-6 * cfg.v_set * leak.tau1
    # the bound holds for tau2 the smaller constant too
    fast = TdacConfig(q=2, t_w=1.0, tau2=0.01)
    with pytest.raises(ValueError, match="0.1"):
        simulate_leaky_numeric(fast, LeakConfig(tau1=1.0), code, 3.0, 0.0011)


def test_non_finite_samples_are_an_error():
    # initial state plus drive pass the float range
    cfg = TdacConfig(q=1, t_w=1.0, tau2=1.0, v_set=1.7e308)
    leak = LeakConfig(tau1=1000.0, v0=1.7e308)
    with pytest.raises(FloatingPointError, match="overflow encountered in add"):
        simulate_leaky(cfg, leak, _all_ones(1), 2.0)


def test_sample_path_overflow_raises():
    # one driven stretch, so only the sample path sees v_set * dt pass the float range
    cfg = TdacConfig(q=1, t_w=100.0, tau2=1.0, v_set=1e308)
    with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
        leaky_voltage(cfg, LeakConfig(tau1=1.0), _all_ones(1), [0.0, 1.0, 50.0])


def test_undriven_stretch_keeps_the_sign_of_a_zero_state():
    # no drive is added before the first set bit, so -0.0 stays -0.0 (a CSV
    # row then reads -0)
    cfg = TdacConfig(q=4, t_w=1.0, tau2=1.0)
    leak = LeakConfig(tau1=1.0, v0=-0.0)
    t = [0.0, 0.5, 1.0, 2.0, 6.0]
    v = leaky_voltage(cfg, leak, DigitalCode.from_string("0110"), t)
    assert np.signbit(v).tolist() == [True, True, False, False, False]
    assert np.signbit(leaky_voltage(cfg, leak, DigitalCode.from_int(0, 4), t)).all()


def test_tiny_time_constants_decay_to_zero():
    # -a / tau2 and -dt / tau1 pass the float range; exp(-inf) is the right 0
    cfg = TdacConfig(q=19, t_w=1.0, tau2=1e-307)
    v = leaky_voltage(cfg, LeakConfig(tau1=1.0), DigitalCode.from_int(1 | 1 << 18, 19), [18.5])
    assert np.isfinite(v).all()
    flat = leaky_voltage(TdacConfig(q=1, t_w=1.0), LeakConfig(tau1=1e-307, v0=1.0),
                         DigitalCode.from_int(0, 1), [0.0, 100.0])
    assert flat.tolist() == [1.0, 0.0]


# --- a leak much faster than the drive (lam > 0) ---------------------------


def _superposed_voltage(config, leak, code, t):
    # the initial state's decay plus one closed-form pulse response per set
    # bit: drive v_set exp(-u/tau2) on [s, e] seen at t through exp(-(t-u)/tau1),
    # with exponents written <= 0 so that no term overflows
    tau1, tau2 = leak.tau1, config.tau2
    lam = 1.0 / tau1 - 1.0 / tau2
    v = leak.v0 * math.exp(-t / tau1)
    for k, bit in enumerate(str(code)):
        s = k * config.t_w
        if bit == "0" or t <= s:
            continue
        u = min(t, s + config.t_w)
        if lam == 0.0:
            integral = (u - s) * math.exp(-u / tau1)
        else:
            integral = (math.exp(-u / tau2) - math.exp(-s / tau2 - (u - s) / tau1)) / lam
        v += config.v_set * integral * math.exp(-(t - u) / tau1)
    return v


_TAU_GRID = [10.0**e for e in range(-3, 4)]


@pytest.mark.parametrize("tau2", _TAU_GRID)
@pytest.mark.parametrize("tau1", _TAU_GRID)
def test_propagator_matches_superposition_over_the_tau_grid(tau1, tau2):
    cfg = TdacConfig(q=8, t_w=LN2 * tau2, tau2=tau2, v_set=1.3)
    leak = LeakConfig(tau1=tau1, v0=0.4)
    code = DigitalCode.from_string("11011001")
    wf = simulate_leaky(cfg, leak, code, dt_out=ode.default_t_end(cfg, leak) / 200.0)
    expected = [_superposed_voltage(cfg, leak, code, t) for t in wf.times.tolist()]
    tol = 1e-6 * (cfg.v_set * tau1 + abs(leak.v0))
    assert np.max(np.abs(wf.values - expected)) <= tol


_LOG_TAU = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def _leaky_cases(draw):
    q = draw(st.integers(1, 16))
    tau2 = draw(_LOG_TAU)
    cfg = TdacConfig(q=q, t_w=draw(st.floats(0.05, 2.0)) * tau2, tau2=tau2)
    leak = LeakConfig(tau1=draw(_LOG_TAU), v0=draw(st.sampled_from([0.0, -0.0, 0.7])))
    return cfg, leak, DigitalCode.from_int(draw(st.integers(0, (1 << q) - 1)), q)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_leaky_cases())
def test_output_is_finite_for_any_time_constants(case):
    cfg, leak, code = case
    wf = simulate_leaky(cfg, leak, code, dt_out=ode.default_t_end(cfg, leak) / 256.0)
    assert np.isfinite(wf.values).all()


@st.composite
def _readout_cases(draw):
    q = draw(st.integers(1, 16))
    tau2 = draw(_LOG_TAU)
    cfg = TdacConfig(q=q, t_w=draw(st.floats(0.05, 2.0)) * tau2, tau2=tau2,
                     v_set=draw(st.floats(0.1, 10.0)))
    tau1 = tau2 * 10.0 ** draw(st.floats(-3.0, 12.0))
    return cfg, tau1, DigitalCode.from_int(draw(st.integers(1, (1 << q) - 1)), q)


# with v0 = 0 the readout at the end of the window is the leak-free output
# with each drive instant s weighted by the leak kernel exp(-(q t_w - s) / tau1),
# which lies between exp(-q t_w / tau1) and 1: the two exact engines bound
# each other for every leak
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_readout_cases())
def test_leaky_readout_lies_within_the_leak_bounds_of_the_leak_free_output(case):
    cfg, tau1, code = case
    c = core.convert_closed_form(cfg, code)
    v = leaky_voltage(cfg, LeakConfig(tau1=tau1), code, [cfg.q * cfg.t_w])[0]
    slack = 4.0 * np.finfo(float).eps
    assert math.exp(-cfg.q * cfg.t_w / tau1) * c * (1.0 - slack) <= v <= c * (1.0 + slack)


@st.composite
def _superposition_cases(draw):
    q = draw(st.integers(1, 12))
    tau2 = 10.0 ** draw(st.floats(-2.0, 2.0))
    cfg = TdacConfig(q=q, t_w=draw(st.floats(0.05, 2.0)) * tau2, tau2=tau2,
                     v_set=draw(st.floats(0.1, 10.0)))
    leak = LeakConfig(tau1=tau2 * 10.0 ** draw(st.floats(-3.0, 3.0)))
    return cfg, leak, draw(st.integers(1, (1 << q) - 1))


# with v0 = 0 the output is linear in the drive, and a code drives the sum of
# the slots of its set bits: the merged stretches of the code must give the
# sum of the responses of its one-bit codes
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_superposition_cases())
def test_leaky_response_is_the_sum_of_its_one_bit_responses(case):
    cfg, leak, value = case
    t = np.union1d(np.linspace(0.0, ode.default_t_end(cfg, leak), 257),
                   np.arange(cfg.q + 1) * cfg.t_w)
    v = leaky_voltage(cfg, leak, DigitalCode.from_int(value, cfg.q), t)
    parts = [leaky_voltage(cfg, leak, DigitalCode.from_int(1 << k, cfg.q), t)
             for k in range(cfg.q) if value >> k & 1]
    assert np.max(np.abs(v - sum(parts))) <= 16.0 * np.finfo(float).eps * np.max(np.abs(v))


# as tau1 grows the leak kernel exp(-(q t_w - s) / tau1) tends to 1, so the
# readout tends to the leak-free output from below, within q t_w / tau1 of it
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 16), st.floats(0.05, 2.0), _LOG_TAU, st.floats(6.0, 12.0),
       st.integers(1, (1 << 16) - 1))
@example(8, LN2, 1.0, 6.0, 255)
@example(8, LN2, 1.0, 9.0, 255)
@example(8, LN2, 1.0, 12.0, 255)
def test_leaky_readout_tends_to_the_leak_free_output(q, ratio, tau2, decades, value):
    cfg = TdacConfig(q=q, t_w=ratio * tau2, tau2=tau2)
    code = DigitalCode.from_int(value % (1 << q) or 1, q)
    tau1 = tau2 * 10.0**decades
    window = q * cfg.t_w
    c = core.convert_closed_form(cfg, code)
    v = leaky_voltage(cfg, LeakConfig(tau1=tau1), code, [window])[0]
    slack = 4.0 * np.finfo(float).eps
    assert -slack * c <= c - v <= (window / tau1 + slack) * c


def test_sample_budget_checked_before_allocation():
    cfg = TdacConfig(q=4, t_w=1.0, tau2=1.0)
    leak, code = LeakConfig(tau1=1.0), DigitalCode.from_int(5, 4)
    # 1e12 samples: rejected from the count alone, before any array or step
    with pytest.raises(ValueError, match="samples"):
        simulate_leaky(cfg, leak, code, 1e9, 1e-3)
    with pytest.raises(ValueError, match="samples"):
        simulate_leaky_numeric(cfg, leak, code, 1e9, 1e-3)


def test_sample_budget_bounds_every_run(monkeypatch):
    monkeypatch.setattr(core, "MAX_SAMPLES", 120)
    cfg = TdacConfig(q=4, t_w=2.0, tau2=1.0)
    leak, code = LeakConfig(tau1=1.0), DigitalCode.from_int(5, 4)
    for simulate in (simulate_leaky, simulate_leaky_numeric):
        assert len(simulate(cfg, leak, code, 10.0, 0.1)) <= 120
        with pytest.raises(ValueError, match="samples"):
            simulate(cfg, leak, code, 12.0, 0.1)


@pytest.mark.parametrize("q, t_w, tau2, tau1, v0", [
    (8, LN2, 1.0, 0.9, 0.0), (4, 0.3, 0.5, 2.0, 0.4), (6, 2.0, 3.0, 0.2, -1.0),
])
def test_numeric_defaults_are_the_former_cli_window_and_step(q, t_w, tau2, tau1, v0):
    # the window and step that tdac waveform --engine numeric used to work out itself
    cfg = TdacConfig(q=q, t_w=t_w, tau2=tau2)
    leak = LeakConfig(tau1=tau1, v0=v0)
    code = DigitalCode.from_int(0b1011 << (q - 4), q)
    t_end = 10.0 * max(tau1, tau2) + q * t_w
    dt = min(t_w / 16.0, 1e-2 * min(tau1, tau2, t_w))
    default = simulate_leaky_numeric(cfg, leak, code)
    explicit = simulate_leaky_numeric(cfg, leak, code, t_end, dt)
    assert np.array_equal(default.times, explicit.times)
    assert np.array_equal(default.values, explicit.values)


@pytest.mark.parametrize("q, t_w, tau2, tau1", [
    (3, 0.05, 0.5, 0.5), (5, 0.4, 0.04, 0.7), (2, 5.0, 0.5, 0.05),  # t_w, tau2, tau1 least
    (2, 2.2250738585072014e-308, 1.0, 1.0), (2, 1e-310, 1.0, 1.0), (2, 5e-324, 1.0, 1.0),
])
def test_numeric_default_step_is_the_former_min(q, t_w, tau2, tau1):
    # 0.01 min(tau1, tau2, t_w) <= 0.01 t_w < t_w / 16, and rounding keeps
    # the order (both reach 0 for the least subnormal), so dropping the
    # t_w / 16 term of the former default moves no bit
    former = min(t_w / 16.0, 0.01 * min(tau1, tau2, t_w))
    assert (0.01 * min(tau1, tau2, t_w)).hex() == former.hex()
    cfg = TdacConfig(q=q, t_w=t_w, tau2=tau2)
    leak = LeakConfig(tau1=tau1)
    code = DigitalCode.from_int(1, q)
    t_end = 10.0 * max(tau1, tau2) + q * t_w

    def run(*dt):
        try:
            wf = simulate_leaky_numeric(cfg, leak, code, t_end, *dt)
        except ValueError as exc:
            return str(exc)
        return wf.times.tobytes(), wf.values.tobytes()

    assert run() == run(former)


def test_numeric_agrees_with_propagator():
    cfg = TdacConfig(q=8, t_w=LN2, tau2=1.0)
    leak = LeakConfig(tau1=0.9)
    code = DigitalCode.from_string("11010010")
    dt = 1e-3 * min(leak.tau1, cfg.tau2, cfg.t_w)
    num = simulate_leaky_numeric(cfg, leak, code, 8.0, dt)
    ana = leaky_voltage(cfg, leak, code, num.times)
    assert np.max(np.abs(num.values - ana)) <= 1e-6 * cfg.v_set * leak.tau1


def test_numeric_fourth_order_convergence():
    cfg = TdacConfig(q=8, t_w=LN2, tau2=1.0)
    leak = LeakConfig(tau1=1.0)
    code = DigitalCode.from_string("10110101")
    errs = []
    for dt in (cfg.t_w / 32, cfg.t_w / 64):
        num = simulate_leaky_numeric(cfg, leak, code, 8.0, dt)
        ana = leaky_voltage(cfg, leak, code, num.times)
        errs.append(np.max(np.abs(num.values - ana)))
    assert 12.0 < errs[0] / errs[1] < 20.0


def _rk4_per_step(config, leak, code, t_end, dt):
    # the former step loop of simulate_leaky_numeric: every step works out its
    # own ends, width and drive as scalars
    starts, ends, gates = ode._drive_intervals(config, code, t_end)
    tau1, tau2, v_set = leak.tau1, config.tau2, config.v_set
    times = [0.0]
    values = [leak.v0]
    v = leak.v0
    for a, b, on in zip(starts.tolist(), ends.tolist(), gates.tolist()):
        n = max(1, math.ceil((b - a) / dt))
        h = (b - a) / n
        f_lo = v_set * math.exp(-a / tau2) if on else 0.0
        for j in range(1, n + 1):
            t0 = a + (j - 1) * h
            t1 = b if j == n else a + j * h
            hj = t1 - t0
            if on:
                f_mid = v_set * math.exp(-(t0 + 0.5 * hj) / tau2)
                f_hi = v_set * math.exp(-t1 / tau2)
            else:
                f_mid = 0.0
                f_hi = 0.0
            k1 = -v / tau1 + f_lo
            k2 = -(v + 0.5 * hj * k1) / tau1 + f_mid
            k3 = -(v + 0.5 * hj * k2) / tau1 + f_mid
            k4 = -(v + hj * k3) / tau1 + f_hi
            v = v + hj / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            times.append(t1)
            values.append(v)
            f_lo = f_hi
    return np.array(times).tobytes(), np.array(values).tobytes()


def _assert_rk4_is_the_per_step_loop(cfg, leak, code, t_end, dt):
    wf = simulate_leaky_numeric(cfg, leak, code, t_end, dt)
    if t_end is None:
        t_end = ode.default_t_end(cfg, leak)
    if dt is None:
        dt = 0.01 * min(leak.tau1, cfg.tau2, cfg.t_w)
    assert (wf.times.tobytes(), wf.values.tobytes()) == _rk4_per_step(cfg, leak, code, t_end, dt)
    return len(wf) - 1


_RK4_STEP_CAP = 5000


@st.composite
def _rk4_cases(draw):
    # the window ends before the first slot edge, inside a stretch, on a slot
    # edge or past the conversion window; alternating codes give many short
    # stretches. A window is cut to _RK4_STEP_CAP steps, so each run is short
    q = draw(st.integers(1, 12))
    pattern = draw(st.sampled_from(["random", "10", "01"]))
    if pattern == "random":
        code = DigitalCode.from_int(draw(st.integers(0, (1 << q) - 1)), q)
    else:
        code = DigitalCode.from_string((pattern * q)[:q])
    tau2 = draw(_LOG_TAU)
    tau1 = tau2 * draw(_LOG_TAU)
    cfg = TdacConfig(q=q, t_w=tau2 * draw(st.floats(0.05, 2.0)), tau2=tau2,
                     v_set=draw(st.floats(0.1, 10.0)))
    v0 = draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0))
    leak = LeakConfig(tau1=tau1, v0=v0)
    frac = draw(st.floats(1e-6, 1.0, exclude_max=True))
    k = draw(st.integers(0, q - 1))
    t_end = draw(st.sampled_from([frac, k + frac, k + 1.0, q * (1.0 + frac)])) * cfg.t_w
    dt = draw(st.none() | st.floats(0.05, 1.0).map(lambda f: f * 0.1 * min(tau1, tau2)))
    step = 0.01 * min(tau1, tau2, cfg.t_w) if dt is None else dt
    return cfg, leak, code, min(t_end, _RK4_STEP_CAP * step), dt


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rk4_cases())
def test_numeric_is_the_per_step_loop_bit_for_bit(case):
    _assert_rk4_is_the_per_step_loop(*case)


@pytest.mark.parametrize("steps", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("code", ["1", "0", "100", "011"])
@pytest.mark.parametrize("v0", [0.0, -0.0, 0.3])
def test_numeric_block_edges_are_the_per_step_loop(steps, code, v0):
    # one slot of `steps` steps, or two stretches [0, 1] and [1, t_end]: past
    # 1,024 steps the first takes 1,024, so that a block edge falls on the
    # stretch edge
    cfg = TdacConfig(q=len(code), t_w=1.0)
    leak = LeakConfig(tau1=2.0, v0=v0)
    first = steps if cfg.q == 1 else 1024 if steps > 1024 else steps - steps // 2
    dt = 1.0 / (first - 0.5)
    t_end = 1.0 if cfg.q == 1 else 1.0 + (steps - first - 0.5) * dt
    total = _assert_rk4_is_the_per_step_loop(cfg, leak, DigitalCode.from_string(code), t_end, dt)
    assert total == steps


@pytest.mark.parametrize("code", ["1101", "1000", "0001", "0000"])
@pytest.mark.parametrize("v0", [0.0, -0.0, 0.3])
def test_numeric_default_window_is_the_per_step_loop(code, v0):
    # the default window and step: ten time constants of undriven tail after
    # the slots, about 2,900 steps over three blocks
    cfg = TdacConfig(q=4, t_w=0.4)
    leak = LeakConfig(tau1=0.5, v0=v0)
    total = _assert_rk4_is_the_per_step_loop(cfg, leak, DigitalCode.from_string(code), None, None)
    assert total > 2 * ode._RK4_BLOCK


@pytest.mark.parametrize("code", ["10", "01"])
def test_numeric_gate_edge_one_step_past_a_block_edge_is_the_per_step_loop(code):
    # the first slot takes 1,025 steps, so its run crosses the block edge at
    # 1,024 and the gate turns one step into the second block
    cfg = TdacConfig(q=2, t_w=1.0)
    leak = LeakConfig(tau1=2.0, v0=-0.0)
    dt = 1.0 / 1024.5
    assert math.ceil(cfg.t_w / dt) == ode._RK4_BLOCK + 1
    _assert_rk4_is_the_per_step_loop(cfg, leak, DigitalCode.from_string(code), 2.5, dt)


def test_numeric_takes_no_exp_on_undriven_steps(math_exp_calls, tmp_path):
    # of the 2,901 steps of this default window, the 300 of the two driven runs
    # [0, 2 t_w] and [3 t_w, 4 t_w] take exponentials: one at each step's middle
    # and end, and one at the start of each run
    argv = ["waveform", "--code", "1101", "--ratio", "0.4", "--engine", "numeric",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len((tmp_path / "waveform.csv").read_text().splitlines()) == 1 + 2902
    driven_steps, driven_runs = 300, 2
    assert math_exp_calls["exp"] <= 2 * driven_steps + driven_runs


# --- power-of-two scaling ----------------------------------------------------

@st.composite
def _scaling_cases(draw):
    # a window of at most 2,000 steps of at most 0.1 min(tau1, tau2), so no
    # value comes near the subnormal range, where rounding stops commuting
    # with a power of two; the step is explicit or each engine's default
    q = draw(st.integers(1, 12))
    code = DigitalCode.from_int(draw(st.integers(0, (1 << q) - 1)), q)
    tau2 = 10.0 ** draw(st.floats(-2.0, 2.0))
    cfg = TdacConfig(q=q, t_w=tau2 * draw(st.floats(0.05, 2.0)), tau2=tau2,
                     v_set=draw(st.floats(0.1, 10.0)))
    leak = LeakConfig(tau1=tau2 * 10.0 ** draw(st.floats(-2.0, 2.0)),
                      v0=draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)))
    step = draw(st.none() | st.floats(0.05, 1.0).map(lambda f: f * 0.1 * min(leak.tau1, tau2)))
    rk4_dt = 0.01 * min(leak.tau1, tau2, cfg.t_w) if step is None else step
    t_end = min(draw(st.floats(0.1, 3.0)) * q * cfg.t_w, 2000.0 * rk4_dt)
    return cfg, leak, code, t_end, step


def _doubled(x):
    return None if x is None else 2.0 * x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scaling_cases())
@example((TdacConfig(q=4, t_w=LN2), LeakConfig(tau1=0.5, v0=-0.0),
          DigitalCode.from_string("1011"), 3.0, None))
def test_leaky_runs_scale_by_powers_of_two(case):
    cfg, leak, code, t_end, step = case
    for simulate in (simulate_leaky, simulate_leaky_numeric):
        base = simulate(cfg, leak, code, t_end, step)
        # doubling the drive and the initial state doubles every sample
        louder = simulate(TdacConfig(q=cfg.q, t_w=cfg.t_w, tau2=cfg.tau2, v_set=2.0 * cfg.v_set),
                          LeakConfig(tau1=leak.tau1, v0=2.0 * leak.v0), code, t_end, step)
        assert louder.times.tobytes() == base.times.tobytes()
        assert louder.values.tobytes() == (2.0 * base.values).tobytes()
        # doubling every time doubles every time and every value, v0 too, since
        # the output is v_set times a time
        slower = simulate(TdacConfig(q=cfg.q, t_w=2.0 * cfg.t_w, tau2=2.0 * cfg.tau2,
                                     v_set=cfg.v_set),
                          LeakConfig(tau1=2.0 * leak.tau1, v0=2.0 * leak.v0), code,
                          2.0 * t_end, _doubled(step))
        assert slower.times.tobytes() == (2.0 * base.times).tobytes()
        assert slower.values.tobytes() == (2.0 * base.values).tobytes()


# --- alpha / dual shapes ---------------------------------------------------

def test_alpha_waveform_values():
    assert alpha_waveform(1.0, 1.0, 0.0) == 0.0
    assert alpha_waveform(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert alpha_waveform(2.0, 0.5, 0.5) == pytest.approx(0.36787944117144233, rel=1e-15)


def test_dual_exp_values():
    assert dual_exp_waveform(1.0, 1.0, 0.5, 0.0) == 0.0
    assert dual_exp_waveform(1.0, 1.0, 0.5, LN2) == pytest.approx(0.25, rel=1e-14)


def test_dual_exp_maximum_by_dense_sampling():
    t = np.linspace(0.0, 5.0, 200001)
    v = dual_exp_waveform(1.0, 1.0, 0.5, t)
    i = int(np.argmax(v))
    assert t[i] == pytest.approx(LN2, abs=1e-4)
    assert v[i] == pytest.approx(0.25, abs=1e-8)


def test_dual_exp_degenerate_band_uses_alpha():
    t = np.linspace(0.0, 4.0, 50)
    inside = dual_exp_waveform(1.0, 1.0, 1.0 + 1e-12, t)
    assert np.array_equal(inside, alpha_waveform(1.0, 1.0, t))
    # just outside the band the two shapes agree to first order
    outside = dual_exp_waveform(1.0, 1.0, 1.0 + 1e-7, t)
    assert np.allclose(outside, alpha_waveform(1.0, 1.0, t), rtol=0, atol=1e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "shape",
    [
        lambda tau: alpha_waveform(1.0, tau, 1.0),
        lambda tau: dual_exp_waveform(1.0, tau, 0.5, 1.0),
        lambda tau: dual_exp_waveform(1.0, 1.0, tau, 1.0),
    ],
    ids=["alpha-tau1", "dual-tau1", "dual-tau2"],
)
def test_shapes_require_finite_positive_time_constants(shape, bad):
    assert math.isfinite(shape(0.7))
    with pytest.raises(ValueError, match="finite and positive"):
        shape(bad)


# --- peak_of ----------------------------------------------------------------

def test_peak_of_flat_zero_waveform():
    wf = Waveform([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert peak_of(wf) == (0.0, 0.0)


def test_peak_of_refines_alpha_extremum():
    t = np.linspace(0.0, 6.0, 601)  # 0.01 spacing
    wf = Waveform(t, alpha_waveform(1.0, 1.0, t))
    t_peak, v_peak = peak_of(wf)
    assert t_peak == pytest.approx(1.0, abs=1e-4)
    assert v_peak == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_peak_of_refines_dual_extremum():
    t = np.linspace(0.0, 5.0, 501)
    wf = Waveform(t, dual_exp_waveform(1.0, 1.0, 0.5, t))
    t_peak, v_peak = peak_of(wf)
    assert t_peak == pytest.approx(LN2, abs=1e-4)
    assert v_peak == pytest.approx(0.25, abs=1e-4)


def test_peak_of_keeps_sample_maximum_when_refinement_overflows():
    # the parabola's coefficients pass the float range though every sample is finite
    wf = Waveform([0.0, 1.0, 2.0], [1e308, 1.7e308, 1e308])
    assert peak_of(wf) == (1.0, 1.7e308)


# peak_of as it was before it read its three samples with one slice each,
# kept verbatim: np.argmax and six float() reads. The new reads must give
# the same floats to the last bit.

def _peak_of_reference(waveform):
    t = waveform.times
    v = waveform.values
    i = int(np.argmax(v))
    if i == 0 or i == len(waveform) - 1:
        return float(t[i]), float(v[i])

    t0, t1, t2 = float(t[i - 1]), float(t[i]), float(t[i + 1])
    v0, v1, v2 = float(v[i - 1]), float(v[i]), float(v[i + 1])
    d0 = (t0 - t1) * (t0 - t2)
    d1 = (t1 - t0) * (t1 - t2)
    d2 = (t2 - t0) * (t2 - t1)
    if d0 == 0.0 or d1 == 0.0 or d2 == 0.0:
        return t1, v1
    a2 = v0 / d0 + v1 / d1 + v2 / d2
    if a2 >= 0.0:
        return t1, v1
    a1 = -(v0 * (t1 + t2) / d0 + v1 * (t0 + t2) / d1 + v2 * (t0 + t1) / d2)
    a0 = v0 * t1 * t2 / d0 + v1 * t0 * t2 / d1 + v2 * t0 * t1 / d2
    ts = min(max(-a1 / (2.0 * a2), t0), t2)
    vs = a0 + a1 * ts + a2 * ts * ts
    if not (math.isfinite(vs) and vs >= v1):
        return t1, v1
    return float(ts), float(vs)


_PEAK_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 5e-324, 1.7e308, -1.7e308])


@st.composite
def _peak_waveforms(draw):
    # distinct sorted times, up to near the float range except on the
    # parabolas; values drawn freely, from a small pool (ties, signed zeros,
    # a maximum at either edge), constant, or from a concave or convex parabola
    shape = draw(st.sampled_from(["free", "pool", "flat", "concave", "convex"]))
    n = draw(st.integers(2, 12))
    small = st.floats(0.0, 10.0) | st.integers(0, 50).map(float)
    wide = small if shape in ("concave", "convex") else small | st.floats(0.0, 1e300)
    times = sorted(draw(st.lists(wide, min_size=n, max_size=n, unique=True)))
    if shape == "free":
        values = draw(st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n))
    elif shape == "pool":
        values = draw(st.lists(_PEAK_VALUES, min_size=n, max_size=n))
    elif shape == "flat":
        values = [draw(_PEAK_VALUES | st.floats(-10.0, 10.0))] * n
    else:
        sign = -1.0 if shape == "concave" else 1.0
        top, width = draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 1e3))
        centre = draw(st.sampled_from(times) | st.floats(-10.0, 60.0))
        values = [top + sign * ((t - centre) / width) ** 2 for t in times]
    return Waveform(times, values)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_peak_waveforms())
@example(Waveform([0.0, 1.0, 2.0], [1e308, 1.7e308, 1e308]))
@example(Waveform([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 1.0]))
@example(Waveform([0.0, 1.0, 2.0], [-0.0, -0.0, -0.0]))
def test_peak_of_equals_the_reference_bit_for_bit(wf):
    got, want = peak_of(wf), _peak_of_reference(wf)
    assert [type(x) for x in got] == [float, float]
    assert [x.hex() for x in got] == [x.hex() for x in want]
