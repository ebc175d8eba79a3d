"""Leaky-output dynamics: the synaptic-potential mode of the converter.

With a leak resistor on the output node the voltage obeys

    dV/dt = -V / tau1 + v_set * exp(-t / tau2) * D(t)

where the gate D(t) is 1 during the width-t_w slot of each set bit (MSB
first, from t = 0) and 0 otherwise. D is constant between slot boundaries
and each constant-D stretch has an exact variation-of-constants solution,
so the primary engine is piecewise analytic. A classical fixed-step
fourth-order integrator provides an independent numerical check of the
same equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (
    DigitalCode,
    TdacConfig,
    _finite,
    _freeze,
    _positive,
    _require_matching_width,
    _require_sample_budget,
)

# relative |tau1 - tau2| below which the two-constant response is treated
# as the equal-constant (alpha) case
TAU_DEGENERACY_BAND = 1e-9

# RK4 steps whose widths and exponents ``simulate_leaky_numeric`` builds at
# once; the drive products are formed in its step loop
_RK4_BLOCK = 1024


@dataclass(frozen=True)
class LeakConfig:
    """Output leak time constant and initial output voltage."""

    tau1: float
    v0: float = 0.0

    def __post_init__(self):
        tau1, v0 = float(self.tau1), float(self.v0)
        object.__setattr__(self, "tau1", _positive("tau1", tau1))
        _finite("1 / tau1", 1.0 / tau1)
        object.__setattr__(self, "v0", _finite("v0", v0))


@dataclass(frozen=True, eq=False)
class Waveform:
    """Sampled output-voltage trace: finite values at strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape or t.size == 0:
            raise ValueError("times and values must be matching non-empty 1-D arrays")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("waveform times and values must be finite")
        if not (t[1:] > t[:-1]).all():
            raise ValueError("sample times must be strictly increasing")
        _freeze(self, times=t, values=v)

    @classmethod
    def _own(cls, times: np.ndarray, values: np.ndarray) -> Waveform:
        # a waveform that keeps an engine's fresh float arrays without a copy:
        # the engines build their times finite and strictly increasing, so
        # only the values are checked
        if not np.isfinite(values).all():
            raise ValueError("waveform times and values must be finite")
        return _freeze(object.__new__(cls), times=times, values=values)

    def __len__(self) -> int:
        return self.times.size


def _phi(x: np.ndarray) -> np.ndarray:
    # (exp(x) - 1) / x for x <= 0, continued with 1 at x = 0; expm1(y) = y for |y|
    # below about 1e-16, so the (normal, hence fast) clamp changes no value
    y = np.minimum(x, -1e-300)
    return np.expm1(y) / y


def _advance(a, dt, on, v_set: float, tau1: float, tau2: float):
    # decay factor and driven increment dt into stretches that start at a, in the
    # form of ``leaky_voltage``. The increment is computed only where the gate
    # is on; elsewhere it is -0.0, so an undriven increment keeps the sign of a
    # zero state (x + -0.0 == x for every float x). The caller holds the scope
    # that raises on overflow
    lam = 1.0 / tau1 - 1.0 / tau2
    slow = tau2 if lam > 0.0 else tau1
    dt_on = dt[on]
    # a tiny time constant takes an exponent past the float range as -inf,
    # and exp(-inf) and phi(-inf) are the right 0
    with np.errstate(over="ignore"):
        decay = np.exp(dt / -tau1)
        tilt = np.exp(a[on] / -tau2 - dt_on / slow)
        x = -abs(lam) * dt_on
    drive = np.full(dt.size, -0.0)
    drive[on] = v_set * dt_on * tilt * _phi(x)
    return decay, drive


def _drive_intervals(
    config: TdacConfig, code: DigitalCode, t_end: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant-drive stretches covering [0, t_end], merged over equal gates.

    Slot k spans [k t_w, (k+1) t_w] and carries bit B_{q-k}, MSB first, and a
    clear bit after the last slot is the undriven tail. The stretches, arrays
    (starts, ends, gates), are the runs of ``[*reversed(code.bits), False]``
    found from its edges; those that start before t_end are kept, the last
    ending there, and an empty window is one undriven stretch [0, 0].
    """
    bits = np.fromiter([*reversed(code.bits), False], bool)
    k = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    # a start past the float range is past t_end too
    with np.errstate(over="ignore"):
        starts = k * config.t_w
    n = int(np.searchsorted(starts, t_end))
    if n == 0:
        return np.zeros(1), np.array([t_end]), np.zeros(1, dtype=bool)
    return starts[:n], np.concatenate((starts[1:n], [t_end])), bits[k[:n]]


def leaky_voltage(
    config: TdacConfig,
    leak: LeakConfig,
    code: DigitalCode,
    times,
) -> np.ndarray:
    """Exact piecewise-analytic solution sampled at the given times.

    ``times`` must be finite, sorted and non-negative. On every
    constant-drive stretch [a, b] the state advances by

        V(t) = V(a) exp(-(t-a)/tau1)
             + v_set (t-a) exp(-a/tau2 - (t-a)/slow) phi(-|lam| (t-a))

    with lam = 1/tau1 - 1/tau2, slow = tau2 if lam > 0 else tau1 and
    phi(x) = (e^x - 1)/x, continued with 1 at x = 0, so the
    equal-time-constant limit needs no branch. It is the variation-of-
    constants step exp(-(t-a)/tau1) phi(lam (t-a)) rewritten so that phi's
    argument is never positive: no leak is too fast for it. One kernel
    call gives the decay factor and the driven increment of the stretch
    ends and of all samples together, straight from the stretch arrays of
    ``_drive_intervals``. It computes the increment only where the gate is
    on; an undriven one is -0.0, which leaves every state, a signed zero
    included, as it is. A scalar pass V(b) = V(a) d + g chains the
    stretch states. The samples in each stretch are counted by one binary
    search per stretch end in the sample times (a sample on an edge belongs
    to the later stretch). A value past the float range, v_set (t-a) or the
    sum of state and drive at a sample, raises ``FloatingPointError``. The
    inputs are checked once, here.
    """
    _require_matching_width(config, code)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.isfinite(t).all():
        raise ValueError("sample times must be finite")
    if t[0] < 0.0:
        raise ValueError("sample times must be >= 0")
    if (t[1:] < t[:-1]).any():
        raise ValueError("sample times must be sorted")
    return _leaky_values(config, leak, code, t)


def _leaky_values(config: TdacConfig, leak: LeakConfig, code: DigitalCode, t: np.ndarray):
    # leaky_voltage past its checks: a code of the converter's width, valid times
    starts, ends, gates = _drive_intervals(config, code, float(t[-1]))
    n = starts.size - 1
    # the samples in each stretch, from the number before each end; a sample
    # on an edge belongs to the later stretch, and every sample is before the
    # last end (numpy buffers the overlapping operands of the subtraction)
    counts = np.searchsorted(t, ends)
    counts[-1] = t.size
    counts[1:] -= counts[:-1]
    # one advance for the ends of all stretches but the last, whose state is
    # never sampled, and for the samples after them
    a = np.concatenate((starts[:n], np.repeat(starts, counts)))
    on = np.concatenate((gates[:n], np.repeat(gates, counts)))
    # v_set * dt is the one product here that can pass the float range, and a
    # state past it meets a zero decay in the sum as inf * 0; both raise
    with np.errstate(over="raise", invalid="raise"):
        decay, drive = _advance(a, np.concatenate((ends[:-1], t)) - a, on, config.v_set,
                                leak.tau1, config.tau2)
        s = leak.v0
        states = [s]
        for d, g in zip(decay[:n].tolist(), drive[:n].tolist()):
            s = s * d + g
            states.append(s)
        return np.repeat(states, counts) * decay[n:] + drive[n:]


def default_t_end(config: TdacConfig, leak: LeakConfig) -> float:
    """Conversion window plus ten leak/drive time constants of decay.

    Raises ``ValueError`` when that window overflows a float.
    """
    t_end = 10.0 * max(leak.tau1, config.tau2) + config.q * config.t_w
    if not math.isfinite(t_end):
        raise ValueError("the default t_end, 10 * max(tau1, tau2) + q * t_w, overflows a float")
    return t_end


def _default_dt_out(t_end: float) -> float:
    return t_end / 2048.0


def _sample_times(config: TdacConfig, leak: LeakConfig, t_end, dt_out) -> np.ndarray:
    # simulate_leaky's sample times: the window and the step, checked, then the
    # sample budget; a finite, strictly increasing, non-negative merge of the
    # dt_out grid, the slot edges and t_end itself
    t_end = _positive("t_end", default_t_end(config, leak) if t_end is None else t_end)
    dt_out = _positive("dt_out", _default_dt_out(t_end) if dt_out is None else dt_out)

    n_grid = t_end / dt_out * (1.0 + 1e-12)
    # dt_out grid, slot edges and t_end itself
    _require_sample_budget(n_grid + 1 + config.q + 2, "t_end / dt_out")
    n_out = int(math.floor(n_grid))
    grid = np.arange(n_out + 1) * dt_out
    # the slack above can put the last grid point past t_end
    grid = grid[: np.searchsorted(grid, t_end, side="right")]
    # an edge past the float range is past t_end too, and is dropped
    with np.errstate(over="ignore"):
        edges = np.arange(config.q + 1) * config.t_w
    times = np.concatenate((grid, edges[edges <= t_end], [t_end]))
    # one merge of the three sorted runs; a time in two of them is kept once
    times.sort(kind="stable")
    return times[np.concatenate(([True], times[1:] != times[:-1]))]


def simulate_leaky(
    config: TdacConfig,
    leak: LeakConfig,
    code: DigitalCode,
    t_end: float | None = None,
    dt_out: float | None = None,
) -> Waveform:
    """Leaky-mode response on a grid of dt_out multiples plus slot edges.

    Slot boundaries are always sampled so that alternating-code ripple is
    never aliased away. Values come from the exact propagator, not from a
    discretization; after the last slot the output decays as a pure
    exponential in tau1. The times built here are finite, strictly
    increasing and non-negative, so they skip ``leaky_voltage``'s checks.
    The returned waveform keeps the engine's arrays without a copy, and only
    its values are checked (an overflowed state reaches that check as inf).
    A product past the float range raises ``FloatingPointError`` in the
    engine's one raise scope.
    """
    times = _sample_times(config, leak, t_end, dt_out)
    _require_matching_width(config, code)
    return Waveform._own(times, _leaky_values(config, leak, code, times))


def simulate_leaky_numeric(
    config: TdacConfig,
    leak: LeakConfig,
    code: DigitalCode,
    t_end: float | None = None,
    dt: float | None = None,
) -> Waveform:
    """Classical fixed-step fourth-order integration of the leaky mode.

    Steps never straddle a slot boundary: each constant-drive stretch
    [a, b] is subdivided into n = max(1, ceil((b - a) / dt)) equal steps of
    h = (b - a) / n, ending at a + j h and at b, so the discontinuous gate is
    seen as a sequence of smooth problems. The returned samples are the
    integration points themselves. By default t_end is ``default_t_end`` and
    dt is 0.01 min(tau1, tau2, t_w). An explicit dt is at most
    0.1 min(tau1, tau2), where the error measured below 1e-6 (v_set tau1 + |v0|).

    The step ends of all stretches are built as one array. Each block of
    1,024 steps gets its step widths and exponents -t / tau2 from array
    operations. One loop walks the block's runs of equal gate: a driven run
    takes the ``math.exp`` of each step's middle and end and multiplies
    v_set into them; an undriven run has level 0.0 and evaluates no exp, yet
    still adds its +0.0 drive (a -0.0 state becomes +0.0). Each operation is
    the scalar one of a step-by-step loop, so the samples equal that loop's
    bit for bit. The returned waveform keeps the step ends and the samples
    without a copy, and only the samples are checked.
    """
    _require_matching_width(config, code)
    t_end = _positive("t_end", default_t_end(config, leak) if t_end is None else t_end)
    if dt is None:
        dt = 0.01 * min(leak.tau1, config.tau2, config.t_w)
    dt = _positive("dt", dt)
    if dt > 0.1 * min(leak.tau1, config.tau2):
        raise ValueError("dt must be at most 0.1 * min(tau1, tau2) for RK4 to be accurate")

    starts, ends, gates = _drive_intervals(config, code, t_end)
    # each span takes at most span / dt + 1 steps
    _require_sample_budget(t_end / dt + starts.size + 1, "t_end / dt")

    spans = ends - starts
    steps = np.maximum(np.ceil(spans / dt), 1.0)
    counts = steps.astype(int)
    last = np.cumsum(counts)
    # t[last[i]] ends stretch i, whose steps end at a + j h for j = 1 .. n - 1
    j = np.arange(1, last[-1] + 1) - np.repeat(last - counts, counts)
    t = np.empty(last[-1] + 1)
    t[0] = starts[0]
    t[1:] = np.repeat(starts, counts) + j * np.repeat(spans / steps, counts)
    t[last] = ends
    # The step ends strictly increase. A stretch of one step is [a, b] with
    # a < b. A stretch of n >= 2 steps has h > dt / 2 >= t_end / (2 * 10**7)
    # by the sample budget, some 10**8 times the few ulps of t_end by which
    # a computed a + j h can be off, so the waveform keeps t unchecked

    # (-x) / tau equals x / (-tau) bit for bit; t / tau2 stays below the
    # sample budget, since dt <= 0.1 tau2
    ntau1 = -leak.tau1
    ntau2 = -config.tau2
    exp = math.exp
    run_ends, driven, i = last.tolist(), gates.tolist(), 0
    values = np.empty(t.size)
    values[0] = v = leak.v0
    for lo in range(0, run_ends[-1], _RK4_BLOCK):
        hi = min(lo + _RK4_BLOCK, run_ends[-1])
        tb = t[lo : hi + 1]
        h = np.diff(tb)
        half = 0.5 * h
        h1s, h2s, h6s = h.tolist(), half.tolist(), (h / 6.0).tolist()
        at = (tb / ntau2).tolist()
        mid = ((tb[:-1] + half) / ntau2).tolist()
        # the block's runs of equal gate, driven or at level 0.0 with no exp
        out, a = [], 0
        while a < hi - lo:
            b = min(run_ends[i], hi) - lo
            if driven[i]:
                lv, em, e1 = config.v_set, map(exp, mid[a:b]), map(exp, at[a : b + 1])
            else:
                lv, em, e1 = 0.0, repeat(0.0), repeat(0.0)
            f1 = lv * next(e1)
            for h1, h2, h6, m, e in zip(h1s[a:b], h2s[a:b], h6s[a:b], em, e1):
                f0, fm, f1 = f1, lv * m, lv * e
                k1 = v / ntau1 + f0
                k2 = (v + h2 * k1) / ntau1 + fm
                k3 = (v + h2 * k2) / ntau1 + fm
                k4 = (v + h1 * k3) / ntau1 + f1
                v = v + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                out.append(v)
            i += run_ends[i] <= hi  # unless the run goes on in the next block
            a = b
        values[lo + 1 : hi + 1] = out
    return Waveform._own(t, values)


def _alpha_model(theta, t, jac=True):
    a, tau1 = theta
    e = np.exp(-t / tau1)
    f = a * t * e
    if not jac:
        return f
    return f, np.column_stack([t * e, f * t / tau1**2])


def _dual_model(theta, t, jac=True):
    a, tau1, tau2 = theta
    d = tau1 - tau2
    c = tau1 * tau2 / d
    e1 = np.exp(-t / tau1)
    e2 = np.exp(-t / tau2)
    base = e1 - e2
    f = a * c * base
    if not jac:
        return f
    j_a = c * base
    j_t1 = a * (-(tau2**2) / d**2 * base + c * e1 * t / tau1**2)
    j_t2 = a * (tau1**2 / d**2 * base - c * e2 * t / tau2**2)
    return f, np.column_stack([j_a, j_t1, j_t2])


def alpha_waveform(v_set: float, tau1: float, t):
    """Equal-time-constant synaptic shape t * v_set * exp(-t / tau1)."""
    _positive("tau1", tau1)
    out = _alpha_model((v_set, tau1), np.asarray(t, dtype=float), jac=False)
    return float(out) if out.ndim == 0 else out


def dual_exp_waveform(v_set: float, tau1: float, tau2: float, t):
    """Two-time-constant synaptic shape.

    Returns tau1 tau2 / (tau1 - tau2) * v_set * (exp(-t/tau1) - exp(-t/tau2)).
    Inside the degeneracy band the expression is numerically unstable and
    the exact equal-constant limit, the alpha shape, is returned instead.
    """
    if not all(math.isfinite(tau) and tau > 0.0 for tau in (tau1, tau2)):
        raise ValueError("time constants must be finite and positive")
    if abs(tau1 - tau2) < TAU_DEGENERACY_BAND * tau1:
        return alpha_waveform(v_set, tau1, t)
    out = _dual_model((v_set, tau1, tau2), np.asarray(t, dtype=float), jac=False)
    return float(out) if out.ndim == 0 else out


def peak_of(waveform: Waveform) -> tuple[float, float]:
    """Sample-level maximum refined by a three-point quadratic fit.

    Ties break toward the earliest sample. Refinement is skipped at the
    trace edges and whenever the bracketing parabola is not concave; the
    refined value is clamped to the bracketing interval, and the sample
    maximum is kept when the refinement is below it or not finite.
    The refinement assumes a smooth peak. When the maximum is a corner,
    such as a slot edge where the gate turns off and dV/dt jumps, the
    parabola through it can overshoot the true maximum.
    """
    t = waveform.times
    v = waveform.values
    i = int(v.argmax())
    if i == 0 or i == len(waveform) - 1:
        return float(t[i]), float(v[i])

    t0, t1, t2 = t[i - 1 : i + 2].tolist()
    v0, v1, v2 = v[i - 1 : i + 2].tolist()
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
