"""Transfer-curve quality metrics, synaptic-shape fitting, and pulse-width
calibration."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import TdacConfig, _require_curve_width, _slot_weights, code_sums
from .ode import Waveform, peak_of

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section search stops once its bracket is this fraction of tau2
_CALIBRATION_REL_TOL = 1e-7
# the objective divides by 2^q - 1, which a float holds exactly up to here
_CALIBRATION_MAX_BITS = 53


class BracketingError(ValueError):
    """The search bounds do not bracket an interior minimum."""


def _config_bits(config) -> int:
    q = getattr(config, "q", None)
    if q is None:
        q = config.base.q
    return int(q)


@dataclass(frozen=True, eq=False)
class TransferCurve:
    """Output for every code 0 .. 2^q - 1, in code order: entry c is code c."""

    outputs: np.ndarray
    config: object

    def __post_init__(self):
        v = np.array(self.outputs, dtype=float)
        if v.ndim != 1:
            raise ValueError("outputs must be a 1-D array")
        if v.size != (1 << _config_bits(self.config)):
            raise ValueError("curve must cover every code of the configured width")
        v.flags.writeable = False
        object.__setattr__(self, "outputs", v)

    def __len__(self) -> int:
        return self.outputs.size


def transfer_curve(config: TdacConfig) -> TransferCurve:
    """The full leak-free transfer characteristic, built from the q slot weights."""
    _require_curve_width(config)
    outputs = code_sums(_slot_weights(config))
    return TransferCurve(outputs, config)


@dataclass(frozen=True, eq=False)
class LinearityReport:
    """Endpoint-fit DNL/INL in LSB units plus direct monotonicity."""

    lsb_step: float
    dnl: np.ndarray
    inl: np.ndarray
    monotone: bool
    max_abs_dnl: float
    max_abs_inl: float


def linearity_report(curve) -> LinearityReport:
    """Endpoint-fit linearity metrics for a transfer curve.

    The ideal step is (v_last - v_first) / (n - 1); DNL and INL are the
    per-step and per-code deviations from that line, in step units.
    Monotonicity is checked directly on the outputs (v[i+1] >= v[i]), not
    through a DNL threshold. Accepts a TransferCurve or a plain 1-D array
    of outputs, so regional curves can be analyzed too.
    """
    v = curve.outputs if isinstance(curve, TransferCurve) else np.asarray(curve, float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need at least two curve entries")
    step = (float(v[-1]) - float(v[0])) / (v.size - 1)
    if v[-1] == v[0]:
        raise ValueError("degenerate flat curve: endpoint step is zero")
    # DNL and INL are in step units: a step that underflows to zero, or is so
    # small that the curve's spread (and the running sums of its DNL) has no
    # finite value in them, cannot measure the curve
    if step == 0.0 or float(np.ptp(v)) / abs(step) > sys.float_info.max / v.size:
        raise ValueError("endpoint step too small for the spread of the curve")
    diffs = np.diff(v)
    dnl = diffs / step - 1.0
    # offsets from v[0] first: subtracting the line from v itself loses whole
    # steps to rounding when |v[0]| dwarfs the step
    inl = ((v - v[0]) - step * np.arange(v.size)) / step
    return LinearityReport(
        lsb_step=step,
        dnl=dnl,
        inl=inl,
        monotone=bool(np.all(diffs >= 0.0)),
        max_abs_dnl=float(np.max(np.abs(dnl))),
        max_abs_inl=float(np.max(np.abs(inl))),
    )


@dataclass(frozen=True)
class FitResult:
    """Outcome of a synaptic-shape least-squares fit.

    For the alpha model the two fitted time constants coincide. For the
    dual-exponential model they are canonicalized to tau1_fit >= tau2_fit
    (the shape is symmetric under swapping them).
    """

    model: str
    v_set_fit: float
    tau1_fit: float
    tau2_fit: float
    sse: float
    converged: bool
    iterations: int

    def __post_init__(self):
        # NaN passes every comparison below, so finiteness is checked first
        if not all(map(math.isfinite, (self.v_set_fit, self.tau1_fit, self.tau2_fit, self.sse))):
            raise ValueError("fitted values and sse must be finite")
        if self.tau1_fit <= 0.0 or self.tau2_fit <= 0.0:
            raise ValueError("fitted time constants must be positive")
        if self.sse < 0.0:
            raise ValueError("sse cannot be negative")


_MODEL_KINDS = {"alpha": "alpha", "dual": "dual-exponential"}


def _alpha_model(theta, t):
    a, tau1 = theta
    e = np.exp(-t / tau1)
    f = a * t * e
    jac = np.column_stack([t * e, f * t / tau1**2])
    return f, jac


def _dual_model(theta, t):
    a, tau1, tau2 = theta
    d = tau1 - tau2
    c = tau1 * tau2 / d
    e1 = np.exp(-t / tau1)
    e2 = np.exp(-t / tau2)
    base = e1 - e2
    f = a * c * base
    j_a = c * base
    j_t1 = a * (-(tau2**2) / d**2 * base + c * e1 * t / tau1**2)
    j_t2 = a * (tau1**2 / d**2 * base - c * e2 * t / tau2**2)
    return f, np.column_stack([j_a, j_t1, j_t2])


def _theta_ok(kind: str, theta) -> bool:
    if not np.all(np.isfinite(theta)):
        return False
    taus = theta[1:]
    if np.any(taus <= 0.0):
        return False
    if kind == "dual-exponential":
        # keep clear of the degenerate tau1 == tau2 ridge
        if abs(theta[1] - theta[2]) < 1e-9 * max(theta[1], theta[2]):
            return False
    return True


def _damped_least_squares(kind, model_fn, theta0, t, v, max_iterations, sse_floor):
    """Levenberg-style damped Gauss-Newton; returns (theta, sse, iters, conv, stalled)."""
    theta = np.asarray(theta0, dtype=float)
    f, jac = model_fn(theta, t)
    r = v - f
    sse = float(r @ r)
    lam = 1e-3
    iterations = 0
    consecutive_fails = 0
    converged = sse == 0.0
    for _ in range(max_iterations):
        if converged:
            break
        iterations += 1
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.clip(np.diag(jtj), 1e-300, None)
        improved = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), jtr)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            trial = theta + delta
            if not _theta_ok(kind, trial):
                lam *= 4.0
                continue
            f_t, jac_t = model_fn(trial, t)
            r_t = v - f_t
            sse_t = float(r_t @ r_t)
            if sse_t < sse:
                rel_step = float(
                    np.max(np.abs(delta) / np.maximum(np.abs(theta), 1e-300))
                )
                d_sse = sse - sse_t
                theta, f, jac, r, sse = trial, f_t, jac_t, r_t, sse_t
                lam = max(lam / 3.0, 1e-12)
                improved = True
                if rel_step < 1e-9 or d_sse < sse_floor or sse == 0.0:
                    converged = True
                break
            lam *= 4.0
        if improved:
            consecutive_fails = 0
        else:
            consecutive_fails += 1
            if consecutive_fails >= 3:
                break
    return theta, sse, iterations, converged, consecutive_fails >= 3


def _linear_amplitude(shape, v):
    denom = float(shape @ shape)
    if denom == 0.0:
        return 0.0
    return float(shape @ v) / denom


def _grid_seed_alpha(t, v, tau_center):
    best = None
    lo, hi = tau_center / 16.0, tau_center * 16.0
    for _ in range(4):
        taus = np.geomspace(lo, hi, 17)
        for tau in taus:
            shape = t * np.exp(-t / tau)
            a = _linear_amplitude(shape, v)
            r = v - a * shape
            sse = float(r @ r)
            if best is None or sse < best[0]:
                best = (sse, a, tau)
        width = (hi / lo) ** (1.0 / 8.0)
        lo, hi = best[2] / width, best[2] * width
    return np.array([best[1], best[2]])


def _grid_seed_dual(t, v, tau_center):
    best = None
    lo, hi = tau_center / 16.0, tau_center * 16.0
    for _ in range(4):
        taus = np.geomspace(lo, hi, 13)
        for i, tau1 in enumerate(taus):
            for tau2 in taus[: i + 1]:
                if abs(tau1 - tau2) < 1e-6 * tau1:
                    continue
                c = tau1 * tau2 / (tau1 - tau2)
                shape = c * (np.exp(-t / tau1) - np.exp(-t / tau2))
                a = _linear_amplitude(shape, v)
                r = v - a * shape
                sse = float(r @ r)
                if best is None or sse < best[0]:
                    best = (sse, a, tau1, tau2)
        width = (hi / lo) ** (1.0 / 6.0)
        lo = min(best[2], best[3]) / width
        hi = max(best[2], best[3]) * width
    return np.array([best[1], best[2], best[3]])


def _dual_peak_time(tau1, tau2):
    return tau1 * tau2 / (tau1 - tau2) * math.log(tau1 / tau2)


def _initial_alpha(waveform):
    t_peak, v_peak = peak_of(waveform)
    tau1 = max(t_peak, 1e-12)
    return np.array([v_peak / (tau1 * math.exp(-1.0)), tau1])


def _initial_dual(waveform):
    t = waveform.times
    v = waveform.values
    t_peak, v_peak = peak_of(waveform)
    t_peak = max(t_peak, 1e-12)

    # slow constant from the late-time log-slope of the decay
    tail = (t > 2.0 * t_peak) & (v > max(1e-3 * v_peak, 0.0))
    tau1 = None
    if int(np.count_nonzero(tail)) >= 4:
        slope = np.polyfit(t[tail], np.log(v[tail]), 1)[0]
        if slope < 0.0:
            tau1 = -1.0 / slope
    if tau1 is None or not math.isfinite(tau1):
        tau1 = 2.0 * t_peak
    tau1 = max(tau1, 1.05 * t_peak)

    # fast constant from the peak-time relation, by bisection in (0, tau1)
    lo, hi = 1e-6 * tau1, (1.0 - 1e-6) * tau1
    tau2 = None
    if _dual_peak_time(tau1, lo) < t_peak < _dual_peak_time(tau1, hi):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _dual_peak_time(tau1, mid) < t_peak:
                lo = mid
            else:
                hi = mid
        tau2 = 0.5 * (lo + hi)
    if tau2 is None:
        tau2 = tau1 / 3.0

    c = tau1 * tau2 / (tau1 - tau2)
    shape_peak = c * (math.exp(-t_peak / tau1) - math.exp(-t_peak / tau2))
    amp = v_peak / shape_peak if shape_peak > 0.0 else v_peak
    return np.array([amp, tau1, tau2])


def fit_waveform(waveform: Waveform, model: str, max_iterations: int = 200) -> FitResult:
    """Least-squares fit of a synaptic-shape model to a sampled waveform.

    ``model`` is ``"alpha"`` or ``"dual"``; the result names the second
    ``"dual-exponential"``. Damped Gauss-Newton iterations with analytic
    Jacobians do the work; if the damping stalls three times in a row, a
    zooming log-grid search over the time constants (amplitude solved
    linearly) reseeds a final polish. Non-convergence is reported through
    the result, not raised.
    """
    kind = _MODEL_KINDS.get(model)
    if kind is None:
        raise ValueError(f"unknown model {model!r}; expected alpha or dual")
    if len(waveform) < 8:
        raise ValueError("need at least 8 samples spanning the peak")
    t = waveform.times
    v = waveform.values
    v_peak = float(np.max(v))
    if v_peak <= float(np.min(v)):
        raise ValueError("degenerate input: waveform is flat")
    sse_floor = 1e-12 * v_peak**2

    if kind == "alpha":
        model_fn, theta0 = _alpha_model, _initial_alpha(waveform)
    else:
        model_fn, theta0 = _dual_model, _initial_dual(waveform)

    theta, sse, iters, converged, stalled = _damped_least_squares(
        kind, model_fn, theta0, t, v, max_iterations, sse_floor
    )
    if stalled and not converged and iters < max_iterations:
        t_peak, _ = peak_of(waveform)
        seed = (
            _grid_seed_alpha(t, v, max(t_peak, 1e-12))
            if kind == "alpha"
            else _grid_seed_dual(t, v, max(t_peak, 1e-12))
        )
        theta2, sse2, iters2, converged, _ = _damped_least_squares(
            kind, model_fn, seed, t, v, max_iterations - iters, sse_floor
        )
        iters += iters2
        if sse2 < sse:
            theta, sse = theta2, sse2

    if kind == "alpha":
        amp, tau1 = float(theta[0]), float(theta[1])
        tau2 = tau1
    else:
        amp, tau1, tau2 = (float(x) for x in theta)
        if tau2 > tau1:
            tau1, tau2 = tau2, tau1
    return FitResult(
        model=kind,
        v_set_fit=amp,
        tau1_fit=tau1,
        tau2_fit=tau2,
        sse=float(sse),
        converged=bool(converged),
        iterations=iters,
    )


def _max_abs_inl(config: TdacConfig) -> float:
    # max |INL| of the leak-free transfer curve from its q slot weights alone.
    # The curve starts at 0.0 and ends at the left fold of the weights, and
    # INL(c) = sum_k b_k (w_k / step - 2^k) is linear in the bits of c, so
    # its extremes are the sum of the positive terms and of the negative ones
    weights = _slot_weights(config)
    total = 0.0
    for w in weights:
        total += w
    n = 1 << config.q
    if total == 0.0:
        raise ValueError("degenerate flat curve: endpoint step is zero")
    if not math.isfinite(total):
        raise ValueError("slot weights overflow: v_set * tau2 / c_out is too large")
    step = total / (n - 1)
    # the same guard as linearity_report: the spread of a leak-free curve is
    # its last entry
    if step == 0.0 or total / step > sys.float_info.max / n:
        raise ValueError("endpoint step too small for the spread of the curve")
    above = below = 0.0
    for k, w in enumerate(reversed(weights)):
        d = w / step - (1 << k)
        if d > 0.0:
            above += d
        else:
            below -= d
    return max(above, below)


def calibrate_pulse_width(
    tau2: float,
    q: int,
    search_bounds: tuple[float, float],
    v_set: float = 1.0,
    c_out: float = 1.0,
) -> float:
    """Pulse width minimizing the transfer curve's max |INL|.

    Golden-section search over the bounds; the objective is V-shaped around
    its zero-INL optimum, so the search localizes tightly. Each evaluation
    takes max |INL| straight from the q slot weights in O(q), without
    building the 2^q-entry curve, so q may run up to 53 (2^q - 1 must be
    exact in a float); the ``tdac calibrate`` command stays at q <= 16,
    because it also prints the enumerated curve's max |INL|. A result
    pinned against either bound means the bounds do not bracket the
    optimum and a BracketingError is raised.
    """
    lo, hi = (float(x) for x in search_bounds)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("search bounds must be finite")
    if not (0.0 < lo < hi):
        raise ValueError("search bounds must satisfy 0 < lo < hi")
    tau2 = float(tau2)
    if not (math.isfinite(tau2) and tau2 > 0.0):
        raise ValueError(f"tau2 must be finite and positive, got {tau2!r}")
    q = operator.index(q)
    if q < 2:
        raise ValueError("calibration needs at least two bits")
    if q > _CALIBRATION_MAX_BITS:
        raise ValueError(f"calibration is limited to q <= {_CALIBRATION_MAX_BITS}")

    def objective(tw: float) -> float:
        return _max_abs_inl(TdacConfig(q=q, t_w=tw, tau2=tau2, v_set=v_set, c_out=c_out))

    tol = _CALIBRATION_REL_TOL * tau2
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    best = 0.5 * (a + b)
    if best - lo < 10.0 * tol or hi - best < 10.0 * tol:
        raise BracketingError(
            "search converged onto a bound; the bounds do not bracket "
            "an interior minimum"
        )
    return best
