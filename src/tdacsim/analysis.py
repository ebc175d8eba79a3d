"""Transfer-curve quality metrics, synaptic-shape fitting, and pulse-width
calibration."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import LN2, TdacConfig, _freeze, _require_curve_width, _slot_weights, code_sums
from .ode import TAU_DEGENERACY_BAND, Waveform, _alpha_model, _dual_model, peak_of

# the calibrated width must lie this fraction of tau2 inside the search bounds
_CALIBRATION_MARGIN = 1e-6


class BracketingError(ValueError):
    """The search bounds do not hold the minimal-|INL| width ln 2 * tau2
    clear of both ends."""


@dataclass(frozen=True, eq=False)
class TransferCurve:
    """Output for every code 0 .. 2^q - 1, in code order: entry c is code c."""

    outputs: np.ndarray

    def __post_init__(self):
        v = np.array(self.outputs, dtype=float)
        if v.ndim != 1:
            raise ValueError("outputs must be a 1-D array")
        # 2^q entries with q >= 1: a power of two and at least 2
        if v.size < 2 or v.size & (v.size - 1):
            raise ValueError("curve must cover every code of a width q >= 1")
        if not np.isfinite(v).all():
            raise ValueError("transfer curve outputs must be finite")
        _freeze(self, outputs=v)

    @classmethod
    def _own(cls, outputs: np.ndarray) -> TransferCurve:
        # a curve that keeps an engine's fresh float array of 2^q outputs
        # without a copy, so only its values are checked
        if not np.isfinite(outputs).all():
            raise ValueError("transfer curve outputs must be finite")
        return _freeze(object.__new__(cls), outputs=outputs)

    def __len__(self) -> int:
        return self.outputs.size


def transfer_curve(config: TdacConfig) -> TransferCurve:
    """The full leak-free transfer characteristic, built from the q slot weights."""
    _require_curve_width(config)
    return TransferCurve._own(code_sums(_slot_weights(config)))


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
    plain = not isinstance(curve, TransferCurve)
    v = np.asarray(curve, float) if plain else curve.outputs
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need at least two curve entries")
    # a TransferCurve checked its outputs when it was built
    if plain and not np.isfinite(v).all():
        raise ValueError("curve entries must be finite")
    step = (float(v[-1]) - float(v[0])) / (v.size - 1)
    if v[-1] == v[0]:
        raise ValueError("degenerate flat curve: endpoint step is zero")
    # DNL and INL are in step units: a step that underflows to zero, or is so
    # small that the curve's spread (and the running sums of its DNL) has no
    # finite value in them, cannot measure the curve
    with np.errstate(over="raise"):
        spread = float(np.ptp(v))
    if step == 0.0 or spread / abs(step) > sys.float_info.max / v.size:
        raise ValueError("endpoint step too small for the spread of the curve")
    diffs = v[1:] - v[:-1]
    dnl = diffs / step
    dnl -= 1.0
    # offsets from v[0] first: subtracting the line from v itself loses whole
    # steps to rounding when |v[0]| dwarfs the step
    inl = v - v[0]
    inl -= step * np.arange(v.size)
    inl /= step
    # abs before max: an exactly linear falling curve has INL entries of
    # -0.0, and its max |INL| is +0.0
    return LinearityReport(
        lsb_step=step,
        dnl=dnl,
        inl=inl,
        monotone=bool((diffs >= 0.0).all()),
        max_abs_dnl=float(np.abs(dnl).max()),
        max_abs_inl=float(np.abs(inl).max()),
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


def _theta_ok(theta) -> bool:
    values = theta.tolist()
    taus = values[1:]
    if not all(map(math.isfinite, values)) or min(taus) <= 0.0:
        return False
    # a two-constant model keeps clear of the degenerate tau1 == tau2 ridge
    return len(taus) == 1 or abs(taus[0] - taus[1]) >= TAU_DEGENERACY_BAND * max(taus)


def _damped_least_squares(model_fn, theta0, t, v, max_iterations, sse_floor):
    """Levenberg-style damped Gauss-Newton; returns (theta, sse, iters, conv, stalled)."""
    theta = np.asarray(theta0, dtype=float)
    f, jac = model_fn(theta, t)
    r = v - f
    sse = float(r @ r)
    lam = 1e-3
    iterations = 0
    consecutive_fails = 0
    converged = sse == 0.0
    while not converged and iterations < max_iterations and consecutive_fails < 3:
        iterations += 1
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.maximum(jtj.diagonal(), 1e-300)
        consecutive_fails += 1
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), jtr)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            trial = theta + delta
            if not _theta_ok(trial):
                lam *= 4.0
                continue
            f_t, jac_t = model_fn(trial, t)
            r_t = v - f_t
            sse_t = float(r_t @ r_t)
            if sse_t < sse:
                rel_step = float((np.abs(delta) / np.maximum(np.abs(theta), 1e-300)).max())
                d_sse = sse - sse_t
                theta, f, jac, r, sse = trial, f_t, jac_t, r_t, sse_t
                lam = max(lam / 3.0, 1e-12)
                consecutive_fails = 0
                converged = rel_step < 1e-9 or d_sse < sse_floor or sse == 0.0
                break
            lam *= 4.0
    return theta, sse, iterations, converged, consecutive_fails >= 3


def _grid_seed(model_fn, n_taus, points, t, v, tau_center):
    # two constants try the pairs tau1 >= tau2 off the diagonal; each pass
    # narrows the grid to two of its steps either side of the best so far
    best = None
    lo, hi = tau_center / 16.0, tau_center * 16.0
    for _ in range(4):
        taus = np.geomspace(lo, hi, points)
        if n_taus == 1:
            candidates = [(tau,) for tau in taus]
        else:
            candidates = [
                (tau1, tau2)
                for i, tau1 in enumerate(taus)
                for tau2 in taus[: i + 1]
                if not abs(tau1 - tau2) < 1e-6 * tau1
            ]
        for cand in candidates:
            shape = model_fn(np.array([1.0, *cand]), t, jac=False)
            denom = float(shape @ shape)
            a = float(shape @ v) / denom if denom != 0.0 else 0.0
            r = v - a * shape
            sse = float(r @ r)
            if best is None or sse < best[0]:
                best = (sse, a, cand)
        width = (hi / lo) ** (2.0 / (points - 1))
        lo, hi = min(best[2]) / width, max(best[2]) * width
    return np.array([best[1], *best[2]])


def _dual_peak_time(tau1, tau2):
    return tau1 * tau2 / (tau1 - tau2) * math.log(tau1 / tau2)


def _initial_alpha(t, v, t_peak, v_peak):
    return np.array([v_peak / (t_peak * math.exp(-1.0)), t_peak])


def _initial_dual(t, v, t_peak, v_peak):
    # slow constant from the late-time log-slope of the decay
    tail = (t > 2.0 * t_peak) & (v > max(1e-3 * v_peak, 0.0))
    tau1 = 2.0 * t_peak
    if np.count_nonzero(tail) >= 4:
        slope = np.polyfit(t[tail], np.log(v[tail]), 1)[0]
        if slope < 0.0 and math.isfinite(-1.0 / slope):
            tau1 = -1.0 / slope
    tau1 = max(tau1, 1.05 * t_peak)

    # fast constant from the peak-time relation, by bisection in (0, tau1)
    # until a midpoint equals an end, which leaves the bracket fixed
    lo, hi = 1e-6 * tau1, (1.0 - 1e-6) * tau1
    tau2 = tau1 / 3.0
    if _dual_peak_time(tau1, lo) < t_peak < _dual_peak_time(tau1, hi):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _dual_peak_time(tau1, mid) < t_peak:
                lo = mid
            else:
                hi = mid
        tau2 = 0.5 * (lo + hi)

    c = tau1 * tau2 / (tau1 - tau2)
    shape_peak = c * (math.exp(-t_peak / tau1) - math.exp(-t_peak / tau2))
    amp = v_peak / shape_peak if shape_peak > 0.0 else v_peak
    return np.array([amp, tau1, tau2])


# model name -> (reported name, model function, initial guess, reseed grid points)
_MODELS = {
    "alpha": ("alpha", _alpha_model, _initial_alpha, 17),
    "dual": ("dual-exponential", _dual_model, _initial_dual, 13),
}


def fit_waveform(waveform: Waveform, model: str, max_iterations: int = 200) -> FitResult:
    """Least-squares fit of a synaptic-shape model to a sampled waveform.

    ``model`` is ``"alpha"`` or ``"dual"``; the result names the second
    ``"dual-exponential"``. Damped Gauss-Newton iterations with analytic
    Jacobians, at most ``max_iterations`` (an int >= 0) in all, start from
    one refined peak; if the damping stalls three times in a row, a zooming
    log-grid search over the time constants around the same peak time
    (amplitude solved linearly) reseeds a final polish. A waveform whose
    minimum is further from 0 than its maximum is fitted as its mirror
    image, with v_set_fit negated. Non-convergence is reported through the
    result, not raised.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected alpha or dual")
    name, model_fn, initial, points = _MODELS[model]
    max_iterations = operator.index(max_iterations)
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    if len(waveform) < 8:
        raise ValueError("need at least 8 samples spanning the peak")
    t = waveform.times
    v = waveform.values
    v_max = float(np.max(v))
    v_min = float(np.min(v))
    if v_max <= v_min:
        raise ValueError("degenerate input: waveform is flat")
    if -v_min > v_max:
        # a negative waveform (a signed converter's negative code) is fitted as
        # its mirror image
        mirror = fit_waveform(Waveform(t, -v), model, max_iterations)
        return replace(mirror, v_set_fit=-mirror.v_set_fit)
    try:
        sse_floor = 1e-12 * v_max**2
    except OverflowError:
        raise ValueError("waveform peak squared overflows a float (|v| above about 1e154)") from None

    t_peak, v_peak = peak_of(waveform)
    t_peak = max(t_peak, 1e-12)
    theta0 = initial(t, v, t_peak, v_peak)
    theta, sse, iters, converged, stalled = _damped_least_squares(
        model_fn, theta0, t, v, max_iterations, sse_floor
    )
    if stalled and iters < max_iterations:
        seed = _grid_seed(model_fn, theta0.size - 1, points, t, v, t_peak)
        theta2, sse2, iters2, converged2, _ = _damped_least_squares(
            model_fn, seed, t, v, max_iterations - iters, sse_floor
        )
        iters += iters2
        # the polish is kept, with its convergence flag, only if it is better
        if sse2 < sse:
            theta, sse, converged = theta2, sse2, converged2

    taus = [float(x) for x in theta[1:]]
    return FitResult(
        model=name,
        v_set_fit=float(theta[0]),
        tau1_fit=max(taus),
        tau2_fit=min(taus),
        sse=float(sse),
        converged=bool(converged),
        iterations=iters,
    )


def calibrate_pulse_width(
    tau2: float,
    q: int,
    search_bounds: tuple[float, float],
    v_set: float = 1.0,
    c_out: float = 1.0,
) -> float:
    """Pulse width minimizing the transfer curve's max |INL|: ln 2 * tau2.

    Adjacent slot weights differ by the factor exp(t_w / tau2), so the
    weights are exactly binary, and max |INL| is 0, at t_w = ln 2 * tau2
    and at no other width, for every q >= 2, ``v_set`` and ``c_out``; the
    result is that float, exactly. ``search_bounds`` must hold it at least
    1e-6 * tau2 inside both ends, or a BracketingError is raised.
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
    t_w = LN2 * tau2
    # refuses a bad v_set or c_out with the TdacConfig message
    TdacConfig(q=q, t_w=t_w, tau2=tau2, v_set=v_set, c_out=c_out)
    margin = _CALIBRATION_MARGIN * tau2
    if not (t_w - lo >= margin and hi - t_w >= margin):
        raise BracketingError("the bounds do not bracket the minimum at ln 2 * tau2")
    return t_w
