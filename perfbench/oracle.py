"""Reference values the benchmark checks the program against.

Nothing here imports tdacsim: these are independent implementations of the
same physics, used only outside the timed region.

* Leak-free conversion: composite Simpson quadrature of the drive over each
  slot (the criterion-03 oracle), summed over the set bits.
* Leaky mode: exact superposition of the response to every constant-drive
  run. Each run's integral is written with the exponent at its maximum,
  which is never positive, so the oracle stays finite over the whole
  parameter range, including where the propagator under test overflows.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# acceptance-suite tolerances
CONVERT_TOL = 1e-6  # criterion 03: |error| <= 1e-6 * v_set * tau2 / c_out
LEAKY_TOL = 1e-6  # criterion 04: |error| <= 1e-6 * v_set * tau1
FIT_TOL = 1e-4  # criterion 09: relative error of each fitted time constant
CALIBRATE_TOL = 1e-6  # criterion 10: relative error against tau2 * ln 2
LINEARITY_AT_LN2_TOL = 1e-9  # criterion 01: max |INL| and max |DNL| at ln 2


def slot_integrals(q, t_w, tau2, v_set=1.0, c_out=1.0, steps=64):
    """Simpson integral of the drive over each slot, MSB slot first, over c_out."""
    n = 2 * steps + 1
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    grid = np.arange(q)[:, None] * t_w + np.linspace(0.0, t_w, n)[None, :]
    f = v_set * np.exp(-grid / tau2)
    return (t_w / (2 * steps) / 3.0) * (f @ w) / c_out


def transfer_curve(q, t_w, tau2, v_set=1.0, c_out=1.0):
    """Output of every code 0 .. 2^q - 1 by quadrature."""
    codes = np.arange(1 << q)
    bits = (codes[:, None] >> np.arange(q - 1, -1, -1)[None, :]) & 1
    return bits @ slot_integrals(q, t_w, tau2, v_set, c_out)


def signed_transfer_curve(t_w, tau2, v_set, c_out, gain_pos, gain_neg, baseline):
    """Sign-magnitude eight-bit curve: top bit set means positive."""
    mag = transfer_curve(7, t_w, tau2, v_set, c_out)
    return np.concatenate([baseline - gain_neg * mag, baseline + gain_pos * mag])


def scale_convert(tau2, v_set=1.0, c_out=1.0):
    return v_set * tau2 / c_out


def _phi_nonpos(x):
    # (e^x - 1) / x for x <= 0, continued with 1 at x = 0
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.expm1(x[nz]) / x[nz]
    return out


def on_runs(code: str, t_w: float):
    """Drive-on intervals (a, b) of an MSB-first code string, merged."""
    runs = []
    k = 0
    q = len(code)
    while k < q:
        if code[k] == "1":
            j = k
            while j < q and code[j] == "1":
                j += 1
            runs.append((k * t_w, j * t_w))
            k = j
        else:
            k += 1
    return runs


def leaky_voltage(code: str, t_w, tau1, tau2, v_set, v0, times):
    """Exact leaky-mode output at ``times`` for an MSB-first code string."""
    t = np.asarray(times, dtype=float)
    lam = 1.0 / tau1 - 1.0 / tau2
    v = v0 * np.exp(-t / tau1)
    for a, b in on_runs(code, t_w):
        m = t > a
        if not np.any(m):
            break
        ts = t[m]
        c = np.minimum(ts, b)
        span = c - a
        # the exponent -s/tau2 - (t-s)/tau1 is linear in s; factor out its
        # maximum over [a, c] so the remaining integral is (e^x - 1)/x, x <= 0
        if lam >= 0.0:
            top = np.exp(-c / tau2 - (ts - c) / tau1)
            v[m] += v_set * top * span * _phi_nonpos(-lam * span)
        else:
            top = np.exp(-a / tau2 - (ts - a) / tau1)
            v[m] += v_set * top * span * _phi_nonpos(lam * span)
    return v


def max_overflow_exponent(code: str, t_w, tau1, tau2):
    """Largest lam * span over the drive-on runs.

    The propagator under test evaluates exp(lam * span) on every run, so a
    value above about 709.78 is where it overflows (a known defect).
    """
    lam = 1.0 / tau1 - 1.0 / tau2
    return max((lam * (b - a) for a, b in on_runs(code, t_w)), default=0.0)


def alpha_shape(v_set, tau1, t):
    return v_set * t * np.exp(-t / tau1)


def dual_shape(v_set, tau1, tau2, t):
    c = tau1 * tau2 / (tau1 - tau2)
    return v_set * c * (np.exp(-t / tau1) - np.exp(-t / tau2))


def linearity(v):
    """Endpoint-fit (max |DNL|, max |INL|, monotone) of a curve."""
    v = np.asarray(v, dtype=float)
    step = (v[-1] - v[0]) / (v.size - 1)
    d = np.diff(v)
    inl = (v - (v[0] + step * np.arange(v.size))) / step
    return float(np.max(np.abs(d / step - 1.0))), float(np.max(np.abs(inl))), bool(
        np.all(d >= 0.0)
    )
