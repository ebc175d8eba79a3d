"""Digital codes, converter parameters, and the leak-free conversion law.

A time-domain DAC weights each stored bit by sampling one decaying drive
waveform in consecutive time slots, most significant bit first. Adjacent
slot weights differ by the fixed factor exp(t_w / tau2), so the transfer
characteristic is exactly binary when t_w / tau2 = ln 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# most samples (RK4 steps for the numeric engine, Simpson points for the
# quadrature) one computation may take; checked before anything is allocated
MAX_SAMPLES = 10**7


def _require_sample_budget(samples: float, request: str) -> None:
    if not samples <= MAX_SAMPLES:
        raise ValueError(f"{request} asks for more than {MAX_SAMPLES} samples")


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _positive(name: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive")
    return value


def _freeze(obj, **arrays):
    # set each array, made read-only, on the frozen dataclass obj
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(obj, name, array)
    return obj


@dataclass(frozen=True)
class DigitalCode:
    """Bit vector of length q, stored LSB first: ``bits[0]`` is B_1."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("a digital code needs at least one bit")
        object.__setattr__(self, "bits", tuple(map(bool, self.bits)))

    @classmethod
    def from_int(cls, value: int, q: int) -> "DigitalCode":
        value = operator.index(value)
        q = operator.index(q)
        if q < 1:
            raise ValueError("bit count q must be >= 1")
        if not 0 <= value < (1 << q):
            raise ValueError(f"value {value} does not fit in {q} bits")
        return cls(tuple(bool((value >> k) & 1) for k in range(q)))

    @classmethod
    def from_string(cls, text: str) -> "DigitalCode":
        """Parse an MSB-first binary string such as ``"10101010"``."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a binary code string: {text!r}")
        return cls([c == "1" for c in reversed(text)])

    @property
    def q(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in reversed(self.bits))


@dataclass(frozen=True)
class TdacConfig:
    """Static converter parameters."""

    q: int
    t_w: float
    v_set: float = 1.0
    tau2: float = 1.0
    c_out: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "q", operator.index(self.q))
        if self.q < 1:
            raise ValueError("bit count q must be >= 1")
        for name in ("t_w", "v_set", "tau2", "c_out"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        # the leaky propagator divides by tau2
        _finite("1 / tau2", 1.0 / self.tau2)


def _require_matching_width(config: TdacConfig, code: DigitalCode) -> None:
    if code.q != config.q:
        raise ValueError(
            f"code has {code.q} bits but the converter expects {config.q}"
        )


def _require_curve_width(config: TdacConfig) -> None:
    if config.q > 16:
        raise ValueError("full transfer-curve enumeration is limited to q <= 16")


def _require_finite(v: float) -> float:
    if not math.isfinite(v):
        raise ValueError("conversion output overflows a float")
    return v


def _slot_weights(config: TdacConfig) -> tuple[float, ...]:
    # weight of slot k: the integral of the drive over [k t_w, (k+1) t_w]
    # divided by c_out, scale (e_k - e_(k+1)) with e_k = exp(-k r) and
    # r = t_w / tau2, each of the q + 1 exponentials computed once. e_0 is
    # exp(0.0 * r): NaN, not 1.0, when r overflowed to inf
    r = config.t_w / config.tau2
    scale = config.v_set * config.tau2 / config.c_out
    weights = []
    e_prev = math.exp(0.0 * r)
    for k in range(1, config.q + 1):
        e_k = math.exp(-k * r)
        weights.append(scale * (e_prev - e_k))
        e_prev = e_k
    return tuple(weights)


def _set_bit_sum(slot_values: tuple[float, ...], code: DigitalCode) -> float:
    # plain left fold, MSB slot first: sum() of floats is compensated from
    # Python 3.12 on and would then differ from code_sums in the last bit
    total = 0.0
    for value, bit in zip(slot_values, reversed(code.bits)):
        if bit:
            total += value
    return total


def code_sums(slot_values) -> np.ndarray:
    """Sum of the slot values of the set bits for every code, in code order.

    ``slot_values`` run MSB slot first, so entry c is the output of code c
    when the values are slot weights. Slot j is bit 2^(q-1-j) of the code:
    one strided add into the one array of 2^q sums gives every code with
    that bit set as the code without it plus the slot value. Every entry is
    then the left fold from +0.0 over its set bits, as in the per-code
    conversion, to the last bit.
    """
    sums = np.zeros(1 << len(slot_values))
    stride = sums.size
    for value in slot_values:
        np.add(sums[::stride], value, out=sums[stride // 2::stride])
        stride //= 2
    return sums


def convert_closed_form(config: TdacConfig, code: DigitalCode) -> float:
    """Leak-free conversion via the per-slot antiderivative of the drive.

    Raises ``ValueError`` when the output is not a finite float.
    """
    _require_matching_width(config, code)
    return _require_finite(_set_bit_sum(_slot_weights(config), code))


def _slot_quadratures(config: TdacConfig, steps_per_slot: int) -> tuple[float, ...]:
    # composite Simpson with slot edges as hard breakpoints: the bit gate is
    # discontinuous there, so no panel may straddle a boundary. Row k of v is
    # slot k; each row keeps its own dot, as v @ weights would sum in BLAS order
    steps_per_slot = operator.index(steps_per_slot)
    if steps_per_slot < 16:
        raise ValueError("steps_per_slot must be >= 16")
    n_points = 2 * steps_per_slot + 1
    _require_sample_budget(config.q * n_points, "steps_per_slot")
    weights = np.ones(n_points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    # np.linspace(0.0, t_w, n_points) by linspace's own arithmetic, including
    # its branch for a step that underflows to 0 (a subnormal t_w); adding its
    # start, +0.0, would change no point
    step = config.t_w / (n_points - 1)
    points = np.arange(n_points, dtype=float)
    if step == 0.0:
        points /= n_points - 1
        points *= config.t_w
    else:
        points *= step
    points[-1] = config.t_w
    v = np.arange(config.q)[:, None] * config.t_w + points
    np.exp(np.divide(v, -config.tau2, out=v), out=v)
    v *= config.v_set
    sums = np.array(list(map(weights.dot, v)))
    sums *= step / 3.0
    return tuple(sums.tolist())


def convert_quadrature(
    config: TdacConfig, code: DigitalCode, steps_per_slot: int = 256
) -> float:
    """Numerical conversion: per-slot composite Simpson over the gated drive.

    The independent cross-check for :func:`convert_closed_form`.
    ``steps_per_slot`` counts Simpson panels per slot and must be at least
    16. Raises ``ValueError`` when the output is not a finite float.
    """
    _require_matching_width(config, code)
    integrals = _slot_quadratures(config, steps_per_slot)
    return _require_finite(_set_bit_sum(integrals, code) / config.c_out)

