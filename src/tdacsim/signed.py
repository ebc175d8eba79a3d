"""Sign-magnitude eight-bit converter.

The top bit selects the output polarity and the remaining seven bits
convert as magnitude, each polarity with its own gain. Codes 0 and 128
are the dual zeros of the encoding and both land exactly on the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import TransferCurve, transfer_curve
from .core import DigitalCode, TdacConfig, _finite, _positive, _require_finite, convert_closed_form
from .ode import LeakConfig, Waveform, simulate_leaky

SIGN_BIT = 8
MAGNITUDE_BITS = 7


@dataclass(frozen=True)
class SignedTdacConfig:
    """Eight-bit sign+magnitude converter parameters.

    The gains are dimensionless multipliers standing in for the separate
    slope adjustments of the positive and negative branches; the baseline
    is a pure reporting offset.
    """

    base: TdacConfig
    gain_pos: float = 1.0
    gain_neg: float = 1.0
    baseline: float = 0.0

    def __post_init__(self):
        if self.base.q != 8:
            raise ValueError("the signed converter is eight bits wide (base.q == 8)")
        for name in ("gain_pos", "gain_neg"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        object.__setattr__(self, "baseline", _finite("baseline", self.baseline))


def _split_code(code: DigitalCode) -> tuple[bool, DigitalCode]:
    if code.q != 8:
        raise ValueError("the signed converter expects an 8-bit code")
    return code.bits[SIGN_BIT - 1], DigitalCode(code.bits[:MAGNITUDE_BITS])


def _magnitude_config(config: SignedTdacConfig, gain: float = 1.0) -> TdacConfig:
    base = config.base
    return replace(base, q=MAGNITUDE_BITS, v_set=base.v_set * gain)


def convert_signed(config: SignedTdacConfig, code: DigitalCode) -> float:
    """Sign-magnitude conversion: baseline +/- gain * magnitude voltage."""
    positive, magnitude = _split_code(code)
    v7 = convert_closed_form(_magnitude_config(config), magnitude)
    if positive:
        return _require_finite(config.baseline + config.gain_pos * v7)
    return _require_finite(config.baseline - config.gain_neg * v7)


def signed_transfer_curve(config: SignedTdacConfig) -> TransferCurve:
    """All 256 signed outputs in code order: codes below 128 are negative."""
    v7 = transfer_curve(_magnitude_config(config)).outputs
    with np.errstate(over="raise"):
        outputs = np.concatenate(
            [config.baseline - config.gain_neg * v7, config.baseline + config.gain_pos * v7]
        )
    return TransferCurve._own(outputs)


def simulate_signed_leaky(
    config: SignedTdacConfig,
    leak: LeakConfig,
    code: DigitalCode,
    t_end: float | None = None,
    dt_out: float | None = None,
) -> Waveform:
    """Leaky-mode response of the signed converter.

    Only the seven magnitude bits gate drive slots; the sign bit flips
    the polarity of the drive (and of the initial condition), so equal-gain
    waveforms of opposite sign are exact mirror images about the baseline.
    The magnitude runs through ``simulate_leaky``, whose checks and errors
    come first; a baseline add past the float range then raises
    ``FloatingPointError``. The returned waveform keeps the engine's times.
    """
    positive, magnitude = _split_code(code)
    gain = config.gain_pos if positive else config.gain_neg
    sign = 1.0 if positive else -1.0
    wf = simulate_leaky(_magnitude_config(config, gain), replace(leak, v0=sign * leak.v0),
                        magnitude, t_end, dt_out)
    with np.errstate(over="raise"):
        values = config.baseline + sign * wf.values
    return Waveform._own(wf.times, values)
