"""Behavioral simulator and analysis toolkit for a time-domain DAC.

The converter turns a digital code into an output voltage by sampling one
decaying drive waveform in consecutive per-bit time slots. With a leak
resistor on the output node the same circuit produces synaptic-potential
shaped responses, which this package simulates, fits, and characterizes.
"""

from .analysis import (
    BracketingError,
    FitResult,
    LinearityReport,
    TransferCurve,
    calibrate_pulse_width,
    fit_waveform,
    linearity_report,
    transfer_curve,
)
from .core import (
    LN2,
    DigitalCode,
    TdacConfig,
    convert_closed_form,
    convert_quadrature,
)
from .ode import (
    LeakConfig,
    Waveform,
    alpha_waveform,
    default_t_end,
    dual_exp_waveform,
    leaky_voltage,
    peak_of,
    simulate_leaky,
    simulate_leaky_numeric,
)
from .signed import (
    SignedTdacConfig,
    convert_signed,
    signed_transfer_curve,
    simulate_signed_leaky,
)

__version__ = "0.1.0"

__all__ = [
    "LN2",
    "BracketingError",
    "DigitalCode",
    "FitResult",
    "LeakConfig",
    "LinearityReport",
    "SignedTdacConfig",
    "TdacConfig",
    "TransferCurve",
    "Waveform",
    "alpha_waveform",
    "calibrate_pulse_width",
    "convert_closed_form",
    "convert_quadrature",
    "convert_signed",
    "default_t_end",
    "dual_exp_waveform",
    "fit_waveform",
    "leaky_voltage",
    "linearity_report",
    "peak_of",
    "signed_transfer_curve",
    "simulate_leaky",
    "simulate_leaky_numeric",
    "simulate_signed_leaky",
    "transfer_curve",
]
