"""Shared fixtures."""

from collections import Counter

import pytest

import tdacsim
from tdacsim import analysis, cli, core, ode, signed
from tdacsim.core import DigitalCode


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, counts, module, name):
    # every module's by-name reference is wrapped, or calls through it would
    # go uncounted
    original = getattr(module, name)
    wrapped = _counted(counts, name, original)
    for holder in (tdacsim, core, analysis, signed, ode, cli):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, wrapped)


@pytest.fixture
def per_code_calls(monkeypatch):
    """Count the per-code conversions and code constructions a test makes.

    Whole curves are built from the slot values in one array pass, so a
    curve that calls these once per code has fallen back to enumeration.
    """
    counts = Counter()
    from_int = _counted(counts, "from_int", DigitalCode.from_int.__func__)
    monkeypatch.setattr(DigitalCode, "from_int", classmethod(from_int))
    for name in ("convert_closed_form", "convert_quadrature"):
        _count_calls(monkeypatch, counts, core, name)
    return counts


@pytest.fixture
def propagator_calls(monkeypatch):
    """Count the per-span work of the leaky propagator.

    All samples are evaluated in one array expression, so a call that runs
    ``ode._phi`` once per driven span has fallen back to per-span numpy.
    """
    counts = Counter()
    _count_calls(monkeypatch, counts, ode, "_phi")
    return counts


@pytest.fixture
def calibration_calls(monkeypatch):
    """Count the curve work and the objective evaluations of a calibration.

    The objective takes max |INL| from the slot weights, so a calibration
    that builds a transfer curve or a linearity report has fallen back to
    enumerating all 2^q codes.
    """
    counts = Counter()
    for name in ("transfer_curve", "linearity_report", "_max_abs_inl"):
        _count_calls(monkeypatch, counts, analysis, name)
    _count_calls(monkeypatch, counts, core, "code_sums")
    return counts
