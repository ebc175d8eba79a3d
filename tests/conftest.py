"""Shared fixtures."""

import math
from collections import Counter

import numpy as np
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
def exp_calls(monkeypatch):
    """Count the ``np.exp`` calls a test makes.

    The Simpson quadrature evaluates the drive of all slots in one array
    call, so a quadrature that calls ``np.exp`` once per slot has fallen
    back to a per-slot loop.
    """
    counts = Counter()
    monkeypatch.setattr(np, "exp", _counted(counts, "exp", np.exp))
    return counts


@pytest.fixture
def math_exp_calls(monkeypatch):
    """Count the ``math.exp`` calls a test makes.

    The q slot weights share their q + 1 exponentials, so slot weights that
    take 2q calls compute every interior exponential twice. The RK4 oracle
    reads ``math.exp`` when it is called and takes exponentials on driven
    steps only, so an oracle that takes about two per step has gone back to
    evaluating the drive of undriven steps.
    """
    counts = Counter()
    monkeypatch.setattr(math, "exp", _counted(counts, "exp", math.exp))
    return counts


@pytest.fixture
def expm1_sizes(monkeypatch):
    """Record the size of every ``np.expm1`` call a test makes.

    The leaky propagator's ``phi`` takes the driven stretch ends and samples
    only, so a kernel whose ``phi`` sees the undriven ones too has gone back
    to computing an increment it then multiplies by -0.0.
    """
    sizes = []
    expm1 = np.expm1

    def recorded(x, *args, **kwargs):
        sizes.append(np.size(x))
        return expm1(x, *args, **kwargs)

    monkeypatch.setattr(np, "expm1", recorded)
    return sizes


@pytest.fixture
def slot_value_calls(monkeypatch):
    """Count the slot-weight and slot-quadrature computations a test makes."""
    counts = Counter()
    for name in ("_slot_weights", "_slot_quadratures"):
        _count_calls(monkeypatch, counts, core, name)
    return counts


@pytest.fixture
def reseed_calls(monkeypatch):
    """Count the log-grid reseeds of the fits a test makes."""
    counts = Counter()
    _count_calls(monkeypatch, counts, analysis, "_grid_seed")
    return counts


@pytest.fixture
def peak_calls(monkeypatch):
    """Count the ``peak_of`` calls of the fits a test makes.

    A fit takes one refined peak for its initial guess and its reseed, so a
    fit that calls ``peak_of`` again has gone back to a peak per use.
    """
    counts = Counter()
    _count_calls(monkeypatch, counts, ode, "peak_of")
    return counts
