"""Shared fixtures."""

from collections import Counter

import pytest

import tdacsim
from tdacsim import analysis, cli, core, ode, signed
from tdacsim.core import DigitalCode


@pytest.fixture
def per_code_calls(monkeypatch):
    """Count the per-code conversions and code constructions a test makes.

    Whole curves are built from the slot values in one array pass, so a
    curve that calls these once per code has fallen back to enumeration.
    Every module's by-name reference is wrapped, or calls through it would
    go uncounted.
    """
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    from_int = counted("from_int", DigitalCode.from_int.__func__)
    monkeypatch.setattr(DigitalCode, "from_int", classmethod(from_int))
    for name in ("convert_closed_form", "convert_quadrature"):
        original = getattr(core, name)
        wrapped = counted(name, original)
        for module in (tdacsim, core, analysis, signed, ode, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    return counts
