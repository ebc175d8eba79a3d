"""Spans and counters recorded from outside the program.

The tracer replaces public functions of tdacsim's modules with wrappers.
A function that another module imported by name exists there as a second
reference (``cli`` does ``from .analysis import transfer_curve``), so every
reference to the original object in every loaded tdacsim module is
replaced, or calls through it would silently bypass the wrapper.

Per-code functions (one call per code of a curve, 16k calls for q = 14) are
counted and timed into a running total but get no span. Spans are kept in
memory as flat records with a parent index; self time is computed from
them after the pass. Times are thread CPU time, like the job times.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import thread_time

# (module, attribute, metric name); each call gets a span
SPANNED = [
    ("analysis", "transfer_curve", "analysis.transfer_curve"),
    ("analysis", "linearity_report", "analysis.linearity_report"),
    ("analysis", "calibrate_pulse_width", "analysis.calibrate"),
    ("analysis", "fit_waveform", "analysis.fit"),
    ("ode", "simulate_leaky", "ode.simulate_leaky"),
    ("ode", "leaky_voltage", "ode.leaky_voltage"),
    ("ode", "simulate_leaky_numeric", "ode.simulate_leaky_numeric"),
    ("ode", "peak_of", "ode.peak_of"),
    ("signed", "signed_transfer_curve", "signed.signed_transfer_curve"),
    ("signed", "simulate_signed_leaky", "signed.simulate_signed_leaky"),
    ("cli", "main", "cli.main"),
]

# per-code functions: counted and timed, never spanned
TIMED_COUNTS = [
    ("core", "convert_closed_form", "core.convert"),
    ("core", "convert_quadrature", "core.convert"),
]

# per-code constructor: counted only
COUNTED_CLASSMETHODS = [("core", "DigitalCode", "from_int", "core.codes_built")]

_NAME, _PARENT, _T0, _T1, _HIDDEN = range(5)

# spans whose arguments or result feed a derived count
_DERIVED = {
    "analysis.transfer_curve",
    "ode.leaky_voltage",
    "ode.simulate_leaky_numeric",
    "analysis.fit",
}


class Tracer:
    """Installs wrappers, records one pass, and turns records into metrics."""

    def __init__(self, package):
        self.package = package
        self._restore = []
        # span record: [name, parent index, start, end, time of counted calls inside]
        self.spans = []
        self.stack = []
        self.calls = []  # (span index, args, kwargs, result) for derived counts
        self.counts = Counter()
        self.timed = defaultdict(float)
        self.errors = Counter()

    def reset(self):
        # the wrappers hold these containers, so clear them in place
        for box in (self.spans, self.stack, self.calls, self.counts, self.timed, self.errors):
            box.clear()

    # -- installing ---------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        mods = {name: getattr(self.package, name) for name in ("core", "ode", "analysis", "signed", "cli")}
        for mod, attr, name in SPANNED:
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self._span_wrapper(name, original))
        for mod, attr, name in TIMED_COUNTS:
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self._timed_wrapper(name, original))
        for mod, cls_name, attr, name in COUNTED_CLASSMETHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, classmethod(self._count_wrapper(name, original.__func__)))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _note_error(self, name, exc):
        # count an exception once, in the innermost wrapped layer it left
        if getattr(exc, "_perfbench_counted", False):
            return
        self.errors[name.split(".", 1)[0]] += 1
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass

    def _span_wrapper(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        keep = name in _DERIVED

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            rec[_T0] = thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[_T1] = thread_time()
                stack.pop()
                self._note_error(name, exc)
                raise
            rec[_T1] = thread_time()
            stack.pop()
            if keep:
                calls.append((index, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_wrapper(self, name, fn):
        spans, stack, counts, timed = self.spans, self.stack, self.counts, self.timed

        def wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(name, exc)
                raise
            finally:
                dt = thread_time() - t0
                timed[name] += dt
                if stack:
                    spans[stack[-1]][_HIDDEN] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(name, exc)
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metrics ------------------------------------------------------------

    def pass_metrics(self):
        """Busy seconds and counts of the recorded pass, by metric name."""
        spans = self.spans
        busy = defaultdict(float)
        n_calls = Counter()
        child = [0.0] * len(spans)
        for rec in spans:
            d = rec[_T1] - rec[_T0]
            busy[rec[_NAME]] += d
            n_calls[rec[_NAME]] += 1
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += d
        cli_self = sum(
            rec[_T1] - rec[_T0] - child[i] - rec[_HIDDEN]
            for i, rec in enumerate(spans)
            if rec[_NAME] == "cli.main"
        )
        objective_evals = sum(
            1
            for rec in spans
            if rec[_NAME] == "analysis.transfer_curve"
            and rec[_PARENT] >= 0
            and spans[rec[_PARENT]][_NAME] == "analysis.calibrate"
        )

        codes = samples = drive_spans = rk4_steps = fit_iters = fit_conv = fits = 0
        for index, args, kwargs, result in self.calls:
            name = spans[index][_NAME]
            if name == "analysis.transfer_curve":
                codes += len(result)
            elif name == "ode.leaky_voltage":
                samples += len(result)
                drive_spans += _drive_spans(args, kwargs)
            elif name == "ode.simulate_leaky_numeric":
                rk4_steps += len(result) - 1
            elif name == "analysis.fit":
                fits += 1
                fit_iters += result.iterations
                fit_conv += bool(result.converged)

        def rate(count, seconds):
            return count / seconds if seconds > 0.0 else 0.0

        out = {
            "core.convert.calls": self.counts["core.convert"],
            "core.codes_built": self.counts["core.codes_built"],
            "core.convert.self_s": self.timed["core.convert"],
            "analysis.transfer_curve.s": busy["analysis.transfer_curve"],
            "analysis.codes_per_s": rate(codes, busy["analysis.transfer_curve"]),
            "analysis.linearity_report.s": busy["analysis.linearity_report"],
            "analysis.calibrate.s": busy["analysis.calibrate"],
            "analysis.calibrate.objective_evals": objective_evals,
            "analysis.fit.s": busy["analysis.fit"],
            "analysis.fit.iterations": fit_iters,
            "analysis.fit.converged_frac": fit_conv / fits if fits else 0.0,
            "ode.simulate_leaky.s": busy["ode.simulate_leaky"],
            "ode.leaky_voltage.s": busy["ode.leaky_voltage"],
            "ode.samples_per_s": rate(samples, busy["ode.leaky_voltage"]),
            "ode.drive_spans": drive_spans,
            "ode.simulate_leaky_numeric.s": busy["ode.simulate_leaky_numeric"],
            "ode.rk4_steps": rk4_steps,
            "ode.peak_of.s": busy["ode.peak_of"],
            "ode.errors": self.errors["ode"],
            "analysis.errors": self.errors["analysis"],
            "core.errors": self.errors["core"],
            "signed.signed_transfer_curve.s": busy["signed.signed_transfer_curve"],
            "signed.simulate_signed_leaky.s": busy["signed.simulate_signed_leaky"],
            "cli.main.s": busy["cli.main"],
            "cli.self_s": cli_self,
        }
        return out


def _drive_spans(args, kwargs):
    """Constant-drive stretches the propagator walks, from the input bits.

    Equal adjacent bits merge into one stretch, slots at or past the last
    sample time are not reached, and the off tail after the last slot is
    one more stretch unless it merges with a trailing off run.
    """
    config, _leak, code, times = (list(args) + [None] * 4)[:4]
    config = kwargs.get("config", config)
    code = kwargs.get("code", code)
    times = kwargs.get("times", times)
    t_end = float(times[-1])
    if t_end <= 0.0:
        return 1
    # slot k is reached when its start k * t_w lies before the last sample
    bits = "".join(b for k, b in enumerate(str(code)) if k * config.t_w < t_end)
    n = 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    if config.q * config.t_w < t_end and bits[-1] == "1":
        n += 1
    return n
