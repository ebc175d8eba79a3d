"""Seeded job lists for the three workloads, with their output checks.

A job is one closed-loop call into tdacsim. ``run`` is the timed part;
``finish`` and ``check`` run outside the timed region. Every job list has a
fixed composition (how many jobs of each kind and size), and the seed draws
only the parameters inside each kind, so two seeds do about the same work
and the same seed does exactly the same work.

code-space   leak-free library calls: transfer curves with linearity
             reports for q 4..14 below, at and above ln 2, signed curves,
             quadrature spot conversions and calibration for q 6..10.
             Stresses the per-code conversion loop and the 2^q enumeration
             under calibration. No ode or cli work.
time-domain  leaky-mode library calls: random short codes, long
             alternating codes (hundreds of drive spans), signed waveforms,
             alpha and dual-exponential fits and fixed-step RK4 runs.
             tau1/tau2 is log-uniform over 1e-3..1e3, the whole valid
             range, so the propagator's overflow at lam * span > ~709 fails
             some jobs and stays visible. No transfer, calibration or cli.
cli-batch    ``tdacsim.cli.main(argv)`` in-process, one argv per job: every
             figure, transfer (closed form, quadrature, signed), waveform
             (analytic, numeric), sweeps from config files, fits of CSVs
             that earlier jobs wrote, calibration and malformed inputs.
             Every run runs the whole fixed catalogue of argument vectors,
             so every file written has a committed sha256; the seed only
             orders the catalogue.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tdacsim import analysis, cli, core, ode, signed

import oracle

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Job:
    """One call into the program plus the check of its output.

    ``run`` reaches tdacsim through module attributes (``analysis.transfer_curve``)
    at call time, so the tracer's wrappers see every call.
    """

    __slots__ = ("kind", "spec", "run", "check", "finish", "note")

    def __init__(self, kind, spec, run, check, finish=None, note=""):
        self.kind = kind
        self.spec = spec  # JSON-able description; the job-list digest covers it
        self.run = run
        self.check = check
        self.finish = finish
        self.note = note  # diagnostic attached to a failure


def job_list_digest(jobs):
    text = json.dumps([[j.kind, j.spec] for j in jobs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _logu(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _finite(*xs):
    return all(bool(np.all(np.isfinite(np.asarray(x, dtype=float)))) for x in xs)


def _bits(rng, q, lo=0):
    return format(rng.randint(lo, (1 << q) - 1), f"0{q}b")


def _rel_err(a, b, scale):
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float)))) / scale


def _check_curve(v, q, t_w, tau2, v_set, c_out):
    """A leak-free transfer curve against Simpson quadrature (criterion 03)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (1 << q,):
        return WRONG, "curve length"
    if not _finite(v):
        return FAILED, "non-finite"
    ref = oracle.transfer_curve(q, t_w, tau2, v_set, c_out)
    if _rel_err(v, ref, oracle.scale_convert(tau2, v_set, c_out)) > oracle.CONVERT_TOL:
        return WRONG, "curve vs quadrature"
    return OK, ""


def _check_signed_curve(v, t_w, tau2, v_set, c_out, gain_pos, gain_neg, baseline):
    """The 256-code sign-magnitude curve against quadrature."""
    v = np.asarray(v, dtype=float)
    if v.shape != (256,):
        return WRONG, "curve length"
    if not _finite(v):
        return FAILED, "non-finite"
    ref = oracle.signed_transfer_curve(t_w, tau2, v_set, c_out, gain_pos, gain_neg, baseline)
    scale = oracle.scale_convert(tau2, v_set, c_out) * max(gain_pos, gain_neg)
    if _rel_err(v, ref, scale) > oracle.CONVERT_TOL:
        return WRONG, "signed curve vs quadrature"
    return OK, ""


# ---------------------------------------------------------------------------
# code-space


def _transfer_job(s):
    def run():
        cfg = core.TdacConfig(q=s["q"], t_w=s["t_w"], tau2=s["tau2"], v_set=s["v_set"], c_out=s["c_out"])
        curve = analysis.transfer_curve(cfg)
        return curve, analysis.linearity_report(curve)

    def check(out):
        curve, rep = out
        status = _check_curve(curve.outputs, s["q"], s["t_w"], s["tau2"], s["v_set"], s["c_out"])
        if status[0] != OK:
            return status
        if not _finite(rep.max_abs_inl, rep.max_abs_dnl):
            return FAILED, "non-finite report"
        dnl, inl, mono = oracle.linearity(curve.outputs)
        if (
            abs(rep.max_abs_dnl - dnl) > 1e-9 * max(1.0, dnl)
            or abs(rep.max_abs_inl - inl) > 1e-9 * max(1.0, inl)
            or bool(rep.monotone) != mono
        ):
            return WRONG, "linearity report"
        if s["regime"] == "at" and max(rep.max_abs_inl, rep.max_abs_dnl) > oracle.LINEARITY_AT_LN2_TOL:
            return WRONG, "linearity at ln 2"
        return OK, ""

    return Job("transfer", s, run, check)


def _signed_curve_job(s):
    def run():
        base = core.TdacConfig(q=8, t_w=s["t_w"], tau2=s["tau2"], v_set=s["v_set"], c_out=s["c_out"])
        cfg = signed.SignedTdacConfig(
            base=base, gain_pos=s["gain_pos"], gain_neg=s["gain_neg"], baseline=s["baseline"]
        )
        return signed.signed_transfer_curve(cfg)

    def check(curve):
        return _check_signed_curve(
            curve.outputs, s["t_w"], s["tau2"], s["v_set"], s["c_out"], s["gain_pos"], s["gain_neg"], s["baseline"]
        )

    return Job("signed-curve", s, run, check)


def _quadrature_job(s):
    def run():
        cfg = core.TdacConfig(q=s["q"], t_w=s["t_w"], tau2=s["tau2"], v_set=s["v_set"], c_out=s["c_out"])
        code = core.DigitalCode.from_int(s["code"], s["q"])
        return core.convert_closed_form(cfg, code), core.convert_quadrature(cfg, code, s["steps"])

    def check(out):
        closed, quad = out
        if not _finite(closed, quad):
            return FAILED, "non-finite"
        bits = np.array([int(c) for c in format(s["code"], f"0{s['q']}b")], dtype=float)
        ref = float(bits @ oracle.slot_integrals(s["q"], s["t_w"], s["tau2"], s["v_set"], s["c_out"]))
        scale = oracle.scale_convert(s["tau2"], s["v_set"], s["c_out"])
        if abs(quad - closed) > oracle.CONVERT_TOL * scale or abs(closed - ref) > oracle.CONVERT_TOL * scale:
            return WRONG, "quadrature vs closed form"
        return OK, ""

    return Job("quadrature", s, run, check)


def _calibrate_job(s):
    def run():
        return analysis.calibrate_pulse_width(
            s["tau2"], s["q"], (s["lo"], s["hi"]), v_set=s["v_set"], c_out=s["c_out"]
        )

    def check(t_w):
        if not _finite(t_w):
            return FAILED, "non-finite"
        target = s["tau2"] * oracle.LN2
        if abs(t_w - target) > oracle.CALIBRATE_TOL * target:
            return WRONG, "calibrated width"
        return OK, ""

    return Job("calibrate", s, run, check)


def _converter(rng, ratio):
    tau2 = _logu(rng, 0.1, 10.0)
    return dict(t_w=ratio * tau2, tau2=tau2, v_set=rng.uniform(0.5, 2.0), c_out=rng.uniform(0.5, 2.0))


def _ratio(rng, regime):
    if regime == "below":
        return rng.uniform(0.3, 0.65)
    if regime == "at":
        return oracle.LN2
    return rng.uniform(0.75, 1.3)


def code_space(seed, workdir):
    rng = random.Random(f"code-space:{seed}")
    jobs = []
    for q in range(4, 15):
        for regime in ("below", "at", "above"):
            jobs.append(_transfer_job(dict(q=q, regime=regime, **_converter(rng, _ratio(rng, regime)))))
    for q in range(6, 11):
        s = dict(q=q, **_converter(rng, 1.0))
        del s["t_w"]
        s.update(lo=rng.uniform(0.3, 0.5) * s["tau2"], hi=rng.uniform(1.0, 1.3) * s["tau2"])
        jobs.append(_calibrate_job(s))
    for _ in range(8):
        s = dict(**_converter(rng, rng.uniform(0.4, 1.0)))
        s.update(gain_pos=rng.uniform(0.5, 2.0), gain_neg=rng.uniform(0.5, 2.0), baseline=rng.uniform(-1.0, 1.0))
        jobs.append(_signed_curve_job(s))
    for i in range(65):
        # every (q, steps) pair once, so the cost mix is the same for every seed
        q = 4 + i % 13
        s = dict(q=q, code=rng.randint(0, (1 << q) - 1), steps=(16, 32, 64, 128, 256)[i % 5])
        s.update(_converter(rng, rng.uniform(0.3, 1.3)))
        jobs.append(_quadrature_job(s))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# time-domain


def _strata(rng, n):
    """n draws from [0, 1), one in each of n equal bins, in random order.

    Stratified draws keep the share of jobs in the propagator's overflow
    range, and so the work done, nearly the same from seed to seed.
    """
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _leak(rng, u):
    # tau1/tau2 log-uniform over the whole valid range 1e-3 .. 1e3, at quantile u
    tau2 = _logu(rng, 0.01, 100.0)
    tau1 = tau2 * 10.0 ** (6.0 * u - 3.0)
    v_set = rng.uniform(0.5, 2.0)
    v0 = 0.0 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0) * v_set * min(tau1, tau2)
    return dict(t_w=rng.uniform(0.2, 1.2) * tau2, tau1=tau1, tau2=tau2, v_set=v_set, v0=v0)


def _overflow_note(code, s):
    x = oracle.max_overflow_exponent(code, s["t_w"], s["tau1"], s["tau2"])
    return f"max lam*span {x:.4g}"


def _check_waveform(wf, code, s, v_set=None, baseline=0.0):
    t = np.asarray(wf.times, dtype=float)
    v = np.asarray(wf.values, dtype=float)
    if not _finite(t, v):
        return FAILED, "non-finite"
    v_set = s["v_set"] if v_set is None else v_set
    ref = baseline + oracle.leaky_voltage(code, s["t_w"], s["tau1"], s["tau2"], v_set, s["v0"], t)
    scale = abs(v_set) * s["tau1"] + abs(s["v0"]) + 1e-12 * abs(baseline)
    if _rel_err(v, ref, scale) > oracle.LEAKY_TOL:
        return WRONG, "waveform vs exact superposition"
    return OK, ""


def _leaky_job(kind, s):
    def run():
        cfg = core.TdacConfig(q=len(s["code"]), t_w=s["t_w"], tau2=s["tau2"], v_set=s["v_set"])
        leak = ode.LeakConfig(tau1=s["tau1"], v0=s["v0"])
        wf = ode.simulate_leaky(cfg, leak, core.DigitalCode.from_string(s["code"]))
        return wf, ode.peak_of(wf)

    def check(out):
        wf, (t_peak, v_peak) = out
        status = _check_waveform(wf, s["code"], s)
        if status[0] != OK:
            return status
        if not _finite(t_peak, v_peak):
            return FAILED, "non-finite peak"
        if v_peak < float(np.max(wf.values)) or not wf.times[0] <= t_peak <= wf.times[-1]:
            return WRONG, "peak outside the trace or below its sample maximum"
        return OK, ""

    return Job(kind, s, run, check, note=_overflow_note(s["code"], s))


def _rk4_job(s):
    def run():
        cfg = core.TdacConfig(q=len(s["code"]), t_w=s["t_w"], tau2=s["tau2"], v_set=s["v_set"])
        leak = ode.LeakConfig(tau1=s["tau1"], v0=s["v0"])
        return ode.simulate_leaky_numeric(cfg, leak, core.DigitalCode.from_string(s["code"]), s["t_end"], s["dt"])

    return Job("rk4", s, run, lambda wf: _check_waveform(wf, s["code"], s))


def _signed_leaky_job(s):
    def run():
        base = core.TdacConfig(q=8, t_w=s["t_w"], tau2=s["tau2"], v_set=s["v_set"])
        cfg = signed.SignedTdacConfig(
            base=base, gain_pos=s["gain_pos"], gain_neg=s["gain_neg"], baseline=s["baseline"]
        )
        leak = ode.LeakConfig(tau1=s["tau1"], v0=s["v0"])
        return signed.simulate_signed_leaky(cfg, leak, core.DigitalCode.from_string(s["code"]))

    def check(wf):
        positive = s["code"][0] == "1"
        gain = s["gain_pos"] if positive else s["gain_neg"]
        v_set = s["v_set"] * gain * (1.0 if positive else -1.0)
        return _check_waveform(wf, s["code"][1:], s, v_set=v_set, baseline=s["baseline"])

    return Job("signed-leaky", s, run, check, note=_overflow_note(s["code"][1:], s))


def _fit_job(s):
    t = np.linspace(0.0, 8.0 * s["tau1"], 400)
    if s["model"] == "alpha":
        v = oracle.alpha_shape(s["v_set"], s["tau1"], t)
    else:
        v = oracle.dual_shape(s["v_set"], s["tau1"], s["tau2"], t)

    def run():
        return analysis.fit_waveform(ode.Waveform(t, v), s["model"])

    def check(fit):
        if not _finite(fit.tau1_fit, fit.tau2_fit, fit.v_set_fit, fit.sse):
            return FAILED, "non-finite"
        if not fit.converged:
            return FAILED, "fit did not converge"
        tau2 = s["tau1"] if s["model"] == "alpha" else s["tau2"]
        if (
            abs(fit.tau1_fit - s["tau1"]) > oracle.FIT_TOL * s["tau1"]
            or abs(fit.tau2_fit - tau2) > oracle.FIT_TOL * tau2
        ):
            return WRONG, "fitted time constants"
        return OK, ""

    return Job("fit-" + s["model"], s, run, check)


def time_domain(seed, workdir):
    rng = random.Random(f"time-domain:{seed}")
    jobs = []
    for i, u in enumerate(_strata(rng, 120)):
        s = _leak(rng, u)
        s["code"] = _bits(rng, 4 + i % 13, lo=1)
        jobs.append(_leaky_job("leaky", s))
    for i, u in enumerate(_strata(rng, 20)):
        s = _leak(rng, u)
        s["code"] = rng.choice(("10", "01")) * ((128, 256, 512, 768, 1024)[i % 5] // 2)
        jobs.append(_leaky_job("long", s))
    for i, u in enumerate(_strata(rng, 16)):
        s = _leak(rng, u)
        # the window (4000 steps of dt) never reaches past slot 4, and those
        # slots are on: every RK4 job integrates 4000 driven steps, so the
        # RK4 work, and with it job_p90_ms, does not move with the seed
        s["code"] = "1111" + "".join(rng.choice("01") for _ in range(i % 5))
        # the criterion-04 step; the window is capped at 4000 steps
        s["dt"] = 1e-3 * min(s["tau1"], s["tau2"], s["t_w"])
        s["t_end"] = min(len(s["code"]) * s["t_w"] + 2.0 * max(s["tau1"], s["tau2"]), 4000 * s["dt"])
        jobs.append(_rk4_job(s))
    for u in _strata(rng, 24):
        s = _leak(rng, u)
        s.update(code=_bits(rng, 8), gain_pos=rng.uniform(0.5, 2.0), gain_neg=rng.uniform(0.5, 2.0))
        s["baseline"] = rng.uniform(-1.0, 1.0)
        jobs.append(_signed_leaky_job(s))
    for model in ("alpha", "dual"):
        for _ in range(20):
            tau1 = _logu(rng, 0.01, 100.0)
            s = dict(model=model, tau1=tau1, v_set=rng.uniform(0.5, 2.0))
            if model == "dual":
                s["tau2"] = tau1 * rng.uniform(0.2, 0.7)
            jobs.append(_fit_job(s))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli-batch

FIGURES = ("fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig6-shape", "fig7-shape")
DIGESTS = Path(__file__).with_name("cli_digests.json")


def _r(x):
    return repr(float(x))


def _leaky_args(s):
    return [
        "--tw", _r(s["t_w"]), "--tau2", _r(s["tau2"]), "--tau1", _r(s["tau1"]),
        "--vset", _r(s["v_set"]), "--v0", _r(s["v0"]),
    ]


def cli_pool():
    """The fixed catalogue of cli jobs.

    Each entry: id, stratum, argv with ``{out}``/``{work}``/``{id}``
    placeholders, expected exit code, input files to write before the run,
    and the parameters its check needs.
    """
    rng = random.Random("cli-pool")
    pool = []

    def add(stratum, argv, expect=0, files=None, **params):
        pool.append(
            dict(
                id=f"{stratum}-{len(pool):03d}", stratum=stratum, argv=argv,
                expect=expect, files=files or {}, params=params,
            )
        )
        return pool[-1]["id"]

    for fig in FIGURES:
        add("reproduce", ["reproduce", fig, "--out", "{out}"], figure=fig)
    for q in range(6, 13):
        for variant in range(2):
            regime = rng.choice(("below", "at", "above"))
            s = _converter(rng, _ratio(rng, regime))
            width = ["--ratio", _r(s["t_w"] / s["tau2"])] if variant == 0 else ["--tw", _r(s["t_w"])]
            argv = ["transfer", "--q", str(q), *width, "--tau2", _r(s["tau2"]),
                    "--vset", _r(s["v_set"]), "--cout", _r(s["c_out"]), "--out", "{out}"]
            add("transfer", argv, q=q, **s)
    for q in range(6, 10):
        for _ in range(2):
            s = _converter(rng, rng.uniform(0.4, 1.1))
            steps = rng.choice((16, 32, 64))
            argv = ["transfer", "--q", str(q), "--tw", _r(s["t_w"]), "--tau2", _r(s["tau2"]),
                    "--vset", _r(s["v_set"]), "--cout", _r(s["c_out"]), "--engine", "quadrature",
                    "--steps-per-slot", str(steps), "--out", "{out}"]
            add("transfer-quadrature", argv, q=q, **s)
    for _ in range(4):
        s = _converter(rng, rng.uniform(0.4, 1.0))
        g = dict(gain_pos=rng.uniform(0.5, 2.0), gain_neg=rng.uniform(0.5, 2.0), baseline=rng.uniform(-1, 1))
        argv = ["transfer", "--signed", "--tw", _r(s["t_w"]), "--tau2", _r(s["tau2"]),
                "--vset", _r(s["v_set"]), "--cout", _r(s["c_out"]),
                "--gain-pos", _r(g["gain_pos"]), "--gain-neg", _r(g["gain_neg"]),
                "--baseline", _r(g["baseline"]), "--out", "{out}"]
        add("transfer-signed", argv, **s, **g)
    for i, u in enumerate(_strata(rng, 48)):
        s = _leak(rng, u)
        code = _bits(rng, 4 + i % 13, lo=1)
        add("waveform", ["waveform", "--code", code, *_leaky_args(s), "--out", "{out}"], code=code, **s)
    for i, u in enumerate(_strata(rng, 12)):
        s = _leak(rng, u)
        code = _bits(rng, 4 + i % 5, lo=1)
        # the cli's default step, over a window capped at 2000 steps
        dt = min(s["t_w"] / 16.0, 1e-2 * min(s["tau1"], s["tau2"], s["t_w"]))
        t_end = min(10.0 * max(s["tau1"], s["tau2"]) + len(code) * s["t_w"], 2000 * dt)
        argv = ["waveform", "--code", code, *_leaky_args(s), "--engine", "numeric",
                "--t-end", _r(t_end), "--out", "{out}"]
        add("waveform-numeric", argv, code=code, **s)
    for q in (6, 7, 8):
        for _ in range(2):
            s = _converter(rng, 1.0)
            ratios = sorted(rng.uniform(0.4, 1.2) for _ in range(3))
            text = (
                f"experiment=sweep-ratio\nbase.q={q}\nbase.tau2={_r(s['tau2'])}\n"
                f"base.vset={_r(s['v_set'])}\nbase.cout={_r(s['c_out'])}\n"
                f"sweep.ratios={','.join(_r(r) for r in ratios)}\n"
            )
            add("sweep-ratio", ["--config", "{work}/in/{id}.cfg", "--out", "{out}"],
                files={"{id}.cfg": text}, q=q, ratios=ratios, **s)
    # twelve three-waveform sweeps put the 90th percentile inside a cluster
    # of like jobs rather than at the edge of a gap in the cost distribution
    for _ in range(12):
        s = _leak(rng, rng.random())
        s["tau1"] = s["tau2"] * _logu(rng, 0.1, 10.0)
        codes = [_bits(rng, 8, lo=1) for _ in range(3)]
        text = (
            f"experiment=sweep-code\nsweep.codes={','.join(codes)}\nbase.tw={_r(s['t_w'])}\n"
            f"base.tau2={_r(s['tau2'])}\nleak.tau1={_r(s['tau1'])}\nleak.v0={_r(s['v0'])}\n"
            f"base.vset={_r(s['v_set'])}\n"
        )
        add("sweep-code", ["--config", "{work}/in/{id}.cfg", "--out", "{out}"],
            files={"{id}.cfg": text}, codes=codes, **s)
    for model in ("alpha", "dual"):
        for _ in range(8):
            tau1 = _logu(rng, 0.05, 20.0)
            tau2 = tau1 if model == "alpha" else tau1 * rng.uniform(0.2, 0.7)
            q = rng.choice((48, 64, 96))
            t_end = 8.0 * tau1
            # the gate stays on over the whole window, so the trace is the
            # exact alpha or dual-exponential shape
            s = dict(t_w=t_end / q * 1.001, tau1=tau1, tau2=tau2, v_set=rng.uniform(0.5, 2.0), v0=0.0)
            producer = add("fit-source", ["waveform", "--code", "1" * q, *_leaky_args(s),
                                          "--t-end", _r(t_end), "--out", "{out}"],
                           code="1" * q, **s)
            add("fit", ["fit", "--input", "{work}/cli/" + producer + "/waveform.csv", "--model", model],
                producer=producer, tau1=tau1, tau2=tau2)
    for q in (6, 7, 8):
        for _ in range(2):
            tau2 = _logu(rng, 0.1, 10.0)
            lo, hi = rng.uniform(0.3, 0.5) * tau2, rng.uniform(1.0, 1.3) * tau2
            argv = ["calibrate", "--q", str(q), "--tau2", _r(tau2), "--lo", _r(lo), "--hi", _r(hi)]
            add("calibrate", argv, tau2=tau2)
    bad_cfg = "experiment=transfer\nbase.q=8\nbase.ratio=0.7\nbase.qq=3\n"
    malformed = [
        (["transfer", "--q", "0", "--ratio", "0.5"], 1, {}),
        (["transfer", "--q", "-3", "--ratio", "0.5"], 1, {}),
        (["transfer", "--q", "17", "--ratio", "0.7"], 1, {}),
        (["transfer", "--q", "8"], 2, {}),
        (["transfer", "--q", "8", "--ratio", "-1"], 1, {}),
        (["transfer", "--q", "8", "--ratio", "nan"], 1, {}),
        (["transfer", "--q", "8", "--ratio", "0.7", "--tau2", "0"], 1, {}),
        (["transfer", "--q", "abc"], 2, {}),
        (["transfer", "--q", "8", "--ratio", "0.7", "--engine", "spline"], 2, {}),
        (["waveform", "--code", "10201", "--ratio", "0.7"], 1, {}),
        (["waveform", "--code", "1010", "--q", "8", "--ratio", "0.7"], 1, {}),
        (["waveform", "--code", "1010"], 2, {}),
        (["waveform", "--ratio", "0.7"], 2, {}),
        (["waveform", "--code", "1010", "--ratio", "0.7", "--tau1", "-2"], 1, {}),
        (["reproduce", "fig9"], 2, {}),
        (["reproduce"], 2, {}),
        (["fit", "--input", "{work}/in/missing.csv", "--model", "alpha"], 1, {}),
        (["fit", "--input", "{work}/in/{id}.csv"], 2, {"{id}.csv": "t,v\n0,0\n1,1\n"}),
        (["fit", "--input", "{work}/in/{id}.csv", "--model", "dual"], 1, {"{id}.csv": "t,v\n0,0\n1,x\n"}),
        (["calibrate", "--q", "8", "--tau2", "1"], 2, {}),
        (["calibrate", "--q", "8", "--tau2", "1", "--lo", "0.6", "--hi", "0.65"], 1, {}),
        (["--config", "{work}/in/{id}.cfg"], 1, {"{id}.cfg": bad_cfg}),
        (["--config", "{work}/in/{id}.cfg"], 1, {"{id}.cfg": "base.q=8\n"}),
        (["frobnicate"], 2, {}),
    ]
    for argv, expect, files in malformed:
        add("malformed", argv, expect=expect, files=files)
    # the leak is 1000x faster than the drive and the code is all ones, so
    # lam * span is about 5540: the propagator overflows (ROADMAP item 3)
    s = dict(t_w=6.931471805599453, tau2=10.0, tau1=0.01, v_set=1.0, v0=0.0)
    add("item3", ["waveform", "--code", "11111111", "--tw", "6.931471805599453", "--tau2", "10",
                  "--tau1", "0.01", "--out", "{out}"], code="11111111", **s)
    return pool


def order_cli_jobs(pool, seed):
    """Every catalogue entry once, in an order drawn from the seed."""
    rng = random.Random(f"cli-batch:{seed}")
    chosen = list(pool)
    rng.shuffle(chosen)
    # a fit reads the file its producer writes, so the producer goes first
    pos = {e["id"]: i for i, e in enumerate(chosen)}
    for e in [e for e in chosen if e["stratum"] == "fit"]:
        a, b = pos[e["id"]], pos[e["params"]["producer"]]
        if b > a:
            chosen[a], chosen[b] = chosen[b], chosen[a]
            pos[chosen[a]["id"]], pos[chosen[b]["id"]] = a, b
    return chosen


def _subst(text, entry, work):
    return text.replace("{out}", f"{work}/cli/{entry['id']}").replace("{work}", work).replace("{id}", entry["id"])


class CliOut:
    """Exit code, stdout fields and the files one cli job wrote."""

    __slots__ = ("code", "stdout", "fields", "files", "paths")

    def __init__(self, code, stdout, files, paths):
        self.code = code
        self.stdout = stdout
        self.fields = dict(
            line.split("=", 1) for line in stdout.splitlines() if "=" in line
        )
        self.files = files  # [(name, sha256, size)] in the order printed
        self.paths = paths


def _finish_cli(raw):
    code, stdout = raw
    files, paths = [], []
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        if key in ("csv", "file", "manifest"):
            p = Path(value)
            data = p.read_bytes()
            files.append((p.name, hashlib.sha256(data).hexdigest(), len(data)))
            paths.append(p)
    return CliOut(code, stdout, files, paths)


def _read_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]


def _check_transfer_csv(path, q, t_w, tau2, v_set, c_out):
    codes, v = _read_csv(path)
    if not np.array_equal(codes, np.arange(1 << q)):
        return WRONG, "transfer codes"
    return _check_curve(v, q, t_w, tau2, v_set, c_out)


def _check_waveform_csv(path, code, s, v_set=None, baseline=0.0):
    t, v = _read_csv(path)
    return _check_waveform(SimpleNamespace(times=t, values=v), code, s, v_set=v_set, baseline=baseline)


def _first_bad(statuses):
    for st in statuses:
        if st[0] != OK:
            return st
    return OK, ""


def _manifest(path):
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


def _check_figure(out, fig):
    man = _manifest(out.paths[-1])
    csvs = out.paths[:-1]
    if [p.name for p in csvs] != man["files"].split(","):
        return WRONG, "manifest file list"

    def f(key):
        return float(man[key])

    if fig == "fig2":
        ratios = map(float, man["ratios"].split(","))
        return _first_bad(_check_transfer_csv(p, 8, r, 1.0, 1.0, 1.0) for p, r in zip(csvs, ratios))
    if fig == "fig6-shape":
        _, v = _read_csv(csvs[0])
        return _check_signed_curve(
            v, f("ratio") * f("tau2"), f("tau2"), f("vset"), f("cout"), f("gain_pos"), f("gain_neg"), f("baseline")
        )
    s = dict(tau1=f("tau1"), tau2=f("tau2"), v_set=f("vset"), v0=f("v0"))
    if fig in ("fig3a", "fig3c"):
        widths = zip(man["q"].split(","), man["tw"].split(","))
        return _first_bad(
            _check_waveform_csv(p, "1" * int(q), dict(s, t_w=float(tw))) for p, (q, tw) in zip(csvs, widths)
        )
    s["t_w"] = f("tw")
    codes = man["codes"].split(",")
    if fig == "fig7-shape":
        # the sign bit picks the polarity and gain; the rest is the magnitude code
        return _first_bad(
            _check_waveform_csv(
                p, code[1:], s,
                v_set=s["v_set"] * (f("gain_pos") if code[0] == "1" else -f("gain_neg")),
                baseline=f("baseline"),
            )
            for p, code in zip(csvs, codes)
        )
    return _first_bad(_check_waveform_csv(p, code, s) for p, code in zip(csvs, codes))


def _check_cli(entry, out):
    p = entry["params"]
    stratum = entry["stratum"]
    if stratum == "reproduce":
        return _check_figure(out, p["figure"])
    if stratum in ("transfer", "transfer-quadrature"):
        return _first_bad([
            _check_transfer_csv(out.paths[0], p["q"], p["t_w"], p["tau2"], p["v_set"], p["c_out"]),
            (OK, "") if _finite(float(out.fields["max_abs_inl"])) else (FAILED, "non-finite report"),
        ])
    if stratum == "transfer-signed":
        _, v = _read_csv(out.paths[0])
        return _check_signed_curve(
            v, p["t_w"], p["tau2"], p["v_set"], p["c_out"], p["gain_pos"], p["gain_neg"], p["baseline"]
        )
    if stratum in ("waveform", "waveform-numeric", "fit-source", "item3"):
        peak = (float(out.fields["peak_time"]), float(out.fields["peak_value"]))
        st = _check_waveform_csv(out.paths[0], p["code"], p)
        if st[0] == OK and not _finite(*peak):
            return FAILED, "non-finite peak"
        return st
    if stratum == "sweep-ratio":
        return _first_bad(
            _check_transfer_csv(path, p["q"], r * p["tau2"], p["tau2"], p["v_set"], p["c_out"])
            for path, r in zip(out.paths[:-1], p["ratios"])
        )
    if stratum == "sweep-code":
        return _first_bad(_check_waveform_csv(path, c, p) for path, c in zip(out.paths[:-1], p["codes"]))
    if stratum == "fit":
        t1, t2 = float(out.fields["tau1_fit"]), float(out.fields["tau2_fit"])
        if not _finite(t1, t2):
            return FAILED, "non-finite"
        if abs(t1 - p["tau1"]) > oracle.FIT_TOL * p["tau1"] or abs(t2 - p["tau2"]) > oracle.FIT_TOL * p["tau2"]:
            return WRONG, "fitted time constants"
        return OK, ""
    if stratum == "calibrate":
        t_w = float(out.fields["t_w"])
        target = p["tau2"] * oracle.LN2
        if not _finite(t_w):
            return FAILED, "non-finite"
        return (OK, "") if abs(t_w - target) <= oracle.CALIBRATE_TOL * target else (WRONG, "calibrated width")
    return OK, ""  # malformed inputs: the exit code is the whole check


def cli_job(entry, work):
    argv = [_subst(a, entry, work) for a in entry["argv"]]
    expect = entry["expect"]

    def run():
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with redirect_stdout(sink_out), redirect_stderr(sink_err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse ends usage errors this way
                code = exc.code if isinstance(exc.code, int) else 1
        return code, sink_out.getvalue()

    def check(out):
        if out.code != expect:
            if expect == 0 and out.code in (1, 2, 3):
                return FAILED, f"exit {out.code}"
            return WRONG, f"exit {out.code}, expected {expect}"
        if expect != 0:
            return (OK, "") if not out.files else (WRONG, "wrote files on error")
        return _check_cli(entry, out)

    spec = dict(id=entry["id"], argv=entry["argv"], expect=expect, files=entry["files"])
    note = ""
    if "code" in entry["params"] and entry["stratum"] != "fit":
        note = _overflow_note(entry["params"]["code"], entry["params"])
    return Job("cli:" + entry["stratum"], spec, run, check, finish=_finish_cli, note=note)


def write_cli_inputs(entries, work):
    """Write the config and CSV files the picked cli jobs read."""
    (Path(work) / "in").mkdir(parents=True, exist_ok=True)
    for e in entries:
        for name, text in e["files"].items():
            Path(work, "in", _subst(name, e, work)).write_text(_subst(text, e, work))


def cli_batch(seed, workdir):
    entries = order_cli_jobs(cli_pool(), seed)
    write_cli_inputs(entries, workdir)
    return [cli_job(e, workdir) for e in entries]


BUILDERS = {"code-space": code_space, "time-domain": time_domain, "cli-batch": cli_batch}


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
