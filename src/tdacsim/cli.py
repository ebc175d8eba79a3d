"""Command-line front end emitting deterministic CSV data files.

Examples:
    tdac transfer --q 8 --ratio 0.6931471805599453 --out runs
    tdac waveform --code 11111111 --tau1 1 --tau2 0.5 --tw 0.005
    tdac reproduce fig2 --out figs
    tdac fit --input waveform.csv --model dual
    tdac calibrate --tau2 1 --q 8 --lo 0.3 --hi 1.2
    tdac --config experiment.cfg

Exit codes: 0 success, 1 input or data error, 2 usage error,
3 fit did not converge.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvtext import _NUMBER, csv_text
from .analysis import (
    TransferCurve,
    calibrate_pulse_width,
    fit_waveform,
    linearity_report,
    transfer_curve,
)
from .core import LN2, DigitalCode, TdacConfig, _require_curve_width, _slot_quadratures, code_sums
from .ode import (
    LeakConfig,
    Waveform,
    _default_dt_out,
    default_t_end,
    peak_of,
    simulate_leaky,
    simulate_leaky_numeric,
)
from .signed import SignedTdacConfig, signed_transfer_curve, simulate_signed_leaky


class UsageError(Exception):
    """Bad or missing command-line/config input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # a bad flag ends like every other usage error: one line, exit 2
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# text: one rule for every value written; 17 significant digits round-trip a float

def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(_text, value))
    return _NUMBER % value


def _key_values(pairs) -> str:
    return "".join(f"{key}={_text(value)}\n" for key, value in pairs)


def _curve_csv(curve: TransferCurve) -> str:
    return csv_text("code,v_out", np.arange(curve.outputs.size), curve.outputs)


def _waveform_csv(wf: Waveform) -> str:
    return csv_text("t,v", wf.times, wf.values)


def _write_text_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# runners

def _resolve_tw(params, what: str) -> float:
    if params.get("tw") is not None:
        return float(params["tw"])
    if params.get("ratio") is not None:
        return float(params["ratio"]) * float(params["tau2"])
    raise UsageError(f"{what} needs --tw or --ratio")


# the fields of a linearity report and of a fit that tdac prints, in order
_REPORT_FIELDS = ("lsb_step", "max_abs_inl", "max_abs_dnl", "monotone")
_FIT_FIELDS = ("model", "v_set_fit", "tau1_fit", "tau2_fit", "sse", "converged", "iterations")


def _converter(params, q: int, tw: float):
    # the only mapping from parameters to a converter; a signed run wraps it.
    # The leaky commands have no cout, since no leaky engine reads c_out
    config = TdacConfig(q=q, t_w=tw, tau2=params["tau2"], v_set=params["vset"],
                        c_out=params.get("cout", TdacConfig.c_out))
    if not params.get("signed"):
        return config
    return SignedTdacConfig(
        base=config, gain_pos=params["gain_pos"],
        gain_neg=params["gain_neg"], baseline=params["baseline"],
    )


def _leak(params) -> LeakConfig:
    return LeakConfig(tau1=params["tau1"], v0=params["v0"])


def _run_transfer(params):
    config = _converter(params, params["q"], _resolve_tw(params, "transfer"))
    if params["signed"]:
        curve = signed_transfer_curve(config)
    elif params["engine"] == "quadrature":
        _require_curve_width(config)
        # an output past the float range ends the run as an arithmetic error
        with np.errstate(over="raise"):
            sums = code_sums(_slot_quadratures(config, params["steps_per_slot"]))
            curve = TransferCurve._own(sums / config.c_out)
    else:
        curve = transfer_curve(config)
    report = linearity_report(curve)
    pairs = [(name, getattr(report, name)) for name in _REPORT_FIELDS]
    return [("csv", "transfer.csv", _curve_csv(curve))], pairs, 0


def _run_waveform(params):
    code = DigitalCode.from_string(params["code"])
    if params["q"] is not None and params["q"] != code.q:
        raise ValueError(f"code has {code.q} bits but --q {params['q']} was given")
    config = _converter(params, code.q, _resolve_tw(params, "waveform"))
    if params["engine"] == "numeric":
        simulate, step = simulate_leaky_numeric, params["dt"]
    else:
        simulate, step = simulate_leaky, params["dt_out"]
    wf = simulate(config, _leak(params), code, params["t_end"], step)
    t_peak, v_peak = peak_of(wf)
    pairs = [("peak_time", t_peak), ("peak_value", v_peak)]
    return [("csv", "waveform.csv", _waveform_csv(wf))], pairs, 0


def _read_waveform_csv(path) -> Waveform:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise ValueError("line 1: empty input file")
    if lines[0].strip() != "t,v":
        raise ValueError("line 1: expected header 't,v'")
    # a body numpy's C reader refuses or warns about (no data rows) goes to the line
    # walk, which names the line; its float() also reads what numpy refuses, such as 1_0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == 2:
            return Waveform(rows[:, 0], rows[:, 1])
    except (ValueError, Warning):
        pass
    return _walk_waveform_rows(lines)


def _walk_waveform_rows(lines) -> Waveform:
    # the rows after the header, line by line: the first bad line is named
    times: list[float] = []
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two comma-separated fields")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric row {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValueError(f"line {lineno}: non-finite value")
        if times and t <= times[-1]:
            raise ValueError(f"line {lineno}: time values must be strictly increasing")
        times.append(t)
        values.append(v)
    if not times:
        raise ValueError("line 2: no data rows")
    return Waveform(times, values)


def _run_fit(params):
    wf = _read_waveform_csv(params["input"])
    result = fit_waveform(wf, params["model"], params["max_iterations"])
    pairs = [(name, getattr(result, name)) for name in _FIT_FIELDS]
    return [], pairs, 0 if result.converged else 3


def _run_calibrate(params):
    tw = calibrate_pulse_width(params["tau2"], params["q"], (params["lo"], params["hi"]))
    achieved = linearity_report(
        transfer_curve(TdacConfig(q=params["q"], t_w=tw, tau2=params["tau2"]))
    ).max_abs_inl
    return [], [("t_w", tw), ("max_abs_inl", achieved)], 0


def _members(files, head, params, keys, manifest_name: str):
    # the members, then the manifest that lists them, so it is written last;
    # every listed value is read from the parameters that made the members
    manifest = [head, *((key, params[key]) for key in keys),
                ("files", [name for name, _ in files])]
    return [("file", name, text) for name, text in files] + [
        ("manifest", manifest_name, _key_values(manifest))
    ]


_RATIO_KEYS = ("q", "tau2", "vset", "cout", "ratios")
_SAMPLING_KEYS = ("t_end", "dt_out", "engine")


def _ratio_sweep(params, prefix: str, labels):
    # member i is the transfer curve at params["ratios"][i], named prefix + labels[i]
    files = []
    for label, r in zip(labels, params["ratios"]):
        curve = transfer_curve(_converter(params, params["q"], r * params["tau2"]))
        files.append((f"{prefix}{label}.csv", _curve_csv(curve)))
    return files


def _code_sweep(params, prefix: str):
    # one leaky waveform per code, named prefix + code; returns the files and
    # the parameters with the t_end and dt_out that were used. The default
    # t_end covers every code, so no member depends on the order of the codes
    leak = _leak(params)
    simulate = simulate_signed_leaky if params.get("signed") else simulate_leaky
    codes = [DigitalCode.from_string(text) for text in params["codes"]]
    configs = [_converter(params, code.q, params["tw"]) for code in codes]
    t_end, dt_out = params["t_end"], params["dt_out"]
    if t_end is None:
        t_end = max(default_t_end(config, leak) for config in configs)
    dt_out = _default_dt_out(t_end) if dt_out is None else dt_out
    files = [(f"{prefix}{text}.csv", _waveform_csv(simulate(config, leak, code, t_end, dt_out)))
             for text, code, config in zip(params["codes"], codes, configs)]
    return files, dict(params, t_end=t_end, dt_out=dt_out, engine="analytic")


def _run_sweep_ratio(params):
    files = _ratio_sweep(params, "sweep_ratio_", [_text(r) for r in params["ratios"]])
    head = ("experiment", "sweep-ratio")
    return _members(files, head, params, _RATIO_KEYS, "sweep_ratio_manifest.txt"), [], 0


def _run_sweep_code(params):
    params = dict(params, tw=_resolve_tw(params, "sweep-code"))
    files, params = _code_sweep(params, "sweep_code_")
    keys = ("codes", "tw", "tau1", "tau2", "vset", "v0", *_SAMPLING_KEYS)
    head = ("experiment", "sweep-code")
    return _members(files, head, params, keys, "sweep_code_manifest.txt"), [], 0


# ---------------------------------------------------------------------------
# figure reproduction: each figure returns its files, the parameters that
# made them and the keys of those parameters that its manifest lists

_FIGURE = dict(q=8, tau2=1.0, vset=1.0, cout=1.0, v0=0.0, gain_pos=1.0, gain_neg=1.0,
               baseline=0.0)


def _fig2():
    params = dict(_FIGURE, ratios=[0.5, LN2, 0.9])
    return _ratio_sweep(params, "fig2_ratio_", ["0.5", "ln2", "0.9"]), params, _RATIO_KEYS


def _fig3_tw_sweep(figure: str, tau1: float, tau2: float):
    # all bits set; q is chosen so the gate stays up well past the peak,
    # which is what makes the peak independent of the pulse width
    factors = [0.01, 0.02, 0.05]
    t_end = 6.0 * max(tau1, tau2)
    params = dict(_FIGURE, code="all-ones", tau1=tau1, tau2=tau2, tw=[f * tau2 for f in factors],
                  t_end=t_end, dt_out=t_end / 600.0, engine="analytic")
    params["q"] = [round(12.0 * max(tau1, tau2) / tw) for tw in params["tw"]]
    leak = _leak(params)
    files = []
    for f, q, tw in zip(factors, params["q"], params["tw"]):
        ones = DigitalCode.from_int((1 << q) - 1, q)
        wf = simulate_leaky(_converter(params, q, tw), leak, ones, t_end, params["dt_out"])
        files.append((f"{figure}_tw_{f}.csv", _waveform_csv(wf)))
    keys = ("code", "q", "tw", "tau1", "tau2", "vset", "v0", *_SAMPLING_KEYS)
    return files, params, keys


def _fig3_code_sweep(figure: str, tau1: float, tau2: float):
    params = dict(_FIGURE, codes=["11111111", "10101010", "01010101"], tw=LN2 * tau2,
                  tau1=tau1, tau2=tau2, t_end=None, dt_out=0.02 * max(tau1, tau2))
    files, params = _code_sweep(params, f"{figure}_code_")
    keys = ("codes", "q", "tw", "tau1", "tau2", "vset", "v0", *_SAMPLING_KEYS)
    return files, params, keys


def _fig6_shape():
    params = dict(_FIGURE, ratio=LN2, signed=True)
    config = _converter(params, params["q"], params["ratio"] * params["tau2"])
    files = [("fig6_signed_transfer.csv", _curve_csv(signed_transfer_curve(config)))]
    keys = ("q", "ratio", "tau2", "vset", "cout", "gain_pos", "gain_neg", "baseline")
    return files, params, keys


def _fig7_shape():
    params = dict(_FIGURE, codes=["11111111", "10101010", "01111111", "01010101"],
                  tau1=1.0, tau2=0.5, t_end=12.0, dt_out=0.02, signed=True)
    params["tw"] = LN2 * params["tau2"]
    files, params = _code_sweep(params, "fig7_code_")
    keys = ("codes", "q", "tw", "tau1", "tau2", "vset", "v0", "gain_pos", "gain_neg",
            "baseline", *_SAMPLING_KEYS)
    return files, params, keys


_FIGURES = {
    "fig2": _fig2,
    "fig3a": lambda: _fig3_tw_sweep("fig3a", 1.0, 1.0),
    "fig3b": lambda: _fig3_code_sweep("fig3b", 1.0, 1.0),
    "fig3c": lambda: _fig3_tw_sweep("fig3c", 1.0, 0.5),
    "fig3d": lambda: _fig3_code_sweep("fig3d", 1.0, 0.5),
    "fig6-shape": _fig6_shape,
    "fig7-shape": _fig7_shape,
}


def _run_reproduce(params):
    figure = params["figure"]
    files, fig_params, keys = _FIGURES[figure]()
    return _members(files, ("figure", figure), fig_params, keys, f"{figure}_manifest.txt"), [], 0


# command -> (runner, help); the sweeps have no flags and run from config files only.
# A runner computes every output from its parameters and returns its files as
# (label, name, text), its stdout as (key, value) pairs and its exit status. It writes
# nothing; it formats its files' text (CSV, manifests), and _emit formats the stdout pairs.
_COMMANDS = {
    "transfer": (_run_transfer, "full transfer curve plus linearity summary"),
    "waveform": (_run_waveform, "leaky-mode output waveform for one code"),
    "reproduce": (_run_reproduce, "emit the data files behind one figure"),
    "fit": (_run_fit, "fit a synaptic-shape model to a t,v CSV"),
    "calibrate": (_run_calibrate, "the pulse width with minimal |INL|: ln 2 * tau2"),
    "sweep-ratio": (_run_sweep_ratio, None),
    "sweep-code": (_run_sweep_code, None),
}


# ---------------------------------------------------------------------------
# the parameter table: the only description of each parameter

def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in {"true", "1", "yes", "on"}:
        return True
    if low in {"false", "0", "no", "off"}:
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _list_of(conv):
    return lambda value: [conv(x.strip()) for x in value.split(",") if x.strip()]


@dataclass(frozen=True)
class Param:
    """A parameter of some commands: flag ``--name`` (dashes for underscores)
    unless positional, config-file key ``key``; ``conv`` and ``choices`` apply
    to flag and file values alike. A ``required`` parameter has no default:
    a run without a value for it, or with an empty list, is a usage error.
    A parameter that ``needs`` a (name, value) pair is read only when the
    parameter so named has that value: a flag or file value other than the
    default is a usage error otherwise."""

    name: str
    conv: Callable[[str], object]
    default: object
    key: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None
    help: str | None = None
    positional: bool = False
    required: bool = False
    needs: tuple[str, object] | None = None

    def read(self, value: str, where: str) -> object:
        try:
            parsed = self.conv(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if self.choices is not None and parsed not in self.choices:
            allowed = ", ".join(self.choices)
            raise ValueError(f"{where}: invalid choice {value!r} (choose from {allowed})")
        return parsed

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.positional:
            parser.add_argument(self.name, nargs="?", choices=self.choices, help=self.help)
            return
        if self.conv is _parse_bool:
            kind = dict(action="store_true")
        else:
            kind = dict(type=self.conv, choices=self.choices)
        # the default None lets an absent flag leave a file value in place
        parser.add_argument("--" + self.name.replace("_", "-"), dest=self.name,
                            default=None, help=self.help, **kind)


_CONVERTER = ("transfer", "waveform", "sweep-ratio", "sweep-code")
_WIDTH = ("transfer", "waveform", "sweep-code")
_LEAK = ("waveform", "sweep-code")

# q and engine have one row per group of commands that share their default and choices
_PARAMS = (
    Param("code", str, None, "code", ("waveform",), help="MSB-first binary string, e.g. 10101010",
          required=True),
    Param("q", int, 8, "base.q", ("transfer", "sweep-ratio", "calibrate")),
    Param("q", int, None, "base.q", ("waveform",),
          help="expected code width (checked against --code)"),
    Param("ratio", float, None, "base.ratio", _WIDTH, help="t_w / tau2; --tw wins when both are given"),
    Param("tw", float, None, "base.tw", _WIDTH),
    Param("tau2", float, 1.0, "base.tau2", _CONVERTER + ("calibrate",)),
    Param("vset", float, 1.0, "base.vset", _CONVERTER),
    Param("cout", float, 1.0, "base.cout", ("transfer", "sweep-ratio")),
    Param("tau1", float, 1.0, "leak.tau1", _LEAK),
    Param("v0", float, 0.0, "leak.v0", _LEAK),
    Param("t_end", float, None, "sampling.t_end", _LEAK),
    Param("dt_out", float, None, "sampling.dt_out", _LEAK),
    Param("dt", float, None, "sampling.dt", ("waveform",),
          help="integration step for --engine numeric", needs=("engine", "numeric")),
    Param("engine", str, "analytic", "engine", ("waveform",), ("analytic", "numeric")),
    Param("engine", str, "closed-form", "engine", ("transfer",), ("closed-form", "quadrature")),
    Param("steps_per_slot", int, 256, "sampling.steps_per_slot", ("transfer",),
          needs=("engine", "quadrature")),
    Param("signed", _parse_bool, False, "signed.enabled", ("transfer",),
          help="use the eight-bit sign+magnitude model", needs=("engine", "closed-form")),
    Param("gain_pos", float, 1.0, "signed.gain_pos", ("transfer",), needs=("signed", True)),
    Param("gain_neg", float, 1.0, "signed.gain_neg", ("transfer",), needs=("signed", True)),
    Param("baseline", float, 0.0, "signed.baseline", ("transfer",), needs=("signed", True)),
    Param("ratios", _list_of(float), None, "sweep.ratios", ("sweep-ratio",), required=True),
    Param("codes", _list_of(str), None, "sweep.codes", ("sweep-code",), required=True),
    Param("input", str, None, "input", ("fit",), help="CSV file with header t,v", required=True),
    Param("model", str, None, "model", ("fit",), ("alpha", "dual"), required=True),
    Param("max_iterations", int, 200, "fit.max_iterations", ("fit",)),
    Param("lo", float, None, "lo", ("calibrate",), required=True),
    Param("hi", float, None, "hi", ("calibrate",), required=True),
    Param("figure", str, None, "figure", ("reproduce",), tuple(sorted(_FIGURES)),
          positional=True, required=True),
)


def _params_of(command: str) -> list[Param]:
    return [p for p in _PARAMS if command in p.commands]


def _read_experiment(path) -> tuple[str, str | None, dict]:
    """An experiment file's kind, output directory and parameter block."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    kind = raw.pop("experiment", None)
    if kind is None:
        raise ValueError(f"{path}: missing experiment= line")
    if kind not in _COMMANDS:
        raise ValueError(f"{path}: unknown experiment kind {kind!r}")
    out = raw.pop("out", None)
    allowed = {param.key: param for param in _params_of(kind)}
    params = {}
    for key, value in raw.items():
        if key not in allowed:
            # unknown keys are hard errors so typos cannot silently vanish
            raise ValueError(f"{path}: unknown key {key!r} for experiment {kind!r}")
        params[allowed[key].name] = allowed[key].read(value, f"{path}: key {key!r}")
    return kind, out, params


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdac",
        description="Behavioral time-domain DAC simulator and analysis tool.",
    )
    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    for target, default in ((parser, None), (common, argparse.SUPPRESS)):
        target.add_argument("--config", metavar="PATH", default=default,
                            help="experiment file (key=value lines); flags override it")
        target.add_argument("--out", metavar="DIR", default=default,
                            help="output directory for data files (default: .)")
    sub = parser.add_subparsers(dest="command")
    for command, (_, text) in _COMMANDS.items():
        if text is not None:
            p = sub.add_parser(command, parents=[common], help=text)
            for param in _params_of(command):
                param.add_to(p)
    return parser


# argparse reads "-1e-05" and "-inf" as options (its negative-number pattern
# has no exponent and no inf or nan), so a flag followed by a negative number,
# as float() reads one, becomes --flag=value
_NEGATIVE_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)", re.IGNORECASE)


# a parser depends on no job data, and argparse keeps no state between
# parse_args calls, so every main() in a process shares the one built here
_PARSER = build_parser()


def _join_negative_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.fullmatch(arg):
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def _emit(out_dir: Path, files, pairs) -> None:
    # runs once every output exists, so a failed run leaves no file behind
    if files:
        out_dir.mkdir(parents=True, exist_ok=True)
    for _, name, text in files:
        _write_text_atomic(out_dir / name, text)
    written = [(label, str(out_dir / name)) for label, name, _ in files]
    sys.stdout.write(_key_values(written + pairs))


def _dispatch(args: argparse.Namespace) -> int:
    kind, file_out, file_params = (
        _read_experiment(args.config) if args.config else (None, None, {})
    )
    command = args.command or kind
    if command is None:
        raise UsageError("give a subcommand or a --config file with an experiment= line")
    if kind is not None and args.command is not None and kind != args.command:
        raise ValueError(
            f"config file declares experiment={kind!r} "
            f"but the {args.command!r} command was given"
        )
    rows = _params_of(command)
    params = {param.name: param.default for param in rows}
    params.update(file_params)
    # with no subcommand args has no per-command attribute, so a file run keeps its values
    for param in rows:
        value = getattr(args, param.name, None)
        if value is not None:
            params[param.name] = value
    for param in rows:
        if param.required and params[param.name] in (None, []):
            raise UsageError(f"{command} needs {param.key}")
        # only a flag or a file line sets a value other than the default
        if param.needs is not None and params[param.name] != param.default:
            name, value = param.needs
            if params[name] != value:
                key = next(row.key for row in rows if row.name == name)
                raise UsageError(f"{param.key} needs {key}={_text(value)}")
    files, pairs, status = _COMMANDS[command][0](params)
    _emit(Path(args.out or file_out or "."), files, pairs)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return _dispatch(_PARSER.parse_args(_join_negative_values(argv)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, FloatingPointError, OSError) as exc:
        # arithmetic and file-system errors end like bad input: one line, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
