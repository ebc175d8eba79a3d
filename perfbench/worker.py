"""Runs one workload in a fresh process and prints its result.

Started by run.py, one process per workload, with BLAS threads pinned to 1
and tdacsim's ``src`` on PYTHONPATH. The run is:

1. build the seeded job list and print its sha256 and length;
2. pass 0: run every job once as warm-up and check each output against its
   oracle, outside any timing;
3. timed passes over the same list until ``--seconds`` have gone by. Each
   job is timed alone, right after a run of the reference loop, and its
   time is scaled by the machine speed the loop saw around it (see
   reference.py). Its output must be identical to the pass-0 output, which
   carries the pass-0 verdict over. Fresh-interpreter set-up probes are
   spread between the passes, each between two reference probes;
4. with ``--trace 1``, passes alternate between untraced and traced, and
   the per-layer metrics come from the traced ones.

The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import tdacsim
from tdacsim import analysis, cli, core, ode, signed

import reference
import tracing
import workloads
from workloads import FAILED, OK, WRONG

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
MIN_PASSES = 3
# a job's speed factor is taken from the reference runs of the jobs within
# this many places of it in the pass: the machine's speed moves over tenths
# of a second, one reference run alone is noisy
SPEED_WINDOW = 4

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


def _clear_caches():
    # every job starts with tdacsim's memo caches (slot weights, slot
    # quadratures) cold, as a fresh TdacConfig would in a new process
    for mod in (core, ode, analysis, signed, cli):
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _execute(job):
    """Time one job; return (CPU seconds, output or the exception it raised).

    Jobs are single-threaded and never wait, so on an unshared machine their
    thread CPU time is their wall time. On a shared virtual machine wall time
    also counts the time the host gives the virtual CPU to other guests
    (steal), which comes and goes at random; CPU time does not.
    """
    _clear_caches()
    t0 = thread_time()
    try:
        raw = job.run()
    except Exception as exc:  # a failed job is recorded, not fatal
        return thread_time() - t0, exc
    dt = thread_time() - t0
    if job.finish is None:
        return dt, raw
    try:
        return dt, job.finish(raw)
    except Exception as exc:
        return dt, exc


def _judge(job, out):
    if isinstance(out, Exception):
        return FAILED, f"raised {type(out).__name__}: {out}"
    try:
        return job.check(out)
    except Exception as exc:  # malformed output, e.g. a missing stdout field
        return WRONG, f"check raised {type(exc).__name__}: {exc}"


def _feed(h, obj):
    if isinstance(obj, Exception):
        h.update(f"raised {type(obj).__name__}: {obj}".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            _feed(h, x)
            h.update(b"|")
    elif isinstance(obj, workloads.CliOut):
        _feed(h, (obj.code, obj.stdout, obj.files))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
            h.update(b"|")
    else:
        h.update(repr(obj).encode())


def _fingerprint(out):
    h = hashlib.sha256()
    _feed(h, out)
    return h.digest()


def _probe(workload):
    """Set-up of a fresh interpreter: (CPU seconds, wall seconds) to ready.

    The CPU time is the probe's own, from exec to ``ready``.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline().split()
        wall = perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if len(line) != 2 or line[0] != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return float(line[1]), wall


def _setup_sample(workload):
    """(set-up CPU s, reference set-up CPU s, set-up wall s).

    Imports slow less than the reference loop in a slow phase of the
    machine, so set-up is scaled by a like kind of work instead: a fresh
    interpreter importing numpy alone, run right before and right after the
    set-up probe. Over 40 such triples the scaled set-up time spread half
    as much as the raw one (CV 7.5% against 16%).
    """
    before, _ = _probe("reference")
    cpu, wall = _probe(workload)
    after, _ = _probe("reference")
    return cpu, (before + after) / 2, wall


def _speed_factors(ref_times):
    """Per job: REFERENCE_S over the median reference time around it."""
    n = len(ref_times)
    return [
        reference.REFERENCE_S / statistics.median(ref_times[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        for i in range(n)
    ]


CLI_COUNTS = ("cli.files_written", "cli.bytes_written", "cli.exit_unexpected", "cli.digest_mismatch")


def _cli_counts(jobs, outputs, committed):
    """Per-pass counts taken from the cli jobs' outputs."""
    c = dict.fromkeys(CLI_COUNTS, 0)
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception) or out.code != job.spec["expect"]:
            c["cli.exit_unexpected"] += 1
        if isinstance(out, Exception):
            continue
        for name, sha, size in out.files:
            c["cli.files_written"] += 1
            c["cli.bytes_written"] += size
            c["cli.digest_mismatch"] += committed.get(f"{job.spec['id']}/{name}") != sha
    return c


def _src_lines():
    src = Path(tdacsim.__file__).resolve().parent
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    jobs = workloads.BUILDERS[args.workload](args.seed, args.workdir)
    digest = workloads.job_list_digest(jobs)
    committed = workloads.load_digests() if args.workload == "cli-batch" and args.trace else None

    # pass 0: warm-up and the output checks
    verdicts, prints = [], []
    for job in jobs:
        _, out = _execute(job)
        status = _judge(job, out)
        verdicts.append(status)
        prints.append(_fingerprint(out))
        if status[0] != OK:
            note = f" [{job.note}]" if job.note else ""
            print(f"pass 0: {job.kind} {status[0]}: {status[1]}{note}", file=sys.stderr)
    wrong = any(v[0] == WRONG for v in verdicts)

    tracer = tracing.Tracer(tdacsim) if args.trace else None
    latencies = [[] for _ in jobs]  # per job, scaled, over untraced timed passes
    rates, raw_rates, ref_medians, probes = [], [], [], []
    busy_by_mode = {False: [], True: []}
    layer_passes, count_passes = [], []
    start = perf_counter()
    n_pass = 0
    while True:
        traced = bool(tracer) and n_pass % 2 == 1
        due = len(probes) * args.seconds / SETUP_PROBES
        if not args.trace and len(probes) < SETUP_PROBES and perf_counter() - start >= due:
            probes.append(_setup_sample(args.workload))
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        raw, refs = [], []
        cli_outputs = []
        for i, job in enumerate(jobs):
            refs.append(reference.timed())
            dt, out = _execute(job)
            raw.append(dt)
            if _fingerprint(out) != prints[i]:
                print(f"pass {n_pass + 1}: {job.kind}: output differs from pass 0", file=sys.stderr)
                wrong = True
            if committed is not None and traced:
                cli_outputs.append(out)
        scaled = [dt * f for dt, f in zip(raw, _speed_factors(refs))]
        busy = sum(scaled)
        if not traced:
            for i, dt in enumerate(scaled):
                latencies[i].append(dt)
        if traced:
            tracer.uninstall()
            layer_passes.append(tracer.pass_metrics())
            if committed is not None:
                count_passes.append(_cli_counts(jobs, cli_outputs, committed))
        busy_by_mode[traced].append(busy)
        if not traced:
            rates.append(len(jobs) / busy)
            raw_rates.append(len(jobs) / sum(raw))
            ref_medians.append(statistics.median(refs))
        n_pass += 1
        if perf_counter() - start >= args.seconds and n_pass >= (2 * MIN_PASSES if tracer else MIN_PASSES):
            break
    while not args.trace and len(probes) < SETUP_PROBES:
        probes.append(_setup_sample(args.workload))

    # every timed pass reproduces pass 0 byte for byte (else ``correct`` is
    # false), so each job of the list is attempted once, with its pass-0 verdict
    attempted = len(jobs)
    failed = sum(v[0] != OK for v in verdicts)
    if args.trace:
        metrics = _layer_metrics(layer_passes, count_passes, busy_by_mode)
    else:
        # a job's latency is its median over the passes; the percentiles are
        # taken over the jobs of the list
        job_ms = [statistics.median(x) * 1e3 for x in latencies]
        values = {
            "jobs_per_s": statistics.median(rates),
            "job_p50_ms": statistics.median(job_ms),
            "job_p90_ms": statistics.quantiles(job_ms, n=10)[8],
            "setup_s": statistics.median(cpu * reference.REFERENCE_IMPORT_S / ref for cpu, ref, _ in probes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "job_count": len(jobs),
        "job_list_sha256": digest,
        "passes": n_pass,
        "latency_samples": sum(len(x) for x in latencies),
        "unscaled_jobs_per_s": statistics.median(raw_rates) if raw_rates else None,
        "reference_loop_ms": statistics.median(ref_medians) * 1e3 if ref_medians else None,
        "setup_probes_cpu_s": [round(cpu, 4) for cpu, _, _ in probes],
        "setup_reference_cpu_s": [round(ref, 4) for _, ref, _ in probes],
        "setup_probes_wall_s": [round(wall, 4) for _, _, wall in probes],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
    }
    print(json.dumps({"provenance": provenance}))
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _layer_metrics(layer_passes, count_passes, busy_by_mode):
    no_cli = dict.fromkeys(CLI_COUNTS, 0)
    merged = [dict(a, **b) for a, b in zip(layer_passes, count_passes or [no_cli] * len(layer_passes))]
    out = {}
    for name in merged[0]:
        series = [m[name] for m in merged]
        if name.endswith(".s") or name.endswith("_s"):
            unit = "1/s" if name.endswith("per_s") else "s"
            out[name] = {"value": statistics.median(series), "unit": unit}
        elif name.endswith("_frac"):
            out[name] = {"value": series[0], "unit": "ratio"}
        else:
            if len(set(series)) != 1:
                print(f"count {name} differs between traced passes: {series}", file=sys.stderr)
            out[name] = {"value": series[0], "unit": "count"}
    untraced, traced = statistics.median(busy_by_mode[False]), statistics.median(busy_by_mode[True])
    out["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return out


if __name__ == "__main__":
    sys.exit(main())
