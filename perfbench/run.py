"""tdacsim benchmark: end-to-end metrics and output checks per workload.

Run from the repository root:

    python3 perfbench/run.py --workload code-space --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own fresh child process (worker.py) with BLAS
threads pinned to 1. Every metric is printed by name with its unit; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("code-space", "time-domain", "cli-batch")
WORK = ".perfbench_work"
CHILD_TIMEOUT_S = 170
# BLAS pools spin threads during import; one thread keeps CPU time equal to
# wall time in the child
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workload(workload, seed, seconds, trace):
    src = ROOT / "src"
    if not (src / "tdacsim" / "__init__.py").is_file():
        sys.exit(f"error: no tdacsim sources under {src}")
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    workdir = Path(WORK) / f"{workload}-{os.getpid()}"
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir.as_posix(),
    ]
    # the worker leads its own process group, so its set-up probes go with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # timeout or interrupt: stop the group, then report
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            sys.exit(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s")
        raise
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass
    lines = stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {workload} worker exited with {proc.returncode}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # on termination, stop the worker group too (see run_workload)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in chosen:
        prov, result = run_workload(w, args.seed, args.seconds, args.trace)
        results[w] = result
        print(json.dumps({"provenance": prov}))
        for name, m in result["metrics"].items():
            print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
        print(f"[{w}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")

    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
