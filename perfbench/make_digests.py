"""Rewrite cli_digests.json: the sha256 of every file the cli-batch catalogue writes.

A speed-up must leave these bytes alone; a correctness fix that changes
values regenerates the file and says so. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

import json
import shutil
import sys
from pathlib import Path

import workloads

WORK = ".perfbench_work/digests"


def main():
    pool = workloads.cli_pool()
    shutil.rmtree(WORK, ignore_errors=True)
    workloads.write_cli_inputs(pool, WORK)
    digests = {}
    try:
        # the catalogue lists each fit's producer before the fit
        for entry in pool:
            job = workloads.cli_job(entry, WORK)
            try:
                out = job.finish(job.run())
            except Exception as exc:  # the known failures write nothing
                print(f"{entry['id']}: raised {type(exc).__name__}", file=sys.stderr)
                continue
            for name, sha, _ in out.files:
                digests[f"{entry['id']}/{name}"] = sha
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            Path(WORK).parent.rmdir()
        except OSError:
            pass
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS}")


if __name__ == "__main__":
    main()
