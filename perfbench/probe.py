"""Set-up probe: a fresh interpreter imports what one workload uses, makes
one small call of each kind to warm up, and prints ``ready`` with the CPU
seconds it used since exec.

``probe.py reference`` imports numpy alone and calls nothing: the
reference set-up by which the caller scales the others (see worker.py).
Usage: ``probe.py <workload>|reference``.
"""

import sys
import time

workload = sys.argv[1]

if workload == "reference":
    import numpy  # noqa: F401
elif workload == "cli-batch":
    from tdacsim import cli

    cli.build_parser().parse_args(["transfer", "--q", "4", "--ratio", "0.7"])
    cli.linearity_report(cli.transfer_curve(cli.TdacConfig(q=4, t_w=0.7)))
elif workload == "code-space":
    from tdacsim import core, analysis, signed

    cfg = core.TdacConfig(q=4, t_w=0.7)
    analysis.linearity_report(analysis.transfer_curve(cfg))
    core.convert_quadrature(cfg, core.DigitalCode.from_int(5, 4), 16)
    signed.signed_transfer_curve(signed.SignedTdacConfig(base=core.TdacConfig(q=8, t_w=0.7)))
elif workload == "time-domain":
    import numpy as np

    from tdacsim import core, ode, analysis

    cfg = core.TdacConfig(q=4, t_w=0.7)
    leak = ode.LeakConfig(tau1=1.0)
    code = core.DigitalCode.from_string("1010")
    ode.peak_of(ode.simulate_leaky(cfg, leak, code))
    ode.simulate_leaky_numeric(cfg, leak, code, 1.0, 0.01)
    t = np.linspace(0.0, 8.0, 64)
    analysis.fit_waveform(ode.Waveform(t, ode.alpha_waveform(1.0, 1.0, t)), "alpha")
else:
    sys.exit(f"unknown workload {workload!r}")

print("ready", time.process_time(), flush=True)
