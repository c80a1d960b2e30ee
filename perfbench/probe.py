"""Cold-start probes, each run in a fresh interpreter by ``run.py``.

    python3 perfbench/probe.py setup SPEC.json   # set-up time; peak RSS of a round
    python3 perfbench/probe.py import            # import time, modules loaded
    python3 perfbench/probe.py engine SPEC.json  # first omega_1 + KP residual

Each prints one JSON object.  The clock starts before ``shapeflow`` is
imported, so interpreter start-up is not counted but every import is.
"""

import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(spec):
    t0 = time.perf_counter()
    import numpy as np

    from shapeflow import cli, kp

    for path in spec["configs"]:
        with open(path) as fh:
            raw = json.load(fh)
        if spec["workload"] == "flow":
            cli.RunConfig.from_dict(raw)
    for c, t, N in spec["setup_rows"]:
        c = np.array([complex(*v) for v in c])
        kp.omega1_and_partials(kp.ABForm.build(c, t, N))
        kp.kp_residual(c, t, N)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "modules_loaded": len(sys.modules)}
    if spec["round"]:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            out["exit_codes"] = [cli.main(argv) for argv in spec["round"]]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _import():
    t0 = time.perf_counter()
    import shapeflow.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0, "modules_loaded": len(sys.modules)}


def _engine(spec):
    import numpy as np

    from shapeflow import kp

    (c, t, N), = spec["setup_rows"]
    c = np.array([complex(*v) for v in c])
    ab = kp.ABForm.build(c, t, N)
    t0 = time.perf_counter()
    kp.omega1_and_partials(ab)
    kp.kp_residual(c, t, N)
    return {"engine_cold_s": time.perf_counter() - t0}


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    mode = argv[0]
    spec = None
    if len(argv) > 1:
        with open(argv[1]) as fh:
            spec = json.load(fh)
    result = {"setup": _setup, "import": _import, "engine": _engine}[mode](*([spec] if spec else []))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
