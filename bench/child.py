"""One benchmark sample in a fresh process.

Usage: python3 bench/child.py {env|setup|solve|traced} CONFIG_JSON OUTDIR

Times ``import nlhjb`` + ``parse_config`` + ``build_problem`` (set-up), then,
for ``solve`` and ``traced``, one ``nlhjb.cli.run(cfg, OUTDIR)`` call.
``traced`` installs the tracer first.  ``env`` also reports library versions.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _env() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    mode, raw, outdir = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import nlhjb  # noqa: F401
    from nlhjb import cli
    from nlhjb.config import build_problem, parse_config
    cfg = parse_config(raw)
    build_problem(cfg)
    out: dict = {"setup_s": time.perf_counter() - t0}
    if mode == "env":
        out["env"] = _env()
    if mode in ("solve", "traced"):
        tracer = None
        if mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        c0 = _cpu_s()
        t1 = time.perf_counter()
        out["exit_code"] = cli.run(cfg, outdir)
        out["solve_s"] = time.perf_counter() - t1
        out["solve_cpu_s"] = _cpu_s() - c0
        if tracer is not None:
            out["trace"] = tracer.summary()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
