"""Benchmark worker: one fresh process that runs CLI jobs on request.

Started by ``run.py`` with the checkout root, workload, seed and run
directory.  It imports ``frametrace.cli`` from ``<root>/src``, writes the
workload's inputs (numpy only) into the run directory, and reports ready.
Then it reads one JSON request per line on stdin and answers one JSON line on
stdout:

* ``{"op": "run", "job": id, "argv": [...]}`` calls ``cli.main(argv)`` and
  answers its exit code and wall time;
* ``{"op": "trace", "on": bool}`` installs or removes the span tracer;
  spans of every traced job stay in memory;
* ``{"op": "quit", "spans": path}`` writes the spans once (if any job was
  traced), answers ``ru_maxrss`` and the environment, and exits.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def _send(proto, obj) -> None:
    proto.write(json.dumps(obj) + "\n")
    proto.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from frametrace.cli import main as cli_main

    if not os.path.abspath(sys.modules["frametrace"].__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"frametrace was not imported from {src}")
    import workloads

    workloads.write_files(workloads.build(args.workload, args.seed).files, os.getcwd())
    proto = sys.stdout
    _send(proto, {"ready": True})

    tracer, tracing = None, False
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "run":
            err = io.StringIO()
            crashed = False
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    if tracing:
                        rc = tracer.run_job(req["job"], cli_main, req["argv"])
                    else:
                        rc = cli_main(req["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    # An escaped exception is exit 1 for a real CLI; flag it.
                    rc, crashed = 1, True
                    traceback.print_exc()
            dt = perf_counter() - t0
            _send(proto, {"exit": rc, "dt": dt, "crashed": crashed, "stderr": err.getvalue()[-2000:]})
        elif req["op"] == "trace":
            if tracer is None:
                import tracer as tracer_mod

                tracer = tracer_mod.Tracer()
            if req["on"] and not tracing:
                tracer.install()
            elif tracing and not req["on"]:
                tracer.uninstall()
            tracing = bool(req["on"])
            _send(proto, {"ok": True})
        elif req["op"] == "quit":
            if tracer is not None and req.get("spans"):
                tracer.dump(req["spans"])
            usage = resource.getrusage(resource.RUSAGE_SELF)
            _send(proto, {"maxrss_kb": usage.ru_maxrss, "env": environment(args.seed)})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
