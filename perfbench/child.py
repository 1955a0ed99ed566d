"""One run of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at NS
                               [--trace 0|1] [--setup-only]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading (ns) just before
it started this process; set-up time runs from there until ``cosetx`` and
the workload's modules are imported.  The timed interval then runs from
"imports done" to "outputs verified".  The last line of stdout is
``PERFBENCH_CHILD <json>``.  Exit code: 0 when the run finished (its
checks may still have failed), 3 on a cosetx resource cap, 1 on any other
exception, 2 when cosetx cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_PREFIX = "PERFBENCH_CHILD "


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def execute(w, seed: int, trace: bool = False) -> tuple[int, dict]:
    """Run, check and time one workload in this process: (exit code, record)."""
    from cosetx.errors import ResourceLimitError
    from tracing import Tracer

    tracer = Tracer() if trace else None
    code, cause, out = 0, None, None
    try:
        if tracer is not None:
            tracer.install()
        t0, c0 = time.perf_counter(), _cpu_s()
        try:
            out = w.run(w.params, seed)
        except ResourceLimitError as exc:
            code, cause = 3, f"resource cap (exit 3): {exc}"
        except Exception as exc:  # a crashed workload is a set of failed operations
            code, cause = 1, f"{type(exc).__name__}: {exc}"
        if cause is None:
            ops = w.check(out, w.expect)
        else:
            ops = [(f"op-{i}", False, cause) for i in range(w.n_ops(w.expect))]
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    rec = {"wall_s": wall, "cpu_s": cpu, "ops": ops, "cause": cause,
           "digest": None if cause else w.digest(out)}
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics()
        rec["attributed_s"] = sum(v["self_s"] for v in tracer.layer_totals().values())
        rec["spans"] = len(tracer.spans)
    return code, rec


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import cosetx
    import numpy
    import scipy

    return {"kernel_backend": cosetx.kernel_backend, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "openblas_threads": _openblas_threads()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    w = workloads.WORKLOADS[args.workload]
    import cosetx
    if not Path(cosetx.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cosetx imported from {cosetx.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    for mod in w.imports:
        importlib.import_module(mod)
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9

    if args.setup_only:
        code, rec = 0, {}
    else:
        code, rec = execute(w, args.seed, trace=bool(args.trace))
        rec["env"] = environment()
    rec["setup_s"] = setup_s
    print(RESULT_PREFIX + json.dumps(rec), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
