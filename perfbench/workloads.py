"""The benchmark's fixed workloads: what each runs and how its output is checked.

A workload is a function of (params, seed) that calls into ``cosetx`` and
returns an output object, plus a check that turns that output into a list
of checked operations.  Each operation is ``(name, ok, detail)``; a wrong
answer is an operation with ``ok`` False, and the benchmark counts it into
``failed``.  A workload always reports the same number of operations, so a
missing link or suite row is a failed operation, not a shorter list.

``digest`` reduces an output to a string that must not change when the
tracer is installed; floats are rounded to 10 decimals so that a BLAS
summation order cannot make two correct runs disagree.

The parameters and expected values below are the benchmark.  Tests run the
same functions on smaller parameters with their own expected values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from typing import Any, Callable

import numpy as np

@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # modules imported before the timed interval starts; their import time
    # is the workload's set-up time
    imports: tuple[str, ...]
    params: dict
    expect: dict
    run: Callable[[dict, int], Any]
    check: Callable[[Any, dict], list]
    digest: Callable[[Any], str]
    # operations one run attempts; all of them fail when the run crashes
    n_ops: Callable[[dict], int]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _close(x, want, tol) -> bool:
    return x is not None and abs(x - want) <= tol


def _spectral_summary(rep) -> dict:
    return {"max_second": None if rep.max_second is None else round(rep.max_second, 10),
            "passed": rep.passed,
            "links": [(e.vertices, e.connected,
                       None if e.second is None else round(e.second, 10))
                      for e in rep.entries]}


# ---------------------------------------------------------------------------
# ko-links: KO vertex links built in the small groups, dense eigensolver


def _run_ko_links(p: dict, seed: int):
    from cosetx.spectral import ko_link_report

    return ko_link_report(p["n"], p["p"], p["s"], p["d"], threshold=p["threshold"])


def _check_ko_links(rep, e: dict) -> list:
    ops = []
    for i in range(e["links"]):
        if i >= len(rep.entries):
            ops.append((f"link-{i}", False, "missing"))
            continue
        ent = rep.entries[i]
        ok = ent.vertices == e["vertices"] and ent.connected and ent.second is not None
        ops.append((f"link-{i}", ok,
                    f"vertices={ent.vertices} connected={ent.connected} second={ent.second}"))
    ok = (len(rep.entries) == e["links"] and rep.passed
          and _close(rep.max_second, e["max_second"], 1e-9))
    ops.append(("report", ok, f"max_second={rep.max_second} passed={rep.passed} "
                              f"links={len(rep.entries)}"))
    return ops


# ---------------------------------------------------------------------------
# sl-enum: BFS closure of a whole SL group, keys and index build


def _run_sl_enum(p: dict, seed: int):
    from cosetx.groups import sl_group

    return sl_group(p["n"], p["p"], p["s"])


def _sorted_keys_digest(G) -> str:
    # keys are computed here, base q over the packed entries, so the digest
    # does not depend on the program's own key format or element order
    elems = np.asarray(G.elems, dtype=np.uint64)
    q = np.uint64(G.ring.q)
    keys = np.zeros(len(elems), dtype=np.uint64)
    for col in range(elems.shape[1] - 1, -1, -1):
        keys = keys * q + elems[:, col]
    keys.sort()
    return hashlib.sha256(keys.astype("<u8").tobytes()).hexdigest()


def _check_sl_enum(G, e: dict) -> list:
    from cosetx.groups import sl_order

    want = sl_order(e["m"], e["p"], e["s"])
    ok = G.size == want and _sorted_keys_digest(G) == e["keys_sha256"]
    return [("group", ok, f"size={G.size} want={want}")]


# ---------------------------------------------------------------------------
# ko-complex: full KO complex, every link's spectrum, gauge H^1


def _run_ko_complex(p: dict, seed: int):
    from cosetx.cohomology import h1_trivial, zmod
    from cosetx.complexes import build_ko_complex
    from cosetx.spectral import local_spectral_report

    X = build_ko_complex(p["n"], p["p"], p["s"], p["d"])
    rep = local_spectral_report(X, p["threshold"])
    h1 = h1_trivial(X, zmod(p["zmod"]))
    return {"f_vector": list(X.f_vector()), "report": rep, "h1_trivial": h1.trivial}


def _check_ko_complex(out: dict, e: dict) -> list:
    rep = out["report"]
    return [
        ("complex", out["f_vector"] == e["f_vector"], f"f_vector={out['f_vector']}"),
        ("spectral", len(rep.entries) == e["links"] and rep.passed
         and _close(rep.max_second, e["max_second"], 1e-9),
         f"links={len(rep.entries)} max_second={rep.max_second} passed={rep.passed}"),
        ("h1", out["h1_trivial"] == e["h1_trivial"], f"trivial={out['h1_trivial']}"),
    ]


def _digest_ko_complex(out: dict) -> str:
    return _sha({"f_vector": out["f_vector"], "h1": out["h1_trivial"],
                 "report": _spectral_summary(out["report"])})


# ---------------------------------------------------------------------------
# suite: the CLI self-check battery, in process


def _run_suite(p: dict, seed: int):
    from cosetx.cli import main

    argv = ["suite", "--seed", str(seed)] + (["--quick"] if p["quick"] else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "doc": json.loads(buf.getvalue()) if buf.getvalue() else None}


def _check_suite(out: dict, e: dict) -> list:
    rows = (out["doc"] or {}).get("result", {}).get("checks", [])
    ops = [(r["name"], bool(r["passed"]), json.dumps(r["detail"], sort_keys=True)[:200])
           for r in rows[:e["checks"]]]
    ops += [(f"missing-{i}", False, "check not run")
            for i in range(len(ops), e["checks"])]
    if out["exit"] != 0 or len(rows) != e["checks"]:
        # a nonzero exit with every row passing still fails one operation
        if all(ok for _, ok, _ in ops):
            ops[-1] = (ops[-1][0], False, f"exit={out['exit']} rows={len(rows)}")
    return ops


def _digest_suite(out: dict) -> str:
    return _sha({"exit": out["exit"], "result": (out["doc"] or {}).get("result")})


# ---------------------------------------------------------------------------


WORKLOADS = {w.name: w for w in [
    Workload(
        name="ko-links",
        imports=("cosetx.spectral",),
        params={"n": 3, "p": 2, "s": 3, "d": 1, "threshold": 0.999},
        expect={"links": 4, "vertices": 2560, "max_second": 0.6403882032},
        run=_run_ko_links, check=_check_ko_links,
        digest=lambda rep: _sha(_spectral_summary(rep)),
        n_ops=lambda e: e["links"] + 1,
    ),
    Workload(
        name="sl-enum",
        imports=("cosetx.groups",),
        params={"n": 1, "p": 5, "s": 3},
        expect={"m": 2, "p": 5, "s": 3,
                "keys_sha256": "d04e686bed8307500d9ea9b7b26b6d5b5861454ea31bbab7a8bb05dbe312286c"},
        run=_run_sl_enum, check=_check_sl_enum, digest=_sorted_keys_digest,
        n_ops=lambda e: 1,
    ),
    Workload(
        name="ko-complex",
        imports=("cosetx.complexes", "cosetx.spectral", "cosetx.cohomology"),
        params={"n": 2, "p": 2, "s": 2, "d": 1, "threshold": 0.999, "zmod": 2},
        expect={"f_vector": [2016, 32256, 43008], "links": 2017,
                "max_second": 0.7071067812, "h1_trivial": False},
        run=_run_ko_complex, check=_check_ko_complex, digest=_digest_ko_complex,
        n_ops=lambda e: 3,
    ),
    Workload(
        name="suite",
        imports=("cosetx.cli", "cosetx.roots", "cosetx.presentations",
                 "cosetx.complexes", "cosetx.spectral", "cosetx.cohomology"),
        params={"quick": False},
        expect={"checks": 24},
        run=_run_suite, check=_check_suite, digest=_digest_suite,
        n_ops=lambda e: e["checks"],
    ),
]}
