"""cosetx benchmark: fixed verification workloads, each run in fresh processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``cosetx`` is imported from its ``src``.
With ``--trace 0`` the workload runs in one fresh child process after
another until ``--seconds`` have passed (at least once), after
``SETUP_SAMPLES`` children that only import; the end-to-end metrics are
medians over those children.  With ``--trace 1`` it runs once untraced
and once with the tracer installed, and reports the per-layer metrics and
the tracing overhead.  The metric names and units come from
``BENCHMARK.json``.

Every run checks its outputs.  A wrong answer, an exception, a resource
cap (exit 3), a timeout or a killed child (for example by the OOM killer)
is a failed operation with its cause recorded, never a crash of the
benchmark.  The human-readable lines come first; the last line of stdout
is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from child import RESULT_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# a run must end within 180 s: no repetition starts that could pass this
RUN_BUDGET_S = 150.0
# a child still running at this point of the run is killed
DEADLINE_S = 170.0


def spawn(argv: list[str], timeout: float) -> dict:
    """Run one child to completion and collect its result and peak RSS.

    Output and errors share one pipe, so the child cannot block on a full
    second pipe; the exit status and rusage come from ``wait4``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    lock, state = threading.Lock(), {"reaping": False, "timed_out": False}

    def on_timeout():
        # the pid stays ours until wait4 reaps it, so killing before then is safe
        with lock:
            if not state["reaping"]:
                state["timed_out"] = True
                proc.kill()

    timer = threading.Timer(timeout, on_timeout)
    timer.start()
    try:
        output = proc.stdout.read()
        with lock:
            state["reaping"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = None
    for line in reversed(output.splitlines()):
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
            break
    cause = None
    if result is None:
        tail = output.strip().splitlines()[-1:] or [""]
        if state["timed_out"]:
            cause = f"timed out after {timeout:.0f} s"
        elif code < 0:
            cause = f"killed by signal {-code}" + (" (likely the OOM killer)" if code == -9 else "")
        else:
            cause = f"exit {code} without a result: {tail[0][:300]}"
    return {"code": code, "result": result, "cause": cause,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "elapsed_s": time.perf_counter() - t0}


def child_argv(name: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
            "--spawned-at", str(time.monotonic_ns()), *extra]


def tally(w, child_run: dict) -> tuple[int, list]:
    """(attempted, failed operations as (name, cause)) of one workload child."""
    n = w.n_ops(w.expect)
    rec = child_run["result"]
    if rec is None or "ops" not in rec:
        return n, [("run", child_run["cause"])] * n
    return len(rec["ops"]), [(name, detail) for name, ok, detail in rec["ops"] if not ok]


def _left(start: float) -> float:
    return max(DEADLINE_S - (time.perf_counter() - start), 1.0)


def measure(w, seed: int, seconds: float) -> dict:
    """Timed runs of one workload: samples of every end-to-end metric."""
    begin = time.perf_counter()
    setups = []
    for _ in range(SETUP_SAMPLES):
        got = spawn(child_argv(w.name, seed, "--setup-only"), _left(begin))
        if got["result"] is not None:
            setups.append(got["result"]["setup_s"])
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(spawn(child_argv(w.name, seed), _left(begin)))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or (time.perf_counter() - begin) + runs[-1]["elapsed_s"] > RUN_BUDGET_S:
            break
    done = [r for r in runs if r["result"] is not None and "wall_s" in r["result"]]
    setups += [r["result"]["setup_s"] for r in done]
    return {
        "runs": runs,
        "samples": {
            "wall_s": [r["result"]["wall_s"] for r in done] or [r["elapsed_s"] for r in runs],
            "cpu_s": [r["result"]["cpu_s"] for r in done] or [r["elapsed_s"] for r in runs],
            "setup_s": setups or [r["elapsed_s"] for r in runs],
            "peak_rss_mb": [r["maxrss_mb"] for r in runs],
        },
    }


def trace(w, seed: int) -> dict:
    """One untraced and one traced run: per-layer metrics and overhead."""
    begin = time.perf_counter()
    plain = spawn(child_argv(w.name, seed), _left(begin))
    traced = spawn(child_argv(w.name, seed, "--trace", "1"), _left(begin))
    runs = [plain, traced]
    rec_p, rec_t = plain["result"] or {}, traced["result"] or {}
    layers = dict(rec_t.get("layers") or {})
    wall_t, wall_p = rec_t.get("wall_s", traced["elapsed_s"]), rec_p.get("wall_s", plain["elapsed_s"])
    layers.update({
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_p,
        "trace.overhead_s": wall_t - wall_p,
        "trace.attributed_ratio": rec_t.get("attributed_s", 0.0) / wall_t,
        "trace.spans": rec_t.get("spans", 0),
    })
    extra = []
    if rec_p.get("digest") is not None and rec_t.get("digest") is not None:
        same = rec_p["digest"] == rec_t["digest"]
        extra.append(("trace-digest", same, "" if same else "outputs differ with tracing on"))
    return {"runs": runs, "layers": layers, "extra_ops": extra}


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_workload(w, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Measure one workload; returns its result object and a full record."""
    if traced:
        got = trace(w, seed)
        wanted, values = spec["per_layer"], got["layers"]
    else:
        got = measure(w, seed, seconds)
        wanted = spec["end_to_end"]
        values = {k: statistics.median(v) for k, v in got["samples"].items()}
    attempted, failures = 0, []
    for child_run in got["runs"]:
        n, bad = tally(w, child_run)
        attempted += n
        failures += bad
    for name, ok, detail in got.get("extra_ops", []):
        attempted += 1
        if not ok:
            failures.append((name, detail))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    env = next((r["result"]["env"] for r in got["runs"]
                if r["result"] and "env" in r["result"]), None)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": traced,
              "git_commit": git_commit(), "env": env, "error_rate": len(failures) / attempted,
              "failures": failures[:50], "samples": got.get("samples"),
              "runs": [{"code": r["code"], "cause": r["cause"], "maxrss_mb": r["maxrss_mb"],
                        "elapsed_s": r["elapsed_s"]} for r in got["runs"]]}
    return {"result": result, "record": record}


def print_rows(name: str, out: dict) -> None:
    rec, res = out["record"], out["result"]
    samples = rec["samples"] or {}
    for metric, m in res["metrics"].items():
        n = len(samples.get(metric, [None]))
        print(f"{name:<11} {metric:<32} {m['value']:>14.6f} {m['unit']:<6} n={n}")
    print(f"{name:<11} {'error_rate':<32} {rec['error_rate']:>14.6f} {'ratio':<6} "
          f"({res['failed']} of {res['attempted']} operations failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cosetx" / "__init__.py").is_file():
        print(f"no cosetx sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {}
    for name in names:
        outs[name] = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), spec)
        print("record " + json.dumps(outs[name]["record"]))
        print_rows(name, outs[name])
    if len(outs) == 1:
        final = outs[names[0]]["result"]
    else:
        final = {"correct": all(o["result"]["correct"] for o in outs.values()),
                 "attempted": sum(o["result"]["attempted"] for o in outs.values()),
                 "failed": sum(o["result"]["failed"] for o in outs.values()),
                 "metrics": {f"{n}.{k}": v for n, o in outs.items()
                             for k, v in o["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
