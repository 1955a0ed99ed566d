"""Run-to-run spread of the end-to-end metrics, and the baseline medians.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Runs the command in ``BENCHMARK.json`` once per seed and workload (with
``--seconds run_seconds --trace 0``), then prints for every end-to-end
metric the median, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (Q3 - Q1) / median over one run per seed, next to the metric's
bound.  A spread above a third of its bound is marked; ``setup_s`` has no
spread limit, only a bound on its median.  ``--out`` writes every value and summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        failed = 0
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            final = json.loads(lines[-1])
            record = next(json.loads(x[len("record "):]) for x in lines if x.startswith("record "))
            report.setdefault("git_commit", record["git_commit"])
            report.setdefault("env", record["env"])
            failed += final["failed"]
            for m in bounds:
                values[m].append(final["metrics"][m]["value"])
            print(f"{name} seed={seed} correct={final['correct']} "
                  + " ".join(f"{m}={v[-1]:.4f}" for m, v in values.items()), flush=True)
        report["workloads"][name] = {"failed": failed,
                                     "metrics": {m: summarize(v) for m, v in values.items()}}
        for m, s in report["workloads"][name]["metrics"].items():
            limit = bounds[m] / 3
            mark = "" if m == "setup_s" or s["spread"] <= limit else "  <-- above bound/3"
            ok = ok and (m == "setup_s" or s["spread"] <= bounds[m])
            print(f"{name:<11} {m:<12} median={s['median']:.4f} q1={s['q1']:.4f} "
                  f"q3={s['q3']:.4f} spread={s['spread']:.4f} bound={bounds[m]}{mark}",
                  flush=True)
        ok = ok and failed == 0
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
