"""Tests of the benchmark itself, on small instances of its workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the same workload code on parameters small enough for a unit test
SMALL = {
    "ko-links": ({"n": 2, "p": 2, "s": 2, "d": 1, "threshold": 0.999},
                 {"links": 3, "vertices": 32, "max_second": 0.7071067812}),
    "sl-enum": ({"n": 1, "p": 3, "s": 2},
                {"m": 2, "p": 3, "s": 2, "keys_sha256": "affcb7841c67fb85a1bd6ddba6a7f9ae95121d3a7c7b334c0e8fb14d6ed4a7a9"}),
    "ko-complex": ({"n": 1, "p": 3, "s": 2, "d": 1, "threshold": 0.999, "zmod": 2},
                   {"f_vector": [144, 648], "links": 1, "max_second": 0.5773502692,
                    "h1_trivial": False}),
    "suite": ({"quick": True}, {"checks": 18}),
}


def small(name: str) -> workloads.Workload:
    params, expect = SMALL[name]
    return dataclasses.replace(workloads.WORKLOADS[name], params=params, expect=expect)


def _bindings_now():
    return {(id(owner), attr): getattr(owner, attr)
            for mod, path, _, _ in tracing.TARGETS
            if (original := tracing._resolve(mod, path)) is not None
            for owner, attr in tracing._bindings(original)}


def test_wrappers_restore_originals():
    import cosetx.groups
    import cosetx.spectral  # noqa: F401  (load every layer before installing)

    before = _bindings_now()
    original = cosetx.groups.closure_bfs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cosetx.groups.closure_bfs is not original
        assert cosetx._kernels.pure.closure_bfs is cosetx.groups.closure_bfs
    finally:
        tracer.restore()
    assert cosetx.groups.closure_bfs is original
    after = _bindings_now()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outputs_identical_with_tracing_on_and_off(name):
    w = small(name)
    code_off, off = child.execute(w, seed=3, trace=False)
    code_on, on = child.execute(w, seed=3, trace=True)
    assert code_off == code_on == 0
    assert off["digest"] == on["digest"]
    assert [tuple(op) for op in off["ops"]] == [tuple(op) for op in on["ops"]]
    assert all(ok for _, ok, _ in off["ops"]), off["ops"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_per_layer_metric_is_emitted(name, monkeypatch):
    w = small(name)

    def fake_spawn(argv, timeout):
        code, rec = child.execute(w, seed=1, trace="--trace" in argv)
        return {"code": code, "result": rec, "cause": None, "maxrss_mb": 1.0, "elapsed_s": 1.0}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    out = run.run_workload(w, 1, 1.0, True, SPEC)
    assert set(out["result"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert out["result"]["failed"] == 0
    # the digest comparison of the traced and untraced run is one more operation
    assert out["result"]["attempted"] == 2 * w.n_ops(w.expect) + 1


def test_wrong_expected_value_is_a_failed_operation():
    w = small("ko-links")
    w = dataclasses.replace(w, expect=dict(w.expect, max_second=0.5))
    code, rec = child.execute(w, seed=1)
    assert code == 0
    run_ = {"code": 0, "result": rec, "cause": None}
    attempted, failed = run.tally(w, run_)
    assert attempted == w.n_ops(w.expect)
    assert [name for name, _ in failed] == ["report"]


def test_exception_is_a_failed_operation_per_op():
    from cosetx.errors import ResourceLimitError

    def capped(params, seed):
        raise ResourceLimitError("closure exceeded cap 10")

    w = dataclasses.replace(small("ko-complex"), run=capped)
    code, rec = child.execute(w, seed=1)
    assert code == 3
    attempted, failed = run.tally(w, {"code": code, "result": rec, "cause": None})
    assert attempted == len(failed) == 3
    assert "exit 3" in failed[0][1]


@pytest.mark.parametrize("body, cause", [
    ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", f"signal {int(signal.SIGKILL)}"),
    ("import sys; sys.exit(3)", "exit 3"),
    ("raise MemoryError", "exit 1"),
])
def test_dead_child_is_a_failed_operation_with_its_cause(body, cause):
    got = run.spawn([sys.executable, "-c", body], timeout=60)
    assert got["result"] is None and cause in got["cause"]
    w = small("suite")
    attempted, failed = run.tally(w, got)
    assert attempted == len(failed) == 18


def test_layer_map_names_existing_metrics_and_workloads():
    layers = json.loads((BENCH / "layers.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(layers["workloads"])
    for entry in layers["layer_map"]:
        assert set(entry["layer_metrics"]) <= per_layer
        for pair in entry["moves"] + entry.get("unchanged", []):
            assert pair["workload"] in names and pair["metric"] in end_to_end


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    all_names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(name.match(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert unit.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sl-enum",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
