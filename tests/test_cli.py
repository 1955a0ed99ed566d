"""Command-line interface smoke tests.

Most cases drive cli.main() in-process and parse the JSON envelope;
a few go through a real subprocess to pin down exit codes and the
byte-level determinism of the output.
"""

import contextlib
import hashlib
import importlib.metadata
import io
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cosetx
import oracles
from cosetx import cli
from cosetx.complexes import loads_complex, save_complex
from cosetx import fixtures as fx

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ENVELOPE_KEYS = {"tool", "version", "command", "params", "caps", "seed",
                 "result"}


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def torus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cplx") / "torus.jsonl"
    save_complex(fx.torus_7(), path)
    return str(path)


@pytest.fixture(scope="module")
def triangle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cplx") / "tri.jsonl"
    save_complex(fx.single_triangle(), path)
    return str(path)


# ---------------------------------------------------------------------------
# envelopes and formats


def test_ring_parse_envelope(capsys):
    code, env = run_json(capsys, ["ring", "parse", "1+t", "--p", "3",
                                  "--s", "2"])
    assert code == 0
    assert ENVELOPE_KEYS <= set(env)
    assert env["tool"] == "cosetx" and env["command"] == "ring parse"
    assert env["result"]["coeffs"] == [1, 1]
    assert env["result"]["compact"] == "[1,1]@3,2"
    assert "timings" not in env


def test_ring_parse_text_format(capsys):
    code = cli.main(["ring", "parse", "1+t", "--p", "3", "--s", "2",
                     "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and "[1,1]@3,2" in out


def test_ring_op(capsys):
    code, env = run_json(capsys, ["ring", "op", "--op", "mul",
                                  "[1,1]@3,2", "[1,2]@3,2"])
    assert code == 0
    # (1+t)(1+2t) = 1 + 3t + ... = 1 mod (3, t^2)
    assert env["result"]["compact"] == "[1,0]@3,2"


def test_timings_are_opt_in(capsys):
    _, env = run_json(capsys, ["propagate", "--n", "3", "--timings"])
    assert "timings" in env and env["timings"]["wall_s"] >= 0
    _, env = run_json(capsys, ["propagate", "--n", "3"])
    assert "timings" not in env


def test_out_file_writes_only_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code = cli.main(["ring", "parse", "t", "--p", "2", "--s", "2",
                     "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["result"]["coeffs"] == [0, 1]


# ---------------------------------------------------------------------------
# group enumeration


def test_group_enum_dump(capsys):
    code = cli.main(["group", "enum", "--n", "1", "--p", "2", "--s", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "1 2 1 6"              # SL_2(F_2)
    assert len(out) == 7
    assert len(set(out[1:])) == 6           # distinct packed elements


def test_group_enum_json(capsys):
    code, env = run_json(capsys, ["group", "enum", "--n", "1", "--p", "3",
                                  "--s", "2", "--format", "json"])
    assert code == 0
    assert env["result"]["order"] == 648
    assert len(env["result"]["elements"]) == 648
    assert env["result"]["d"] == 1          # defaulted to s - 1


def decode_dump(lines, q, mm):
    """Element rows of a dump body: base q, entry 0 least significant."""
    rows = []
    for line in lines:
        key = int(line, 16)
        digits = []
        for _ in range(mm):
            key, digit = divmod(key, q)
            digits.append(digit)
        assert key == 0
        rows.append(digits)
    return np.array(rows, dtype=np.uint32)


def test_group_enum_dump_decodes_to_elements(capsys):
    from cosetx.groups import sl_group

    code = cli.main(["group", "enum", "--n", "1", "--p", "3", "--s", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "1 3 2 648"
    assert np.array_equal(decode_dump(out[1:], 9, 4), sl_group(1, 3, 2).elems)


def test_group_enum_dump_beyond_uint64_keys(capsys):
    # q^9 = 2^72, so the canonical keys are Python ints, not uint64
    from cosetx.groups import elementary_subgroup

    argv = ["group", "enum", "--n", "2", "--p", "2", "--s", "8", "--d", "0"]
    code = cli.main(argv)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "2 2 8 168"                # SL_3(F_2)
    expect = elementary_subgroup(2, 2, 8, 0).elems
    assert np.array_equal(decode_dump(out[1:], 256, 9), expect)
    code, env = run_json(capsys, argv + ["--format", "json"])
    assert code == 0 and env["result"]["elements"] == out[1:]


# ---------------------------------------------------------------------------
# complexes


def test_complex_build_and_stats(capsys, tmp_path):
    path = tmp_path / "ko.jsonl"
    code, env = run_json(capsys, ["complex", "build", "--preset", "ko",
                                  "--n", "2", "--p", "2", "--s", "2",
                                  "--d", "1", "--out", str(path)])
    assert code == 0
    assert env["result"]["f_vector"] == [2016, 32256, 43008]

    code, env = run_json(capsys, ["complex", "stats", str(path)])
    assert code == 0
    r = env["result"]
    assert r["f_vector"] == [2016, 32256, 43008]
    assert r["connected"] and r["partite"] and r["n_colors"] == 3
    assert r["weights_ok"]
    assert set(r["weight_totals"].values()) == {"1"}


def test_complex_build_raw_dump(capsys):
    code = cli.main(["complex", "build", "--preset", "ko", "--n", "2",
                     "--p", "2", "--s", "2", "--d", "1", "--out", "-"])
    out = capsys.readouterr().out
    assert code == 0
    X = loads_complex(out)
    assert X.f_vector() == (2016, 32256, 43008)


def test_complex_stats_missing_file(capsys):
    # OSError maps to the usage exit code
    assert cli.main(["complex", "stats", "/nonexistent/x.jsonl"]) == 2


# ---------------------------------------------------------------------------
# cohomology and expansion


def test_cohomology_h1_gauge(capsys, torus_file):
    code, env = run_json(capsys, ["cohomology", "h1", "--complex",
                                  torus_file, "--lambda", "zmod:2"])
    assert code == 0
    r = env["result"]
    assert r["trivial"] is False and r["mode"] == "gauge"
    assert r["witness_support"]
    assert all(len(t) == 3 for t in r["witness_support"])


def test_cohomology_h1_brute_census(capsys, torus_file):
    code, env = run_json(capsys, ["cohomology", "h1", "--complex",
                                  torus_file, "--lambda", "zmod:2",
                                  "--mode", "brute"])
    assert code == 0
    assert env["result"]["classes"] == 4


def test_cohomology_h1_resource_exit(capsys, torus_file):
    # 3**21 1-cochains blow the default cap
    code = cli.main(["cohomology", "h1", "--complex", torus_file,
                     "--lambda", "zmod:3", "--mode", "brute"])
    assert code == 3
    assert "resource cap exceeded" in capsys.readouterr().err


def _raise_memory_error():
    raise MemoryError


@pytest.mark.parametrize("alloc", [
    _raise_memory_error,
    # a 4 EiB request fails at once with numpy's _ArrayMemoryError
    lambda: np.empty(1 << 62, dtype=np.uint8),
], ids=["MemoryError", "numpy"])
def test_memory_exhaustion_exits_3(capsys, monkeypatch, alloc):
    def handler(args):
        alloc()
        return 0

    monkeypatch.setattr(cli, "_cmd_ring_parse", handler)
    assert cli.main(["ring", "parse", "1+t", "--p", "3", "--s", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: ")
    assert "Traceback" not in err


def test_expansion_h0(capsys, triangle_file):
    code, env = run_json(capsys, ["expansion", "h0", "--complex",
                                  triangle_file, "--lambda", "zmod:2"])
    assert code == 0 and env["result"]["h0_cobound"] == "2"
    code, env = run_json(capsys, ["expansion", "h0", "--complex",
                                  triangle_file, "--lambda", "zmod:3"])
    assert env["result"]["h0_cobound"] == "3/2"


def test_expansion_h1_exact(capsys, torus_file):
    code, env = run_json(capsys, ["expansion", "h1", "--complex",
                                  torus_file, "--lambda", "zmod:2"])
    assert code == 0
    r = env["result"]
    assert (r["h1_cobound"], r["h1_cosys"], r["min_systole"]) == \
        ("0", "1", "2/7")
    assert r["exact"] is True and "note" not in r


def test_expansion_h1_search_notes_bound(capsys, torus_file):
    code, env = run_json(capsys, ["expansion", "h1", "--complex",
                                  torus_file, "--lambda", "zmod:2",
                                  "--mode", "search", "--seed", "5"])
    assert code == 0
    assert env["result"]["exact"] is False
    assert "upper bound" in env["result"]["note"]
    assert env["seed"] == 5


# ---------------------------------------------------------------------------
# propagation, relations, spectra


def test_propagate_complete(capsys):
    code, env = run_json(capsys, ["propagate", "--n", "3"])
    assert code == 0
    assert env["result"]["complete"] is True
    assert env["result"]["uncovered_per_stage"][-1] == 0


def test_propagate_text(capsys):
    code = cli.main(["propagate", "--n", "4", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and "COMPLETE" in out


def test_relations_emit(capsys):
    code, env = run_json(capsys, ["relations", "emit", "--preset", "sl",
                                  "--n", "3", "--p", "2", "--d", "1"])
    assert code == 0
    r = env["result"]
    assert r["relation_count"] == 1644
    assert r["generator_count"] == 48
    assert sum(r["counts_by_kind"].values()) == 1644
    assert len(r["relations"]) == 1644
    first = r["relations"][0]
    assert set(first) == {"kind", "pair", "lhs", "rhs"}


@pytest.mark.parametrize("argv,digest", [
    (["--preset", "sl", "--n", "3", "--p", "2", "--d", "1"],
     "ec6047fa1895a6e36b9f665fc4f5aec73f323a396720f34f45624a055067acc0"),
    (["--preset", "unip", "--n", "4", "--p", "2", "--d", "1"],
     "6b70c26a65e68cd886baa09b416b22e7ecc9f7a54db781911744f18f2ad2a077"),
])
def test_relations_emit_result_is_pinned(capsys, argv, digest):
    """The emitted relations, word by word, hashed: the builders may share
    symbol objects, but the public word format and order stay fixed."""
    code, env = run_json(capsys, ["relations", "emit"] + argv)
    assert code == 0
    blob = json.dumps(env["result"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_relations_verify(capsys):
    code, env = run_json(capsys, ["relations", "verify", "--preset", "sl",
                                  "--n", "3", "--p", "2", "--d", "1",
                                  "--target-s", "3"])
    assert code == 0
    assert env["result"]["violations"] == 0
    assert env["result"]["checked"] == 1644


def test_relations_verify_timings_cover_build_and_verify(capsys):
    argv = ["relations", "verify", "--preset", "sl", "--n", "3", "--p", "2",
            "--d", "1", "--target-s", "3"]
    code, plain = run_json(capsys, argv)
    assert code == 0 and "timings" not in plain
    code, timed = run_json(capsys, argv + ["--timings"])
    assert code == 0
    t = timed["timings"]
    assert {"wall_s", "build_s", "verify_s"} <= set(t)
    assert 0 < t["build_s"] and 0 < t["verify_s"]
    assert t["build_s"] + t["verify_s"] <= t["wall_s"]
    assert (json.dumps(timed["result"], sort_keys=True)
            == json.dumps(plain["result"], sort_keys=True))


def test_relations_verify_untabled_ring(capsys):
    """--target-s 13 (q = 8192) runs the untabled MatElement path and
    reports what the tabled path reports at --target-s 5."""
    results = []
    for s in ("5", "13"):
        code, env = run_json(capsys, ["relations", "verify", "--preset",
                                      "chamber", "--n", "2", "--p", "2",
                                      "--d", "1", "--target-s", s])
        assert code == 0
        results.append(env["result"])
    assert results[1]["checked"] == 119 and results[1]["violations"] == 0
    assert [r.pop("target_s") for r in results] == [5, 13]
    assert results[0] == results[1]


def test_spectral_links_threshold_exit(capsys, torus_file):
    code, env = run_json(capsys, ["spectral", "links", "--complex",
                                  torus_file, "--threshold", "0.51"])
    assert code == 0 and env["result"]["passed"] is True
    code, env = run_json(capsys, ["spectral", "links", "--complex",
                                  torus_file, "--threshold", "0.4"])
    assert code == 1 and env["result"]["passed"] is False


def test_spectral_links_needs_threshold_with_file(capsys, torus_file):
    code = cli.main(["spectral", "links", "--complex", torus_file])
    assert code == 2


def test_spectral_links_ko_preset(capsys):
    argv = ["spectral", "links", "--preset", "ko", "--n", "2", "--p", "2",
            "--s", "2", "--d", "1", "--threshold", "0.75"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)["result"]
    assert [e["colors"] for e in res["links"]] == [[0], [1], [2]]
    assert [e["solver"] for e in res["links"]] == \
        ["lanczos", "reused", "reused"]
    assert abs(res["max_second_eigenvalue"] - 2 ** -0.5) <= 1e-9
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out


# ---------------------------------------------------------------------------
# suite and error mapping


@pytest.fixture(scope="module")
def quick_suite():
    """Exit code and envelope of `suite --quick`, without and with
    --timings."""
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, json.loads(buf.getvalue())

    return run(["suite", "--quick"]), run(["suite", "--quick", "--timings"])


def test_suite_quick_all_pass(quick_suite):
    code, env = quick_suite[0]
    assert code == 0
    checks = env["result"]["checks"]
    assert len(checks) >= 15
    assert env["result"]["passed"] is True
    assert all(c["passed"] for c in checks)


def test_suite_timings_per_row(quick_suite):
    (_, plain), (code, timed) = quick_suite
    assert code == 0 and "timings" not in plain
    assert json.dumps(timed["result"], sort_keys=True) == \
        json.dumps(plain["result"], sort_keys=True)
    rows = timed["timings"]["checks"]
    assert [r["name"] for r in rows] == \
        [c["name"] for c in plain["result"]["checks"]]
    assert all(0 <= r["wall_s"] <= timed["timings"]["wall_s"] for r in rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commutator_power_attempts_match_matelement_oracle(seed):
    """The batched check agrees with exact MatElement arithmetic on every
    attempt, qualifying or not.  Attempts that fail the filter include
    ones that break the identity (21 of 300 on seed 0), so a wrong
    inverse or a dropped filter shows up as a disagreement."""
    qualifies, holds = cli._commutator_power_attempts(random.Random(seed), 300)
    expected = oracles.commutator_power_attempts(seed, 300)
    assert list(zip(qualifies.tolist(), holds.tolist())) == expected
    assert (False, False) in expected
    assert all(h for q, h in expected if q)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ring"])                   # missing subcommand
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["ring", "parse", "t", "--p", "3", "--s", "2",
                  "--workers", "2"])             # removed option
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    # domain validation also maps to 2, but without raising
    assert cli.main(["ring", "parse", "t", "--p", "4", "--s", "2"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subprocess behavior


def run_proc(argv):
    return subprocess.run([sys.executable, "-m", "cosetx.cli", *argv],
                          capture_output=True, text=True, timeout=300)


def test_subprocess_exit_codes():
    assert run_proc(["propagate", "--n", "3"]).returncode == 0
    r = run_proc(["ring", "parse", "t", "--p", "4", "--s", "2"])
    assert r.returncode == 2 and r.stdout == ""


def test_subprocess_output_deterministic():
    argv = ["ring", "parse", "1+t+t^2", "--p", "5", "--s", "3"]
    a, b = run_proc(argv), run_proc(argv)
    assert a.stdout == b.stdout and a.stdout
    assert json.loads(a.stdout)["result"]["coeffs"] == [1, 1, 1]


def _assert_cap_exit_within_memory_limit(argv):
    """Run the CLI, whose last argument is the cap, under a 1.5 GiB
    address-space limit: exit 3 with the cap message, no traceback, and a
    peak RSS under 512 MB."""
    pytest.importorskip("resource")
    code = ("import resource, sys\n"
            "limit = 3 << 29\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from cosetx.cli import main\n"
            f"code = main({argv!r})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n"
            "sys.exit(code)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 3, r.stderr
    assert f"closure exceeded cap {argv[-1]}" in r.stderr
    assert "Traceback" not in r.stderr
    peak_mb = int(r.stdout)
    assert peak_mb < 512


def test_closure_cap_exits_3_within_memory_limit():
    """A closure that passes its cap stops before the crossing layer is
    built.  With d = 1 < s - 1 no closed-form order is checked up front, so
    the cap of 10^6 fires in the middle of the BFS of the elementaries of
    degree <= 1 in SL_4(F_2[t]/t^3), on the sorted visited keys
    (8^16 > 64 * 10^6 keys)."""
    _assert_cap_exit_within_memory_limit(
        ["group", "enum", "--n", "3", "--p", "2", "--s", "3", "--d", "1",
         "--cap", "1000000"])


def test_closure_cap_exits_3_within_memory_limit_on_bitset():
    """The same exit on the visited-key bitset: the elementaries of degree
    <= 1 in SL_3(F_2[t]/t^3) pass the cap of 2.2 * 10^6 mid-BFS, and the
    8^9 keys fit in 64 * cap bits."""
    _assert_cap_exit_within_memory_limit(
        ["group", "enum", "--n", "2", "--p", "2", "--s", "3", "--d", "1",
         "--cap", "2200000"])


def test_sl_order_over_cap_exits_3_before_enumerating():
    """|SL_4(F_2[t]/t^2)| = 660602880 is known in closed form, so the
    default cap fails at once, naming the order, instead of after a BFS."""
    argv = ["group", "enum", "--n", "3", "--p", "2", "--s", "2"]
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-c",
                        "import sys\nfrom cosetx.cli import main\n"
                        f"sys.exit(main({argv!r}))\n"],
                       capture_output=True, text=True, timeout=300)
    assert time.perf_counter() - t0 < 10
    assert r.returncode == 3, r.stderr
    assert "|SL_4(F_2[t]/t^2)| = 660602880 exceeds cap 16777216" in r.stderr
    assert "Traceback" not in r.stderr


def test_ko_link_k0_over_cap_exits_3_before_enumerating():
    """|K_0| = 3^16 for (n, p, s, d) = (3, 3, 4, 1) is known in closed
    form, so the default cap of 2^24 fails at once, naming the order."""
    argv = ["spectral", "links", "--preset", "ko", "--n", "3", "--p", "3",
            "--s", "4", "--d", "1", "--threshold", "1"]
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-c",
                        "import sys\nfrom cosetx.cli import main\n"
                        f"sys.exit(main({argv!r}))\n"],
                       capture_output=True, text=True, timeout=300)
    assert time.perf_counter() - t0 < 10
    assert r.returncode == 3, r.stderr
    assert "|K_0| = 43046721 exceeds cap 16777216" in r.stderr
    assert "Traceback" not in r.stderr


def read_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def cosetx_installed():
    try:
        importlib.metadata.distribution("cosetx")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_installed():
    """The declared console script runs and prints the declared version.

    Calls the ``[project.scripts]`` target the way the generated wrapper
    does, so it holds whether or not the package is installed.
    """
    project = read_pyproject()["project"]
    target = project["scripts"]["cosetx"]
    assert target == "cosetx.cli:main"
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    r = subprocess.run([sys.executable, "-c", code, "--version"],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"cosetx {project['version']}\n"


@pytest.mark.skipif(not cosetx_installed(),
                    reason="cosetx distribution is not installed")
def test_console_script_on_path():
    """An installed distribution puts a working ``cosetx`` on PATH."""
    assert shutil.which("cosetx"), \
        "cosetx is installed but its console script is not on PATH"
    scripts = importlib.metadata.distribution("cosetx").entry_points.select(
        group="console_scripts", name="cosetx")
    assert [ep.value for ep in scripts] == ["cosetx.cli:main"]
    r = subprocess.run(["cosetx", "--version"], capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"cosetx {cosetx.__version__}\n"
