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
from cosetx.complexes import SimplicialComplex, loads_complex, save_complex
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


@pytest.mark.parametrize("argv,line", [
    (["op", "--op", "mul", "1+t^39", "1+t", "--p", "2", "--s", "40"],
     "(1+t^39) mul (1+t) = 1+t+t^39"),
    (["op", "--op", "add", "1+t^39", "t+t^39", "--p", "2", "--s", "40"],
     "(1+t^39) add (t+t^39) = 1+t"),
    (["parse", "1+t^39", "--p", "2", "--s", "40"],
     "1+t^39  =  [1," + "0," * 38 + "1]@2,40"),
    (["op", "--op", "mul", "[10006,5]@10007,2", "[10006,3]@10007,2"],
     "(10006+5*t) mul (10006+3*t) = 1+9999*t"),
    (["op", "--op", "add", "10006+t", "2+10006*t", "--p", "10007", "--s", "2"],
     "(10006+t) add (2+10006*t) = 1"),
    (["parse", "20015+3*t^2", "--p", "10007", "--s", "3"],
     "1+3*t^2  =  [1,0,3]@10007,3"),
], ids=["mul-2-40", "add-2-40", "parse-2-40", "mul-10007", "add-10007",
        "parse-10007"])
def test_ring_commands_on_large_rings(capsys, argv, line):
    """``ring op`` and ``ring parse`` answer rings with p^s > 2^32, where
    a ring index overflows a uint32 row, and a prime far past any ring
    table; the lines are pinned."""
    code = cli.main(["ring", *argv, "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == line + "\n"


def test_ring_parse_decides_a_61_bit_prime_at_once(capsys):
    """p = 2^61 - 1 is proved prime at once, 2^61 + 1 (divisible by 3) is
    refused, and so is a p past the exact range of the primality test."""
    from cosetx.ring import MAX_PRIME

    t0 = time.perf_counter()
    code, env = run_json(capsys, ["ring", "parse", "[1]@2305843009213693951,1"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and env["result"]["p"] == 2**61 - 1
    for p in (2**61 + 1, MAX_PRIME):
        assert cli.main(["ring", "parse", f"[1]@{p},1"]) == 2
        assert "error" in capsys.readouterr().err


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
    # q^9 = 2^72, so the canonical keys are void keys, not uint64; their
    # hex values are pinned as the Python-int keys printed them
    from cosetx.groups import elementary_subgroup

    argv = ["group", "enum", "--n", "2", "--p", "2", "--s", "8", "--d", "0"]
    code = cli.main(argv)
    text = capsys.readouterr().out
    out = text.splitlines()
    assert code == 0
    assert out[0] == "2 2 8 168"                # SL_3(F_2)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "bb122899c0cef37d246f271976460de39badcf0fc9f13b2957b5b1b973f0ec80"
    expect = elementary_subgroup(2, 2, 8, 0).elems
    assert np.array_equal(decode_dump(out[1:], 256, 9), expect)
    code, env = run_json(capsys, argv + ["--format", "json"])
    assert code == 0 and env["result"]["elements"] == out[1:]
    blob = json.dumps(env["result"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "e24c3a2390572131063f04eeab691d1f0ff0b2899fb3d308be08eeaeb0586072"


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


def test_cohomology_h1_witness_with_identity_off_index_0(capsys, tmp_path):
    # Z/2 with the identity at index 1: the gauge witness is the other
    # value on the 4-cycle's one non-tree edge, so its support is that edge
    cycle, table = tmp_path / "cycle4.jsonl", tmp_path / "z2.txt"
    save_complex(fx.cycle_complex(4), cycle)
    table.write_text("2\n1 0\n0 1\n")
    argv = ["cohomology", "h1", "--complex", str(cycle),
            "--lambda", f"table:{table}"]
    for mode, support in (("gauge", 1), ("brute", 3)):
        code, env = run_json(capsys, argv + ["--mode", mode])
        assert code == 0
        r = env["result"]
        assert r["trivial"] is False
        assert len(r["witness_support"]) == support, mode


def test_cohomology_h1_timings_leave_result_alone(capsys, torus_file):
    argv = ["cohomology", "h1", "--complex", torus_file, "--lambda", "sym:3"]
    code, plain = run_json(capsys, argv)
    assert code == 0 and "timings" not in plain
    code, timed = run_json(capsys, argv + ["--timings"])
    assert code == 0
    assert json.dumps(timed["result"]).encode() == \
        json.dumps(plain["result"]).encode()
    t = timed["timings"]
    assert t["branch_edges"] >= 1 and t["label_rounds"] >= 1
    assert t["search_nodes"] >= 1
    assert not {"branch_edges", "label_rounds", "search_nodes"} & \
        set(timed["result"])


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


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cplx")
    built = {
        # two triangles on an edge, and the five triangles i, i+1, i+2 mod 5
        "two_fold": SimplicialComplex(2, 4, [[0, 1, 2], [1, 2, 3]]),
        "mobius": SimplicialComplex(2, 5, [sorted({i, (i + 1) % 5,
                                                   (i + 2) % 5})
                                           for i in range(5)]),
        "tetrahedron": fx.tetrahedron_sphere(),
        "cycle5": fx.cycle_complex(5),
        "torus": fx.torus_7(),
    }
    for name, X in built.items():
        save_complex(X, root / f"{name}.jsonl")
    return {name: str(root / f"{name}.jsonl") for name in built}


@pytest.mark.parametrize("argv,digest", [
    (["expansion", "h1", "--complex", "{two_fold}", "--lambda", "zmod:4"],
     "0a317782a211d4c41be68dfe9244960abf7f0bd7686af3df9218cc7ecb0c3425"),
    (["expansion", "h1", "--complex", "{two_fold}", "--lambda", "sym:3"],
     "0a317782a211d4c41be68dfe9244960abf7f0bd7686af3df9218cc7ecb0c3425"),
    (["expansion", "h1", "--complex", "{mobius}", "--lambda", "zmod:5",
      "--mode", "search", "--iters", "2"],
     "7564857af2ccfcca5f74461baa6d6c6a58ae5d24047f785014eb584c1d17fb0c"),
    (["expansion", "h1", "--complex", "{tetrahedron}", "--lambda", "zmod:5",
      "--mode", "search", "--iters", "2"],
     "8bae97733764b35319f913c92e8a16488ae72ce339b301c561a3ad01ba2cdff3"),
    (["cohomology", "h1", "--complex", "{cycle5}", "--lambda", "sym:3",
      "--mode", "brute"],
     "a28815fd1fb5731757f3d83a8b3ab19fb5efc8d87256db966759df498b739d9d"),
    (["expansion", "h0", "--complex", "{torus}", "--lambda", "zmod:3"],
     "2c663c55b14560e7685f1be338edfe67a0cfe2c00f2a272882736bee7a14ec7c"),
], ids=["h1-zmod4", "h1-sym3", "h1-search-mobius", "h1-search-tetrahedron",
        "cohomology-brute-sym3", "h0-zmod3"])
def test_exhaustive_cohomology_results_are_pinned(capsys, small_files, argv,
                                                  digest):
    """The exhaustive scans' result blocks, hashed: the generic exact and
    search expansion, the brute H^1 census over S_3 with its witness, and
    the h^0 partition scan."""
    code, env = run_json(capsys, [a.format(**small_files) for a in argv])
    assert code == 0
    blob = json.dumps(env["result"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


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


@pytest.mark.parametrize("argv,code,digest", [
    (["--n", "5"], 0,
     "279918a0b9dc75cc0630d0a80a802296a2815e17738769bd8b8ad2ea5fc94e05"),
    (["--n", "6"], 0,
     "84003e3e12360de6713ad15e8ca39fb23d0c18f1dcd0ac131cbf5d83718427ff"),
    # stage 0 alone leaves 90 and 175 pairs uncovered
    (["--n", "5", "--stages", "0"], 1,
     "afe489318525435ef0c94d1e82c1119faafc0082305538f306f4e49ff88eb154"),
    (["--n", "6", "--stages", "0"], 1,
     "5c493d992bf00c4ff68a19217bc22d7f177c9356b48ebca50ba23b78645fcfc7"),
    (["--n", "4", "--stages", "3"], 0,
     "948350eff032102cd68aba6a416ff7b25d84f53eef1302373adb64a42932586a"),
], ids=["n5", "n6", "n5-stage0", "n6-stage0", "n4-stages3"])
def test_propagate_result_is_pinned(capsys, argv, code, digest):
    """Stage sizes, covered counts and the uncovered pairs, hashed; taken
    from the set-based propagation that the coverage matrices replace."""
    got, env = run_json(capsys, ["propagate"] + argv)
    assert got == code
    blob = json.dumps(env["result"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert len(env["result"]["uncovered_final"]) == \
        env["result"]["uncovered_per_stage"][-1]


def test_propagate_n7_streams_within_memory_limit():
    """All 8! chambers in a subprocess under a 1 GiB address-space limit,
    within 20 s: stages [8, 1816, 40320], covered [1260, 1568, 1568] of
    1568."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    r = subprocess.run([sys.executable, "-m", "cosetx.cli", "propagate",
                        "--n", "7"], capture_output=True, text=True,
                       timeout=20, preexec_fn=cap_memory)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout)["result"]
    assert result["stage_sizes"] == [8, 1816, 40320]
    assert result["covered_counts"] == [1260, 1568, 1568]
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "d530c21c0ce91487a5235c242d9dced369ae3f73036fa7ddd5d3e4ce0fdc3470"


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
    (["--preset", "unip", "--n", "6", "--p", "2", "--d", "1"],
     "689d24ca1a7c6d5b2dfffddde0575e3ca18ba6dfde1f9f964cdfc5a88aa35c57"),
    # the stage-0-covered pairs, and the pairs inside C_0
    (["--preset", "tilde", "--n", "3", "--p", "2", "--d", "1"],
     "816167134aed1bc622a2374ca26eb256b735968dd2b381e62c89223cda2ec718"),
    (["--preset", "tilde", "--n", "4", "--p", "2", "--d", "1"],
     "d0dd45085983a432e72bf30b4333c21b4fafe29bc3dee893bec15b46d5b48fdc"),
    (["--preset", "chamber", "--n", "3", "--p", "2", "--d", "1"],
     "67679d27a1b201a1fbdd9d2e39322f3659c486e905ef4c86fa71d548b5e79626"),
    (["--preset", "prechamber", "--n", "3", "--p", "2", "--d", "1"],
     "794888e5f2de59af8b32dd3f7bc3f208acc8063d9084ec22343cb87d5ff2c0c4"),
])
def test_relations_emit_result_is_pinned(capsys, argv, digest):
    """The emitted relations, word by word, hashed: the builders may share
    symbol objects, but the public word format and order stay fixed."""
    code, env = run_json(capsys, ["relations", "emit"] + argv)
    assert code == 0
    blob = json.dumps(env["result"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (["--preset", "sl", "--n", "3", "--p", "2", "--d", "1", "--target-s", "3"],
     "051a3c618c28424ac2fe1389901d4a6fdbdd88ad7d2c07bb448350efb094d287"),
    (["--preset", "sl", "--n", "3", "--p", "3", "--d", "1", "--target-s", "4"],
     "34a984ffcd4d5ac938ef6eca62befb02a77a0c7eee9532754bd72d09067e6907"),
    (["--preset", "unip", "--n", "4", "--p", "2", "--d", "1", "--target-s", "2"],
     "768ca82180da1eeaba7937e3d1a5607d8e3c5d0e5c698dc8dbfb496cac7e938e"),
    (["--preset", "unip", "--n", "6", "--p", "2", "--d", "1", "--target-s", "3"],
     "2f358437f7aa2f95dc14ebdcb7250b4de2c1d9dc802cacf0b90dc933f19f6200"),
    (["--preset", "tilde", "--n", "3", "--p", "2", "--d", "1", "--target-s", "2"],
     "8d23a6abe76253eca91f6ff639185ce3fd1a8d17abfaf6f7365feb05071514bf"),
    (["--preset", "tilde", "--n", "4", "--p", "2", "--d", "1", "--target-s", "2"],
     "2d725b3f5259f2ab9e2f7d23bd40a201b818ae9e3957e6c5bf7bc0b5944a4206"),
    (["--preset", "chamber", "--n", "3", "--p", "3", "--d", "1", "--target-s", "2"],
     "a8614bcc78403f316bb634ea7b198e1de6b2833c30ae664dbbf194bcab4da83d"),
    (["--preset", "prechamber", "--n", "3", "--p", "2", "--d", "2", "--target-s", "3"],
     "3fae1c33618624e59abb1e9c9f471b839016baf1fa10de111a8801845aff5819"),
    # the largest tabled ring, q = 4096, and two rings past it, on digits
    (["--preset", "sl", "--n", "3", "--p", "2", "--d", "1", "--target-s", "12"],
     "3dfd69df2715123e6a715e737eeaf77b433e576e03061177173107ef1c260ef0"),
    (["--preset", "sl", "--n", "3", "--p", "2", "--d", "1", "--target-s", "13"],
     "d7cd8cb514df2651169682770a51b74c0ac1afe4c00b73323d949c3d833326e1"),
    (["--preset", "sl", "--n", "3", "--p", "2", "--d", "1", "--target-s", "20"],
     "65161769f0a0f28cc563d8a8bc16b2653f41d5ee35fc975d48ce54ad71101759"),
])
def test_relations_verify_result_is_pinned(capsys, argv, digest):
    """Every preset's verification result, hashed: relation counts by kind
    and no violation, whichever path builds and evaluates the words."""
    code, env = run_json(capsys, ["relations", "verify"] + argv)
    assert code == 0 and env["result"]["violations"] == 0
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
    """--target-s 13 (q = 8192) multiplies and inverts on digits, with no
    ring table, and reports what the tabled path reports at --target-s 5."""
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


def test_suite_quick_result_is_pinned(quick_suite):
    # `suite --quick --seed 0`; the seed defaults to 0
    code, env = quick_suite[0]
    assert code == 0 and env["seed"] == 0
    digest = hashlib.sha256(
        json.dumps(env["result"], sort_keys=True).encode()).hexdigest()
    assert digest == \
        "26c3c9161a87baa76c0f46e7739a39a44c3ac4399db57cbe91aa357568e55894"


def test_suite_full_result_is_pinned():
    # `suite --seed 0`, every check; the H^1 rows pin the brute census,
    # the witnesses' triviality and the exact torus expansion constants
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["suite", "--seed", "0"])
    env = json.loads(buf.getvalue())
    assert code == 0 and env["result"]["passed"] is True
    digest = hashlib.sha256(
        json.dumps(env["result"], sort_keys=True).encode()).hexdigest()
    assert digest == \
        "69374d9cf0c8c6d8b2c1590cc655cc0730b2ec251f589d9fc7a6644e734b79e4"


@pytest.mark.parametrize("drop", [0, 1, 3])
def test_lemma_failures_match_set_count(monkeypatch, drop):
    """With the last ``drop`` gamma_0 powers taken out of stage 0, the
    suite's exhaustive lemma row counts the failures the set-based count
    finds: ordered shared-index pairs, (i, i+1) against each root, and
    unordered pairs."""
    from cosetx import roots

    def stage0(n):
        m = n + 1
        return sorted(tuple((k + t) % m + 1 for k in range(m))
                      for t in range(m))[:m - drop]

    monkeypatch.setattr(roots, "initial_coverage", lambda n: roots.coverage(
        roots.chamber_masks(np.array(stage0(n)) - 1)[0]))
    ok, detail = cli._check_lemmas_exhaustive(5)
    expect = sum(oracles.lemma_failures(n, stage0(n)) for n in (3, 4, 5))
    assert detail["failures"] == expect
    assert ok == (expect == 0) == (drop == 0)


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
    draws = cli._commutator_power_draws(np.random.default_rng(seed), 300)
    r1, r2, i, j, k, l = draws
    # every entry of F_3[t]/t^3 and every root position is drawn
    assert set(r1.tolist()) == set(r2.tolist()) == set(range(27))
    roots = {(a, b) for a in range(1, 4) for b in range(1, 4) if a != b}
    assert set(zip(i.tolist(), j.tolist())) == roots
    assert set(zip(k.tolist(), l.tolist())) == roots
    qualifies, holds = cli._commutator_power_attempts(*draws)
    expected = oracles.commutator_power_attempts(*draws)
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


# every malformed input below must exit 2 with an "error:" line and no
# traceback, whichever command reads it
_HEAD = '{"n":2,"vertex_count":3,"colors":null}\n'
BAD_COMPLEXES = {
    # (0, 5) has the base-3 key of (1, 2), first or last
    "colliding-key-last": '{"n":1,"vertex_count":3,"colors":null}\n'
                          "[0,1]\n[1,2]\n[0,5]\n",
    "colliding-key-first": '{"n":1,"vertex_count":3,"colors":null}\n'
                           "[0,5]\n[0,1]\n[1,2]\n",
    "ragged": _HEAD + "[0,1,2]\n[0,1]\n",
    "wrong-width": _HEAD + "[0,1,2,3]\n",
    "non-numeric": _HEAD + '[0,"one",2]\n',
    "negative-n": '{"n":-3,"vertex_count":0}\n',
    "float-vertex": _HEAD + "[0,1,2.5]\n",
    "binary": b"\xff\xfe\x00[",
}
FILE_COMMANDS = {
    "complex-stats": ["complex", "stats", "{file}"],
    "cohomology-h1": ["cohomology", "h1", "--complex", "{file}",
                      "--lambda", "zmod:2"],
    "expansion-h1": ["expansion", "h1", "--complex", "{file}",
                     "--lambda", "zmod:2"],
    "spectral-links": ["spectral", "links", "--complex", "{file}",
                       "--threshold", "0.5"],
}
ROBUSTNESS_CASES = [
    pytest.param(cmd, BAD_COMPLEXES[bad], id=f"{name}-{bad}")
    for name, cmd in FILE_COMMANDS.items() for bad in BAD_COMPLEXES
] + [
    pytest.param(FILE_COMMANDS[name][:-1] + [spec], None,
                 id=f"{name}-{spec}")
    for name in ("cohomology-h1", "expansion-h1")
    for spec in ("zmod:x", "sym:y", "table:{table}")
] + [
    pytest.param(FILE_COMMANDS["expansion-h1"]
                 + ["--mode", "search", "--iters", iters], None,
                 id=f"expansion-h1-iters{iters}")
    for iters in ("-3", "0")
] + [
    # polynomial text of neither form, and numbers past Python's int
    # digit limit
    pytest.param(["ring", "parse", *argv], None, id=f"ring-parse-{name}")
    for name, argv in (("empty-coefficient", ["[1,,0]@2,3"]),
                       ("letter-coefficient", ["[a]@2,1"]),
                       ("long-p", ["[1]@" + "7" * 5000 + ",1"]),
                       ("long-coefficient",
                        ["1" * 5000 + "+t", "--p", "2", "--s", "2"]),
                       ("long-exponent",
                        ["t^" + "1" * 5000, "--p", "2", "--s", "2"]))
] + [
    # a 0-dimensional complex has no 1-skeleton walk to report on
    pytest.param(FILE_COMMANDS["spectral-links"],
                 '{"n":0,"vertex_count":2,"colors":null}\n[0]\n[1]\n',
                 id="spectral-links-0-dimensional"),
] + [
    # no eigenvalue compares with a threshold that is not a finite number
    pytest.param(argv + ["--threshold", t], None,
                 id=f"spectral-links-{name}-{t}")
    for name, argv in (
        ("complex", FILE_COMMANDS["spectral-links"][:-2]),
        ("ko", ["spectral", "links", "--preset", "ko", "--n", "2", "--p", "2",
                "--s", "2", "--d", "1"]))
    for t in ("nan", "inf")
] + [
    # the suite's draws come from np.random.default_rng, which has no
    # negative seeds
    pytest.param(["suite", "--seed", "-1"], None, id="suite-seed-negative"),
]


@pytest.mark.parametrize("argv,text", ROBUSTNESS_CASES)
def test_malformed_input_exits_2(capsys, tmp_path, torus_file, argv, text):
    path, table = torus_file, tmp_path / "table.txt"
    table.write_bytes(BAD_COMPLEXES["binary"])
    if text is not None:
        path = tmp_path / "bad.jsonl"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = cli.main([a.format(file=path, table=table) for a in argv])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_associative_coefficient_table_exits_2(capsys, tmp_path,
                                                   torus_file):
    # Z/300 with the intercalate {3, 153} at rows 1, 151 and columns 2, 152
    # swapped: a Latin square with identity 0 and inverses, but no group
    table = np.add.outer(np.arange(300), np.arange(300)) % 300
    table[1, 2], table[1, 152], table[151, 2], table[151, 152] = 153, 3, 3, 153
    path = tmp_path / "z300.txt"
    path.write_text("300\n" + "\n".join(" ".join(map(str, row))
                                          for row in table.tolist()) + "\n")
    code = cli.main(["cohomology", "h1", "--complex", torus_file,
                     "--lambda", f"table:{path}"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and "not associative" in err


def test_malformed_complex_cases_are_one_defect_each(capsys, tmp_path):
    # the header and row they share load, so each case tests its own defect
    path = tmp_path / "ok.jsonl"
    path.write_text(_HEAD + "[0,1,2]\n")
    assert cli.main(["complex", "stats", str(path)]) == 0


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


def test_spectral_links_complex_caps_lanczos_basis(tmp_path):
    """``spectral links --complex`` hands --cap to the eigensolver: the
    20000-cycle needs thousands of Lanczos steps, and a cap of a million
    floats stops it at its first doubling of a 32-row basis, exit 3."""
    path = tmp_path / "cycle.jsonl"
    save_complex(fx.cycle_complex(20000), path)
    r = run_proc(["spectral", "links", "--complex", str(path),
                  "--threshold", "1.0", "--cap", "1000000"])
    assert r.returncode == 3, r.stderr
    assert "Lanczos basis of 64 x 20000 floats exceeds cap 1000000" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


def _assert_cap_exit_within_memory_limit(argv):
    """Run the CLI, whose last argument is the cap, under a 1.5 GiB
    address-space limit: exit 3 with the cap message, no traceback, and a
    peak RSS of the child's own under 512 MB."""
    pytest.importorskip("resource")
    code = ("import resource, sys\n"
            "limit = 3 << 29\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from cosetx.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    r, peak_mb = oracles.run_with_peak(code)
    assert r.returncode == 3, r.stderr
    assert f"closure exceeded cap {argv[-1]}" in r.stderr
    assert "Traceback" not in r.stderr
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


def test_huge_vertex_count_exits_2_within_memory_limit(tmp_path):
    """A header that claims 5 * 10^8 vertices for one triangle is not pure,
    and says so without a count over every claimed vertex: exit 2 within
    seconds under a 1.5 GiB address-space limit, where such a count needs
    4 GB."""
    resource = pytest.importorskip("resource")
    limit = 3 << 29

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = tmp_path / "huge.jsonl"
    path.write_text('{"n":2,"vertex_count":500000000,"colors":null}\n'
                    "[0,1,2]\n")
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "cosetx.cli", "complex",
                        "stats", str(path)], capture_output=True, text=True,
                       timeout=300, preexec_fn=cap_memory)
    assert time.perf_counter() - t0 < 10
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert "vertex 3 lies in no maximal face" in r.stderr


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
