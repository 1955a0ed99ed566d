"""The benchmark's layer attribution still points at the package.

``perfbench/tracing.py`` wraps the functions it lists in ``TARGETS`` by
module and attribute path, and skips any that it cannot find, so a
renamed or deleted function reads 0 in its layer instead of failing.
Each target must resolve in ``cosetx``, except the ones named stale
below, and each argument that a target's counter reads by name must be a
parameter of the target.
"""

import inspect
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# targets whose functions were deleted from the package: their layers
# read 0 until the benchmark drops or renames them
STALE = {("cosetx.complexes", "is_isomorphic_partite"),
         ("cosetx.roots", "propagate_stage"),
         ("cosetx.groups", "MatElement.__matmul__"),
         ("cosetx.groups", "MatElement.inverse")}


def _read_args(counts) -> list[str]:
    """The argument names a counter reads through ``tracing._arg``."""
    return re.findall(r'_arg\(sig, args, kwargs, "(\w+)"\)',
                      inspect.getsource(counts))


@pytest.mark.parametrize("module,path,span,counts", tracing.TARGETS,
                         ids=[f"{m}.{p}" for m, p, _, _ in tracing.TARGETS])
def test_target_resolves_and_counters_read_its_parameters(module, path,
                                                          span, counts):
    fn = tracing._resolve(module, path)
    if (module, path) in STALE:
        assert fn is None, f"{module}.{path} is back: drop it from STALE"
        return
    assert callable(fn), f"{module}.{path} is gone from the package"
    if counts is not None:
        params = inspect.signature(fn).parameters
        for name in _read_args(counts):
            assert name in params, f"{span} counts {name!r}, not a parameter"


def test_every_counter_is_parsed():
    """The pattern finds every named argument the counters read: a
    counter that reads none uses only the result."""
    read = {c.__name__: _read_args(c)
            for _, _, _, c in tracing.TARGETS if c is not None}
    assert read == {
        "_closure_counts": ["gens"], "_matmul_counts": [],
        "_keyindex_counts": ["keys"],
        "_cosets_counts": ["sub_generators", "sub_indices"],
        "_assemble_counts": ["G"], "_eig_counts": ["M"],
        "_report_counts": ["entries"], "_verify_counts": []}


def test_stale_targets_are_listed():
    assert STALE <= {(m, p) for m, p, _, _ in tracing.TARGETS}


def test_run_record_environment_resolves():
    """Every benchmark child calls ``child.environment()`` after its timed
    run, so a package name it reads that went away would make every child
    exit 1."""
    pytest.importorskip("scipy")
    import child

    import cosetx

    env = child.environment()
    assert env["kernel_backend"] == cosetx.kernel_backend
    assert env["nproc"] >= 1
