"""What the package loads, and when.

scipy is a test-only oracle: no cosetx module may import it.  numpy 2
loads some of its submodules on first use; ``numpy.random``, which the
eigensolver needs, is loaded at import, so a timed run never pays for an
import, and ``numpy.ma``, which only ``np.unique`` reads, is never loaded
(``_kernels.common.sorted_distinct`` stands in for ``np.unique``).  Each
check runs in a fresh interpreter that imports a benchmark workload's
modules as ``perfbench/workloads.py`` lists them and then runs that
workload (the full suite) or a small version of it (the KO instances).
No module reads another module's private names.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cosetx"

RUNS = {
    "ko-links": ("from cosetx.spectral import ko_link_report\n"
                 "ko_link_report(3, 2, 2, 1, threshold=1.0)\n"),
    "ko-complex": ("from cosetx.cohomology import h1_trivial, zmod\n"
                   "from cosetx.complexes import build_ko_complex\n"
                   "from cosetx.spectral import local_spectral_report\n"
                   "X = build_ko_complex(2, 2, 2, 1)\n"
                   "local_spectral_report(X, 0.999)\n"
                   "h1_trivial(X, zmod(2))\n"),
    # the full suite, as the benchmark times it: --quick skips rows
    "suite": ("import contextlib, io\n"
              "from cosetx.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['suite']) == 0\n"),
}

PROBE = """\
import importlib, json, sys
sys.path.insert(0, {perfbench!r})
import workloads

def numpy_modules():
    return {{m for m in sys.modules if m.split(".")[0] == "numpy"}}

for mod in workloads.WORKLOADS[{name!r}].imports:
    importlib.import_module(mod)
before = numpy_modules()
{run}
print(json.dumps({{
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_loaded_in_run": sorted(numpy_modules() - before),
    "numpy_ma_loaded": "numpy.ma" in sys.modules,
}}))
"""


@pytest.mark.parametrize("name", sorted(RUNS))
def test_workload_imports_no_scipy_and_loads_nothing_in_run(name):
    code = PROBE.format(perfbench=str(PERFBENCH), name=name, run=RUNS[name])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout.splitlines()[-1])
    assert got == {"scipy": [], "numpy_loaded_in_run": [],
                   "numpy_ma_loaded": False}


def _private_names(path):
    """(line, name) of each underscore name that ``path`` imports from a
    ``cosetx`` module or reads off one (``groups._x``).  Dunder names and
    the ``_kernels`` package's own name are public."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {p.stem for p in PACKAGE.rglob("*.py")} | {"cosetx", "_kernels"}

    def private(name):
        return (name.startswith("_") and not name.startswith("__")
                and name != "_kernels")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("cosetx"):
                found += [(node.lineno, a.name) for a in node.names
                          if private(a.name)]
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and isinstance(node.value, (ast.Name, ast.Attribute))
              and getattr(node.value, "id", getattr(node.value, "attr", None))
              in modules):
            found.append((node.lineno, node.attr))
    return found


def test_no_module_reads_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(PACKAGE.glob("_kernels/*.py"))
    assert {str(p.relative_to(PACKAGE)) for p in paths} >= {
        "groups.py", "cli.py", "presentations.py", "_kernels/__init__.py",
        "_kernels/pure.py", "_kernels/common.py"}
    found = {str(p.relative_to(PACKAGE)): names for p in paths
             if (names := _private_names(p))}
    assert found == {}
