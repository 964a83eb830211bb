"""numpy and scipy are loaded only by what integrates.

``import crnlump`` and every command that does exact work run without
them; only :mod:`crnlump.sim` imports them, and the package resolves its
six numerical names on first read.  What integrates loads one scipy
module, ``scipy.sparse._sparsetools``, from its extension file, as a
private module: it registers no scipy module, and loads neither the
``scipy.sparse`` package nor ``scipy.integrate`` (the package has its own
RK45 stepper).  Whichever of ``crnlump.sim`` and ``scipy.sparse`` is
imported first, each holds a ``csr_matvec`` that gives the same bits,
and ``scipy.sparse._sparsetools`` is the package's attribute; where the
file is not found, the usual import gives the same bits.  pytest has
loaded numpy and scipy already, so the import checks run in fresh
interpreters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crnlump
import crnlump.sim
from crnlump import MultisiteSpec, multisite, serialize_crn

from test_cli import RUNNING_WITH_INITS
from test_io import NET_FIXTURE

SIM_NAMES = (
    "Trajectory",
    "VerificationReport",
    "integrate",
    "trajectory_to_csv",
    "verify_forward",
    "verify_backward",
)

_SRC = str(Path(crnlump.__file__).resolve().parent.parent)
_TESTS = str(Path(__file__).resolve().parent)


def _python(code: str, *args: str) -> str:
    """Stdout of ``python -c code args`` with ``src`` and ``tests`` on the
    path; fails the test on a nonzero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, _TESTS, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["crnlump", "crnlump.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    out = _python(
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    assert out == "[]\n"


# Runs every exact command and library call in one interpreter and prints,
# as JSON, each exit code with its stdout and stderr, then the numerical
# modules it holds.  With "block" as its first argument, numpy and scipy
# cannot be imported at all.
_EXACT_WORK = r"""
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = sys.modules["scipy"] = None
from pathlib import Path
from crnlump import import_bngl_net, parse_crn, parse_initial_conditions, serialize_crn
from crnlump.cli import main

d = Path(sys.argv[2])
model, part = str(d / "model.crn"), str(d / "part.txt")
commands = [
    ["validate", model],
    ["validate", str(d / "big.crn")],
    ["validate", str(d / "model.net")],
    ["reduce", model, "--mode", "fb"],
    ["reduce", model, "--mode", "bb", "--from-inits"],
    ["reduce", model, "--mode", "bb", "--emit-odes"],
    ["reduce", str(d / "big.crn"), "--mode", "fb", "--emit-odes"],
    ["odes", model],
    ["odes", model, "--partition", part, "--mode", "fb"],
    ["gen", "multisite", "--sites", "2"],
    ["gen", "random", "--seed", "3", "--species", "6", "--reactions", "9"],
    ["gen", "two-state"],
    ["bench", "--sites", "1,2"],
]
for what in ("bisim-fb", "bisim-bb", "ord-lump", "exact-lump"):
    commands.append(["check", model, "--what", what])
    commands.append(["check", model, "--what", what, "--partition", part])
results = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "bench":
        # The last two columns are the measured refine and reduce times.
        text = "\n".join(",".join(row.split(",")[:-2]) for row in text.splitlines())
    results.append([argv[0], code, text, err.getvalue()])
crn, inits = import_bngl_net((d / "model.net").read_text())
results.append(["import_bngl_net", serialize_crn(crn, inits)])
crn, _ = parse_crn((d / "model.crn").read_text())
inits = parse_initial_conditions("A = 1/2\ninit: C = 3\n", crn)
results.append(["parse_initial_conditions", serialize_crn(crn, inits)])
loaded = sorted(m for m in ("numpy", "scipy") if sys.modules.get(m) is not None)
print(json.dumps({"results": results, "loaded": loaded}))
"""


def test_exact_work_runs_without_numpy_and_scipy(tmp_path):
    (tmp_path / "model.crn").write_text(RUNNING_WITH_INITS)
    # The forward partition of the running example: some checks hold.
    (tmp_path / "part.txt").write_text("A\nB\nC, E\nD\n")
    (tmp_path / "model.net").write_text(NET_FIXTURE)
    (tmp_path / "big.crn").write_text(serialize_crn(*multisite(MultisiteSpec(n_sites=3))))
    blocked = json.loads(_python(_EXACT_WORK, "block", str(tmp_path)))
    free = json.loads(_python(_EXACT_WORK, "free", str(tmp_path)))
    assert blocked["results"] == free["results"]
    assert free["loaded"] == []
    codes = [entry[1] for entry in free["results"] if len(entry) == 4]
    assert codes.count(1) == 6 and set(codes) == {0, 1}


def test_numerical_names_are_those_of_sim():
    names = dir(crnlump)
    for name in SIM_NAMES:
        assert getattr(crnlump, name) is getattr(crnlump.sim, name)
        assert name in names
        # Resolved on every read, never stored in the package.
        assert name not in vars(crnlump)
    assert crnlump.InitialCondition is crnlump.sim.InitialCondition
    assert "CRN" in names and names == sorted(names)
    # A network has one representation: its integer reaction list.
    assert "Multiset" not in names and "Reaction" not in names
    assert not hasattr(crnlump.core, "Multiset") and not hasattr(crnlump.core, "Reaction")
    assert not hasattr(crnlump.CRN, "reactions")
    from crnlump import verify_backward

    assert verify_backward is crnlump.sim.verify_backward


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'integrate_fast'"):
        crnlump.integrate_fast
    assert not hasattr(crnlump, "DEFAULT_RTOL")


def test_threads_resolving_a_lazy_name_all_get_one_function():
    out = _python(
        """
import sys, threading
import crnlump

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
found = [None] * 8


def read(i):
    barrier.wait(timeout=60)
    found[i] = crnlump.verify_forward


threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
import crnlump.sim

print(all(f is crnlump.sim.verify_forward for f in found))
"""
    )
    assert out == "True\n"


# Integrates through every public path and both integrating commands in one
# interpreter, then prints the exit codes and the scipy modules it holds.
_INTEGRATING_WORK = r"""
import contextlib, io, json, sys
from pathlib import Path
from crnlump import (
    InitialCondition, Partition, integrate, running_example, verify_backward,
    verify_forward,
)
from crnlump.cli import main

crn = running_example()
v0 = InitialCondition.from_map(crn, {sp: 1 for sp in crn.species})
discrete = Partition(crn.species, [[sp] for sp in crn.species])
integrate(crn, v0, 1.0)
verify_forward(crn, discrete, v0, 1.0, 1e-6)
verify_backward(crn, discrete, v0, 1.0, 1e-6)
model = str(Path(sys.argv[1]) / "model.crn")
codes = []
for argv in (
    ["simulate", model, "--t-end", "1"],
    ["compare", model, "--mode", "fb", "--t-end", "1"],
    ["compare", model, "--mode", "bb", "--from-inits", "--t-end", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules, "scipy": scipy}))
"""


def test_integration_never_loads_scipy_integrate(tmp_path):
    """Nor any scipy module: the compiled kernel is a private module."""
    (tmp_path / "model.crn").write_text(RUNNING_WITH_INITS)
    done = json.loads(_python(_INTEGRATING_WORK, str(tmp_path)))
    assert done == {
        "codes": [0, 0, 0],
        "numpy": True,
        "scipy": [],
    }


# Imports crnlump.sim and scipy.sparse in the order of its first argument,
# or, when that is "unfound", with scipy's directory taken to be the empty
# directory of its second, so that no extension file is found there; prints
# whether scipy.sparse is loaded once crnlump.sim is, whether
# scipy.sparse._sparsetools, imported after both, is the package's attribute
# with its kernel, and the sha256 of what _compile gives on the multisite n=2
# network and its forward quotient side by side, then of what
# oracle.reference_right_hand_side gives, on the same states (the oracle
# imports scipy.sparse, after crnlump.sim in the "sim-first" order).
_KERNEL_ORDER = r"""
import hashlib, importlib.machinery, importlib.util, json, sys
order = sys.argv[1]
if order == "unfound":
    find_spec = importlib.util.find_spec

    def unfound(name, package=None):
        if name != "scipy":
            return find_spec(name, package)
        spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
        spec.submodule_search_locations.append(sys.argv[2])
        return spec

    importlib.util.find_spec = unfound
if order == "scipy-first":
    import scipy.sparse
import crnlump.sim as sim
package = "scipy.sparse" in sys.modules
import numpy as np
import scipy.sparse._sparsetools
from crnlump import BisimMode, MultisiteSpec, Partition, forward_reduce, multisite, refine
from oracle import reference_right_hand_side

crn, _ = multisite(MultisiteSpec(n_sites=2))
final = refine(crn, Partition(crn.species, [crn.species]), BisimMode.FORWARD).final
stack = (crn, forward_reduce(crn, final).crn)
n = sum(net.n_species for net in stack)
rng = np.random.default_rng(2)
states = [rng.uniform(0, 3, n), rng.uniform(-1, 1, n), np.zeros(n)]
digests = []
for rhs in (sim._compile(*stack), reference_right_hand_side(*stack)):
    digests.append(hashlib.sha256(b"".join(rhs(0.0, y).tobytes() for y in states)).hexdigest())
print(json.dumps({
    "attribute": callable(scipy.sparse._sparsetools.csr_matvec),
    "package": package,
    "digests": digests,
}))
"""


@pytest.mark.parametrize(
    "order, package",
    [("sim-first", False), ("scipy-first", True), ("unfound", True)],
)
def test_kernel_is_scipys_in_either_import_order(tmp_path, order, package):
    """Loaded from its file, before or after ``scipy.sparse``, or by the
    usual import when the file is not found: the same bits as
    ``csr_matrix @ vector``, and ``scipy.sparse._sparsetools`` keeps its
    attribute in every order."""
    done = json.loads(_python(_KERNEL_ORDER, order, str(tmp_path)))
    first, second = done.pop("digests")
    assert first == second
    assert done == {"attribute": True, "package": package}


def test_blocked_scipy_fails_the_import_of_sim():
    out = _python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "try:\n"
        "    import crnlump.sim\n"
        "except ModuleNotFoundError as error:\n"
        "    print(type(error).__name__, 'crnlump.sim' in sys.modules)\n"
    )
    assert out == "ModuleNotFoundError False\n"
