"""A structured fuzz of the command line, run in process through
:func:`crnlump.cli.main`.

Each seeded case writes a valid network (the running example, multisite
with at most three sites, a random network with rates from 1e-30 to
1e12, or a random network with inflows and reactant sides of up to four
molecules, which only the forward mode refuses), as a ``.crn`` text or,
in about a quarter of the cases, as a BioNetGen ``.net`` text with its
start values, a random
initial-condition file and a random partition file that mixes singletons
with larger blocks, and runs one command on them with random numeric
options, a few of them out of range.  Every run must end in a documented
exit code (0 to 3) without an uncaught exception or a ``Traceback`` on
stderr, and no run may start a thread or a process.

The solver's evaluation budget is lowered for these runs, so that a
stiff case (a rate of 1e12 integrated to t=10) ends in the budget's exit
3 after milliseconds instead of seconds.  Every right-hand-side
evaluation that reaches the solver is counted, and no integration may
pass the budget.
"""

import os
import random
import subprocess
import threading
from fractions import Fraction

import pytest

from crnlump import MultisiteSpec, _rk45, multisite, running_example, serialize_crn, sim
from crnlump.cli import main
from crnlump.core import format_rational, scaled_reactions
from crnlump.io import import_bngl_net
from crnlump.models import random_crn
from conftest import random_non_elementary

CASES = 200
BUDGET = 10_000

RATES = tuple(Fraction(10) ** e for e in range(-30, 13))
# 1e200 makes the first derivative's scaled norm overflow as the solver
# chooses its first step.
VALUES = (0, 0, 1, Fraction(1, 3), 2, 7, 10**200, *RATES)


def _network(rng):
    """A network, and its initial values when its generator gives them."""
    kind = rng.randrange(5)
    if kind == 0:
        return running_example(), None
    if kind == 1:
        return multisite(MultisiteSpec(n_sites=rng.randint(1, 3)))
    if kind == 2:
        n = rng.randint(1, 12)
        return random_non_elementary(rng.getrandbits(32), n, rng.randint(0, 20)), None
    pool = tuple(rng.sample(RATES, rng.randint(1, 4)))
    return random_crn(rng.getrandbits(32), rng.randint(1, 12), rng.randint(0, 20), pool), None


def _net_text(crn, inits, rng):
    """``crn`` as a BioNetGen ``.net`` text: each distinct rate a
    parameter, each species its pattern and start value (from ``inits``,
    or drawn), each reaction side its one-based species indices with a
    species repeated by its multiplicity, ``0`` when empty."""
    scale, rows = scaled_reactions(crn)
    rates = list(dict.fromkeys(value for _, _, value in rows))
    lines = ["begin parameters"]
    for i, value in enumerate(rates, 1):
        lines.append(f"  {i} k{i} {format_rational(Fraction(value, scale))}")
    lines += ["end parameters", "begin species"]
    for sp in crn.species:
        value = inits.get(sp) if inits is not None else Fraction(rng.choice(VALUES))
        lines.append(f"  {sp.id + 1} {sp.name} {format_rational(value)}")
    lines += ["end species", "begin reactions"]

    def side(pairs):
        return ",".join(str(sid + 1) for sid, m in pairs for _ in range(m)) or "0"

    for i, (lhs, rhs, value) in enumerate(rows, 1):
        lines.append(f"  {i} {side(lhs)} {side(rhs)} k{rates.index(value) + 1}")
    return "\n".join(lines + ["end reactions"]) + "\n"


def _init_text(crn, rng):
    lines = []
    for sp in rng.sample(crn.species, rng.randint(0, crn.n_species)):
        value = rng.choice(VALUES)
        text = format_rational(Fraction(value)) if rng.random() < 0.7 else f"{float(value):g}"
        lines.append(f"{'init: ' if rng.random() < 0.5 else ''}{sp.name} = {text}")
    return "\n".join(lines) + "\n"


def _partition_text(crn, rng):
    """Some species as singletons, the rest in a few blocks; sometimes a
    species is left out, so it joins the implicit final block."""
    names = [sp.name for sp in crn.species]
    rng.shuffle(names)
    if rng.random() < 0.2:
        names = names[: rng.randint(0, len(names))]
    singles = rng.randint(0, len(names))
    rest = names[singles:]
    k = rng.randint(1, max(1, len(rest)))
    blocks = [[name] for name in names[:singles]] + [rest[i::k] for i in range(k)]
    return "".join(", ".join(block) + "\n" for block in blocks if block)


def _number(rng, good):
    """One of ``good``, or rarely a value the CLI refuses with exit 2."""
    if rng.random() < 0.05:
        return rng.choice(("0", "-1", "nan", "inf"))
    return rng.choice(good)


def _argv(rng, files, has_inits):
    net, init, part = files
    command = rng.choice(("validate", "reduce", "check", "odes", "simulate", "compare"))
    mode = rng.choice(("fb", "bb"))
    if command == "validate":
        return [command, net]
    if command == "check":
        what = rng.choice(("bisim-fb", "bisim-bb", "ord-lump", "exact-lump"))
        argv = [command, net, "--what", what]
        return argv + (["--partition", part] if rng.random() < 0.8 else [])
    if command == "odes":
        return [command, net] + (["--partition", part, "--mode", mode] if rng.random() < 0.7 else [])
    argv = [command, net]
    if command != "simulate":
        argv += ["--mode", mode]
    start = rng.random()
    if command != "simulate" and start < 0.4:
        argv += ["--partition", part]
    elif command != "simulate" and start < 0.7:
        argv += ["--from-inits"]
    if has_inits is None or rng.random() < 0.5:
        argv += ["--init", init]
    if command == "reduce":
        return argv + (["--emit-odes"] if rng.random() < 0.3 else [])
    argv += ["--t-end", _number(rng, ("1e-6", "0.01", "1", "10"))]
    argv += ["--rtol", _number(rng, ("1e-3", "1e-6", "1e-10", "1e-15"))]
    argv += ["--atol", _number(rng, ("1e-6", "1e-12", "1e-30"))]
    if command == "simulate":
        return argv + ["--points", _number(rng, ("1", "2", "17", "100"))]
    return argv + ["--tol", _number(rng, ("1e-6", "1e-2", "1e-12"))]


@pytest.fixture
def no_new_threads_or_processes(monkeypatch):
    """Any attempt to start a thread or a process fails the run."""

    def refuse(what):
        def start(*_args, **_kwargs):
            raise AssertionError(f"a run called {what}")

        return start

    monkeypatch.setattr(threading.Thread, "start", refuse("Thread.start"))
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse("subprocess.Popen"))
    monkeypatch.setattr(os, "fork", refuse("os.fork"), raising=False)
    monkeypatch.setattr(os, "posix_spawn", refuse("os.posix_spawn"), raising=False)


@pytest.fixture
def evaluations(monkeypatch):
    """The lowered budget, and per integration of the current run the
    right-hand-side evaluations of the ``fun`` that reaches the solver."""
    monkeypatch.setattr(sim, "_MAX_EVALUATIONS", BUDGET)
    solve, counts = _rk45.solve, []

    def counted_solve(fun, *args):
        counts.append(0)

        def counted(t, y):
            counts[-1] += 1
            return fun(t, y)

        return solve(counted, *args)

    monkeypatch.setattr(_rk45, "solve", counted_solve)
    return counts


def _fuzz(cases, tmp_path, capsys, evaluations):
    threads = threading.active_count()
    codes, integrated, net_done = {}, 0, 0
    for case in cases:
        rng = random.Random(case)
        crn, inits = _network(rng)
        as_net = rng.random() < 0.25
        files = tuple(
            str(tmp_path / name)
            for name in ("net.net" if as_net else "net.crn", "init.txt", "partition.txt")
        )
        if as_net:
            network = _net_text(crn, inits, rng)
            inits = import_bngl_net(network)[1]
        else:
            network = serialize_crn(crn, inits)
        texts = (network, _init_text(crn, rng), _partition_text(crn, rng))
        for path, text in zip(files, texts):
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
        argv = _argv(rng, files, inits)
        evaluations.clear()
        try:
            code = main(argv)
        except SystemExit as done:  # argparse refuses an option
            code = done.code
        except Exception as err:
            raise AssertionError(f"case {case}: {argv} raised\n{texts}") from err
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (case, argv, code, err)
        assert "Traceback" not in err, (case, argv, err)
        assert threading.active_count() == threads, (case, argv)
        assert all(count <= BUDGET for count in evaluations), (case, argv, evaluations)
        integrated += bool(evaluations)
        net_done += as_net and code == 0
        codes[code] = codes.get(code, 0) + 1
    # The cases reach the commands' work, not only their refusals, from
    # both input formats, and the solver.
    assert codes.get(0, 0) > len(cases) // 3 and len(codes) == 4, codes
    assert net_done > len(cases) // 16 and integrated > len(cases) // 8, (net_done, integrated)


def test_structured_cli_fuzz(tmp_path, capsys, evaluations, no_new_threads_or_processes):
    _fuzz(range(CASES), tmp_path, capsys, evaluations)


@pytest.mark.large
def test_structured_cli_fuzz_large(tmp_path, capsys, evaluations, no_new_threads_or_processes):
    _fuzz(range(CASES, CASES + 3000), tmp_path, capsys, evaluations)
