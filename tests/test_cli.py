import gc
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import crnlump
import crnlump.cli
from crnlump import (
    BisimMode,
    MultisiteSpec,
    Partition,
    backward_reduce,
    find_counterexample,
    format_vector_field,
    forward_reduce,
    import_bngl_net,
    is_bisimulation,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    multisite,
    parse_crn,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    serialize_crn,
    vector_field,
)
from crnlump.cli import main
from crnlump.core import format_rational, scaled_reactions
from crnlump.odes import exact_lumpability_witness, ordinary_lumpability_witness

RUNNING_WITH_INITS = """\
species: A B C D E
A -> E , 6
B -> D , 6
A + B -> C , 2
C + D -> 2C + D , 5
E + D -> 2E + D , 5
init: A = 1
init: B = 1
init: C = 1
init: D = 1
init: E = 1
"""

EXPECTED_FB = """\
species: A B C D
A -> C , 6
A + B -> C , 2
B -> D , 6
C + D -> 2C + D , 5
"""

EXPECTED_BB = """\
species: A C D E
A -> A + D , 6
A -> E , 6
2A -> A + C , 2
C + D -> 2C + D , 5
D + E -> D + 2E , 5
"""


@pytest.fixture
def model(tmp_path):
    path = tmp_path / "model.crn"
    path.write_text(RUNNING_WITH_INITS)
    return path


def test_validate_ok(model, capsys):
    assert main(["validate", str(model)]) == 0
    assert "valid: 5 species" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    # A rate that is not positive is the one violation, and both readers
    # refuse it at its line, so every network that loads is valid; an
    # inflow and three reactant molecules are valid.
    bad = tmp_path / "bad.crn"
    bad.write_text("0 -> A , 1\nA + B + C -> D , 0\n")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == "error: line 2: rate must be positive\n"
    bad_net = tmp_path / "bad.net"
    bad_net.write_text(
        "begin parameters\nk1 0\nend parameters\nbegin species\n1 A() 1\nend species\n"
        "begin reactions\n1 1 0 k1\nend reactions\n"
    )
    assert main(["validate", str(bad_net)]) == 1
    assert capsys.readouterr().err == "error: line 8: rate must be positive\n"
    good = tmp_path / "good.crn"
    good.write_text("0 -> A , 1\nA + B + C -> 2A , 1\n3B -> C , 1/2\n")
    assert main(["validate", str(good)]) == 0
    assert capsys.readouterr().out == "valid: 3 species, 3 reactions\n"


def test_missing_file_exits_1(capsys):
    assert main(["reduce", "/nonexistent/x.crn", "--mode", "fb"]) == 1


def test_reduce_forward_writes_expected_bytes(model, tmp_path, capsys):
    out = tmp_path / "red.crn"
    assert main(["reduce", str(model), "--mode", "fb", "--out", str(out)]) == 0
    assert out.read_text() == EXPECTED_FB
    report = capsys.readouterr().out
    assert "final blocks: 4" in report
    assert "block C: C E" in report


def test_reduce_backward_writes_expected_bytes(model, tmp_path):
    out = tmp_path / "red.crn"
    assert main(["reduce", str(model), "--mode", "bb", "--out", str(out)]) == 0
    assert out.read_text() == EXPECTED_BB


def test_reduce_to_stdout_with_report_on_stderr(model, capsys):
    assert main(["reduce", str(model), "--mode", "fb"]) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPECTED_FB
    assert "final blocks: 4" in captured.err


def test_reduce_emit_odes(model, capsys):
    assert main(["reduce", str(model), "--mode", "fb", "--emit-odes"]) == 0
    out = capsys.readouterr().out
    assert "C' = 6*A + 2*A*B + 5*C*D" in out


def test_reduce_with_partition_file(model, tmp_path, capsys):
    part = tmp_path / "p.txt"
    part.write_text("C, E\nA\nB\nD\n")
    out = tmp_path / "red.crn"
    assert main(["reduce", str(model), "--mode", "fb", "--partition", str(part), "--out", str(out)]) == 0
    assert out.read_text() == EXPECTED_FB


def test_reduce_bad_partition_exits_2(model, tmp_path, capsys):
    part = tmp_path / "p.txt"
    part.write_text("A, Z\n")
    assert main(["reduce", str(model), "--mode", "fb", "--partition", str(part)]) == 2
    assert "unknown species" in capsys.readouterr().err


def test_reduce_from_inits(model, tmp_path, capsys):
    out = tmp_path / "red.crn"
    assert main(["reduce", str(model), "--mode", "bb", "--from-inits", "--out", str(out)]) == 0
    assert out.read_text() == EXPECTED_BB


def test_check_forward_holds(model, tmp_path, capsys):
    part = tmp_path / "ho.txt"
    part.write_text("C, E\nA\nB\nD\n")
    assert main(["check", str(model), "--what", "bisim-fb", "--partition", str(part)]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_exact_lump_fails_with_counterexample(model, tmp_path, capsys):
    part = tmp_path / "ho.txt"
    part.write_text("C, E\nA\nB\nD\n")
    assert main(["check", str(model), "--what", "exact-lump", "--partition", str(part)]) == 1
    out = capsys.readouterr().out
    assert "fails" in out and "C" in out and "E" in out


def test_check_exact_lump_holds_on_the_backward_partition(model, tmp_path, capsys):
    part = tmp_path / "bb.txt"
    part.write_text("A, B\nC\nD\nE\n")
    assert main(["check", str(model), "--what", "exact-lump", "--partition", str(part)]) == 0
    assert capsys.readouterr().out == "exact-lump holds for Partition[{A, B} | {C} | {D} | {E}]\n"


def test_check_ord_lump_on_conserved_pair(tmp_path, capsys):
    two = tmp_path / "two.crn"
    two.write_text("F -> G , 1\nG -> F , 2\n")
    assert main(["check", str(two), "--what", "ord-lump"]) == 0
    assert main(["check", str(two), "--what", "bisim-fb"]) == 1


def test_odes_prints_field(model, capsys):
    assert main(["odes", str(model)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "A' = -6*A - 2*A*B"


def test_odes_lumped(model, capsys):
    assert main(["odes", str(model), "--mode", "bb", "--partition", "/dev/null"]) == 2


@pytest.mark.parametrize(
    "given,missing", [(["--partition", "part.txt"], "--mode"), (["--mode", "fb"], "--partition")]
)
def test_odes_partition_without_mode_or_mode_without_partition_exits_2(
    model, capsys, given, missing
):
    # Either one alone used to print the unlumped field and exit 0.
    assert main(["odes", str(model), *given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: odes: --partition and --mode go together; {missing} is missing\n"


def test_odes_lumped_backward(model, tmp_path, capsys):
    part = tmp_path / "he.txt"
    part.write_text("A, B\nC\nD\nE\n")
    assert main(["odes", str(model), "--mode", "bb", "--partition", str(part)]) == 0
    out = capsys.readouterr().out
    assert "A' = -6*A - 2*A^2" in out


def test_simulate_writes_csv(model, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(model), "--t-end", "1", "--points", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,A,B,C,D,E"
    assert len(lines) == 6


def test_simulate_without_species_writes_a_one_field_header(tmp_path, capsys):
    # Empty species and reactions blocks: every row holds only the time.
    empty = tmp_path / "empty.net"
    empty.write_text("begin species\nend species\nbegin reactions\nend reactions\n")
    assert main(["simulate", str(empty), "--t-end", "1", "--points", "3"]) == 0
    assert capsys.readouterr().out == "t\n0.0\n0.5\n1.0\n"


def test_simulate_requires_inits(tmp_path, capsys):
    bare = tmp_path / "bare.crn"
    bare.write_text("A -> B , 1\n")
    assert main(["simulate", str(bare), "--t-end", "1"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce", "--mode", "bb", "--from-inits"], "--from-inits requires initial conditions"),
        (["compare", "--mode", "fb", "--t-end", "1"],
         "no initial conditions (use --init or init: lines)"),
    ],
    ids=["reduce", "compare"],
)
def test_commands_without_initial_values_exit_2(tmp_path, capsys, argv, message):
    bare = tmp_path / "bare.crn"
    bare.write_text("A -> B , 1\n")
    assert main([argv[0], str(bare), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["simulate"], ["compare", "--mode", "fb"]])
@pytest.mark.parametrize(
    "text",
    ["A -> B , 1e400\ninit: A = 1\n", "A -> B , 1\ninit: A = 1e400\n"],
    ids=["rate", "init"],
)
def test_beyond_the_float_range_exits_3(tmp_path, capsys, command, text):
    path = tmp_path / "big.crn"
    path.write_text("species: A B\n" + text)
    assert main([command[0], str(path), *command[1:], "--t-end", "1"]) == 3
    assert "exceeds the float range" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["compare", "--mode", "fb"]])
def test_a_blow_up_exits_3_with_one_error_line(tmp_path, capsys, command):
    # X grows as e^(700 t) and leaves the float range long before t=10;
    # numpy's overflow warnings on the way are not printed.
    path = tmp_path / "blowup.crn"
    path.write_text("X -> 2X , 700\ninit: X = 1\n")
    assert main([command[0], str(path), *command[1:], "--t-end", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: integration failed at t=[^:\n]+: [^\n]+\n", captured.err)


@pytest.mark.parametrize(
    "command",
    [["simulate"], ["compare", "--mode", "fb"], ["compare", "--mode", "bb", "--from-inits"]],
    ids=" ".join,
)
def test_an_overflowing_first_derivative_scale_integrates(tmp_path, command):
    # B starts at 0, so its error scale is atol and the scaled derivative
    # overflows when the first step is chosen; the run must still end cleanly.
    path = tmp_path / "big.crn"
    path.write_text("A -> B , 1\ninit: A = 1e200\n")
    src = str(Path(crnlump.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "crnlump", command[0], str(path), *command[1:], "--t-end", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


RTOL_WARNING = (
    "warning: rtol 1e-17 is below 100 machine epsilons; using 2.220446049250313e-14\n"
)


@pytest.mark.parametrize(
    "command",
    [["simulate", "--points", "5"], ["compare", "--mode", "fb"], ["compare", "--mode", "bb"]],
    ids=lambda command: " ".join(command[:3]),
)
def test_rtol_below_100_eps_warns_in_one_line(model, capsys, command):
    # The run is the one at the clamped rtol; only the warning line is added.
    argv = [command[0], str(model), *command[1:], "--t-end", "1", "--rtol"]
    assert main([*argv, str(100 * sys.float_info.epsilon)]) == 0
    clamped = capsys.readouterr()
    assert clamped.err == ""
    # Taken after the first run, whose imports may add filters.
    filters, show = list(warnings.filters), warnings.showwarning
    assert main([*argv, "1e-17"]) == 0
    low = capsys.readouterr()
    assert low.out == clamped.out
    assert low.err == RTOL_WARNING
    assert warnings.filters == filters and warnings.showwarning is show


def test_compare_forward_passes(model, capsys):
    assert main(["compare", str(model), "--mode", "fb", "--t-end", "10", "--tol", "1e-6"]) == 0
    assert "pass" in capsys.readouterr().out


def test_compare_backward_passes(model, capsys):
    assert main(["compare", str(model), "--mode", "bb", "--t-end", "10", "--tol", "1e-6"]) == 0


def test_compare_backward_unequal_inits_exits_2(model, tmp_path, capsys):
    init = tmp_path / "init.txt"
    init.write_text("A = 1\nB = 2\n")
    assert main(["compare", str(model), "--mode", "bb", "--init", str(init), "--t-end", "1"]) == 2
    err = capsys.readouterr().err
    assert "block equality" in err


BACKWARD_WARNING = (
    "warning: backward mode with unequal initial conditions; "
    "consider --from-inits or --partition\n"
)

# Unequal, but constant on the coarsest backward bisimulation of the one
# block, {A, B} {C} {D} {E}, so that compare passes.
UNEQUAL_INITS = "A = 1\nB = 1\nC = 2\nD = 3\nE = 4\n"

WARNING_COMMANDS = [
    ["reduce", "--out", "red.crn"],
    ["compare", "--t-end", "1"],
]


def _run(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, and the text of the
    ``red.crn`` it wrote, if any."""
    code = main(argv)
    out = Path("red.crn")
    written = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, written


@pytest.mark.parametrize("command", WARNING_COMMANDS, ids=lambda command: command[0])
def test_backward_warning_on_unequal_inits(model, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    Path("init.txt").write_text(UNEQUAL_INITS)
    Path("one-block.txt").write_text("")
    argv = [command[0], str(model), "--mode", "bb", "--init", "init.txt", *command[1:]]
    # The one-block partition named in a file starts the same refinement
    # and warns of nothing.
    code, out, err, written = _run(capsys, [*argv, "--partition", "one-block.txt"])
    assert (code, err) == (0, "")
    assert _run(capsys, argv) == (code, out, BACKWARD_WARNING, written)


@pytest.mark.parametrize("command", WARNING_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize(
    "options",
    [
        ["--mode", "bb", "--init", "init.txt", "--from-inits"],
        ["--mode", "bb", "--init", "init.txt", "--partition", "blocks.txt"],
        ["--mode", "fb", "--init", "init.txt"],
        ["--mode", "bb"],
    ],
    ids=["from-inits", "partition", "fb", "constant-inits"],
)
def test_no_backward_warning(model, tmp_path, monkeypatch, capsys, command, options):
    monkeypatch.chdir(tmp_path)
    Path("init.txt").write_text(UNEQUAL_INITS)
    Path("blocks.txt").write_text("A, B\nC\nD\nE\n")
    code, _, err, _ = _run(capsys, [command[0], str(model), *options, *command[1:]])
    assert (code, err) == (0, "")


def test_compare_impossible_tolerance_fails(model, capsys):
    assert main(["compare", str(model), "--mode", "fb", "--t-end", "10", "--tol", "1e-18"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "nan"],
        ["simulate", "--t-end", "inf"],
        ["simulate", "--rtol", "nan"],
        ["compare", "--mode", "fb", "--t-end", "nan"],
        ["simulate", "--points", "0"],
        ["simulate", "--points", "-3"],
        ["simulate", "--t-end", "0"],
        ["simulate", "--points", "1000000000", "--t-end", "1"],
        ["compare", "--mode", "fb", "--tol", "nan"],
        ["compare", "--mode", "fb", "--tol", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_numeric_argument_exits_2(tmp_path, capsys, argv):
    # Each of these used to run without bound, print a traceback, or
    # report a FAIL verdict instead of rejecting the argument.
    path = tmp_path / "decay.crn"
    path.write_text("A -> B , 1\ninit: A = 1\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "multisite", "--sites", "0"],
        ["gen", "multisite", "--sites", "1000000"],
        ["gen", "multisite", "--sites", "10000000000"],
        ["gen", "random", "--species", "0"],
        ["gen", "random", "--reactions", "-1"],
        ["gen", "random", "--reactions", "1000000000"],
        ["gen", "random", "--species", "1000000000"],
        ["gen", "two-state", "--rates", "1"],
        ["gen", "two-state", "--rates", "0,1"],
        ["gen", "two-state", "--rates", "1/0,1"],
        ["gen", "two-state", "--rates", "1e99999,1"],
        ["bench", "--sites", "x"],
        ["bench", "--sites", "0"],
        ["bench", "--sites", "1000000"],
        ["bench", "--sites", "1,10000000000"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_gen_or_bench_argument_exits_2(capsys, argv):
    # Each of these used to end in a Python traceback.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --") and captured.err.count("\n") == 1


@pytest.mark.parametrize("bad", ["directory", "not-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["reduce", "{bad}", "--mode", "fb"],
        ["check", "{bad}", "--what", "bisim-fb"],
        ["odes", "{bad}"],
        ["simulate", "{bad}"],
        ["compare", "{bad}", "--mode", "fb"],
        ["reduce", "{good}", "--mode", "fb", "--partition", "{bad}"],
        ["check", "{good}", "--what", "bisim-fb", "--partition", "{bad}"],
        ["odes", "{good}", "--mode", "fb", "--partition", "{bad}"],
        ["compare", "{good}", "--mode", "fb", "--partition", "{bad}"],
        ["reduce", "{good}", "--mode", "fb", "--init", "{bad}"],
        ["simulate", "{good}", "--init", "{bad}"],
        ["compare", "{good}", "--mode", "fb", "--init", "{bad}"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unreadable_file_exits_1(tmp_path, capsys, argv, bad):
    # A directory used to end in an IsADirectoryError traceback and a file
    # that is not UTF-8 in a UnicodeDecodeError one.
    good = tmp_path / "decay.crn"
    good.write_text("A -> B , 1\ninit: A = 1\n")
    path = tmp_path / "bad"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfeA -> B , 1\n")
    assert main([arg.format(good=good, bad=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err


def test_reduce_rejects_non_elementary_net_reaction(tmp_path, capsys):
    # The importer reads the reaction; forward mode refuses it as a
    # violated precondition, and backward mode reduces the network.
    net = tmp_path / "trimer.net"
    net.write_text(
        "begin species\n1 A() 1\n2 B() 0\n3 C() 0\nend species\n"
        "begin reactions\n1 1,2,2 3 1 #r\nend reactions\n"
    )
    assert main(["reduce", str(net), "--mode", "fb"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: reaction 0 (A() + 2B() ->(1) C()): not elementary: "
        "reactants must be one or two molecules\n"
    )
    assert main(["reduce", str(net), "--mode", "bb", "--from-inits"]) == 0
    assert capsys.readouterr().out == "species: A() B() C()\nA() + 2B() -> C() , 1\n"


# Inflows and reactant sides of three molecules: backward equivalent A and
# B, whose block sum is not ordinarily lumpable (A^3 + B^3).
NON_ELEMENTARY_CRN = """\
0 -> A , 1
0 -> B , 1
3A -> C , 1
B + B + B -> C , 1
A + B + C -> 2C , 1/2
C -> 0 , 1
init: A = 1
init: B = 1
"""


@pytest.mark.parametrize(
    "argv,code,out",
    [
        (["validate"], 0, "valid: 3 species, 6 reactions\n"),
        (["check", "--what", "bisim-bb", "--partition", "{ab}"], 0,
         "bisim-bb holds for Partition[{A, B} | {C}]\n"),
        (["check", "--what", "exact-lump", "--partition", "{ab}"], 0,
         "exact-lump holds for Partition[{A, B} | {C}]\n"),
        (["check", "--what", "ord-lump", "--partition", "{ab}"], 1,
         "ord-lump fails: block sum over {A, B} changes under the shear "
         "moving mass between A and B\n"),
        (["check", "--what", "bisim-bb"], 1,
         "bisim-bb fails: A vs C: cumulative flux over reactant class {0}: "
         "A gives 1, C gives 0\n"),
        (["check", "--what", "bisim-fb", "--partition", "{singletons}"], 0,
         "bisim-fb holds for Partition[{A} | {B} | {C}]\n"),
        (["odes", "--mode", "bb", "--partition", "{ab}"], 0,
         "A' = 1 - 1/2*A^2*C - 3*A^3\nC' = 1/2*A^2*C + 2*A^3 - C\n"),
        (["odes"], 0,
         "A' = 1 - 1/2*A*B*C - 3*A^3\nB' = 1 - 1/2*A*B*C - 3*B^3\n"
         "C' = 1/2*A*B*C + A^3 + B^3 - C\n"),
    ],
    ids=["validate", "bisim-bb", "exact-lump", "ord-lump", "bisim-bb-one-block",
         "bisim-fb-singletons", "odes-bb", "odes"],
)
def test_non_elementary_network_through_the_cli(tmp_path, capsys, argv, code, out):
    model = tmp_path / "ne.crn"
    model.write_text(NON_ELEMENTARY_CRN)
    ab, singletons = tmp_path / "ab.part", tmp_path / "singletons.part"
    ab.write_text("A, B\n")
    singletons.write_text("A\nB\n")
    argv = [arg.format(ab=ab, singletons=singletons) for arg in argv]
    assert main([argv[0], str(model), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


def test_non_elementary_network_reduces_and_compares_backward_only(tmp_path, capsys):
    model = tmp_path / "ne.crn"
    model.write_text(NON_ELEMENTARY_CRN)
    assert main(["reduce", str(model), "--mode", "bb", "--from-inits"]) == 0
    report = capsys.readouterr().err
    assert "block A: A B\n" in report and "reduced: 2 species, 6 reactions" in report
    assert main(["compare", str(model), "--mode", "bb", "--from-inits", "--t-end", "1"]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("partition: 2 blocks; backward: max error ")
    assert float(summary.split("max error ")[1].split()[0]) < 1e-14
    assert main(["simulate", str(model), "--t-end", "1", "--points", "3"]) == 0
    assert capsys.readouterr().out.startswith("t,A,B,C\n0.0,1.0,1.0,0.0\n")
    not_elementary = (
        "error: reaction 0 (0 ->(1) A): not elementary: "
        "reactants must be one or two molecules\n"
    )
    for argv in (
        ["reduce", str(model), "--mode", "fb"],
        ["compare", str(model), "--mode", "fb", "--t-end", "1"],
        ["check", str(model), "--what", "bisim-fb"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", not_elementary)


HUGE_RATE_CRN = "A -> B , 1\nB -> A , 1e99999\n"
HUGE_RATE_NET = (
    "begin parameters\nk 1e3000\nend parameters\n"
    "begin species\n1 A() 1\n2 B() 0\nend species\n"
    "begin reactions\n1 1 2 k*k #r\nend reactions\n"
)


@pytest.mark.parametrize(
    "name,text,argv,line",
    [
        pytest.param("huge.crn", HUGE_RATE_CRN, ["validate"], 2, id="validate"),
        pytest.param("huge.crn", HUGE_RATE_CRN, ["reduce", "--mode", "fb"], 2, id="reduce"),
        pytest.param(
            "huge.crn", HUGE_RATE_CRN, ["check", "--what", "bisim-fb"], 2, id="check"
        ),
        pytest.param("huge.crn", "A -> B , 1\ninit: A = 1e-99999\n", ["odes"], 2, id="odes-init"),
        pytest.param("huge.net", HUGE_RATE_NET, ["reduce", "--mode", "bb"], 9, id="net-rate"),
    ],
)
def test_value_beyond_digit_limit_exits_1(tmp_path, capsys, digit_limit, name, text, argv, line):
    # Each of these used to end in a ValueError traceback from printing
    # or hashing a number with more digits than Python converts.
    path = tmp_path / name
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: number has more than {digit_limit} digits\n"


# Two rates that each fit the digit limit (4001-digit denominators) but
# whose sum does not: on two reactions into one block, or on one reaction.
_RATE_1 = f"1/{10**4000 + 1}"
_RATE_3 = f"1/{10**4000 + 3}"
SUM_INTO_BLOCK_CRN = f"A -> C , {_RATE_1}\nA -> D , {_RATE_3}\n"
SUM_ON_ONE_REACTION_CRN = f"A -> C , {_RATE_1}\nA -> C , {_RATE_3}\n"


@pytest.mark.parametrize(
    "text,argv",
    [
        pytest.param(SUM_INTO_BLOCK_CRN, ["reduce", "--mode", "fb", "--partition"], id="reduce-fb"),
        pytest.param(SUM_ON_ONE_REACTION_CRN, ["reduce", "--mode", "bb"], id="reduce-bb"),
        pytest.param(
            SUM_INTO_BLOCK_CRN, ["reduce", "--mode", "bb", "--emit-odes"], id="reduce-emit-odes"
        ),
        pytest.param(SUM_ON_ONE_REACTION_CRN, ["odes"], id="odes"),
        pytest.param(
            SUM_INTO_BLOCK_CRN, ["odes", "--mode", "fb", "--partition"], id="odes-fb"
        ),
        pytest.param(SUM_ON_ONE_REACTION_CRN, ["check", "--what", "bisim-fb"], id="check-fb"),
        pytest.param(SUM_ON_ONE_REACTION_CRN, ["check", "--what", "bisim-bb"], id="check-bb"),
    ],
)
def test_result_beyond_digit_limit_exits_2(tmp_path, capsys, digit_limit, text, argv):
    # Each of these used to end in a ValueError traceback from printing a
    # summed rate whose denominator has about 8000 digits.
    model = tmp_path / "sum.crn"
    model.write_text(text)
    part = tmp_path / "cd.txt"
    part.write_text("C, D\n")
    args = [argv[0], str(model), *argv[1:]]
    if args[-1] == "--partition":
        args.append(str(part))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot print a number with more than {digit_limit} digits\n"
    )


def test_check_ord_lump_on_multisite(tmp_path, capsys):
    crn, inits = crnlump.multisite(crnlump.MultisiteSpec(n_sites=4))
    model = tmp_path / "m4.crn"
    model.write_text(serialize_crn(crn, inits=inits))
    # the site-state partition: species with the same multiset of site states
    blocks = {}
    for sp in crn.species:
        key = tuple(sorted(sp.name[2:-1].split(","))) if sp.name.startswith("S(") else sp.name
        blocks.setdefault(key, []).append(sp.name)
    part = tmp_path / "sites.txt"
    part.write_text("".join(", ".join(b) + "\n" for b in blocks.values()))
    assert main(["check", str(model), "--what", "ord-lump", "--partition", str(part)]) == 0
    assert capsys.readouterr().out.startswith("ord-lump holds for Partition[")
    assert main(["check", str(model), "--what", "ord-lump"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ord-lump fails: block sum over {E, F, S(P,P,P,P), ")
    assert out.endswith("} changes under the shear moving mass between E and F\n")


def test_python_dash_m_runs_the_cli():
    src = str(Path(crnlump.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "crnlump", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert "usage: crnlump" in done.stdout


def test_gen_two_state_round_trips(capsys):
    assert main(["gen", "two-state", "--rates", "1,2"]) == 0
    crn, _ = parse_crn(capsys.readouterr().out)
    assert [sp.name for sp in crn.species] == ["F", "G"]


def test_gen_random_is_parseable(capsys):
    assert main(["gen", "random", "--seed", "5", "--species", "4", "--reactions", "6"]) == 0
    crn, _ = parse_crn(capsys.readouterr().out)
    assert crn.n_species <= 4 and crn.n_reactions <= 6


def test_gen_multisite_with_inits(tmp_path):
    out = tmp_path / "m1.crn"
    assert main(["gen", "multisite", "--sites", "1", "--out", str(out)]) == 0
    crn, inits = parse_crn(out.read_text())
    assert crn.n_species == 6 and crn.n_reactions == 6
    assert inits is not None


def test_bench_csv(capsys):
    assert main(["bench", "--sites", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "model,reactions,species,mode,reduced_reactions,reduced_species,refine_ms,reduce_ms"
    )
    assert len(lines) == 3
    assert lines[1].startswith("multisite-n1,6,6,fb,6,6,")


def test_net_files_are_detected_by_extension(tmp_path, capsys):
    net = tmp_path / "tiny.net"
    net.write_text(
        "begin species\n1 A() 1\n2 B() 0\nend species\n"
        "begin reactions\n1 1 2 5 #r\nend reactions\n"
    )
    assert main(["validate", str(net)]) == 0
    assert "valid: 2 species" in capsys.readouterr().out


@pytest.fixture
def gc_state():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _noting_gc(seen, run):
    """``run``, noting in ``seen`` whether gc is enabled at each call."""
    def noted(*args, **kwargs):
        seen.append(gc.isenabled())
        return run(*args, **kwargs)
    return noted


@pytest.mark.parametrize("before", [True, False], ids=["gc-on", "gc-off"])
def test_main_runs_the_exact_work_with_gc_disabled(model, monkeypatch, gc_state, before):
    seen = []
    monkeypatch.setattr(crnlump.cli, "refine", _noting_gc(seen, crnlump.cli.refine))
    (gc.enable if before else gc.disable)()
    assert main(["reduce", str(model), "--mode", "fb"]) == 0
    assert gc.isenabled() is before
    # An error leaves through the same restore.
    assert main(["reduce", str(model), "--mode", "fb", "--partition", "missing.txt"]) == 1
    assert gc.isenabled() is before
    assert seen == [False]


@pytest.mark.parametrize("before", [True, False], ids=["gc-on", "gc-off"])
def test_simulate_and_compare_integrate_with_gc_enabled(model, monkeypatch, gc_state, before):
    import crnlump.sim

    seen = []
    for name in ("integrate", "verify_forward"):
        monkeypatch.setattr(crnlump.sim, name, _noting_gc(seen, getattr(crnlump.sim, name)))
    (gc.enable if before else gc.disable)()
    assert main(["simulate", str(model), "--t-end", "1", "--points", "3"]) == 0
    assert gc.isenabled() is before
    assert main(["compare", str(model), "--mode", "fb", "--t-end", "1"]) == 0
    assert gc.isenabled() is before
    assert seen == [True, True]


def _net_text(crn, inits):
    """``crn`` as a fully enumerated ``.net`` file, species numbered from 1
    in order."""
    scale, rows = scaled_reactions(crn)

    def side(pairs):
        return ",".join(str(sid + 1) for sid, m in pairs for _ in range(m)) or "0"

    values = [format_rational(inits.get(sp)) if inits else "0" for sp in crn.species]
    return "".join(
        [
            "begin species\n",
            *(f"{i + 1} {sp.name} {v}\n" for i, (sp, v) in enumerate(zip(crn.species, values))),
            "end species\nbegin reactions\n",
            *(
                f"{i + 1} {side(r)} {side(p)} {format_rational(Fraction(rate, scale))} #r\n"
                for i, (r, p, rate) in enumerate(rows)
            ),
            "end reactions\n",
        ]
    )


def test_the_exact_pipeline_makes_no_reference_cycles(gc_state):
    # ``main`` runs its exact work with gc disabled, which costs nothing
    # only while that work leaves no cyclic garbage for a collection to free.
    gc.collect()
    gc.disable()
    nets = [(running_example(), None)]
    nets += [multisite(MultisiteSpec(n_sites=n)) for n in (1, 2, 3, 4)]
    nets += [(random_crn(seed, 3 + seed % 10, 2 + seed % 15), None) for seed in range(50)]
    witnesses = 0
    for net, inits in nets:
        crn, v0 = parse_crn(serialize_crn(net, inits))
        imported, _ = import_bngl_net(_net_text(crn, v0))
        assert imported.n_reactions == crn.n_reactions
        trivial = Partition.trivial(crn)
        fb = refine(crn, trivial, BisimMode.FORWARD).final
        bb_initial = partition_from_initial_conditions(v0) if v0 else trivial
        bb = refine(crn, bb_initial, BisimMode.BACKWARD).final
        serialize_crn(forward_reduce(crn, fb).crn)
        serialize_crn(backward_reduce(crn, bb).crn)
        for p in (trivial, fb, bb):
            for mode in BisimMode:
                is_bisimulation(crn, p, mode)
                witnesses += find_counterexample(crn, p, mode) is not None
            is_ordinarily_lumpable(crn, p)
            is_exactly_lumpable(crn, p)
            witnesses += ordinary_lumpability_witness(crn, p) is not None
            witnesses += exact_lumpability_witness(crn, p) is not None
        format_vector_field(vector_field(crn))
    assert witnesses > 100
    assert gc.collect() == 0
