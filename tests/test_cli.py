import os
import subprocess
import sys
from pathlib import Path

import pytest

import crnlump
from crnlump import parse_crn, running_example, serialize_crn
from crnlump.cli import main

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
    bad = tmp_path / "bad.crn"
    bad.write_text("A + B + C -> D , 1\n")
    assert main(["validate", str(bad)]) == 1  # parse error: non-elementary
    assert "exceed multiplicity 2" in capsys.readouterr().err


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


def test_simulate_requires_inits(tmp_path, capsys):
    bare = tmp_path / "bare.crn"
    bare.write_text("A -> B , 1\n")
    assert main(["simulate", str(bare), "--t-end", "1"]) == 2


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
    net = tmp_path / "trimer.net"
    net.write_text(
        "begin species\n1 A() 1\n2 B() 0\n3 C() 0\nend species\n"
        "begin reactions\n1 1,2,2 3 1 #r\nend reactions\n"
    )
    assert main(["reduce", str(net), "--mode", "fb"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 7: reactants exceed multiplicity 2\n"


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
