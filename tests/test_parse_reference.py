"""The native-format parser agrees with the reference parser of
``oracle``, which splits every line by bracket counting and builds the
reaction objects first: the same network, the same canonical text, the
same integer reaction list and the same error text."""

import random
from fractions import Fraction

import pytest

from crnlump import (
    MultisiteSpec,
    ParseError,
    multisite,
    parse_crn,
    random_crn,
    running_example,
    serialize_crn,
)
from crnlump import io
from crnlump.core import scaled_reactions
from oracle import reactions_of, reference_parse_crn


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as err:
        return None, str(err)


def assert_agrees(text):
    """Both parsers give equal results on ``text``, or the same error;
    returns the error text, or None."""
    parsed, error = _outcome(parse_crn, text)
    reference, reference_error = _outcome(reference_parse_crn, text)
    assert error == reference_error, text
    if error is None:
        (crn, inits), (ref, ref_inits) = parsed, reference
        # ``ref`` keeps the oracle's own Reaction objects as its view, so
        # the second line checks ``crn``'s list read through the oracle's
        # multisets.
        assert scaled_reactions(crn) == scaled_reactions(ref), text
        assert reactions_of(crn) == reactions_of(ref), text
        assert crn == ref, text
        assert serialize_crn(crn, inits) == serialize_crn(ref, ref_inits), text
    return error


def test_running_example():
    assert assert_agrees(serialize_crn(running_example())) is None


def _multisite_text(n, header):
    """The multisite text of ``n`` sites with its header as written,
    permuted or left out."""
    text = serialize_crn(*multisite(MultisiteSpec(n_sites=n)))
    first, body = text.split("\n", 1)
    if header == "permuted":
        names = first.split()[1:]
        random.Random(n).shuffle(names)
        text = "species: " + " ".join(names) + "\n" + body
    elif header == "none":
        text = body
    return text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("header", ["as written", "permuted", "none"])
def test_multisite(n, header):
    text = _multisite_text(n, header)
    assert assert_agrees(text) is None


def test_random_networks():
    for seed in range(200):
        crn = random_crn(seed, 1 + seed % 12, seed % 25)
        assert assert_agrees(serialize_crn(crn)) is None


# Species names with bracketed separators, coefficients (a zero one too)
# and repeated terms; then stray brackets, the empty side and other faults.
_TERMS = ["A", "B", "C(x)", "D[1,2]", "E{a->b}", "S(u,p)", "T(a+b)", "2A", "0A", "A + A"]
_BAD_TERMS = ["0", "(", ")", "[", "}", "F(", "G)", "H[a,", "2 B", ""]
_RATES = ["1", "2", "1/2", "0.5", "3e-1", " 7 "]
_BAD_RATES = ["0", "-1", "x", "1/0", ""]


def _pick(rng, good, bad, noise):
    return rng.choice(bad if rng.random() < noise else good)


def _side(rng, noise, count, terms=(_TERMS, _BAD_TERMS)):
    return " + ".join(_pick(rng, *terms, noise) for _ in range(count))


def _line(rng, noise, terms=(_TERMS, _BAD_TERMS)):
    kind = rng.random()
    if kind < 0.03:
        return "species: " + " ".join(rng.sample(["A", "B", "C(x)", "S(u,p)", "Z"], 3))
    if kind < 0.08:
        name = _pick(rng, ["A", "B", "S(u,p)"], ["Q", "", "A ="], noise)
        return f"init: {name} = {_pick(rng, _RATES, _BAD_RATES, noise)}"
    if kind < 0.1:
        return rng.choice(["", "   ", "# only a comment", "A + B"])
    arrow = _pick(rng, ["->"], ["-> ->", "-", ""], noise)
    comma = _pick(rng, [","], [", ,", ""], noise)
    rate = _pick(rng, _RATES, _BAD_RATES, noise)
    reactants = _side(rng, noise, rng.choice([1, 1, 1, 2]), terms)
    products = _side(rng, noise, rng.choice([1, 2, 3]), terms)
    line = f"{reactants} {arrow} {products} {comma} {rate}"
    if rng.random() < 0.2:
        line = line.replace(" ", "")
    if rng.random() < 0.2:
        line += " # " + _side(rng, noise, 2, terms)
    return line


def _pool(rng):
    """Good and bad terms for one text, a few of each, so that the parser
    meets most terms again, in other sides and on other lines.  One good
    term wraps two others in a bracket around a '+', so that they also
    appear inside a name."""
    good = rng.sample(_TERMS, 3)
    good.append(rng.choice(["W({}+{})", "V[{}+{}]", "U{{{}+{}}}"]).format(*rng.sample(_TERMS, 2)))
    return good, rng.sample(_BAD_TERMS, 2)


def _fuzz(rng, texts, pooled):
    """Parse ``texts`` random texts with both parsers; returns how many
    parsed and the distinct error kinds."""
    errors = set()
    parsed = 0
    for _ in range(texts):
        noise = rng.choice([0.0, 0.02, 0.1, 0.3])
        terms = _pool(rng) if pooled else (_TERMS, _BAD_TERMS)
        lines = [_line(rng, noise, terms) for _ in range(rng.randint(1, 8))]
        error = assert_agrees(rng.choice(["\n", "\r\n"]).join(lines))
        if error is None:
            parsed += 1
        else:
            errors.add(error.split(": ", 1)[1].split(":")[0])
    return parsed, errors


def test_fuzzed_texts():
    parsed, errors = _fuzz(random.Random(20150), 2000, pooled=False)
    # The texts reach both outcomes and many distinct errors.
    assert parsed > 300
    assert len(errors) > 10
    # Terms drawn from one small pool per text repeat across its sides and
    # lines, whole and inside brackets.
    parsed, errors = _fuzz(random.Random(20151), 2000, pooled=True)
    assert parsed > 300
    assert len(errors) > 10


def test_rate_is_checked_before_the_product_side():
    error = assert_agrees("A -> B + , x")
    assert error == "line 1: not a rational number: 'x'"


@pytest.mark.parametrize(
    "lines,error",
    [
        # A term met inside a bracket, or in the unbalanced text before an
        # arrow inside brackets, and used whole later: its fault is reported
        # with the line that uses it.
        (["F(+a) -> A , 1", "F( -> A , 1"], "line 2: expected a reaction line, got 'F( -> A , 1'"),
        (["F(+a) -> A , 1", "A -> F( , 1"], "line 2: missing rate (expected 'products , rate')"),
        (["2 B+0F(->x) -> A , 1", "2 B -> A + , 1"], "line 2: empty term in reaction side"),
        (
            ["T(a+12+b) -> A , 1", "A -> 12 , 1"],
            "line 2: species name may not start with a digit: '12'",
        ),
        (["T(a++b) -> A , 1", "B + -> A , 1"], "line 2: empty term in reaction side"),
        (["E{a->2 B} -> A , 1"], "line 1: species name contains whitespace: 'E{a->2 B}'"),
        # T(a+b) inside another bracket and outside it.
        (["T(a+b) -> X(T(a+b)) , 1", "X(T(a+b)+c) -> T(a+b) + c , 2"], None),
        (["X(T(a+b)) + T(a+b) -> T(a+b) , 1", "T(a+b)->X(T(a+b)),1"], None),
        # CRLF endings and comments.
        (["# a comment\r", "species: A B C(x)\r", "A -> B , 2 # a + b -> c\r"], None),
        (["A -> B , 1 # x\r", "species: A B\r"], None),
        (["A -> B , 1\r", "B -> A + C , 2 # C -> 3D , 1\r", "\r", "init: A = 1/2\r"], None),
        # The empty side, a zero coefficient and a repeated term, on either
        # side: an inflow and three reactant molecules are reactions too.
        (["A -> 0 , 1", "0A + B -> A , 1", "A + A -> 0A , 1", "A + A -> A + A , 1"], None),
        (["A -> 0 , 1", "0 -> A , 1"], None),
        (["A + A -> B , 1", "0A -> B , 1"], None),
        (["A + A + A -> B , 1"], None),
    ],
)
def test_terms_are_parsed_once_with_the_line_that_uses_them(lines, error):
    assert assert_agrees("\n".join(lines)) == error


def _multisite4():
    """The multisite n=4 text as lines: its header, 1536 reaction lines
    and three init lines."""
    return serialize_crn(*multisite(MultisiteSpec(n_sites=4))).splitlines()


@pytest.mark.parametrize(
    "line,error",
    [
        # A new side whose first arrow is inside brackets: cut again by the
        # scans, which find no arrow at depth zero.
        ("S(U,U->U,U) + E , 1", "expected a reaction line, got 'S(U,U->U,U) + E , 1'"),
        # A new product side whose last comma is inside brackets.
        ("E -> S(U,U,U,U", "missing rate (expected 'products , rate')"),
        ("E -> F , 1/0", "not a rational number: '1/0'"),
        ("E + F + S(U,U,U,U) -> E , 0", "rate must be positive"),
        ("E -> Q , 1", "undeclared species Q"),
    ],
)
def test_a_first_fault_on_the_last_line(line, error):
    lines = _multisite4()
    lines.append(line)
    assert assert_agrees("\n".join(lines)) == f"line {len(lines)}: {error}"


@pytest.mark.parametrize(
    "line", ["E + F + S(U,U,U,U) -> E , 1", "0 -> E , 1/2", "2E + 2F -> 0 , 3"]
)
def test_a_non_elementary_last_line_takes_the_bulk_reader(line, monkeypatch):
    # Any reactant side is read; the bulk reader no longer gives up on one
    # of no or more than two molecules.
    lines = _multisite4()
    lines.append(line)
    text = "\n".join(lines)
    assert assert_agrees(text) is None
    monkeypatch.setattr(io, "_read_lines", None)
    written = serialize_crn(parse_crn(text)[0])
    assert serialize_crn(parse_crn(written)[0]) == written


def test_a_bracketed_plus_first_met_late():
    lines = _multisite4()
    lines[0] += " T(a+b) U(x,y->z)"
    # Sides with a '+' inside brackets, and a line whose first arrow and
    # last comma are inside brackets, after 1000 plain lines.
    lines[1001:1001] = ["T(a+b) + E -> U(x,y->z) , 2", "U(x,y->z) -> T(a+b) + T(a+b) , 1/2"]
    assert len(lines) > 1003
    assert assert_agrees("\n".join(lines)) is None
    lines.append("T(a+b) -> T(a+b + E , 1")
    assert assert_agrees("\n".join(lines)) == (
        f"line {len(lines)}: missing rate (expected 'products , rate')"
    )


def test_a_comment_only_on_a_late_line():
    lines = _multisite4()
    lines[1200] += "  # E + F -> 0 , 1"
    assert assert_agrees("\n".join(lines)) is None
    lines[1300] = "# " + lines[1300]
    assert assert_agrees("\n".join(lines)) is None


def test_no_header_with_an_init_line_between_reactions():
    lines = [line for line in _multisite4()[1:] if not line.startswith("init:")]
    # Z is named by an init line only, F first by an init line and then by
    # the reaction lines after it.
    first_f = next(i for i, line in enumerate(lines) if line.startswith("F + "))
    assert first_f > 100
    lines.insert(first_f, "init: F = 1")
    lines.insert(100, "init: Z = 1/5")
    text = "\n".join(lines)
    assert assert_agrees(text) is None
    crn, inits = parse_crn(text)
    names = [sp.name for sp in crn.species]
    assert names[:2] == ["E", "S(P,P,P,U)"]
    assert names.index("Z") < names.index("F") < len(names) - 1
    assert inits.get(crn.by_name("Z")) == Fraction(1, 5)


class TestLineReaderAlone:
    """The oracle comparisons above again, with the bulk reader giving up on
    every text: the line reader alone matches the reference parser on the
    valid texts too, not only on the faulty ones that reach it."""

    @pytest.fixture(autouse=True)
    def no_bulk_reader(self, monkeypatch):
        monkeypatch.setattr(io, "_read_clean", lambda text: None)

    test_multisite = staticmethod(test_multisite)
    test_random_networks = staticmethod(test_random_networks)
    test_fuzzed_texts = staticmethod(test_fuzzed_texts)
    test_terms_are_parsed_once_with_the_line_that_uses_them = staticmethod(
        test_terms_are_parsed_once_with_the_line_that_uses_them
    )


def _written_texts():
    """Texts as :func:`serialize_crn` writes them: the running example,
    multisite n=1..5 (header as written, permuted, left out), 100 random
    networks as the benchmark's sweep builds them, and a 300-species chain
    under a shuffled header."""
    texts = [serialize_crn(running_example())]
    for n in range(1, 6):
        texts += [_multisite_text(n, header) for header in ("as written", "permuted", "none")]
    rng = random.Random(1)
    texts += [serialize_crn(random_crn(rng.getrandbits(32), 20, 40)) for _ in range(100)]
    names = [f"X{i:03d}" for i in range(300)]
    lines = [f"{a} -> {b} , 1" for a, b in zip(names, names[1:])]
    random.Random(1).shuffle(names)
    texts.append("species: " + " ".join(names) + "\n" + "\n".join(lines) + "\n")
    return texts


def _parsed(text):
    crn, inits = parse_crn(text)
    return crn.species, scaled_reactions(crn), serialize_crn(crn, inits)


def test_written_texts_take_the_bulk_reader(monkeypatch):
    texts = _written_texts()
    with monkeypatch.context() as patch:
        patch.setattr(io, "_read_clean", lambda text: None)
        by_lines = list(map(_parsed, texts))

    def refuse(text):
        raise AssertionError("the line reader was reached")

    monkeypatch.setattr(io, "_read_lines", refuse)
    assert list(map(_parsed, texts)) == by_lines


def test_a_bracketed_plus_takes_the_line_reader(monkeypatch):
    # The hand-written network of the CI's console-script run: CRLF endings,
    # a comment, names with '+', ',' and '->' inside brackets.
    text = (
        "# a hand-written network: separators inside brackets\r\n"
        "species: A B(x+y) C(a,b->c) D\r\n\r\n"
        "A + B(x+y) -> 2C(a,b->c) , 1/2\r\n"
        "C(a,b->c) -> 0 , 3   # decays\r\n"
        "2A -> D , 1\r\n"
        "D -> A + A , 1\r\n"
    )
    read = []
    read_lines = io._read_lines
    monkeypatch.setattr(io, "_read_lines", lambda text: read.append(text) or read_lines(text))
    crn, _ = parse_crn(text)
    assert read == [text]
    assert crn.n_species == 4 and crn.n_reactions == 4
    assert assert_agrees(text) is None
