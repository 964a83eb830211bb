"""The native-format parser agrees with the reference parser of
``oracle``, which splits every line by bracket counting and builds the
reaction objects first: the same network, the same canonical text, the
same integer reaction list and the same error text."""

import random

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
from crnlump.core import scaled_reactions
from oracle import reference_parse_crn


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
        # the second line checks the view ``crn`` builds from its list.
        assert scaled_reactions(crn) == scaled_reactions(ref), text
        assert crn.reactions == ref.reactions, text
        assert crn == ref, text
        assert serialize_crn(crn, inits) == serialize_crn(ref, ref_inits), text
    return error


def test_running_example():
    assert assert_agrees(serialize_crn(running_example())) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("header", ["as written", "permuted", "none"])
def test_multisite(n, header):
    text = serialize_crn(*multisite(MultisiteSpec(n_sites=n)))
    first, body = text.split("\n", 1)
    if header == "permuted":
        names = first.split()[1:]
        random.Random(n).shuffle(names)
        text = "species: " + " ".join(names) + "\n" + body
    elif header == "none":
        text = body
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


def _side(rng, noise, terms):
    return " + ".join(_pick(rng, _TERMS, _BAD_TERMS, noise) for _ in range(terms))


def _line(rng, noise):
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
    reactants = _side(rng, noise, rng.choice([1, 1, 1, 2]))
    products = _side(rng, noise, rng.choice([1, 2, 3]))
    line = f"{reactants} {arrow} {products} {comma} {rate}"
    if rng.random() < 0.2:
        line = line.replace(" ", "")
    if rng.random() < 0.2:
        line += " # " + _side(rng, noise, 2)
    return line


def test_fuzzed_texts():
    rng = random.Random(20150)
    errors = set()
    parsed = 0
    for _ in range(2000):
        noise = rng.choice([0.0, 0.02, 0.1, 0.3])
        lines = [_line(rng, noise) for _ in range(rng.randint(1, 8))]
        error = assert_agrees(rng.choice(["\n", "\r\n"]).join(lines))
        if error is None:
            parsed += 1
        else:
            errors.add(error.split(": ", 1)[1].split(":")[0])
    # The texts reach both outcomes and many distinct errors.
    assert parsed > 300
    assert len(errors) > 10


def test_rate_is_checked_before_the_product_side():
    error = assert_agrees("A -> B + , x")
    assert error == "line 1: not a rational number: 'x'"
