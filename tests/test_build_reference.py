"""The generators, the ``.net`` importer and the printer agree with the
references of ``oracle``, which build every side and reaction as an
object first: the same network, the same integer reaction list and the
same canonical text.  Every quotient that ``test_golden`` prints has the
integer reaction list of its own reaction objects, so its L is the least
common multiple of its own rate denominators."""

from fractions import Fraction

import pytest

from crnlump import (
    CRN,
    BisimMode,
    MultisiteSpec,
    ParseError,
    Partition,
    backward_reduce,
    forward_reduce,
    import_bngl_net,
    make_crn,
    multisite,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    serialize_crn,
)
from crnlump.core import _build_scaled_reactions, scaled_reactions
from oracle import (
    reference_import_bngl_net,
    reference_multisite,
    reference_random_crn,
    reference_serialize_crn,
)
from test_io import NET_FIXTURE

FB, BB = BisimMode.FORWARD, BisimMode.BACKWARD


def assert_same(crn, ref, inits=None, ref_inits=None):
    """``crn`` and the reference network ``ref`` have equal integer
    reaction lists, reaction objects and printed texts."""
    # The integer list first: comparing the networks builds the view.
    assert scaled_reactions(crn) == _build_scaled_reactions(ref)
    text = reference_serialize_crn(ref, ref_inits)
    assert serialize_crn(crn, inits) == text
    assert serialize_crn(ref, ref_inits) == text
    assert crn == ref
    assert reference_serialize_crn(crn, inits) == text


SPECS = {
    "default": {},
    "fractional": {"e_bind": Fraction(1, 2), "f_cat": Fraction(2, 3)},
    "all fractional": {
        "e_bind": Fraction(3, 7),
        "e_unbind": Fraction(1, 10),
        "e_cat": Fraction(5, 4),
        "f_bind": Fraction(2, 9),
        "f_unbind": Fraction(7, 3),
        "f_cat": Fraction(11, 6),
    },
}


@pytest.mark.parametrize("rates", SPECS.values(), ids=SPECS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_multisite(n, rates):
    spec = MultisiteSpec(n_sites=n, **rates)
    (crn, inits), (ref, ref_inits) = multisite(spec), reference_multisite(spec)
    assert_same(crn, ref, inits, ref_inits)
    assert inits == ref_inits


def test_random_networks():
    for seed in range(300):
        # Up to 40 species, so the X0000 names above 26 species are covered.
        size = (1 + seed % 40, (7 * seed) % 45)
        assert_same(random_crn(seed, *size), reference_random_crn(seed, *size))
    pool = (Fraction(2, 3), Fraction(5, 7), 4)
    for seed in range(50):
        crn = random_crn(seed, 30, 25, rate_pool=pool)
        assert_same(crn, reference_random_crn(seed, 30, 25, rate_pool=pool))


def test_random_networks_merge_repeated_species():
    # Binary draws of one species give 2A; the merge is what the list keys.
    crn = random_crn(1, 2, 40)
    assert any(m == 2 for lhs, _, _ in scaled_reactions(crn)[1] for _, m in lhs)
    assert_same(crn, reference_random_crn(1, 2, 40))


NET_TEXTS = [
    NET_FIXTURE,
    "begin species\n1 A() 1\n2 B() 0\nend species\n"
    "begin reactions\n1 1 2 5 #r\nend reactions\n",
    "begin species\n1 A() 1\n2 B() 0\n3 C() 0\nend species\n"
    "begin reactions\n1 1,1 2,2,3 1/2 #r\n2 1,2 0 3 #r\n3 3 1,3 2 #r\nend reactions\n",
    "begin species\n1 A() 1\nend species\nbegin reactions\nend reactions\n",
    "begin species\n1 A() 1\nend species\n"
    "begin reactions\n1 1 9 2 #r\nend reactions\n",
    "begin species\n1 A() 1\n2 B() 0\nend species\n"
    "begin reactions\n1 1 2 kp1/2 #r\nend reactions\n",
    "begin parameters\n1 k 1\nend parameters\n",
    "begin species\n2 A() 1\nend species\nbegin reactions\nend reactions\n",
    "begin species\n1 A() 1\nend species\n"
    "begin reactions\n1 0 1 1 #r\nend reactions\n",
    "begin species\n1 A() 1\n2 B() 0\n3 C() 0\nend species\n"
    "begin reactions\n1 1,2,2 3 1 #r\nend reactions\n",
]


@pytest.mark.parametrize("text", NET_TEXTS)
def test_net_import(text):
    try:
        ref, ref_inits = reference_import_bngl_net(text)
    except ParseError as err:
        with pytest.raises(ParseError) as raised:
            import_bngl_net(text)
        assert str(raised.value) == str(err)
        return
    crn, inits = import_bngl_net(text)
    assert_same(crn, ref, inits, ref_inits)
    assert inits == ref_inits


def _golden_quotients():
    """The quotients whose printed texts ``test_golden`` digests, in its order."""

    def reduce(crn, initial, mode):
        reducer = forward_reduce if mode is FB else backward_reduce
        return reducer(crn, refine(crn, initial, mode).final).crn

    for seed in range(300):
        net = random_crn(seed, 3 + seed % 10, 2 + seed % 17)
        for mode in (FB, BB):
            yield reduce(net, Partition.trivial(net), mode)
    for n in range(1, 6):
        net, inits = multisite(MultisiteSpec(n_sites=n))
        yield reduce(net, Partition.trivial(net), FB)
        yield reduce(net, Partition.trivial(net), BB)
        yield reduce(net, partition_from_initial_conditions(inits), BB)
    net = running_example()
    for mode in (FB, BB):
        yield reduce(net, Partition.trivial(net), mode)


def _own_list(q):
    return _build_scaled_reactions(CRN(q.species, q.reactions))


def test_quotients_scale_by_their_own_denominators():
    # The printed bytes cannot tell a quotient list scaled by the original
    # network's L from one scaled by its own.
    count = 0
    for q in _golden_quotients():
        assert scaled_reactions(q) == _own_list(q)
        count += 1
    assert count == 617


@pytest.mark.parametrize("mode", [FB, BB], ids=["fb", "bb"])
def test_a_quotient_that_loses_a_denominator_drops_it_from_its_scale(mode):
    # No golden quotient loses every rate with some denominator.  Here one
    # reaction is listed twice (a .net file lists it once per rule that
    # makes it), the halves fuse into A -> B , 1, and the quotient's L is 1.
    net = make_crn(["A", "B"], [({"A": 1}, "1/2", {"B": 1})] * 2)
    reducer = forward_reduce if mode is FB else backward_reduce
    q = reducer(net, refine(net, Partition.trivial(net), mode).final).crn
    assert serialize_crn(q) == "species: A B\nA -> B , 1\n"
    assert scaled_reactions(q) == _own_list(q) == (1, ((((0, 1),), ((1, 1),), 1),))
