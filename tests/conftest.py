import random
import sys
from fractions import Fraction

import pytest

from crnlump import BisimMode, CRNError, Partition, make_crn, refine, running_example
from crnlump.core import CRN, Species, scaled_reactions
from oracle import brute_force_coarsest

NOT_ELEMENTARY = "not elementary: reactants must be one or two molecules"


def blocks_of(crn, *groups):
    """Partition from species-name strings, e.g. blocks_of(crn, "AB", "C")."""
    return Partition(
        crn.species, [[crn.by_name(name) for name in group] for group in groups]
    )


def assert_checked_alike(p):
    """``p``, a partition that the package built without the constructor's
    checks, equals, hashes as and indexes as the one that the checked
    ``Partition(species, blocks)`` builds from its blocks in reverse order,
    each block reversed."""
    q = Partition(p.species, [block[::-1] for block in p.blocks[::-1]])
    assert (p, hash(p), p.blocks, p.block_index) == (q, hash(q), q.blocks, q.block_index)


def assert_only_forward_refuses(net, reaction):
    """Forward ``refine`` of ``net`` from one block refuses with the exact
    not-elementary text naming ``reaction`` (``"reaction i (text)"``), and
    backward ``refine`` from one block equals the brute-force oracle."""
    one = Partition.trivial(net)
    with pytest.raises(CRNError) as err:
        refine(net, one, BisimMode.FORWARD)
    assert str(err.value) == f"{reaction}: {NOT_ELEMENTARY}"
    bb = BisimMode.BACKWARD
    assert refine(net, one, bb).final == brute_force_coarsest(net, one, bb)


def shuffled_chain(n, seed):
    """The chain X0 -> X1 -> ... -> X(n-1) at rate 1, with the species
    listed in a seeded random order: the deepest refinement, one pass per
    species."""
    names = [f"X{i}" for i in range(n)]
    listed = random.Random(seed).sample(names, n)
    return make_crn(listed, [({a: 1}, 1, {b: 1}) for a, b in zip(names, names[1:])])


def copies(net, k, unary=False):
    """``k`` disjoint copies of ``net``, with only its unary reactions when
    ``unary`` (a forward signature names the partner species, so copies of
    a binary reaction are not forward equivalent).  Corresponding species
    of the copies are backward equivalent."""
    n = net.n_species
    scale, rows = scaled_reactions(net)
    if unary:
        rows = [row for row in rows if sum(m for _, m in row[0]) == 1]
    return CRN(
        [Species(c * n + sp.id, f"{sp.name}{c}") for c in range(k) for sp in net.species],
        [
            (
                tuple((sid + c * n, m) for sid, m in reactants),
                Fraction(rate, scale),
                tuple((sid + c * n, m) for sid, m in products),
            )
            for c in range(k)
            for reactants, products, rate in rows
        ],
    )


def random_non_elementary(seed, n_species, n_reactions):
    """Reactant sides of zero to four molecules drawn from the first half
    of the species, so that the rest appear only as products.  A third of
    the reactant molecules come back as products: catalysts, which are in
    a monomial but not in its row."""
    rng = random.Random(seed)
    reactive = max(1, n_species // 2)
    rows = []
    for _ in range(n_reactions):
        reactants = tuple((rng.randrange(reactive), 1) for _ in range(rng.randint(0, 4)))
        products = [pair for pair in reactants if rng.random() < 1 / 3]
        products += [(rng.randrange(n_species), 1) for _ in range(rng.randint(0, 3))]
        rate = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        rows.append((reactants, rate, tuple(products)))
    return CRN([Species(i, f"S{i}") for i in range(n_species)], rows)


@pytest.fixture
def crn():
    return running_example()


@pytest.fixture
def h_o(crn):
    # {{A}, {B}, {C, E}, {D}}: the forward-aggregating partition
    return blocks_of(crn, "A", "B", "CE", "D")


@pytest.fixture
def h_e(crn):
    # {{A, B}, {C}, {D}, {E}}: the backward-aggregating partition
    return blocks_of(crn, "AB", "C", "D", "E")


@pytest.fixture
def mixed(crn):
    # {{A, B}, {C, E}, {D}}: neither forward nor backward
    return blocks_of(crn, "AB", "CE", "D")


@pytest.fixture(params=[BisimMode.FORWARD, BisimMode.BACKWARD], ids=["fb", "bb"])
def mode(request):
    return request.param


@pytest.fixture
def digit_limit():
    """Python's default limit on the digits of an int converted to or from
    text, set for one test (the environment may change it) and restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
