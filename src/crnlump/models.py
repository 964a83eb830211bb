"""Built-in networks, a combinatorial benchmark generator, and seeded
random networks for property sweeps.

The benchmark family is a substrate with ``n`` identical modification
sites, each independently in one of four states (unmodified, modified,
bound to the modifying enzyme, bound to the demodifying enzyme), plus
the two free enzymes: ``4^n + 2`` species and ``6 n 4^(n-1)`` reactions.
Site-uniform rates make permutations of site states behaviorally
equivalent, which is exactly what the forward/backward equivalences
detect, collapsing the species count to the number of state multisets
plus two.  Every network here is built by ``CRN(species, rows)`` from
its reactions as rows of species ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import CRN, CRNError, InitialCondition, Species, make_crn

__all__ = [
    "running_example",
    "two_state",
    "MultisiteSpec",
    "multisite",
    "multisite_block_count",
    "random_crn",
]


def running_example() -> CRN:
    """Five species, five reactions; the worked example used throughout
    the tests.  Species C/E aggregate forward, A/B aggregate backward."""
    return make_crn(
        ["A", "B", "C", "D", "E"],
        [
            ({"A": 1}, 6, {"E": 1}),
            ({"B": 1}, 6, {"D": 1}),
            ({"A": 1, "B": 1}, 2, {"C": 1}),
            ({"C": 1, "D": 1}, 5, {"C": 2, "D": 1}),
            ({"E": 1, "D": 1}, 5, {"E": 2, "D": 1}),
        ],
    )


def two_state(a1: Fraction | int, a2: Fraction | int) -> CRN:
    """Two species flipping into each other: F -> G and G -> F.

    With unequal rates the one-block partition is not a forward
    bisimulation, yet the total concentration is conserved, so the
    block-sum system exists (and is the zero ODE): lumpability strictly
    contains forward bisimilarity.
    """
    a1, a2 = Fraction(a1), Fraction(a2)
    if a1 <= 0 or a2 <= 0:
        raise ValueError("rates must be positive")
    return make_crn(
        ["F", "G"],
        [({"F": 1}, a1, {"G": 1}), ({"G": 1}, a2, {"F": 1})],
    )


# Site states: unmodified, modified, enzyme-bound, phosphatase-bound.
_STATES = ("U", "P", "UE", "PF")
# The moves of one site, per state index: (enzyme bound, rate field, new
# state index, enzyme released), each enzyme side as (species id,
# multiplicity) pairs: E is species 0, F species 1.
_E, _F = ((0, 1),), ((1, 1),)
_MOVES = (
    ((_E, "e_bind", 2, ()),),
    ((_F, "f_bind", 3, ()),),
    (((), "e_unbind", 0, _E), ((), "e_cat", 1, _E)),
    (((), "f_unbind", 1, _F), ((), "f_cat", 0, _F)),
)


@dataclass(frozen=True)
class MultisiteSpec:
    """Parameters of the multisite benchmark; rates are site-independent."""

    n_sites: int
    e_bind: Fraction = Fraction(1)
    e_unbind: Fraction = Fraction(2)
    e_cat: Fraction = Fraction(3)
    f_bind: Fraction = Fraction(4)
    f_unbind: Fraction = Fraction(5)
    f_cat: Fraction = Fraction(6)

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        rates = (self.e_bind, self.e_unbind, self.e_cat, self.f_bind, self.f_unbind, self.f_cat)
        if min(rates) <= 0:
            raise ValueError("all rates must be positive")


_REACTION_GUARD = 3_000_000
# The most sites whose 6 n 4^(n-1) reactions stay within the guard.
_MAX_SITES = max(n for n in range(1, 32) if 6 * n * 4 ** (n - 1) <= _REACTION_GUARD)


def multisite(spec: MultisiteSpec) -> tuple[CRN, InitialCondition]:
    """Fully enumerated multisite network with its initial condition.

    ``4^n + 2`` species and ``6 n 4^(n-1)`` reactions; initially all
    substrate is unmodified and both enzymes are free.
    """
    n = spec.n_sites
    # The site count is compared first: 4**n is not computed for a huge n.
    if n > _MAX_SITES:
        raise CRNError(
            f"multisite n={n} would enumerate more than {_REACTION_GUARD} reactions; "
            f"refusing (at most {_MAX_SITES} sites)"
        )

    names = ["E", "F"] + [f"S({','.join(c)})" for c in product(_STATES, repeat=n)]
    species = tuple(Species(i, name) for i, name in enumerate(names))
    # A configuration's species id is 2 plus its state indices read as a
    # base-4 number, the first site the most significant digit, so a move
    # of a site adds the change of its state times the site's weight.
    weights = [4 ** (n - 1 - site) for site in range(n)]

    def rows():
        for substrate, config in enumerate(product(range(len(_STATES)), repeat=n), start=2):
            for weight, state in zip(weights, config):
                for bound, rate, new, freed in _MOVES[state]:
                    target = substrate + (new - state) * weight
                    yield bound + ((substrate, 1),), getattr(spec, rate), freed + ((target, 1),)

    crn = CRN(species, rows())
    # The configuration with every site unmodified is species 2.
    enzyme, phosphatase, unmodified = species[:3]
    inits = InitialCondition.from_map(
        crn,
        {enzyme: Fraction(1, 2), phosphatase: Fraction(1, 3), unmodified: Fraction(1)},
    )
    return crn, inits


def multisite_block_count(n: int) -> int:
    """Expected coarsest block count: multisets of 4 site states of size n,
    plus the two enzymes."""
    return (n + 3) * (n + 2) * (n + 1) // 6 + 2


def random_crn(
    seed: int,
    n_species: int,
    n_reactions: int,
    rate_pool: tuple[Fraction | int, ...] = (1, 2, 3, Fraction(1, 2)),
) -> CRN:
    """Seed-deterministic valid network for property sweeps.

    Unary or binary reactants, up to three product molecules (possibly
    none), rates drawn from the pool.  Neither size may exceed the guard
    that :func:`multisite` applies to its reaction count.
    """
    if n_species < 1 or n_reactions < 0:
        raise ValueError("sizes must be positive")
    if max(n_species, n_reactions) > _REACTION_GUARD:
        raise CRNError(
            f"random network with {n_species} species and {n_reactions} "
            f"reactions; refusing (guard {_REACTION_GUARD})"
        )
    rng = random.Random(seed)
    if n_species <= 26:
        names = [chr(ord("A") + i) for i in range(n_species)]
    else:
        names = [f"X{i:04d}" for i in range(n_species)]
    ids = range(n_species)
    # One Fraction per pool rate, shared by the reactions that draw it.
    rates = [Fraction(rate) for rate in rate_pool]
    rows = []
    for _ in range(n_reactions):
        if rng.random() < 0.5:
            reactants = ((rng.choice(ids), 1),)
        else:
            reactants = ((rng.choice(ids), 1), (rng.choice(ids), 1))
        products = tuple((rng.choice(ids), 1) for _ in range(rng.randint(0, 3)))
        rows.append((reactants, rng.choice(rates), products))
    return CRN(tuple(Species(i, name) for i, name in enumerate(names)), rows)
