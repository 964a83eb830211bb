"""Built-in networks, a combinatorial benchmark generator, and seeded
random networks for property sweeps.

The benchmark family is a substrate with ``n`` identical modification
sites, each independently in one of four states (unmodified, modified,
bound to the modifying enzyme, bound to the demodifying enzyme), plus
the two free enzymes: ``4^n + 2`` species and ``6 n 4^(n-1)`` reactions.
Site-uniform rates make permutations of site states behaviorally
equivalent, which is exactly what the forward/backward equivalences
detect, collapsing the species count to the number of state multisets
plus two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import CRN, CRNError, Multiset, Reaction, Species, make_crn
from .sim import InitialCondition

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
        for rate in (
            self.e_bind,
            self.e_unbind,
            self.e_cat,
            self.f_bind,
            self.f_unbind,
            self.f_cat,
        ):
            if rate <= 0:
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

    def config_name(config: tuple[str, ...]) -> str:
        return f"S({','.join(config)})"

    configs = list(product(_STATES, repeat=n))
    names = ["E", "F"] + [config_name(c) for c in configs]
    species = tuple(Species(i, name) for i, name in enumerate(names))
    enzyme, phosphatase = species[0], species[1]
    config_species = {c: species[2 + i] for i, c in enumerate(configs)}

    def flipped(config: tuple[str, ...], site: int, state: str) -> Species:
        return config_species[config[:site] + (state,) + config[site + 1 :]]

    reactions = []
    for config in configs:
        substrate = config_species[config]
        for site, state in enumerate(config):
            if state == "U":
                reactions.append(
                    Reaction(
                        Multiset.of(enzyme, substrate),
                        spec.e_bind,
                        Multiset.of(flipped(config, site, "UE")),
                    )
                )
            elif state == "UE":
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.e_unbind,
                        Multiset.of(enzyme, flipped(config, site, "U")),
                    )
                )
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.e_cat,
                        Multiset.of(enzyme, flipped(config, site, "P")),
                    )
                )
            elif state == "P":
                reactions.append(
                    Reaction(
                        Multiset.of(phosphatase, substrate),
                        spec.f_bind,
                        Multiset.of(flipped(config, site, "PF")),
                    )
                )
            else:  # PF
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.f_unbind,
                        Multiset.of(phosphatase, flipped(config, site, "P")),
                    )
                )
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.f_cat,
                        Multiset.of(phosphatase, flipped(config, site, "U")),
                    )
                )
    crn = CRN(species, reactions)
    unmodified = config_species[("U",) * n]
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
    species = tuple(Species(i, name) for i, name in enumerate(names))
    reactions = []
    for _ in range(n_reactions):
        if rng.random() < 0.5:
            reactants = Multiset.of(rng.choice(species))
        else:
            reactants = Multiset.of(rng.choice(species), rng.choice(species))
        products = Multiset.of(
            *(rng.choice(species) for _ in range(rng.randint(0, 3)))
        )
        rate = Fraction(rng.choice(rate_pool))
        reactions.append(Reaction(reactants, rate, products))
    return CRN(species, reactions)
