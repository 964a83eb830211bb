import random as _random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
import sympy

from crnlump import (
    BisimMode,
    CRNError,
    MultisiteSpec,
    NotLumpableError,
    Partition,
    Polynomial,
    backward_reduce,
    format_polynomial,
    find_counterexample,
    format_vector_field,
    forward_reduce,
    is_bisimulation,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    lumped_field_backward,
    lumped_field_forward,
    make_crn,
    multisite,
    partition_from_initial_conditions,
    refine,
    two_state,
    vector_field,
)
from conftest import blocks_of, copies, random_non_elementary
import crnlump.bisim
from crnlump import odes
from crnlump.core import CRN, Species, flux_table, scaled_reactions
from crnlump.models import random_crn
from crnlump.odes import exact_lumpability_witness, ordinary_lumpability_witness
from oracle import (
    accretion_depletion,
    brute_force_coarsest,
    partitions_refining,
    reactions_of,
    reference_exact_witness,
    reference_merged_components,
    reference_shear_witness,
)

F = Fraction


def poly(*terms):
    """Polynomial from (coefficient, ((var, exp), ...)) pairs."""
    return Polynomial({mono: F(c) for c, mono in terms})


def add_terms(acc, p, sign=1):
    """Add ``sign`` times the terms of ``p`` into the term map ``acc``."""
    for mono, coef in p.terms.items():
        acc[mono] = acc.get(mono, 0) + sign * coef


@pytest.fixture
def non_elementary():
    # Reactions with three reactant molecules: every check and lumped
    # field reads them, as backward bisimulation does; only forward
    # bisimulation refuses them.
    return make_crn(
        ["A", "B", "C", "D"],
        [
            ({"A": 3}, 1, {"B": 1}),
            ({"B": 3}, 1, {"A": 1}),
            ({"A": 1, "B": 1, "C": 1}, 2, {"D": 1}),
            ({"D": 1}, F(1, 2), {"A": 1, "C": 1}),
        ],
    )


# ---------------------------------------------------------------------------
# Independent sympy oracles


def _sympy_field(crn):
    vs = sympy.symbols(f"v0:{crn.n_species}")
    if crn.n_species == 1:
        vs = (vs,) if not isinstance(vs, tuple) else vs
    comps = {}
    for sp in crn.species:
        expr = sympy.Integer(0)
        for rxn in reactions_of(crn):
            net = rxn.products.get(sp) - rxn.reactants.get(sp)
            if net == 0:
                continue
            mono = sympy.Integer(1)
            for other, mult in rxn.reactants:
                mono *= vs[other.id] ** mult
            expr += net * sympy.Rational(rxn.rate.numerator, rxn.rate.denominator) * mono
        comps[sp] = sympy.expand(expr)
    return vs, comps


def _sympy_poly(poly, values):
    """A Polynomial as a sympy expression, variable i replaced by values[i]."""
    expr = sympy.Integer(0)
    for mono, coef in poly.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for var, exp in mono:
            term *= values[var] ** exp
        expr += term
    return expr


def sympy_exactly_lumpable(crn, p):
    vs, comps = _sympy_field(crn)
    subs = {vs[sp.id]: vs[p.representative(sp).id] for sp in crn.species}
    for block in p.blocks:
        ref = comps[block[0]].subs(subs, simultaneous=True)
        for sp in block[1:]:
            if sympy.expand(comps[sp].subs(subs, simultaneous=True) - ref) != 0:
                return False
    return True


def sympy_ordinarily_lumpable(crn, p):
    """None when every block sum is invariant under every consecutive
    within-block shear, else the first ``(block index, (i, j))`` whose sum
    changes, with shear pairs in block order outermost."""
    t = sympy.Symbol("t")
    vs, comps = _sympy_field(crn)
    sums = [sympy.expand(sum((comps[sp] for sp in block), sympy.Integer(0))) for block in p.blocks]
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            shear = {vs[a.id]: vs[a.id] + t, vs[b.id]: vs[b.id] - t}
            for block_idx, s in enumerate(sums):
                if sympy.expand(s.subs(shear, simultaneous=True) - s) != 0:
                    return block_idx, (a.id, b.id)
    return None


# ---------------------------------------------------------------------------
# Polynomial arithmetic


class TestPolynomial:
    def test_zero_coefficients_never_stored(self):
        p = Polynomial({((0, 1),): F(0)})
        assert p.is_zero() and p.terms == {}

    def test_evaluate(self):
        p = poly((2, ((0, 1), (1, 1))), (-6, ((0, 1),)))
        assert p.evaluate({0: F(3), 1: F(1, 2)}) == 2 * 3 * F(1, 2) - 18


class TestFormatting:
    def test_polynomial_text(self):
        p = poly((-6, ((0, 1),)), (-2, ((0, 1), (1, 1))))
        assert format_polynomial(p, ["A", "B"]) == "-6*A - 2*A*B"
        assert format_polynomial(Polynomial.zero()) == "0"
        assert format_polynomial(poly((F(1, 2), ((0, 2),))), ["A"]) == "1/2*A^2"
        assert format_polynomial(poly((1, ()),)) == "1"

    def test_vector_field_text(self, crn):
        text = format_vector_field(vector_field(crn))
        assert text.splitlines()[0] == "A' = -6*A - 2*A*B"
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Vector field construction


class TestVectorField:
    def test_running_example_components(self, crn):
        # frozen from the worked ODE system of the five-reaction model
        vf = vector_field(crn)
        A, B, C, D, E = range(5)
        assert vf.components[crn.by_name("A")] == poly(
            (-6, ((A, 1),)), (-2, ((A, 1), (B, 1)))
        )
        assert vf.components[crn.by_name("B")] == poly(
            (-6, ((B, 1),)), (-2, ((A, 1), (B, 1)))
        )
        assert vf.components[crn.by_name("C")] == poly(
            (2, ((A, 1), (B, 1))), (5, ((C, 1), (D, 1)))
        )
        assert vf.components[crn.by_name("D")] == poly((6, ((B, 1),)))
        assert vf.components[crn.by_name("E")] == poly(
            (6, ((A, 1),)), (5, ((D, 1), (E, 1)))
        )

    def test_reaction_free_network_has_zero_field(self):
        net = make_crn(["A", "B"], [])
        vf = vector_field(net)
        assert all(p.is_zero() for p in vf.components.values())

    def test_two_state_field(self):
        net = two_state(F(3, 2), 4)
        vf = vector_field(net)
        f, g = net.by_name("F"), net.by_name("G")
        assert vf.components[f] == poly((F(-3, 2), ((0, 1),)), (4, ((1, 1),)))
        assert vf.components[g] == poly((F(3, 2), ((0, 1),)), (-4, ((1, 1),)))

    def test_matches_sympy_on_random_networks(self):
        # Elementary and non-elementary networks, the latter with inflows
        # (an empty reactant multiset) and keys of three or more molecules,
        # and the multisite family at n=2.
        nets = [random_crn(seed, 4, 8) for seed in range(10)]
        nets += [random_non_elementary(seed, 6, 8) for seed in range(10)]
        nets.append(multisite(MultisiteSpec(n_sites=2))[0])
        sizes = {sum(m for _, m in key) for net in nets for key in flux_table(net)[1]}
        assert {0, 3} <= sizes
        for net in nets:
            vf = vector_field(net)
            vs, comps = _sympy_field(net)
            for sp in net.species:
                mine = _sympy_poly(vf.components[sp], vs)
                assert sympy.expand(mine - comps[sp]) == 0


class TestAccretionDepletion:
    def test_binary_reaction(self, crn):
        # A + B ->(2) C seen from C: gains 2*V_A*V_B, loses nothing
        rxn = next(r for r in reactions_of(crn) if r.reactants.total == 2 and r.rate == 2)
        accr, depl = accretion_depletion(rxn, crn.by_name("C"))
        assert accr == poly((2, ((0, 1), (1, 1))))
        assert depl.is_zero()

    def test_absent_species(self, crn):
        rxn = reactions_of(crn)[0]  # A ->(6) E
        accr, depl = accretion_depletion(rxn, crn.by_name("D"))
        assert accr.is_zero() and depl.is_zero()

    def test_consumed_species(self, crn):
        rxn = reactions_of(crn)[0]  # A ->(6) E seen from A
        accr, depl = accretion_depletion(rxn, crn.by_name("A"))
        assert accr.is_zero()
        assert depl == poly((6, ((0, 1),)))

    def test_decomposition_identity(self):
        for seed in range(10):
            net = random_crn(seed, 4, 9)
            vf = vector_field(net)
            for sp in net.species:
                total = {}
                for rxn in reactions_of(net):
                    accr, depl = accretion_depletion(rxn, sp)
                    add_terms(total, accr)
                    add_terms(total, depl, -1)
                assert Polynomial(total) == vf.components[sp]


# ---------------------------------------------------------------------------
# Lumpability checks


class TestExactLumpability:
    def test_backward_partition_is_exact(self, crn, h_e):
        assert is_exactly_lumpable(crn, h_e)

    def test_forward_partition_is_not_exact(self, crn, h_o):
        assert not is_exactly_lumpable(crn, h_o)
        witness = exact_lumpability_witness(crn, h_o)
        assert {sp.name for sp in witness} == {"C", "E"}

    def test_discrete_is_exact(self, crn):
        assert is_exactly_lumpable(crn, Partition.discrete(crn))

    def test_agrees_with_sympy(self, crn, h_o, h_e, mixed):
        for p in (h_o, h_e, mixed, Partition.trivial(crn), Partition.discrete(crn)):
            assert is_exactly_lumpable(crn, p) == sympy_exactly_lumpable(crn, p)

    def test_agrees_with_sympy_on_random_networks(self):
        verdicts = set()
        for seed in range(6):
            net = random_crn(seed, 4, 6)
            for p in partitions_refining(Partition.trivial(net)):
                verdict = is_exactly_lumpable(net, p)
                assert verdict == sympy_exactly_lumpable(net, p)
                verdicts.add(verdict)
        assert verdicts == {True, False}


def test_exact_lumpability_formats_no_witness(monkeypatch):
    # The exact check reads the pair of the backward decision; only
    # find_counterexample formats the witness text, which lists and sorts
    # every reactant multiset of a class.
    net, _ = multisite(MultisiteSpec(n_sites=3))
    one = Partition.trivial(net)
    pair = find_counterexample(net, one, BisimMode.BACKWARD)[:2]

    def refuse(*_args):
        raise AssertionError("a witness text was built")

    monkeypatch.setattr(crnlump.bisim._Backward, "witness", refuse)
    assert is_exactly_lumpable(net, one) is False
    assert exact_lumpability_witness(net, one) == pair
    assert not is_bisimulation(net, one, BisimMode.BACKWARD)
    with pytest.raises(AssertionError, match="^a witness text was built$"):
        find_counterexample(net, one, BisimMode.BACKWARD)


def test_decisions_build_no_polynomial(monkeypatch, crn, h_o, h_e, mixed):
    # The decisions read the integer flux table; only printing builds
    # Polynomials or Fractions.
    net, inits = multisite(MultisiteSpec(n_sites=3))
    cases = [(crn, p) for p in (h_o, h_e, mixed, Partition.trivial(crn))]
    cases += [
        (net, refine(net, Partition.trivial(net), BisimMode.FORWARD).final),
        (net, refine(net, partition_from_initial_conditions(inits), BisimMode.BACKWARD).final),
        (net, Partition.trivial(net)),
    ]

    def refuse(*_args):
        raise AssertionError("a Polynomial or Fraction was built")

    with monkeypatch.context() as patch:
        patch.setattr(odes.Polynomial, "__init__", refuse)
        patch.setattr(odes, "Fraction", refuse)
        verdicts = [
            (is_exactly_lumpable(net, p), is_ordinarily_lumpable(net, p)) for net, p in cases
        ]
        witnesses = [
            (
                exact_lumpability_witness(net, p) is None,
                ordinary_lumpability_witness(net, p) is None,
            )
            for net, p in cases
        ]
    expected = [(False, True), (True, False), (False, False), (False, False)]
    expected += [(True, True), (True, True), (False, False)]
    assert verdicts == witnesses == expected


class TestOrdinaryLumpability:
    def test_conserved_pair_is_lumpable_without_being_forward(self):
        net = two_state(1, 2)
        one = Partition.trivial(net)
        assert not is_bisimulation(net, one, BisimMode.FORWARD)
        assert is_ordinarily_lumpable(net, one)
        lumped = lumped_field_forward(net, one)
        assert lumped.components[lumped.species[0]].is_zero()

    def test_forward_partition_is_lumpable(self, crn, h_o):
        assert is_ordinarily_lumpable(crn, h_o)

    def test_mixed_partition_is_not(self, crn, mixed):
        assert not is_ordinarily_lumpable(crn, mixed)

    def test_discrete_is_lumpable(self, crn):
        assert is_ordinarily_lumpable(crn, Partition.discrete(crn))

    def test_agrees_with_sympy(self, crn, h_o, h_e, mixed):
        for p in (h_o, h_e, mixed, Partition.trivial(crn), Partition.discrete(crn)):
            assert is_ordinarily_lumpable(crn, p) == (sympy_ordinarily_lumpable(crn, p) is None)

    def test_agrees_with_sympy_on_random_networks(self):
        for seed in range(6):
            net = random_crn(seed, 4, 6)
            for p in partitions_refining(Partition.trivial(net)):
                assert is_ordinarily_lumpable(net, p) == (
                    sympy_ordinarily_lumpable(net, p) is None
                )

    def test_witness_is_first_sum_changed_by_a_shear(self, crn, h_o, h_e, mixed):
        # The witness names the same shear and block as substituting the
        # shear in sympy, scanning pairs outermost and blocks innermost.
        cases = [
            (crn, p)
            for p in (h_o, h_e, mixed, Partition.trivial(crn), Partition.discrete(crn))
        ]
        # Seed 9 has a partition whose first changed sum depends on which
        # loop is outermost; the homodimer sums hold squares, as (A + B)^2.
        nets = [random_crn(seed, 4, 6) for seed in (*range(6), 9)]
        nets.append(
            make_crn(
                ["A", "B", "C"],
                [({"A": 2}, 1, {"C": 1}), ({"A": 1, "B": 1}, 2, {"C": 1}), ({"B": 2}, 1, {"C": 1})],
            )
        )
        for net in nets:
            cases.extend((net, p) for p in partitions_refining(Partition.trivial(net)))
        failing = 0
        for net, p in cases:
            expected = sympy_ordinarily_lumpable(net, p)
            assert ordinary_lumpability_witness(net, p) == expected
            failing += expected is not None
        assert 0 < failing < len(cases)

    def test_block_sum_is_constant_on_fibers(self, crn, h_o):
        # definitional sanity: equal block sums give equal component sums
        rng = _random.Random(3)
        vf = vector_field(crn)
        sums = []
        for block in h_o.blocks:
            total = {}
            for sp in block:
                add_terms(total, vf.components[sp])
            sums.append(Polynomial(total))
        for _ in range(25):
            v = {i: F(rng.randint(0, 9), rng.randint(1, 4)) for i in range(5)}
            w = dict(v)
            # move mass between C (id 2) and E (id 4): same block sums
            shift = F(rng.randint(-3, 3), rng.randint(1, 3))
            w[2], w[4] = v[2] + shift, v[4] - shift
            for s in sums:
                assert s.evaluate(v) == s.evaluate(w)


class TestLumpedFields:
    def test_forward_block_sum_field(self, crn, h_o):
        lumped = lumped_field_forward(crn, h_o)
        assert [sp.name for sp in lumped.species] == ["A", "B", "C", "D"]
        A, B, CE, D = range(4)
        # frozen from the block-sum ODEs of the worked example
        assert lumped.components[lumped.species[CE]] == poly(
            (2, ((A, 1), (B, 1))), (6, ((A, 1),)), (5, ((CE, 1), (D, 1)))
        )
        assert lumped.components[lumped.species[A]] == poly(
            (-6, ((A, 1),)), (-2, ((A, 1), (B, 1)))
        )
        assert lumped.components[lumped.species[D]] == poly((6, ((B, 1),)))

    def test_forward_discrete_partition_returns_original(self, crn):
        lumped = lumped_field_forward(crn, Partition.discrete(crn))
        original = vector_field(crn)
        for idx, sp in enumerate(crn.species):
            assert lumped.components[lumped.species[idx]] == original.components[sp]

    def test_forward_rejects_non_lumpable(self, crn, mixed):
        with pytest.raises(NotLumpableError):
            lumped_field_forward(crn, mixed)

    def test_backward_representative_field(self, crn, h_e):
        lumped = lumped_field_backward(crn, h_e)
        assert [sp.name for sp in lumped.species] == ["A", "C", "D", "E"]
        A, C, D, E = range(4)
        # frozen from the representative ODEs of the worked example
        assert lumped.components[lumped.species[A]] == poly(
            (-6, ((A, 1),)), (-2, ((A, 2),))
        )
        assert lumped.components[lumped.species[C]] == poly(
            (2, ((A, 2),)), (5, ((C, 1), (D, 1)))
        )
        assert lumped.components[lumped.species[D]] == poly((6, ((A, 1),)))
        assert lumped.components[lumped.species[E]] == poly(
            (6, ((A, 1),)), (5, ((D, 1), (E, 1)))
        )

    def test_backward_discrete_partition_returns_original(self, crn):
        lumped = lumped_field_backward(crn, Partition.discrete(crn))
        original = vector_field(crn)
        for idx, sp in enumerate(crn.species):
            assert lumped.components[lumped.species[idx]] == original.components[sp]

    def test_backward_rejects_non_lumpable(self, crn, h_o):
        with pytest.raises(NotLumpableError):
            lumped_field_backward(crn, h_o)

    def test_backward_lifts_each_key_once(self, monkeypatch):
        # The fold that decides a partition that refine did not certify is
        # the lumped field, and a certified partition is folded once: each
        # flux-table key is lifted to blocks once.
        net, inits = multisite(MultisiteSpec(n_sites=3))
        bb = refine(net, partition_from_initial_conditions(inits), BisimMode.BACKWARD).final
        twin = multisite(MultisiteSpec(n_sites=3))[0]
        undecided = Partition(twin.species, bb.blocks)
        lift, lifted = crnlump.bisim._lift, Counter()

        def counting(pairs, index):
            lifted[pairs] += 1
            return lift(pairs, index)

        for module in (crnlump.bisim, odes):
            monkeypatch.setattr(module, "_lift", counting)
        fields = []
        for network, p in ((twin, undecided), (net, bb)):
            lifted.clear()
            fields.append(lumped_field_backward(network, p))
            assert lifted == Counter(flux_table(network)[1])
        assert fields[0] == fields[1]

    def test_forward_field_equals_block_sums_after_substitution(self, crn, h_o):
        # plug the block-sum polynomials into the lumped field and compare
        # against the summed original components, in original variables
        lumped = lumped_field_forward(crn, h_o)
        vs, comps = _sympy_field(crn)
        block_sums = [sum(vs[sp.id] for sp in block) for block in h_o.blocks]
        for idx, block in enumerate(h_o.blocks):
            plugged = _sympy_poly(lumped.components[lumped.species[idx]], block_sums)
            direct = sum((comps[sp] for sp in block), sympy.Integer(0))
            assert sympy.expand(plugged - direct) == 0


class TestNonElementary:
    def test_network_is_not_elementary(self, non_elementary):
        # Forward bisimulation refuses the network; backward bisimulation,
        # which is exact lumpability, decides it.
        net = non_elementary
        one = Partition.trivial(net)
        with pytest.raises(CRNError) as err:
            refine(net, one, BisimMode.FORWARD)
        assert str(err.value) == (
            "reaction 0 (3A ->(1) B): not elementary: reactants must be one or two molecules"
        )
        bb = refine(net, one, BisimMode.BACKWARD).final
        assert bb == brute_force_coarsest(net, one, BisimMode.BACKWARD)
        assert is_exactly_lumpable(net, bb) and not is_exactly_lumpable(net, one)

    def test_checks_agree_with_sympy(self, non_elementary):
        net = non_elementary
        exact, ordinary = set(), set()
        for p in partitions_refining(Partition.trivial(net)):
            verdict = is_exactly_lumpable(net, p)
            assert verdict == sympy_exactly_lumpable(net, p)
            exact.add(verdict)
            witness = ordinary_lumpability_witness(net, p)
            assert witness == sympy_ordinarily_lumpable(net, p)
            ordinary.add(witness is None)
        assert exact == ordinary == {True, False}

    def test_lumped_fields_agree_with_sympy(self, non_elementary):
        net = non_elementary
        vs, comps = _sympy_field(net)
        for p in partitions_refining(Partition.trivial(net)):
            if is_ordinarily_lumpable(net, p):
                lumped = lumped_field_forward(net, p)
                block_sums = [sum(vs[sp.id] for sp in block) for block in p.blocks]
                for idx, block in enumerate(p.blocks):
                    plugged = _sympy_poly(lumped.components[lumped.species[idx]], block_sums)
                    direct = sum((comps[sp] for sp in block), sympy.Integer(0))
                    assert sympy.expand(plugged - direct) == 0
            if is_exactly_lumpable(net, p):
                lumped = lumped_field_backward(net, p)
                ws = sympy.symbols(f"w0:{p.n_blocks}")
                merge = {vs[sp.id]: ws[p.block_index[sp.id]] for sp in net.species}
                for idx, block in enumerate(p.blocks):
                    mine = _sympy_poly(lumped.components[lumped.species[idx]], ws)
                    expected = comps[block[0]].subs(merge, simultaneous=True)
                    assert sympy.expand(mine - expected) == 0


# ---------------------------------------------------------------------------
# The checks read only the terms that a block of two or more species changes


def mixed_partition(net, rng):
    """Some species as singletons, the others in a few larger blocks."""
    ids = list(net.species)
    rng.shuffle(ids)
    singles = rng.randint(1, len(ids) - 2)
    rest = ids[singles:]
    k = rng.randint(1, max(1, len(rest) // 2))
    blocks = [[sp] for sp in ids[:singles]] + [rest[i::k] for i in range(k)]
    return Partition(net.species, blocks)


def full_table_witnesses(net, p):
    """Both witnesses as computed from every term of the flux table, the
    exact one by the reference that merges components."""
    ordinary = odes._shear_witness(odes._block_sums(net, p)[1], p, odes._shared(p))
    return ordinary, reference_exact_witness(net, p)


class TestRestrictedChecks:
    def test_witnesses_equal_the_full_table_references(self):
        rng = _random.Random(5)
        cases = []
        for seed in range(40):
            net = random_crn(seed, 6 + seed % 7, 8 + seed % 11)
            cases.append((net, mixed_partition(net, rng)))
            for mode in BisimMode:
                cases.append((net, refine(net, Partition.trivial(net), mode).final))
        for seed in range(40):
            net = random_non_elementary(seed, 6 + seed % 5, 5 + seed % 9)
            cases.append((net, mixed_partition(net, rng)))
            # The product-only species, in one block, move no sum.
            reactive = max(1, net.n_species // 2)
            blocks = [[sp] for sp in net.species[:reactive]] + [net.species[reactive:]]
            cases.append((net, Partition(net.species, blocks)))
            # Corresponding species of two disjoint copies are backward
            # equivalent, so the partition is exactly lumpable.
            twice, n = copies(net, 2), net.n_species
            pairs = [[twice.species[i], twice.species[i + n]] for i in range(n)]
            cases.append((twice, Partition(twice.species, pairs)))
        holds = {"ordinary": set(), "exact": set()}
        for net, p in cases:
            ordinary, exact = full_table_witnesses(net, p)
            assert ordinary_lumpability_witness(net, p) == ordinary
            assert exact_lumpability_witness(net, p) == exact
            holds["ordinary"].add(ordinary is None)
            holds["exact"].add(exact is None)
        assert holds == {"ordinary": {True, False}, "exact": {True, False}}

    def test_a_singleton_sum_is_the_witness(self):
        # Shearing A against B moves C' = A - C*D against D' = B - C*D, so
        # the sum over the singleton {C} changes; a restriction that kept
        # only the sums of blocks of two or more would miss it.
        net = make_crn(
            ["A", "B", "C", "D", "E"],
            [({"A": 1}, 1, {"C": 1}), ({"B": 1}, 1, {"D": 1}), ({"C": 1, "D": 1}, 1, {"E": 1})],
        )
        p = blocks_of(net, "AB", "C", "D", "E")
        assert ordinary_lumpability_witness(net, p) == (1, (0, 1))
        assert full_table_witnesses(net, p)[0] == (1, (0, 1))
        assert exact_lumpability_witness(net, p) is None

    def test_a_catalyst_in_a_block_moves_the_sums_it_multiplies(self):
        # A catalyses C -> D: the row of A*C holds C and D but not A, yet
        # the sums over {C} and {D} change under the shear of A against B.
        net = make_crn(["A", "B", "C", "D"], [({"A": 1, "C": 1}, 1, {"A": 1, "D": 1})])
        p = blocks_of(net, "AB", "C", "D")
        assert ordinary_lumpability_witness(net, p) == (1, (0, 1))
        assert full_table_witnesses(net, p)[0] == (1, (0, 1))

    def test_singleton_partitions_build_no_flux_table(self, crn):
        for net in (crn, random_crn(3, 8, 12), random_non_elementary(3, 8, 12)):
            p = Partition.discrete(net)
            assert ordinary_lumpability_witness(net, p) is None
            assert exact_lumpability_witness(net, p) is None
            assert is_ordinarily_lumpable(net, p) and is_exactly_lumpable(net, p)
            for mode in BisimMode:
                assert is_bisimulation(net, p, mode)
                assert find_counterexample(net, p, mode) is None
            assert net._flux is None


def split_species(net, k):
    """``net`` with every species split into ``k`` copies, and the
    partition into each species' copies.  A reaction becomes one reaction
    per multiset of copies its reactant molecules can take, its rate times
    the number of ways to take it, with its products on the first copy.
    So the block sums are ``net``'s field in the block-sum variables, with
    squares such as ``(A_0 + A_1)^2``, and the partition is ordinarily
    lumpable."""
    species = [
        Species(k * i + c, f"{sp.name}_{c}") for i, sp in enumerate(net.species) for c in range(k)
    ]
    scale, rows = scaled_reactions(net)
    split = []
    for reactants, products, value in rows:
        molecules = [sid for sid, m in reactants for _ in range(m)]
        ways = Counter(
            tuple(sorted(k * sid + c for sid, c in zip(molecules, taken)))
            for taken in product(range(k), repeat=len(molecules))
        )
        for side, count in ways.items():
            split.append((
                tuple((sid, 1) for sid in side),
                F(value * count, scale),
                tuple((k * sid, m) for sid, m in products),
            ))
    blocks = [species[k * i : k * i + k] for i in range(net.n_species)]
    return CRN(species, split), Partition(species, blocks)


class TestSignatureWitness:
    def test_equals_the_pairwise_reference_beyond_sympy(self):
        # The multisite family under its coarsest forward partition and
        # under that partition with two blocks merged, and 300 random
        # networks, half of them non-elementary (squares, cubes and
        # reactant sides of up to four molecules) under mixed partitions
        # whose larger blocks often hold three or more species.
        rng = _random.Random(35)
        cases = []
        for n in range(1, 5):
            net = multisite(MultisiteSpec(n_sites=n))[0]
            fb = refine(net, Partition.trivial(net), BisimMode.FORWARD).final
            blocks = list(fb.blocks)
            i, j = sorted(rng.sample(range(len(blocks)), 2))
            merged = [*blocks[:i], blocks[i] + blocks[j], *blocks[i + 1 : j], *blocks[j + 1 :]]
            cases += [(net, fb), (net, Partition(net.species, merged))]
        for seed in range(300):
            if seed % 2:
                net = random_crn(seed, 4 + seed % 9, 5 + seed % 13)
                cases.append((net, refine(net, Partition.trivial(net), BisimMode.FORWARD).final))
            else:
                net = random_non_elementary(seed, 5 + seed % 6, 4 + seed % 10)
            cases.append((net, mixed_partition(net, rng)))
            if seed % 5 == 0:
                # Lumpable with squares; merging two blocks may break it.
                twin, p = split_species(net, 2 + seed % 3)
                assert reference_shear_witness(odes._block_sums(twin, p)[1], p) is None
                blocks = list(p.blocks)
                cases.append((twin, p))
                cases.append((twin, Partition(twin.species, [blocks[0] + blocks[1], *blocks[2:]])))
        verdicts, squares_in_wide_blocks = set(), 0
        for net, p in cases:
            sums = odes._block_sums(net, p)[1]
            expected = reference_shear_witness(sums, p)
            assert odes._shear_witness(sums, p, odes._shared(p)) == expected
            assert ordinary_lumpability_witness(net, p) == expected
            verdicts.add(expected is None)
            squares = any(exp > 1 for s in sums for mono in s for _, exp in mono)
            squares_in_wide_blocks += squares and max(map(len, p.blocks)) >= 3
        assert verdicts == {True, False}
        assert squares_in_wide_blocks > 50


# ---------------------------------------------------------------------------
# Theorem-level correspondences


def assert_backward_field_is_the_reference(net, p):
    """``lumped_field_backward``'s components, times L, are the oracle's
    merged components of the block representatives, each representative
    renumbered to its block: on ``net``, where ``p`` may be certified, and
    on an equal fresh network, where it is decided."""
    scale, merged = reference_merged_components(net, p)
    block_of = p.block_index
    expected = [
        {tuple(sorted((block_of[r], e) for r, e in mono)): v for mono, v in merged[b[0].id].items()}
        for b in p.blocks
    ]
    table_scale, rows = scaled_reactions(net)
    twin = CRN(net.species, [(r, F(v, table_scale), pr) for r, pr, v in rows])
    for network in (net, twin):
        lumped = lumped_field_backward(network, p)
        mine = [
            {mono: coef * scale for mono, coef in lumped.components[sp].terms.items()}
            for sp in lumped.species
        ]
        assert mine == expected


class TestCorrespondences:
    def test_forward_bisimulation_implies_ordinary_lumpability(self):
        found = 0
        for seed in range(30):
            net = random_crn(seed, 4 + seed % 3, 5 + seed % 7)
            p = refine(net, Partition.trivial(net), BisimMode.FORWARD).final
            assert is_ordinarily_lumpable(net, p)
            if p.n_blocks < net.n_species:
                found += 1
        assert found > 0  # the sweep actually exercised nontrivial partitions

    def test_converse_fails_on_conserved_pair(self):
        net = two_state(1, 2)
        one = Partition.trivial(net)
        assert is_ordinarily_lumpable(net, one)
        assert not is_bisimulation(net, one, BisimMode.FORWARD)

    def test_backward_bisimulation_iff_exact_lumpability(self):
        # Against the reference that merges vector-field components, which
        # shares no code with the backward signatures.
        verdicts = set()
        for seed in range(12):
            net = random_crn(seed, 4, 7)
            for p in partitions_refining(Partition.trivial(net)):
                exact = reference_exact_witness(net, p) is None
                assert is_bisimulation(net, p, BisimMode.BACKWARD) == exact
                assert is_exactly_lumpable(net, p) == exact
                verdicts.add(exact)
        assert verdicts == {True, False}

    def test_commuting_diagram_forward(self, crn, h_o):
        reduced = forward_reduce(crn, h_o)
        assert vector_field(reduced.crn).components == lumped_field_forward(
            crn, h_o
        ).components

    def test_commuting_diagram_backward(self, crn, h_e):
        reduced = backward_reduce(crn, h_e)
        assert vector_field(reduced.crn).components == lumped_field_backward(
            crn, h_e
        ).components

    def test_commuting_diagrams_on_random_networks(self):
        # The backward lumped field is also held to the oracle's merged
        # components, which share no code with the backward signatures.
        for seed in range(25):
            net = random_crn(seed, 4 + seed % 3, 4 + seed % 8)
            fb = refine(net, Partition.trivial(net), BisimMode.FORWARD).final
            assert vector_field(forward_reduce(net, fb).crn).components == (
                lumped_field_forward(net, fb).components
            )
            bb = refine(net, Partition.trivial(net), BisimMode.BACKWARD).final
            assert vector_field(backward_reduce(net, bb).crn).components == (
                lumped_field_backward(net, bb).components
            )
            assert_backward_field_is_the_reference(net, bb)
        merged = 0
        for seed in range(25):
            net = random_non_elementary(seed, 5 + seed % 6, 4 + seed % 10)
            bb = refine(net, Partition.trivial(net), BisimMode.BACKWARD).final
            assert vector_field(backward_reduce(net, bb).crn).components == (
                lumped_field_backward(net, bb).components
            )
            assert_backward_field_is_the_reference(net, bb)
            merged += bb.n_blocks < net.n_species
        assert merged > 5

    def test_commuting_diagrams_on_multisite(self):
        for n in range(1, 5):
            net, inits = multisite(MultisiteSpec(n_sites=n))
            fb = refine(net, Partition.trivial(net), BisimMode.FORWARD).final
            bb = refine(net, partition_from_initial_conditions(inits), BisimMode.BACKWARD).final
            if n == 3:
                # the quotients merge up to six species per block
                assert max(len(b) for b in fb.blocks) == max(len(b) for b in bb.blocks) == 6
            assert vector_field(forward_reduce(net, fb).crn).components == (
                lumped_field_forward(net, fb).components
            )
            assert vector_field(backward_reduce(net, bb).crn).components == (
                lumped_field_backward(net, bb).components
            )
            assert_backward_field_is_the_reference(net, bb)
