from fractions import Fraction
from itertools import combinations

import pytest

from crnlump import Partition, random_crn
from conftest import blocks_of
from oracle import (
    Multiset,
    candidate_partners,
    cumulative_flux_rate,
    flux_rate,
    production_rate,
    production_rate_to_block,
    reactant_classes,
    reaction_rate,
    reactions_of,
)


def ms(crn, *names):
    return Multiset.of(*(crn.by_name(n) for n in names))


class TestReactionRate:
    def test_worked_values(self, crn):
        C, E, A, B, D = (crn.by_name(n) for n in "CEABD")
        assert reaction_rate(crn, C, ms(crn, "D")) == 5
        assert reaction_rate(crn, E, ms(crn, "D")) == 5
        assert reaction_rate(crn, A, ms(crn, "B")) == 2
        assert reaction_rate(crn, B, ms(crn, "B")) == 0
        assert reaction_rate(crn, A, Multiset()) == 6  # only A -> E at rate 6

    def test_self_partner_counts_twice(self, crn):
        from crnlump import make_crn

        doubling = make_crn(["A", "B"], [({"A": 2}, 3, {"B": 1})])
        a = doubling.by_name("A")
        assert reaction_rate(doubling, a, Multiset.of(a)) == 6

    def test_rejects_two_molecule_partner(self, crn):
        A, B = crn.by_name("A"), crn.by_name("B")
        with pytest.raises(ValueError):
            reaction_rate(crn, A, Multiset.of(A, B))

    def test_nonnegative_everywhere(self):
        for seed in range(10):
            net = random_crn(seed, 4, 8)
            partners = [Multiset()] + [Multiset.of(sp) for sp in net.species]
            for x in net.species:
                for rho in partners:
                    assert reaction_rate(net, x, rho) >= 0


class TestProductionRate:
    def test_worked_values(self, crn):
        C, D, A, E = (crn.by_name(n) for n in "CDAE")
        # C + D ->(5) 2C + D contributes 5 * 2 toward C
        assert production_rate(crn, C, ms(crn, "D"), C) == 10
        assert production_rate(crn, A, Multiset(), E) == 6  # A ->(6) E
        # species with no reactions produce nothing
        assert production_rate(crn, D, Multiset(), C) == 0

    def test_block_sums(self, crn, h_o):
        C, E, A = crn.by_name("C"), crn.by_name("E"), crn.by_name("A")
        block = [C, E]
        assert production_rate_to_block(crn, C, ms(crn, "D"), block) == 10
        assert production_rate_to_block(crn, E, ms(crn, "D"), block) == 10
        # A + B ->(2) C sends 2 into {C, E} and nothing to E
        assert production_rate_to_block(crn, A, ms(crn, "B"), block) == 2
        assert production_rate_to_block(crn, A, ms(crn, "B"), []) == 0

    def test_additive_over_disjoint_blocks(self):
        for seed in range(8):
            net = random_crn(seed, 5, 8)
            partners = [Multiset()] + [Multiset.of(sp) for sp in net.species]
            left, right = list(net.species[:2]), list(net.species[2:])
            for x in net.species:
                for rho in partners:
                    assert production_rate_to_block(
                        net, x, rho, left + right
                    ) == production_rate_to_block(net, x, rho, left) + production_rate_to_block(
                        net, x, rho, right
                    )


class TestFluxRate:
    def test_worked_values(self, crn):
        C, E, A, B, D = (crn.by_name(n) for n in "CEABD")
        assert flux_rate(crn, C, ms(crn, "A", "B")) == 2
        assert flux_rate(crn, E, ms(crn, "A", "B")) == 0
        assert flux_rate(crn, A, ms(crn, "A")) == -6  # A ->(6) E consumes A
        # no reaction with these reactants
        assert flux_rate(crn, A, ms(crn, "C")) == 0

    def test_cumulative(self, crn):
        A, B, D = crn.by_name("A"), crn.by_name("B"), crn.by_name("D")
        unary = [ms(crn, "A"), ms(crn, "B")]
        assert cumulative_flux_rate(crn, A, unary) == -6
        assert cumulative_flux_rate(crn, B, unary) == -6
        assert cumulative_flux_rate(crn, D, unary) == 6  # B ->(6) D feeds D
        assert cumulative_flux_rate(crn, A, [ms(crn, "A")]) == flux_rate(crn, A, ms(crn, "A"))

    def test_additive_over_disjoint_multiset_sets(self):
        for seed in range(8):
            net = random_crn(seed, 5, 9)
            rhos = sorted(
                {rxn.reactants for rxn in reactions_of(net)}, key=lambda m: m.name_key()
            )
            left, right = rhos[::2], rhos[1::2]
            for x in net.species:
                assert cumulative_flux_rate(net, x, left + right) == cumulative_flux_rate(
                    net, x, left
                ) + cumulative_flux_rate(net, x, right)


class TestSymmetry:
    def test_singleton_partner_symmetry_exhaustive(self):
        # pairing order cannot matter for either rate family
        for seed in range(15):
            net = random_crn(seed, 5, 10)
            for x, y in combinations(net.species, 2):
                assert reaction_rate(net, x, Multiset.of(y)) == reaction_rate(
                    net, y, Multiset.of(x)
                )
                for z in net.species:
                    assert production_rate(net, x, Multiset.of(y), z) == production_rate(
                        net, y, Multiset.of(x), z
                    )


class TestCandidatePartners:
    def test_running_example(self, crn):
        A = crn.by_name("A")
        partners = candidate_partners(crn, A)
        assert partners == {Multiset(), ms(crn, "B")}
        D = crn.by_name("D")
        assert candidate_partners(crn, D) == {ms(crn, "C"), ms(crn, "E")}


class TestReactantClasses:
    def test_backward_partition_groups_unary_reactants(self, crn, h_e):
        classes = reactant_classes(crn, h_e)
        as_names = [sorted(repr(m) for m in c.members) for c in classes]
        assert as_names == [["A", "B"], ["A + B"], ["C + D"], ["D + E"]]
        # every member lifts to the canonical multiset
        for cls in classes:
            assert all(
                Multiset((h_e.representative(sp), k) for sp, k in m) == cls.canonical
                for m in cls.members
            )

    def test_forward_partition_merges_lifted_binaries(self, crn, h_o):
        # C and E share a block, so C+D and E+D lift identically
        classes = reactant_classes(crn, h_o)
        as_names = [sorted(repr(m) for m in c.members) for c in classes]
        assert as_names == [["A"], ["A + B"], ["B"], ["C + D", "D + E"]]

    def test_discrete_partition_keeps_reactants_apart(self, crn):
        classes = reactant_classes(crn, Partition.discrete(crn))
        assert all(len(c.members) == 1 for c in classes)
        assert len(classes) == 5

    def test_every_distinct_reactant_in_exactly_one_class(self):
        for seed in range(10):
            net = random_crn(seed, 4, 8)
            classes = reactant_classes(net, Partition.trivial(net))
            seen = [m for c in classes for m in c.members]
            assert len(seen) == len(set(seen))
            assert set(seen) == {rxn.reactants for rxn in reactions_of(net)}
