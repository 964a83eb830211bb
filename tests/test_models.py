from fractions import Fraction

import pytest

from crnlump import (
    BisimMode,
    CRNError,
    MultisiteSpec,
    Partition,
    is_bisimulation,
    multisite,
    multisite_block_count,
    random_crn,
    refine,
    running_example,
    two_state,
    validate,
)
from oracle import Multiset, brute_force_coarsest, partitions_refining, reactions_of


class TestRunningExample:
    def test_shape(self):
        crn = running_example()
        assert [sp.name for sp in crn.species] == ["A", "B", "C", "D", "E"]
        assert crn.n_reactions == 5
        assert validate(crn) == []

    def test_contains_the_binary_synthesis(self):
        crn = running_example()
        a, b, c = (crn.by_name(n) for n in "ABC")
        assert any(
            rxn.reactants == Multiset.of(a, b)
            and rxn.rate == 2
            and rxn.products == Multiset.of(c)
            for rxn in reactions_of(crn)
        )


class TestTwoState:
    def test_unequal_rates_not_forward_but_lumpable(self):
        net = two_state(1, 2)
        from crnlump import is_ordinarily_lumpable

        one = Partition.trivial(net)
        assert not is_bisimulation(net, one, BisimMode.FORWARD)
        assert is_ordinarily_lumpable(net, one)

    def test_equal_rates_are_forward(self):
        net = two_state(3, 3)
        assert is_bisimulation(net, Partition.trivial(net), BisimMode.FORWARD)

    def test_always_valid(self):
        assert validate(two_state(Fraction(1, 7), 5)) == []

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            two_state(0, 1)


class TestMultisite:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_size_formulas(self, n):
        crn, _ = multisite(MultisiteSpec(n_sites=n))
        assert crn.n_species == 4**n + 2
        assert crn.n_reactions == 6 * n * 4 ** (n - 1)
        assert validate(crn) == []

    def test_initial_condition(self):
        crn, inits = multisite(MultisiteSpec(n_sites=2))
        positive = {sp.name for sp in crn.species if inits.get(sp) > 0}
        assert positive == {"E", "F", "S(U,U)"}

    def test_block_count_formula(self):
        assert multisite_block_count(2) == 12
        assert multisite_block_count(7) == 122

    def test_coarsest_partitions_hit_the_formula(self):
        crn, inits = multisite(MultisiteSpec(n_sites=2))
        fb = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
        assert fb.n_blocks == multisite_block_count(2)
        from crnlump import partition_from_initial_conditions

        bb = refine(crn, partition_from_initial_conditions(inits), BisimMode.BACKWARD).final
        assert bb.n_blocks == multisite_block_count(2)

    def test_site_permutation_classes(self):
        # the forward blocks are exactly the multisets of site states
        crn, _ = multisite(MultisiteSpec(n_sites=2))
        fb = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
        up = crn.by_name("S(U,P)")
        pu = crn.by_name("S(P,U)")
        assert fb.same_block(up, pu)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            MultisiteSpec(n_sites=0)
        with pytest.raises(ValueError):
            MultisiteSpec(n_sites=1, e_bind=Fraction(0))

    def test_size_guard(self):
        with pytest.raises(CRNError, match="refusing"):
            multisite(MultisiteSpec(n_sites=12))
        # Refused before 4**n is computed; that power alone would not finish.
        with pytest.raises(CRNError, match="refusing"):
            multisite(MultisiteSpec(n_sites=10**10))


class TestBruteForce:
    def test_matches_refine_on_small_benchmark(self, mode):
        crn, _ = multisite(MultisiteSpec(n_sites=1))
        initial = Partition.trivial(crn)
        assert brute_force_coarsest(crn, initial, mode) == refine(crn, initial, mode).final

    def test_running_example_oracle(self, crn, h_o, h_e):
        initial = Partition.trivial(crn)
        assert brute_force_coarsest(crn, initial, BisimMode.FORWARD) == h_o
        assert brute_force_coarsest(crn, initial, BisimMode.BACKWARD) == h_e

    def test_discrete_initial_returns_discrete(self, crn, mode):
        discrete = Partition.discrete(crn)
        assert brute_force_coarsest(crn, discrete, mode) == discrete

    def test_size_guard(self, mode):
        big = random_crn(0, 9, 4)
        with pytest.raises(CRNError, match="8 species"):
            brute_force_coarsest(big, Partition.trivial(big), mode)


class TestPartitionEnumeration:
    def test_bell_number_of_four(self):
        net = random_crn(0, 4, 1)
        assert sum(1 for _ in partitions_refining(Partition.trivial(net))) == 15

    def test_respects_initial_blocks(self):
        net = random_crn(0, 4, 1)
        initial = Partition(net.species, [net.species[:2], net.species[2:]])
        refinements = list(partitions_refining(initial))
        assert len(refinements) == 4  # 2 partitions per 2-element block
        assert all(p.refines(initial) for p in refinements)


class TestRandomCrn:
    def test_deterministic(self):
        assert random_crn(42, 5, 8) == random_crn(42, 5, 8)
        assert random_crn(42, 5, 8) != random_crn(43, 5, 8)

    def test_reaction_free(self):
        net = random_crn(0, 3, 0)
        assert net.n_reactions == 0 and net.n_species == 3

    def test_always_valid(self):
        for seed in range(50):
            net = random_crn(seed, 1 + seed % 6, seed % 13)
            assert validate(net) == []

    @pytest.mark.parametrize(
        "sizes", [(5, 10**9), (10**9, 5)], ids=["reactions", "species"]
    )
    def test_size_guard(self, sizes):
        # used to loop until memory ran out
        with pytest.raises(CRNError, match="refusing"):
            random_crn(0, *sizes)

    def test_rate_pool_is_respected(self):
        net = random_crn(3, 4, 20, rate_pool=(Fraction(7), Fraction(1, 9)))
        assert {rxn.rate for rxn in reactions_of(net)} <= {Fraction(7), Fraction(1, 9)}
