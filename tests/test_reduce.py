import random
from fractions import Fraction

import pytest

from crnlump import (
    BisimMode,
    MultisiteSpec,
    NotBisimulationError,
    Partition,
    PartitionError,
    Species,
    backward_reduce,
    forward_reduce,
    lumped_field_backward,
    lumped_field_forward,
    make_crn,
    multisite,
    parse_crn,
    partition_from_initial_conditions,
    refine,
    serialize_crn,
    validate,
    vector_field,
)
import crnlump.bisim
from crnlump.core import scaled_reactions
from crnlump.models import random_crn, running_example
from conftest import blocks_of, copies
from oracle import reactions_of, reference_backward_quotient


def reaction_set(crn):
    return sorted(
        (rxn.reactants.name_key(), str(rxn.rate), rxn.products.name_key())
        for rxn in reactions_of(crn)
    )


EXPECTED_FORWARD = make_crn(
    ["A", "B", "C", "D"],
    [
        ({"A": 1}, 6, {"C": 1}),
        ({"B": 1}, 6, {"D": 1}),
        ({"A": 1, "B": 1}, 2, {"C": 1}),
        ({"C": 1, "D": 1}, 5, {"C": 2, "D": 1}),
    ],
)

EXPECTED_BACKWARD = make_crn(
    ["A", "C", "D", "E"],
    [
        ({"A": 1}, 6, {"E": 1}),
        ({"A": 1}, 6, {"D": 1, "A": 1}),
        ({"A": 2}, 2, {"C": 1, "A": 1}),
        ({"C": 1, "D": 1}, 5, {"C": 2, "D": 1}),
        ({"E": 1, "D": 1}, 5, {"E": 2, "D": 1}),
    ],
)


class TestForwardReduce:
    def test_running_example(self, crn, h_o):
        reduced = forward_reduce(crn, h_o)
        assert [sp.name for sp in reduced.crn.species] == ["A", "B", "C", "D"]
        assert reaction_set(reduced.crn) == reaction_set(EXPECTED_FORWARD)
        # the non-representative-reactant reaction was dropped, not renamed
        assert reduced.crn.n_reactions == 4

    def test_serialization_is_byte_exact(self, crn, h_o):
        assert serialize_crn(forward_reduce(crn, h_o).crn) == serialize_crn(
            EXPECTED_FORWARD
        )

    def test_discrete_partition_only_fuses(self, crn):
        reduced = forward_reduce(crn, Partition.discrete(crn))
        assert reaction_set(reduced.crn) == reaction_set(crn)

    def test_duplicate_reactions_fuse_with_rate_sum(self):
        net = make_crn(
            ["A", "B"], [({"A": 1}, 3, {"B": 1}), ({"A": 1}, 4, {"B": 1})]
        )
        reduced = forward_reduce(net, Partition.discrete(net))
        assert reduced.crn.n_reactions == 1
        assert reactions_of(reduced.crn)[0].rate == 7

    def test_requires_forward_bisimulation(self, crn, h_e):
        with pytest.raises(NotBisimulationError):
            forward_reduce(crn, h_e)

    def test_reduced_species_are_the_representatives(self, crn, h_o):
        reduced = forward_reduce(crn, h_o)
        assert reduced.partition.representative(crn.by_name("E")).name == "C"
        assert reduced.reduced_species_of(crn.by_name("E")).name == "C"
        assert reduced.reduced_species_of(crn.by_name("E")).id == 2

    def test_foreign_species_has_no_reduced_species(self, crn, h_o):
        reduced = forward_reduce(crn, h_o)
        for foreign in (Species(9, "Z"), Species(0, "Q")):
            with pytest.raises(PartitionError):
                reduced.reduced_species_of(foreign)


class TestBackwardReduce:
    def test_running_example(self, crn, h_e):
        reduced = backward_reduce(crn, h_e)
        assert [sp.name for sp in reduced.crn.species] == ["A", "C", "D", "E"]
        assert reaction_set(reduced.crn) == reaction_set(EXPECTED_BACKWARD)

    def test_serialization_is_byte_exact(self, crn, h_e):
        assert serialize_crn(backward_reduce(crn, h_e).crn) == serialize_crn(
            EXPECTED_BACKWARD
        )

    def test_discrete_partition_only_fuses(self, crn):
        reduced = backward_reduce(crn, Partition.discrete(crn))
        assert reaction_set(reduced.crn) == reaction_set(crn)

    def test_representative_products_pass_through(self):
        # all products already representatives: pinning changes nothing
        net = make_crn(["A", "B"], [({"A": 1}, 2, {"B": 1}), ({"B": 1}, 2, {"A": 1})])
        p = Partition.discrete(net)
        reduced = backward_reduce(net, p)
        assert reaction_set(reduced.crn) == reaction_set(net)

    def test_requires_backward_bisimulation(self, crn, h_o):
        with pytest.raises(NotBisimulationError):
            backward_reduce(crn, h_o)


def _random_partition(net, rng, k):
    labels = [rng.randrange(k) for _ in net.species]
    return Partition(
        net.species,
        [[sp for sp, label in zip(net.species, labels) if label == j] for j in set(labels)],
    )


class TestFusedBackwardQuotient:
    """``backward_reduce`` classes each distinct side once and fuses rows by
    their class ids when some block pins; its quotient equals the one built
    row by row (``oracle.reference_backward_quotient``), L included."""

    @staticmethod
    def assert_matches_reference(net, p):
        reduced = backward_reduce(net, p)
        reference = reference_backward_quotient(net, p)
        assert scaled_reactions(reduced.crn) == scaled_reactions(reference)
        assert serialize_crn(reduced.crn) == serialize_crn(reference)
        return reduced

    @pytest.mark.parametrize("initial", ["inits", "trivial"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_multisite(self, n, initial):
        # n=1's partition is discrete, so nothing pins; n=4 gives the CI's
        # 296 reactions and n=5 fuses 7680 rows into 542.
        net, inits = multisite(MultisiteSpec(n_sites=n))
        start = (
            partition_from_initial_conditions(inits)
            if initial == "inits"
            else Partition.trivial(net)
        )
        p = refine(net, start, BisimMode.BACKWARD).final
        assert (p.n_blocks < net.n_species) == (n > 1)
        reduced = self.assert_matches_reference(net, p)
        assert reduced.crn.n_reactions == {1: 6, 2: 45, 3: 137, 4: 296, 5: 542}[n]

    def test_running_example(self, crn, h_e):
        # Its coarsest backward partition has one block of two species, the
        # least that pins.
        assert refine(crn, Partition.trivial(crn), BisimMode.BACKWARD).final == h_e
        self.assert_matches_reference(crn, h_e)

    def test_random_networks_with_a_block_of_two_or_more(self):
        # Every third network is two or three disjoint copies of a random
        # one, refined from the trivial partition: corresponding species
        # share blocks, so most rows pin.
        found = 0
        for seed in range(150):
            rng = random.Random(seed)
            net = random_crn(seed, rng.randint(3, 14), rng.randint(3, 30))
            if seed % 3 == 0:
                net = copies(net, rng.randint(2, 3))
                initial = Partition.trivial(net)
            else:
                initial = _random_partition(net, rng, rng.randint(1, 3))
            p = refine(net, initial, BisimMode.BACKWARD).final
            if p.n_blocks < net.n_species:
                found += 1
                self.assert_matches_reference(net, p)
        assert found >= 40

    def test_one_two_species_block(self):
        # The least pinning: one block of two species, every other a singleton.
        found = 0
        for seed in range(200):
            rng = random.Random(seed)
            net = random_crn(seed, rng.randint(3, 12), rng.randint(3, 20))
            p = refine(net, _random_partition(net, rng, 2), BisimMode.BACKWARD).final
            if sorted(map(len, p.blocks))[-2:] == [1, 2]:
                found += 1
                self.assert_matches_reference(net, p)
        assert found >= 5

    def test_discrete_partitions(self):
        for seed in range(30):
            net = random_crn(seed, 3 + seed % 8, 2 + seed % 13)
            self.assert_matches_reference(net, Partition.discrete(net))


class TestIntegerRates:
    # Species ids follow first appearance (A, C, D, B), not name order.
    NETWORK = (
        "A -> C , 1/3\nA -> D , 1/6\nB -> C , 1/3\nB -> D , 1/6\n"
        "2A -> C + D , 1/2\n2B -> C + D , 1/2\n"
        "C -> A , 1/3\nC -> B , 1/3\nC -> 0 , 1/6\n"
        "D -> A , 1/3\nD -> B , 1/3\nD -> 0 , 1/6\n"
    )
    # Forward, {C, D} fuses A -> C and A -> D (1/3 + 1/6) and merges the
    # products of 2A -> C + D into 2C.  Backward, {A, B} pins the reactant
    # 2B into the products of 2A -> 2A + C + D, and C -> B pinned to C -> 0
    # fuses with C -> 0 (1/3 + 1/6).
    EXPECTED = {
        BisimMode.FORWARD: (
            "species: A B C\nA -> C , 1/2\n2A -> 2C , 1/2\nB -> C , 1/2\n"
            "2B -> 2C , 1/2\nC -> 0 , 1/6\nC -> A , 1/3\nC -> B , 1/3\n"
        ),
        BisimMode.BACKWARD: (
            "species: A C D\nA -> A + C , 1/3\nA -> A + D , 1/6\nA -> C , 1/3\n"
            "A -> D , 1/6\n2A -> 2A + C + D , 1/2\n2A -> C + D , 1/2\n"
            "C -> 0 , 1/2\nC -> A , 1/3\nD -> 0 , 1/2\nD -> A , 1/3\n"
        ),
    }

    def test_fused_rates_and_pinned_products(self, mode):
        net, _ = parse_crn(self.NETWORK)
        p = refine(net, Partition.trivial(net), mode).final
        if mode is BisimMode.FORWARD:
            reduced, lumped = forward_reduce(net, p), lumped_field_forward(net, p)
        else:
            reduced, lumped = backward_reduce(net, p), lumped_field_backward(net, p)
        assert serialize_crn(reduced.crn) == self.EXPECTED[mode]
        assert vector_field(reduced.crn) == lumped


class TestReducedInvariants:
    def test_reduced_networks_are_valid(self, crn, h_o, h_e):
        assert validate(forward_reduce(crn, h_o).crn) == []
        assert validate(backward_reduce(crn, h_e).crn) == []

    def test_species_count_equals_block_count(self, mode):
        for seed in range(20):
            net = random_crn(seed, 4 + seed % 3, 4 + seed % 7)
            p = refine(net, Partition.trivial(net), mode).final
            reduce_fn = (
                forward_reduce if mode is BisimMode.FORWARD else backward_reduce
            )
            reduced = reduce_fn(net, p)
            assert reduced.crn.n_species == p.n_blocks
            assert validate(reduced.crn) == []

    def test_reduction_is_idempotent_via_discrete(self, crn, h_o):
        once = forward_reduce(crn, h_o)
        again = forward_reduce(once.crn, Partition.discrete(once.crn))
        assert reaction_set(once.crn) == reaction_set(again.crn)
        assert [sp.name for sp in once.crn.species] == [
            sp.name for sp in again.crn.species
        ]

    def test_a_partition_of_singletons_reduces_any_network(self, mode):
        # A partition of singletons is a bisimulation of either kind of any
        # network, so neither reduction refuses an inflow or a reaction of
        # three molecules under it: each quotient is the network itself.
        net = make_crn(
            ["A", "B", "C"],
            [({}, 1, {"A": 1}), ({"A": 2, "B": 1}, 3, {"C": 1}), ({"C": 1}, 1, {})],
        )
        p = Partition.discrete(net)
        reduce_fn = forward_reduce if mode is BisimMode.FORWARD else backward_reduce
        assert reduce_fn(net, p).crn == net
        lumped = lumped_field_forward if mode is BisimMode.FORWARD else lumped_field_backward
        assert vector_field(net).components == lumped(net, p).components

    def test_zero_net_reactions_are_retained(self):
        # reactants == products alters partner rates even with zero flux
        net = make_crn(["A", "B"], [({"A": 1, "B": 1}, 2, {"A": 1, "B": 1})])
        reduced = forward_reduce(net, Partition.discrete(net))
        assert reduced.crn.n_reactions == 1


class TestInstrumentation:
    def test_empty_reaction_list_costs_nothing(self):
        net = make_crn(["A", "B"], [])
        reduced = forward_reduce(net, Partition.trivial(net))
        assert reduced.step_count == 0

    def test_step_count_is_per_reduction(self, crn, h_o):
        reduced = forward_reduce(crn, h_o)
        assert reduced.step_count > 0
        empty = make_crn(["A", "B"], [])
        forward_reduce(empty, Partition.trivial(empty))
        assert forward_reduce(crn, h_o).step_count == reduced.step_count

    def test_step_count_within_documented_bound(self, mode):
        # c = 64, bound c * |R| * |S| * (log2 |R| + log2 |S|)
        from math import log2

        from crnlump import MultisiteSpec, multisite
        from crnlump.io import partition_from_initial_conditions

        for n in (1, 2, 3):
            net, inits = multisite(MultisiteSpec(n_sites=n))
            initial = (
                Partition.trivial(net)
                if mode is BisimMode.FORWARD
                else partition_from_initial_conditions(inits)
            )
            p = refine(net, initial, mode).final
            reduce_fn = (
                forward_reduce if mode is BisimMode.FORWARD else backward_reduce
            )
            reduced = reduce_fn(net, p)
            bound = 64 * net.n_reactions * net.n_species * (
                log2(net.n_reactions) + log2(net.n_species)
            )
            assert reduced.step_count <= bound


REDUCERS = {BisimMode.FORWARD: forward_reduce, BisimMode.BACKWARD: backward_reduce}


@pytest.fixture
def signature_builds(monkeypatch):
    """Counts the signature builds of ``bisim``: each decision from
    signatures and each refinement builds one."""
    builds = []
    build = crnlump.bisim._signatures

    def counted(crn, mode, block_of):
        builds.append(mode)
        return build(crn, mode, block_of)

    monkeypatch.setattr(crnlump.bisim, "_signatures", counted)
    return builds


class TestCertifiedPartitions:
    """A reduction accepts the partition that ``refine`` returned for the
    same network object in the same mode without deciding it again; every
    other partition is decided from signatures."""

    def test_refine_then_reduce_builds_signatures_once(self, mode, signature_builds):
        example = running_example()
        sites, inits = multisite(MultisiteSpec(n_sites=2))
        for net, initial in [
            (example, Partition.trivial(example)),
            (sites, partition_from_initial_conditions(inits)),
        ]:
            signature_builds.clear()
            final = refine(net, initial, mode).final
            reduced = REDUCERS[mode](net, final)
            assert signature_builds == [mode]
            # An equal partition object is certified too.
            again = REDUCERS[mode](net, Partition(net.species, final.blocks))
            assert serialize_crn(again.crn) == serialize_crn(reduced.crn)
            assert again.step_count == reduced.step_count
            assert signature_builds == [mode]

    def test_certificate_is_per_mode(self, signature_builds):
        # The coarsest forward partition of the running example,
        # {A} | {B} | {C, E} | {D}, is not a backward bisimulation.
        crn = running_example()
        h_o = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
        assert [[sp.name for sp in block] for block in h_o.blocks] == [
            ["A"], ["B"], ["C", "E"], ["D"]
        ]
        with pytest.raises(NotBisimulationError, match="not a backward bisimulation"):
            backward_reduce(crn, h_o)
        assert signature_builds == [BisimMode.FORWARD, BisimMode.BACKWARD]
        forward_reduce(crn, h_o)
        assert len(signature_builds) == 2

    def test_other_partitions_are_still_decided(self, mode):
        crn = running_example()
        refine(crn, Partition.trivial(crn), mode)
        mixed = blocks_of(crn, "AB", "CE", "D")
        for p in (Partition.trivial(crn), mixed):
            with pytest.raises(NotBisimulationError):
                REDUCERS[mode](crn, p)
        # A partition of another network is refused before any decision.
        other = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1})])
        with pytest.raises(PartitionError, match="not over the species"):
            REDUCERS[mode](crn, Partition.trivial(other))

    def test_certificate_stays_with_its_network_object(self, signature_builds):
        text = serialize_crn(running_example())
        crn = parse_crn(text)[0]
        h_o = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
        # A second network parsed from the same text is equal, so h_o is a
        # forward bisimulation of it too, but it is decided there again.
        twin = parse_crn(text)[0]
        assert twin == crn
        signature_builds.clear()
        forward_reduce(twin, h_o)
        assert signature_builds == [BisimMode.FORWARD]
        with pytest.raises(NotBisimulationError):
            backward_reduce(twin, h_o)
        # Over the same species, with one rate changed, C and E are no
        # longer forward equivalent: h_o passes the species check and must
        # be refused.
        changed = parse_crn(text.replace("D + E -> D + 2E , 5", "D + E -> D + 2E , 4"))[0]
        assert changed.species == crn.species and changed != crn
        with pytest.raises(NotBisimulationError, match="not a forward bisimulation"):
            forward_reduce(changed, h_o)
