import random
import re
import types
from fractions import Fraction
from math import ceil, log2

import pytest

import crnlump.bisim
from crnlump import (
    BisimMode,
    CRNError,
    MultisiteSpec,
    Partition,
    backward_reduce,
    find_counterexample,
    format_vector_field,
    forward_reduce,
    is_bisimulation,
    lumped_field_backward,
    make_crn,
    multisite,
    parse_crn,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    vector_field,
)
from crnlump.cli import main
from crnlump.core import flux_table
from crnlump.odes import exact_lumpability_witness
from conftest import (
    assert_checked_alike,
    blocks_of,
    copies,
    random_non_elementary,
    shuffled_chain,
)
from oracle import (
    Multiset,
    backward_equivalent,
    brute_force_coarsest,
    cumulative_flux_rate,
    first_inequivalent_pair,
    forward_equivalent,
    full_pass_refinement,
    mode_equivalent,
    partitions_refining,
    production_rate_to_block,
    reactant_classes,
    reaction_rate,
    reactions_of,
    reference_backward_quotient,
    reference_exact_witness,
    reference_forward_table,
)


def _oracle_iterations(net, initial, mode):
    """Every partition of the full-recompute loop, the initial one first."""
    return [
        Partition(net.species, blocks)
        for blocks in full_pass_refinement(net, initial, mode)
    ]


def _oracle_result(net, initial, mode):
    """Final partition and pass count of the full-recompute loop."""
    passes = -1
    for blocks in full_pass_refinement(net, initial, mode):
        passes += 1
        last = blocks
    return Partition(net.species, last), passes


WITNESS = re.compile(
    r"(?:reaction rate with partner (?P<rate_partner>\w+)"
    r"|production rate with partner (?P<prod_partner>\w+) into block \{(?P<block>[^}]*)\}"
    r"|cumulative flux over reactant class \{(?P<members>[^}]*)\}): "
    r"(?P<x>\w+) gives (?P<vx>-?[\d/]+), (?P<y>\w+) gives (?P<vy>-?[\d/]+)"
)


def _partner(crn, text):
    return Multiset() if text == "0" else Multiset.of(crn.by_name(text))


class TestPairwisePredicates:
    def test_forward_pair_under_forward_partition(self, crn, h_o):
        C, E = crn.by_name("C"), crn.by_name("E")
        assert forward_equivalent(crn, h_o, C, E)

    def test_forward_pair_fails_on_trivial_partition(self, crn):
        A, B = crn.by_name("A"), crn.by_name("B")
        assert not forward_equivalent(crn, Partition.trivial(crn), A, B)

    def test_backward_pair_under_backward_partition(self, crn, h_e):
        A, B = crn.by_name("A"), crn.by_name("B")
        assert backward_equivalent(crn, h_e, A, B)

    def test_backward_pair_fails_when_fluxes_differ(self, crn, h_o):
        C, E = crn.by_name("C"), crn.by_name("E")
        assert not backward_equivalent(crn, h_o, C, E)

    def test_reflexivity(self, crn, h_o, mode):
        for sp in crn.species:
            assert mode_equivalent(crn, h_o, sp, sp, mode)

    def test_forward_classes_of_running_example(self, crn, h_o):
        # under h_o, forward equivalence groups exactly C with E
        classes = {
            tuple(y.name for y in crn.species if forward_equivalent(crn, h_o, x, y))
            for x in crn.species
        }
        assert sorted(classes) == [("A",), ("B",), ("C", "E"), ("D",)]


class TestIsBisimulation:
    def test_forward_partition(self, crn, h_o):
        assert is_bisimulation(crn, h_o, BisimMode.FORWARD)
        assert not is_bisimulation(crn, h_o, BisimMode.BACKWARD)

    def test_backward_partition(self, crn, h_e):
        assert is_bisimulation(crn, h_e, BisimMode.BACKWARD)
        assert not is_bisimulation(crn, h_e, BisimMode.FORWARD)

    def test_mixed_partition_is_neither(self, crn, mixed, mode):
        assert not is_bisimulation(crn, mixed, mode)

    def test_discrete_partition_always_works(self, crn, mode):
        assert is_bisimulation(crn, Partition.discrete(crn), mode)

    def test_signature_path_agrees_with_pairwise_definition(self, mode):
        # the fast signature check and the literal per-pair predicates must
        # decide the same relation on every partition
        for seed in range(12):
            net = random_crn(seed, 4, 7)
            for p in partitions_refining(Partition.trivial(net)):
                pairwise = all(
                    mode_equivalent(net, p, block[0], sp, mode)
                    for block in p.blocks
                    for sp in block[1:]
                )
                assert is_bisimulation(net, p, mode) == pairwise


class TestFindCounterexample:
    def test_agrees_with_pairwise_oracle(self, mode):
        # same verdict, same first failing (block[0], member) pair, and a
        # witness whose two values are the oracle's rates for what it names
        for seed in range(12):
            net = random_crn(seed, 4, 7)
            reactants = {repr(rxn.reactants): rxn.reactants for rxn in reactions_of(net)}
            for p in partitions_refining(Partition.trivial(net)):
                found = find_counterexample(net, p, mode)
                expected = first_inequivalent_pair(net, p, mode)
                if expected is None:
                    assert found is None
                    continue
                x, y, text = found
                assert (x, y) == expected
                m = WITNESS.fullmatch(text)
                assert m is not None, text
                assert (m["x"], m["y"]) == (x.name, y.name)
                if m["members"] is not None:
                    assert mode is BisimMode.BACKWARD
                    members = {reactants[t] for t in m["members"].split(", ")}
                    assert members in [set(c.members) for c in reactant_classes(net, p)]
                    oracle = [cumulative_flux_rate(net, sp, members) for sp in (x, y)]
                elif m["block"] is not None:
                    assert mode is BisimMode.FORWARD
                    partner = _partner(net, m["prod_partner"])
                    block = tuple(net.by_name(n) for n in m["block"].split(", "))
                    assert block in p.blocks
                    oracle = [
                        production_rate_to_block(net, sp, partner, block) for sp in (x, y)
                    ]
                else:
                    assert mode is BisimMode.FORWARD
                    partner = _partner(net, m["rate_partner"])
                    oracle = [reaction_rate(net, sp, partner) for sp in (x, y)]
                assert [Fraction(m["vx"]), Fraction(m["vy"])] == oracle
                assert oracle[0] != oracle[1]

    def test_running_example_witnesses(self, crn, h_o, h_e):
        assert find_counterexample(crn, h_o, BisimMode.FORWARD) is None
        assert find_counterexample(crn, h_e, BisimMode.BACKWARD) is None
        c, e, text = find_counterexample(crn, h_o, BisimMode.BACKWARD)
        assert (c.name, e.name) == ("C", "E")
        assert text == "cumulative flux over reactant class {A}: C gives 0, E gives 6"
        a, b, text = find_counterexample(crn, h_e, BisimMode.FORWARD)
        assert (a.name, b.name) == ("A", "B")
        assert text == "reaction rate with partner A: A gives 0, B gives 2"

    def test_forward_witness_at_the_ends_of_the_packed_key(self):
        # A forward key packs (partner, block) as (partner + 1) * n + block.
        # X, the largest id, reacts with itself (2X, partner + 1 == n) and
        # alone (the empty partner packs as 0, next to partner A, id 0).  A
        # matches X's reaction rates per partner, but not its products.
        net = _packed_key_ends()
        for blocks, expected in [
            (("AX", "B", "C", "D", "F"), "partner 0 into block {C}: A gives 0, X gives 1"),
            (("AX", "B", "CD", "F"), "partner A into block {B}: A gives 2, X gives 0"),
            (("AX", "BCD", "F"), "partner X into block {B, C, D}: A gives 2, X gives 0"),
        ]:
            a, x, text = find_counterexample(net, blocks_of(net, *blocks), BisimMode.FORWARD)
            assert (a.name, x.name, text) == ("A", "X", "production rate with " + expected)

    def test_reactants_without_net_flux_stay_in_their_class(self, tmp_path, capsys):
        # A + B -> A + B moves nothing, yet the witness lists A + B in its
        # reactant class, while the vector field has no A*B term.
        text = "A + B -> A + B , 1\nA -> C , 1\nB + C -> C , 2\n"
        net, _ = parse_crn(text)
        a, b, witness = find_counterexample(net, Partition.trivial(net), BisimMode.BACKWARD)
        expected = "cumulative flux over reactant class {A + B, B + C}: A gives 0, B gives -2"
        assert (a.name, b.name, witness) == ("A", "B", expected)
        assert format_vector_field(vector_field(net)) == (
            "A' = -A\nB' = -2*B*C\nC' = A\n"
        )
        path = tmp_path / "catalyst.crn"
        path.write_text(text)
        assert main(["check", str(path), "--what", "bisim-bb"]) == 1
        assert capsys.readouterr().out == f"bisim-bb fails: A vs B: {expected}\n"


def _packed_key_ends():
    """X, the species with the largest id, has a unary reaction and a
    ``2X`` one; A, id 0, has a ``2A`` one; and A's reaction rates per
    partner equal X's."""
    return make_crn(
        ["A", "B", "C", "D", "F", "X"],
        [
            ({"X": 1}, 1, {"C": 1}),
            ({"A": 1}, 1, {"D": 1}),
            ({"X": 2}, 1, {"F": 1}),
            ({"A": 2}, 1, {"B": 1}),
            ({"A": 1, "X": 1}, 2, {"D": 1}),
        ],
    )


def _forward_table_networks():
    yield running_example()
    for n in (1, 2, 3):
        yield multisite(MultisiteSpec(n_sites=n))[0]
    for seed in range(40):
        yield random_crn(seed, 1 + seed % 9, seed % 17, (1, 2, Fraction(1, 3), Fraction(5, 2)))
    # Homodimers (a partner that is the species itself), decays into
    # nothing, and a rate of 0, whose entries are dropped.
    yield _packed_key_ends()
    yield make_crn(
        ["A", "B", "C"],
        [
            ({"A": 2}, 1, {"A": 1, "B": 2}),
            ({"A": 1}, Fraction(1, 2), {}),
            ({"B": 2}, 3, {}),
            ({"A": 1, "B": 1}, 1, {"A": 2}),
            ({"C": 1}, 1, {"C": 1}),
            ({"B": 1, "C": 1}, 0, {"A": 1}),
        ],
    )
    yield make_crn(["A", "B"], [({"A": 2}, 1, {"B": 1}), ({"A": 1}, 1, {}), ({"B": 1}, 2, {})])


def test_forward_table_equals_the_per_reaction_reference():
    partners = set()
    for net in _forward_table_networks():
        forward = crnlump.bisim._Forward(net, Partition.trivial(net).block_index)
        scale, crr, crr_id, prod = reference_forward_table(net)
        assert (forward.scale, forward.static) == (scale, crr_id), net
        # Item for item: the rows are laid out in the order of ``_prod``.
        for kept, expected in ((forward._crr, crr), (forward._prod, prod)):
            assert [list(acc.items()) for acc in kept] == [list(acc.items()) for acc in expected]
        for x, acc in enumerate(crr):
            partners.update(
                "empty" if p == -1 else "self" if p == x else "other" for p in acc
            )
    assert partners == {"empty", "self", "other"}


def test_forward_mode_never_builds_the_flux_table(crn, h_o, monkeypatch):
    def refuse(_crn):
        raise AssertionError("the flux table was built")

    monkeypatch.setattr(crnlump.bisim, "flux_table", refuse)
    assert refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final == h_o
    assert forward_reduce(crn, h_o).crn.n_species == 4
    assert find_counterexample(crn, h_o, BisimMode.FORWARD) is None


def _first_fold_cases():
    """Networks with block labels: trivial, discrete and random ones, and
    multisite's site-state labels."""
    for seed in range(40):
        net = random_crn(seed, 2 + seed % 9, 1 + seed % 15, (1, 2, Fraction(1, 3)))
        n = net.n_species
        rng = random.Random(seed)
        yield net, [0] * n
        yield net, list(range(n))
        yield net, [rng.randrange(1 + seed % 4) for _ in range(n)]
    yield _packed_key_ends(), [0, 1, 1, 2, 2, 0]
    for n in (1, 2, 3, 4):
        net, inits = multisite(MultisiteSpec(n_sites=n))
        yield net, [0] * net.n_species
        yield net, list(range(net.n_species))
        yield net, list(partition_from_initial_conditions(inits).block_index)


def test_a_mode_is_built_with_the_sums_of_its_first_fold():
    # Both modes fold once as they are built, under the initial labels, and
    # hand those sums to ``_Signatures``; a later fold under the same labels
    # gives the same sums.
    for net, labels in _first_fold_cases():
        for table in (crnlump.bisim._Forward, crnlump.bisim._Backward):
            mode = table(net, labels)
            first = mode.sums
            assert first == mode.fold(labels), (net, labels, table)
            sigs = crnlump.bisim._Signatures(mode)
            assert sigs.sums is first and mode.sums is None


NOT_ELEMENTARY = {
    "0": ({}, "0 ->(1) B"),
    "3A": ({"A": 3}, "3A ->(1) B"),
    "2A + B": ({"A": 2, "B": 1}, "2A + B ->(1) B"),
    "A + B + C": ({"A": 1, "B": 1, "C": 1}, "A + B + C ->(1) B"),
}


@pytest.mark.parametrize("shape", list(NOT_ELEMENTARY))
def test_forward_table_refuses_the_first_other_shape_by_its_text(shape):
    # Every elementary shape before it is read: A, 2A and A + B.
    reactants, text = NOT_ELEMENTARY[shape]
    rows = [({"A": 1}, 1, {"B": 1}), ({"A": 2}, 1, {"C": 1}), ({"A": 1, "C": 1}, 1, {})]
    net = make_crn(["A", "B", "C"], rows + [(reactants, 1, {"B": 1}), ({"B": 3}, 1, {})])
    expected = (
        f"reaction 3 ({text}): not elementary: reactants must be one or two molecules"
    )
    with pytest.raises(CRNError) as refused:
        crnlump.bisim._Forward(net, [0, 0, 0])
    assert str(refused.value) == expected
    with pytest.raises(CRNError) as refused:
        refine(net, Partition.trivial(net), BisimMode.FORWARD)
    assert str(refused.value) == expected


NON_ELEMENTARY = pytest.mark.parametrize("reactants", [{"A": 3}, {}], ids=["3A", "0"])


@NON_ELEMENTARY
def test_non_elementary_reaction_rejected_forward(reactants):
    # forward used to raise a bare ValueError; a partner is one species
    net = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1}), (reactants, 1, {"B": 1})])
    where = re.escape(f"reaction 1 ({reactions_of(net)[1]!r}): ")
    one = Partition.trivial(net)
    for decide in (refine, is_bisimulation, find_counterexample):
        with pytest.raises(
            CRNError, match=f"^{where}not elementary: reactants must be one or two molecules$"
        ):
            decide(net, one, BisimMode.FORWARD)


@NON_ELEMENTARY
def test_non_elementary_reaction_decided_backward(reactants):
    # backward bisimulation is defined for any reactant multiset
    net = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1}), (reactants, 1, {"B": 1})])
    one, bb = Partition.trivial(net), BisimMode.BACKWARD
    assert refine(net, one, bb).final == brute_force_coarsest(net, one, bb)
    pair = first_inequivalent_pair(net, one, bb)
    assert pair is not None and not is_bisimulation(net, one, bb)
    assert find_counterexample(net, one, bb)[:2] == pair


def test_an_inflow_is_a_reactant_class_of_its_own():
    # 0 -> A at rate 1 and 0 -> B at rate 2: A and B have equal fluxes from
    # their own monomials, which lift to one class, and differ only in the
    # class of the empty multiset, which no partition changes.
    net = make_crn(
        ["A", "B"],
        [({}, 1, {"A": 1}), ({}, 2, {"B": 1}), ({"A": 1}, 1, {}), ({"B": 1}, 1, {})],
    )
    one = Partition.trivial(net)
    assert refine(net, one, BisimMode.BACKWARD).final == Partition.discrete(net)
    _, _, text = find_counterexample(net, one, BisimMode.BACKWARD)
    assert text == "cumulative flux over reactant class {0}: A gives 1, B gives 2"
    # With equal inflows the two are backward equivalent.
    twin = make_crn(
        ["A", "B"],
        [({}, 1, {"A": 1}), ({}, 1, {"B": 1}), ({"A": 1}, 1, {}), ({"B": 1}, 1, {})],
    )
    one = Partition.trivial(twin)
    assert refine(twin, one, BisimMode.BACKWARD).final == one


def _coarsest_exactly_lumpable(net, initial):
    """The coarsest partition refining ``initial`` that the merged-component
    reference accepts, checked to be refined by every other one it accepts."""
    accepted = [q for q in partitions_refining(initial) if reference_exact_witness(net, q) is None]
    coarsest = min(accepted, key=lambda q: q.n_blocks)
    assert all(q.refines(coarsest) for q in accepted)
    return coarsest


def _paired(twice, n):
    """The partition of two copies of an ``n``-species network into
    corresponding species, the first two pairs merged into one block."""
    pairs = [[twice.species[i], twice.species[i + n]] for i in range(n)]
    return Partition(twice.species, [pairs[0] + pairs[1], *pairs[2:]])


def test_backward_refinement_on_non_elementary_networks_equals_both_oracles():
    # 150 seeded networks with inflows and reactant sides of up to four
    # molecules, and two disjoint copies of each, whose corresponding
    # species are backward equivalent; then 30 six-species networks, whose
    # reactant sides hold up to three species.  The brute force takes at
    # most eight species, so a copy starts from its corresponding pairs,
    # two of them merged, and every other copy of six species also from the
    # trivial partition (its brute force takes most of the time).
    bb = BisimMode.BACKWARD
    seen = {"inflow": 0, "three species": 0, "coarser than discrete": 0}
    for seed in range(180):
        if seed < 150:
            n = 3 + seed % 2
            net = random_non_elementary(seed, n, 3 + seed % 6)
            twice = copies(net, 2)
            cases = [(net, Partition.trivial(net)), (twice, _paired(twice, n))]
            if seed % 4 == 0:
                cases.append((twice, Partition.trivial(twice)))
        else:
            net = random_non_elementary(seed, 6, 3 + seed % 6)
            cases = [(net, Partition.trivial(net))]
        for case, initial in cases:
            final = refine(case, initial, bb).final
            assert final == brute_force_coarsest(case, initial, bb), (seed, initial)
            assert final == _coarsest_exactly_lumpable(case, initial), (seed, initial)
            quotient = backward_reduce(case, final).crn
            assert quotient == reference_backward_quotient(case, final), (seed, initial)
            lumped = lumped_field_backward(case, final)
            assert vector_field(quotient).components == lumped.components, (seed, initial)
            seen["coarser than discrete"] += final.n_blocks < case.n_species
        for q in partitions_refining(Partition.trivial(net)):
            assert exact_lumpability_witness(net, q) == reference_exact_witness(net, q), seed
        keys = flux_table(net)[1]
        seen["inflow"] += () in keys
        seen["three species"] += any(len(key) >= 3 for key in keys)
    assert min(seen.values()) > 10, seen


class TestRefine:
    def test_forward_from_trivial(self, crn, h_o):
        trace = refine(crn, Partition.trivial(crn), BisimMode.FORWARD)
        assert trace.final == h_o

    def test_backward_from_trivial(self, crn, h_e):
        trace = refine(crn, Partition.trivial(crn), BisimMode.BACKWARD)
        assert trace.final == h_e

    def test_from_discrete_stays_discrete(self, crn, mode):
        discrete = Partition.discrete(crn)
        trace = refine(crn, discrete, mode)
        assert trace.final == discrete
        assert trace.passes == 0

    def test_respects_initial_partition(self, crn):
        # singling out C forbids the C/E merge
        initial = blocks_of(crn, "C", "ABDE")
        trace = refine(crn, initial, BisimMode.FORWARD)
        assert trace.final.refines(initial)
        assert trace.final == Partition.discrete(crn)

    def test_trace_shape(self, crn, mode):
        trace = refine(crn, Partition.trivial(crn), mode)
        iterations = _oracle_iterations(crn, Partition.trivial(crn), mode)
        assert iterations[0] == Partition.trivial(crn)
        assert iterations[-1] == trace.final
        assert len(iterations) - 1 == trace.passes
        for earlier, later in zip(iterations, iterations[1:]):
            assert later.refines(earlier)
            assert later != earlier

    def test_empty_reaction_list_returns_initial(self, mode):
        net = make_crn(["A", "B", "C"], [])
        for initial in partitions_refining(Partition.trivial(net)):
            trace = refine(net, initial, mode)
            assert trace.final == initial
            assert is_bisimulation(net, initial, mode)

    def test_fixpoint_and_monotonicity_on_random_networks(self, mode):
        for seed in range(25):
            net = random_crn(seed, 3 + seed % 4, 2 + seed % 9)
            trace = refine(net, Partition.trivial(net), mode)
            assert is_bisimulation(net, trace.final, mode)
            assert trace.final.refines(Partition.trivial(net))
            # pass count is bounded by the species count
            assert trace.passes <= net.n_species
            iterations = _oracle_iterations(net, Partition.trivial(net), mode)
            assert iterations[-1] == trace.final
            for earlier, later in zip(iterations, iterations[1:]):
                assert later.refines(earlier)

    def test_deterministic(self, crn, mode):
        a = refine(crn, Partition.trivial(crn), mode)
        b = refine(crn, Partition.trivial(crn), mode)
        assert a.final == b.final
        assert a.passes == b.passes
        assert a.predicate_calls == b.predicate_calls

    def test_matches_brute_force_oracle(self, mode):
        for seed in range(40):
            net = random_crn(seed, 3 + seed % 3, 3 + seed % 8)
            initial = Partition.trivial(net)
            assert refine(net, initial, mode).final == brute_force_coarsest(
                net, initial, mode
            )

    def test_matches_brute_force_at_the_ends_of_the_packed_key(self, mode):
        net = _packed_key_ends()
        for initial in partitions_refining(Partition.trivial(net)):
            assert refine(net, initial, mode).final == brute_force_coarsest(
                net, initial, mode
            )

    def test_matches_brute_force_from_nontrivial_initial(self, mode):
        for seed in range(10):
            net = random_crn(seed, 5, 7)
            initial = Partition(
                net.species, [net.species[:2], net.species[2:]]
            )
            assert refine(net, initial, mode).final == brute_force_coarsest(
                net, initial, mode
            )

    def test_predicate_calls_within_theoretical_bound(self, mode):
        for seed in range(15):
            net = random_crn(seed, 3 + seed % 4, 1 + seed % 12)
            trace = refine(net, Partition.trivial(net), mode)
            bound = net.n_reactions**2 * net.n_species**5
            assert trace.predicate_calls <= bound


class TestSplitterRefinement:
    """``refine`` recomputes only the signatures a split touched; it must
    give the final partition and pass count of the full-recompute loop."""

    def test_matches_full_pass_loop_on_random_sweep(self, mode):
        # the 200 networks of the acceptance sweep, from the trivial
        # partition and from a seeded three-way split of the species
        for seed in range(200):
            net = random_crn(seed, 3 + seed % 4, 1 + seed % 12)
            labels = [(seed * 7 + 3 * sp.id) % 5 % 3 for sp in net.species]
            split = Partition(
                net.species,
                [[sp for sp in net.species if labels[sp.id] == k] for k in set(labels)],
            )
            for initial in (Partition.trivial(net), split):
                trace = refine(net, initial, mode)
                assert (trace.final, trace.passes) == _oracle_result(net, initial, mode)

    def test_backward_moves_read_every_reactant_of_any_network(self):
        # Networks with inflows and reactant sides of up to four molecules
        # of up to four species, alone and as two or three disjoint copies,
        # from the trivial partition and from a seeded three-way split:
        # the moves after a split that is not wide must reach the rows of
        # a reactant side through each of its species, and the kept
        # signatures must equal fresh ones after every pass.
        bb = BisimMode.BACKWARD
        passes = 0
        for seed in range(60):
            net = random_non_elementary(seed, 6 + seed % 9, 4 + seed % 13)
            for case in (net, copies(net, 2 + seed % 2)):
                labels = [(seed * 7 + 3 * sp.id) % 5 % 3 for sp in case.species]
                split = Partition(
                    case.species,
                    [[sp for sp in case.species if labels[sp.id] == k] for k in set(labels)],
                )
                for initial in (Partition.trivial(case), split):
                    trace = refine(case, initial, bb)
                    assert (trace.final, trace.passes) == _oracle_result(case, initial, bb)
                    passes += _check_kept_signatures(case, initial, bb)
        assert passes > 100

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_full_pass_loop_on_multisite(self, n):
        net, inits = multisite(MultisiteSpec(n_sites=n))
        for mode, initial in (
            (BisimMode.FORWARD, Partition.trivial(net)),
            (BisimMode.BACKWARD, partition_from_initial_conditions(inits)),
        ):
            trace = refine(net, initial, mode)
            assert (trace.final, trace.passes) == _oracle_result(net, initial, mode)

    @pytest.mark.parametrize("n", [2, 3, 300, 2000])
    def test_matches_full_pass_loop_on_chains(self, mode, n):
        net = shuffled_chain(n, seed=n)
        trace = refine(net, Partition.trivial(net), mode)
        assert (trace.final, trace.passes) == _oracle_result(
            net, Partition.trivial(net), mode
        )
        assert trace.final == Partition.discrete(net)

    def test_refined_partitions_equal_checked_ones(self, mode):
        # ``refine`` builds its result without the constructor's checks.
        nets = []
        for seed in range(200):
            net = random_crn(seed, 3 + seed % 4, 1 + seed % 12)
            nets += [(net, Partition.trivial(net)), (net, Partition.discrete(net))]
        for n in (1, 2, 3, 4):
            net, inits = multisite(MultisiteSpec(n_sites=n))
            nets.append((net, Partition.trivial(net)))
            nets.append((net, partition_from_initial_conditions(inits)))
        for n in (2, 3, 300):
            net = shuffled_chain(n, seed=n)
            nets.append((net, Partition.trivial(net)))
        for seed in range(50):
            for unary in (False, True):
                net = copies(random_crn(seed, 3 + seed % 6, 2 + seed % 10), 2 + seed % 2, unary)
                nets.append((net, Partition.trivial(net)))
        split = 0
        for net, initial in nets:
            trace = refine(net, initial, mode)
            assert_checked_alike(trace.final)
            split += trace.passes > 0
        assert split > 100

    def test_kept_signatures_equal_fresh_ones_after_every_pass(self, mode):
        # retarget moves each entry between two keys of a kept signature in
        # place, or after a wide split folds every signature again; after
        # every pass, every species outside a singleton (the only ones it
        # updates) must hold what a fresh build gives.  After moves retarget
        # returns exactly those whose signature reads a new piece, after a
        # fold all of them.
        nets = [
            (net, initial)
            for seed in range(200)
            for net in [random_crn(seed, 3 + seed % 4, 1 + seed % 12)]
            for initial in (Partition.trivial(net), Partition.discrete(net))
        ]
        for n in (1, 2, 3):
            net, inits = multisite(MultisiteSpec(n_sites=n))
            nets.append((net, Partition.trivial(net)))
            nets.append((net, partition_from_initial_conditions(inits)))
        nets.append((shuffled_chain(50, seed=50), None))
        # A's flux +1 over {A, C} and -1 over {A, D} cancel in one class
        # until the splitter {C, D} moves both entries to a new class, where
        # they cancel again: each move drops a zero, from the old class and
        # then from the new one.  A2 and A3 keep A's block larger than {C, D}.
        cancel = make_crn(
            ["A", "A2", "A3", "C", "D", "G"],
            [
                *(({a: 1, "C": 1}, 1, {a: 2, "C": 1}) for a in ("A", "A2", "A3")),
                *(({a: 1, "D": 1}, 1, {"D": 1}) for a in ("A", "A2", "A3")),
                ({"G": 1}, 1, {"C": 1, "D": 1}),
            ],
        )
        nets.append((cancel, None))
        # Forward moves (D splits off), folds again (the A and B pieces are
        # wide), then moves along the R chain: the moves after a fold start
        # from that fold's row keys, not from the keys moved before it.
        nets.append((_moves_fold_moves(), None))
        # Disjoint copies split first into wide pieces, so their signatures
        # are folded again: those of two copies of ``cancel`` drop the zeros.
        nets.append((copies(cancel, 2, unary=False), None))
        nets += [
            (copies(random_crn(seed, 3 + seed % 6, 2 + seed % 10), 2 + seed % 2, unary), None)
            for seed in range(50)
            for unary in (False, True)
        ]
        passes = 0
        for net, initial in nets:
            passes += _check_kept_signatures(net, initial or Partition.trivial(net), mode)
        assert passes > 200

    def test_matches_full_pass_loop_where_a_pass_splits_both_ways(self, mode, monkeypatch):
        # A pass decides a block with one touched member by one comparison
        # and buckets a block with more; each network here has passes that
        # do both.  The cascade's reactions split a species into two, at
        # rates that alternate across a level.  Forward also runs on three
        # chains into Z, two at rate 1 and one at rate 2: the rate-1
        # species at one distance from Z form a block with two touched
        # members, the rate-2 chain's species a block with one.
        gather, mixed = crnlump.bisim._Blocks._gather, []

        def counted(blocks, touched):
            marked = gather(blocks, touched)
            split = [m for b, m in marked.items() if m < blocks.end[b] - blocks.first[b]]
            mixed[-1] += 1 in split and max(split) > 1
            return marked

        monkeypatch.setattr(crnlump.bisim._Blocks, "_gather", counted)
        nets = [_cascade(5)] + ([_three_chains()] if mode is BisimMode.FORWARD else [])
        for net in nets:
            mixed.append(0)
            initial = Partition.trivial(net)
            trace = refine(net, initial, mode)
            assert (trace.final, trace.passes) == _oracle_result(net, initial, mode)
        assert all(mixed)

    @pytest.mark.parametrize("n", [300, 2000])
    def test_predicate_calls_near_linear_on_chains(self, mode, n):
        # the full-recompute loop buckets about n^2/2 species on a chain
        net = shuffled_chain(n, seed=n)
        trace = refine(net, Partition.trivial(net), mode)
        assert trace.passes >= n - 2
        assert trace.predicate_calls <= 4 * n * ceil(log2(n))

    @pytest.mark.parametrize(
        "n, forward, backward",
        [
            (1, (1, 6, 6), (1, 3, 6)),
            (2, (1, 30, 12), (1, 27, 12)),
            (3, (1, 126, 22), (1, 123, 22)),
            (4, (1, 510, 37), (1, 507, 37)),
            (5, (1, 2046, 58), (1, 2043, 58)),
        ],
    )
    def test_multisite_counts_are_pinned(self, n, forward, backward):
        # (passes, predicate_calls, blocks): one splitting pass, then every
        # species outside a singleton is bucketed once more.
        net, inits = multisite(MultisiteSpec(n_sites=n))
        for mode, initial, counts in (
            (BisimMode.FORWARD, Partition.trivial(net), forward),
            (BisimMode.BACKWARD, partition_from_initial_conditions(inits), backward),
        ):
            trace = refine(net, initial, mode)
            assert (trace.passes, trace.predicate_calls, trace.final.n_blocks) == counts

    @pytest.mark.parametrize("case, refolds", [("multisite3", True), ("chain50", False)])
    def test_a_wide_split_refolds_without_the_reverse_index(self, case, refolds, monkeypatch):
        # multisite n=3 splits once into pieces holding most species, so both
        # modes fold every signature again; a chain splits one species off
        # per pass, so both move entries and build their index.
        if case == "multisite3":
            net, inits = multisite(MultisiteSpec(n_sites=3))
            runs = (
                (BisimMode.FORWARD, Partition.trivial(net)),
                (BisimMode.BACKWARD, partition_from_initial_conditions(inits)),
            )
        else:
            net = shuffled_chain(50, seed=50)
            runs = tuple((mode, Partition.trivial(net)) for mode in BisimMode)
        built = []
        signatures = crnlump.bisim._signatures

        def keep(*args):
            built.append(signatures(*args))
            return built[-1]

        monkeypatch.setattr(crnlump.bisim, "_signatures", keep)
        for mode, initial in runs:
            assert refine(net, initial, mode).passes >= 1
        forward, backward = built
        assert (forward.reading is None) is refolds
        assert (backward.reading is None) is refolds

    def test_refolds_and_moves_reach_the_same_partitions(self, mode, monkeypatch):
        # After a wide split a fold hands every species outside a singleton
        # to the next pass, the moves only those a new piece touched; both
        # leave, pass for pass, the partition of recomputing every signature.
        # Disjoint copies of a random network split first into pieces of
        # copies, which are wide.  On multisite the moves touch every species
        # outside a singleton too, so even ``predicate_calls`` agrees.
        nets = [
            (copies(random_crn(seed, n, r), 2 + seed % 3, unary), None)
            for seed in range(150)
            for n in [(3, 5, 8, 12)[seed % 4]]
            for r in [(n, 2 * n, 3 * n)[seed // 4 % 3]]
            for unary in (False, True)
        ]
        for n in (2, 3, 4):
            net, inits = multisite(MultisiteSpec(n_sites=n))
            nets.append((net, partition_from_initial_conditions(inits)))
        nets = [(net, initial or Partition.trivial(net)) for net, initial in nets]
        is_wide, refolds = crnlump.bisim._Blocks.is_wide, []

        def counted(blocks, pieces):
            refolds.append(is_wide(blocks, pieces))
            return refolds[-1]

        monkeypatch.setattr(crnlump.bisim._Blocks, "is_wide", counted)
        folded = [refine(net, initial, mode) for net, initial in nets]
        monkeypatch.setattr(crnlump.bisim._Blocks, "is_wide", lambda blocks, pieces: False)
        moved = [refine(net, initial, mode) for net, initial in nets]
        for (net, _), a, b in zip(nets, folded, moved):
            assert (a.final, a.passes) == (b.final, b.passes), net
        assert [a.predicate_calls for a in folded[-3:]] == [b.predicate_calls for b in moved[-3:]]
        assert sum(refolds) > 100


def _blocks_state(blocks):
    return blocks.elems, blocks.loc, blocks.first, blocks.end, blocks.block_of


def test_split_decides_a_block_with_one_touched_member_as_bucketing_does():
    # One call over six blocks.  One touched member: 0 stays in {0, 1, 2},
    # 3 leaves {3, 4} (a tie: 4 keeps the label) and 6 leaves {5, 6, 7, 8}.
    # Bucketed: {9, 10, 11} with two touched members, 9 leaving and 10
    # joining 11; {12, 13}, all touched, into two; the singleton {14}.
    names = [f"X{i}" for i in range(15)]
    net = make_crn(names, [])
    sp = net.species
    groups = [(0, 1, 2), (4, 3), (8, 6, 5, 7), (11, 10, 9), (13, 12), (14,)]
    initial = Partition(sp, [[sp[x] for x in group] for group in groups])
    static = [0] * 15
    static[12] = 1
    sums = [{7: 2} for _ in range(15)]
    for x in (3, 6, 9):
        sums[x] = {7: 2, 8: 1}
    sigs = types.SimpleNamespace(static=static, sums=sums)
    sigs.key = lambda x: crnlump.bisim._Signatures.key(sigs, x)
    touched = [9, 0, 12, 3, 14, 6, 10, 13]

    blocks = crnlump.bisim._Blocks(initial)
    pieces = blocks.split(touched, sigs)
    # The same call with every block bucketed.
    bucketed = crnlump.bisim._Blocks(initial)
    expected = []
    for b, m in bucketed._gather(touched).items():
        bucketed._bucket(b, bucketed.first[b] + m, sigs, expected)
    assert pieces == expected
    assert _blocks_state(blocks) == _blocks_state(bucketed)

    label = {x: blocks.block_of[x] for x in range(15)}
    old = initial.block_index
    assert len(pieces) == 4
    for x, stays in ((0, True), (3, False), (4, True), (6, False), (9, False), (10, True)):
        assert (label[x] == old[x]) is stays
    assert label[5] == label[7] == label[8] == old[5]
    assert label[10] == label[11] and label[12] != label[13]
    for piece, parent in pieces:
        assert all(old[x] == parent for x in blocks.members(piece))


def _one_block(order, static, sums):
    """A ``_Blocks`` of one block laid out in ``order`` and signatures of
    the given static parts and sums, whose ``key`` is the library's."""
    names = [f"X{i}" for i in range(len(order))]
    net = make_crn(names, [])
    sp = net.species
    blocks = crnlump.bisim._Blocks(Partition(sp, [sp]))
    blocks.elems[:] = order
    for i, x in enumerate(order):
        blocks.loc[x] = i
    sigs = types.SimpleNamespace(static=static, sums=sums)
    sigs.key = lambda x: crnlump.bisim._Signatures.key(sigs, x)
    return blocks, sigs


def test_bucket_splits_a_block_whose_only_differing_member_is_its_last():
    # All four touched, as after a fold: 5 alone differs, by its sums, and
    # leaves as a piece of one; 2 alone differs by its static part.
    for static, sums, odd in (
        ([0] * 8, [{1: 2}] * 5 + [{1: 3}] + [{1: 2}] * 2, 5),
        ([0, 0, 1, 0, 0, 0, 0, 0], [{1: 2}] * 8, 2),
    ):
        order = [7, 1, 3, odd]
        blocks, sigs = _one_block(order + [x for x in range(8) if x not in order], static, sums)
        blocks.first[0], blocks.end[0] = 0, 4
        pieces = []
        blocks._bucket(0, 4, sigs, pieces)
        assert pieces == [(1, 0)]
        assert blocks.elems[:4] == [7, 1, 3, odd]
        assert (blocks.first, blocks.end) == ([0, 3], [3, 4])
        assert [blocks.block_of[x] for x in order] == [0, 0, 0, 1]
    # Two touched members agree with each other, but not with the untouched
    # member compared after them: they leave together, the untouched keep
    # the label.
    sums = [{1: 2}] * 2 + [{1: 5}] * 3
    blocks, sigs = _one_block([0, 1, 2, 3, 4], [0] * 5, sums)
    pieces = []
    blocks._bucket(0, 2, sigs, pieces)
    assert pieces == [(1, 0)]
    assert (blocks.first, blocks.end) == ([2, 0], [5, 2])
    assert blocks.block_of == [1, 1, 0, 0, 0]


def test_bucket_builds_no_key_when_every_member_agrees():
    def refuse(x):
        raise AssertionError("a key was built")

    for mid in (2, 5):
        blocks, sigs = _one_block([4, 0, 3, 1, 2], [3] * 5, [{0: 1, 7: -2}] * 5)
        sigs.key = refuse
        pieces = []
        blocks._bucket(0, mid, sigs, pieces)
        assert pieces == [] and blocks.elems == [4, 0, 3, 1, 2]
        assert (blocks.first, blocks.end) == ([0], [5])


def _three_chains():
    """Chains of 6 and 9 species at rate 1 and one of 12 at rate 2, each
    ending in Z."""
    names, rows = [], []
    for prefix, n, rate in (("A", 6, 1), ("B", 9, 1), ("C", 12, 2)):
        chain = [f"{prefix}{i}" for i in range(n)]
        names += chain
        rows += [({a: 1}, rate, {b: 1}) for a, b in zip(chain, chain[1:] + ["Z"])]
    return make_crn(names + ["Z"], rows)


def _cascade(depth):
    """A binary tree of ``T -> Tl + Tr`` reactions, ``depth`` levels deep,
    the rate alternating 1, 2 along each level."""
    names, rows, level = ["T"], [], ["T"]
    for _ in range(depth):
        children = []
        for i, x in enumerate(level):
            children += [x + "l", x + "r"]
            rows.append(({x: 1}, 1 + i % 2, {x + "l": 1, x + "r": 1}))
        names += children
        level = children
    return make_crn(names, rows)


def _moves_fold_moves():
    rows = [({a: 1}, 1, {"D": 1, "R1": 1}) for a in ("A1", "A2", "A3")]
    rows += [({b: 1}, 1, {"D": 2}) for b in ("B1", "B2", "B3")]
    rows += [({f"R{i}": 1}, 1, {f"R{i + 1}": 2}) for i in (1, 2, 3)]
    rows.append(({"R4": 1}, 1, {"A1": 2}))
    names = ["A1", "A2", "A3", "B1", "B2", "B3", "R1", "R2", "R3", "R4", "D"]
    return make_crn(names, rows)


def _comparable(sigs, mode):
    """Each species' kept sums, backward with every class id read as the
    lift it numbers (ids depend on the order classes were met)."""
    if mode is BisimMode.FORWARD:
        return sigs.sums
    lift = {cid: key for key, cid in sigs.mode._class_of.items()}
    return [{lift[cid]: value for cid, value in kept.items()} for kept in sigs.sums]


def _check_kept_signatures(net, initial, mode):
    """Run refine's loop on ``_Blocks`` and the mode's signatures, and
    after every pass compare the kept signatures with fresh ones built
    from the same block labels; returns the number of passes."""
    if not net.n_reactions:
        return 0
    blocks = crnlump.bisim._Blocks(initial)
    sigs = crnlump.bisim._signatures(net, mode, blocks.block_of)
    touched = blocks.unsettled()
    passes = 0
    while touched:
        pieces = blocks.split(touched, sigs)
        if not pieces:
            break
        passes += 1
        touched = sigs.retarget(blocks, pieces)
        if sigs.reading is None:
            # A fold: the next pass buckets every species outside a singleton.
            assert touched == blocks.unsettled()
        else:
            assert len(set(touched)) == len(touched)
            assert sorted(touched) == _reading_new_pieces(net, mode, blocks, pieces)
        fresh = crnlump.bisim._signatures(net, mode, blocks.block_of)
        kept, built = _comparable(sigs, mode), _comparable(fresh, mode)
        # The row keys the next moves start from, kept or after a fold
        # taken from the mode, are each row keyed afresh under the labels.
        row_key = sigs.row_key if sigs.reading is not None else sigs.mode.rows(blocks)[2]
        assert row_key == [sigs.mode.rekey(e, blocks.block_of) for e in range(len(row_key))]
        for x in range(net.n_species):
            if not blocks.in_singleton(x):
                assert kept[x] == built[x], (net, x)
    return passes


def _reading_new_pieces(net, mode, blocks, pieces):
    """The species outside singletons whose signature reads a new piece,
    sorted: forward, those with a production into one; backward, those in
    the support of a reactant multiset that meets one."""
    new = {piece for piece, _ in pieces}
    block_of = blocks.block_of
    if mode is BisimMode.FORWARD:
        n = net.n_species
        prod = crnlump.bisim._Forward(net, block_of)._prod
        reading = {x for x in range(n) if any(block_of[key % n] in new for key in prod[x])}
    else:
        reading = {
            sid
            for reactants, row in zip(*flux_table(net)[1:])
            if any(block_of[y] in new for y, _ in reactants)
            for sid in row
        }
    return sorted(x for x in reading if not blocks.in_singleton(x))
