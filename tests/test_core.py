from fractions import Fraction

import pytest

from crnlump import (
    CRN,
    BisimMode,
    CRNError,
    InitialCondition,
    Multiset,
    Partition,
    PartitionError,
    Reaction,
    Species,
    backward_reduce,
    find_counterexample,
    forward_reduce,
    is_bisimulation,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    lumped_field_backward,
    lumped_field_forward,
    make_crn,
    parse_crn,
    quotient_species,
    refine,
    serialize_crn,
    validate,
    vector_field,
    verify_backward,
    verify_forward,
)
from crnlump.odes import exact_lumpability_witness, ordinary_lumpability_witness
from conftest import blocks_of
from oracle import _lift


def test_multiset_drops_zero_entries():
    a = Species(0, "A")
    m = Multiset([(a, 0)])
    assert not m and m.total == 0 and m.get(a) == 0


def test_multiset_rejects_negative_multiplicity():
    a = Species(0, "A")
    with pytest.raises(ValueError):
        Multiset([(a, -1)])


def test_multiset_accumulates_and_iterates_in_id_order():
    a, b = Species(0, "A"), Species(1, "B")
    m = Multiset([(b, 1), (a, 1), (b, 1)])
    assert [(sp.name, k) for sp, k in m] == [("A", 1), ("B", 2)]
    assert m.total == 3
    assert (m + Multiset.of(a)).get(a) == 2


def test_multiset_equality_and_hash():
    a, b = Species(0, "A"), Species(1, "B")
    assert Multiset.of(a, b) == Multiset.of(b, a)
    assert hash(Multiset.of(a, b)) == hash(Multiset.of(b, a))
    assert Multiset.of(a) != Multiset.of(b)


def test_crn_enforces_dense_ids_and_unique_names():
    with pytest.raises(ValueError):
        CRN([Species(1, "A")], [])
    with pytest.raises(ValueError):
        CRN([Species(0, "A"), Species(1, "A")], [])


def test_validate_running_example_is_clean(crn):
    assert validate(crn) == []


def test_validate_flags_three_reactants():
    crn = make_crn(["A", "B", "C", "D"], [({"A": 1, "B": 1, "C": 1}, 1, {"D": 1})])
    violations = validate(crn)
    assert len(violations) == 1 and "reactants exceed multiplicity 2" in violations[0]


def test_validate_flags_nonpositive_rate():
    crn = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1})])
    bad = CRN(crn.species, [Reaction(crn.reactions[0].reactants, Fraction(0), crn.reactions[0].products)])
    assert any("rate must be positive" in v for v in validate(bad))


def test_validate_flags_zero_reactants_and_foreign_species():
    a, b = Species(0, "A"), Species(1, "B")
    ghost = Species(7, "G")
    crn = CRN([a, b], [Reaction(Multiset(), Fraction(1), Multiset.of(a))])
    assert any("at least one species" in v for v in validate(crn))
    crn2 = CRN([a, b], [Reaction(Multiset.of(a), Fraction(1), Multiset.of(ghost))])
    assert any("undeclared species G" in v for v in validate(crn2))


@pytest.mark.parametrize("foreign", [Species(0, "Q"), Species(5, "Z")], ids=["same id", "new id"])
def test_a_foreign_species_is_an_error_not_another_species(foreign):
    # Q used to be read as A (A' = -A) and Z to end in an IndexError.
    a, b = Species(0, "A"), Species(1, "B")
    message = f"reaction 0 ({foreign.name} ->(1) B): undeclared species {foreign.name}"
    calls = {
        "refine fb": lambda crn: refine(crn, Partition.trivial(crn), BisimMode.FORWARD),
        "refine bb": lambda crn: refine(crn, Partition.trivial(crn), BisimMode.BACKWARD),
        "vector_field": vector_field,
        "serialize_crn": serialize_crn,
    }
    for name, call in calls.items():
        crn = CRN([a, b], [Reaction(Multiset.of(foreign), Fraction(1), Multiset.of(b))])
        with pytest.raises(CRNError) as err:
            call(crn)
        assert str(err.value) == message, name
        # validate still reports it as data, in the same words.
        assert validate(crn) == [message]


def test_reactants_equal_products_is_accepted():
    crn = make_crn(["A", "B"], [({"A": 1, "B": 1}, 2, {"A": 1, "B": 1})])
    assert validate(crn) == []


def test_partition_blocks_are_normalized(crn):
    # members and blocks given out of order come back sorted canonically
    e, c = crn.by_name("E"), crn.by_name("C")
    p = Partition(crn.species, [[e, c], [crn.by_name("D")], [crn.by_name("B")], [crn.by_name("A")]])
    assert [tuple(sp.name for sp in b) for b in p.blocks] == [("A",), ("B",), ("C", "E"), ("D",)]


def test_partition_roundtrip_block_of(crn, h_o):
    rebuilt = Partition(crn.species, {h_o.block_members(sp) for sp in crn.species})
    assert rebuilt == h_o
    assert h_o.block_of(crn.by_name("E")) == h_o.block_of(crn.by_name("C"))


def test_partition_rejects_bad_inputs(crn):
    a = crn.by_name("A")
    everything = list(crn.species)
    with pytest.raises(PartitionError, match="incomplete partition: missing B, C, D, E"):
        Partition(crn.species, [[a]])
    with pytest.raises(PartitionError, match="species A occurs in two blocks"):
        Partition(crn.species, [everything, [a]])
    with pytest.raises(PartitionError, match="empty block"):
        Partition(crn.species, [everything, []])
    # an id past the end, and a valid id under another name
    with pytest.raises(PartitionError, match="unknown species Z"):
        Partition(crn.species, [everything, [Species(9, "Z")]])
    with pytest.raises(PartitionError, match="unknown species Q"):
        Partition(crn.species, [everything, [Species(0, "Q")]])


def test_block_index_agrees_with_block_of(crn, h_o, h_e):
    for p in (h_o, h_e):
        assert len(p.block_index) == crn.n_species
        for sp in crn.species:
            assert p.block_index[sp.id] == p.block_of(sp)
            assert sp in p.blocks[p.block_index[sp.id]]


def test_refinement_is_a_partial_order(crn, h_o, h_e, mixed):
    for p in (h_o, h_e, mixed):
        assert p.refines(p)  # reflexive
    discrete = Partition.discrete(crn)
    trivial = Partition.trivial(crn)
    assert discrete.refines(h_o) and h_o.refines(trivial)
    assert not trivial.refines(h_o)
    assert h_e.refines(mixed) and not mixed.refines(h_e)
    # antisymmetry over all fixture pairs: mutual refinement implies equality
    parts = [h_o, h_e, mixed, discrete, trivial]
    for p in parts:
        for q in parts:
            if p.refines(q) and q.refines(p):
                assert p == q


def test_choice_function_picks_least_member(crn, h_o, h_e):
    assert h_o.representative(crn.by_name("E")).name == "C"
    assert h_o.representative(crn.by_name("A")).name == "A"
    assert h_e.representative(crn.by_name("B")).name == "A"


def test_choice_function_is_idempotent_and_stays_in_block(crn, h_o):
    mu = h_o.representative
    for sp in crn.species:
        assert mu(mu(sp)) == mu(sp)
        assert h_o.same_block(sp, mu(sp))


def test_choice_function_on_discrete_partition_is_identity(crn):
    mu = Partition.discrete(crn).representative
    assert all(mu(sp) == sp for sp in crn.species)


def test_choice_function_unknown_species_errors(crn, h_o):
    for foreign in (Species(9, "Z"), Species(0, "Q"), Species(-1, "E")):
        with pytest.raises(PartitionError, match=f"unknown species {foreign.name}"):
            h_o.representative(foreign)


def test_lift_multiset_accumulates(crn, h_e, h_o):
    a, b, d, e = (crn.by_name(n) for n in "ABDE")

    def choice_map(p):
        return {sp: p.representative(sp) for sp in crn.species}

    assert _lift(Multiset.of(a, b), choice_map(h_e)) == Multiset([(a, 2)])
    # element-wise application, checked by hand expansion: 2E + D -> 2C + D
    lifted = _lift(Multiset([(e, 2), (d, 1)]), choice_map(h_o))
    assert lifted == Multiset([(crn.by_name("C"), 2), (d, 1)])
    m = Multiset.of(a, b, b)
    assert _lift(m, choice_map(Partition.discrete(crn))) == m


def test_quotient_species_renumbers_representatives(crn, h_o):
    qs = quotient_species(h_o)
    assert [sp.name for sp in qs] == ["A", "B", "C", "D"]
    assert [sp.id for sp in qs] == [0, 1, 2, 3]


def test_species_order_is_name_lexicographic():
    crn = make_crn(["Zeta", "Alpha"], [({"Zeta": 1}, 1, {"Alpha": 1})])
    p = Partition.trivial(crn)
    assert p.representative(crn.by_name("Zeta")).name == "Alpha"


def _entry_points():
    """Every public function that takes a network and a partition of it,
    called with fixed remaining arguments."""

    def verify(fn):
        return lambda net, p: fn(net, p, InitialCondition.from_map(net, {}, 1), 1.0, 1e-6)

    points = {
        "forward_reduce": forward_reduce,
        "backward_reduce": backward_reduce,
        "is_exactly_lumpable": is_exactly_lumpable,
        "exact_lumpability_witness": exact_lumpability_witness,
        "is_ordinarily_lumpable": is_ordinarily_lumpable,
        "ordinary_lumpability_witness": ordinary_lumpability_witness,
        "lumped_field_forward": lumped_field_forward,
        "lumped_field_backward": lumped_field_backward,
        "verify_forward": verify(verify_forward),
        "verify_backward": verify(verify_backward),
    }
    for mode in BisimMode:
        for fn in (refine, is_bisimulation, find_counterexample):
            points[f"{fn.__name__}[{mode}]"] = lambda net, p, fn=fn, mode=mode: fn(net, p, mode)
    return points


ENTRY_POINTS = _entry_points()

FOREIGN_PARTITIONS = {
    "smaller": lambda: Partition.trivial(make_crn(["A", "B"], [])),
    "larger": lambda: Partition.discrete(make_crn(list("ABCDEFG"), [])),
    "other names": lambda: Partition.discrete(make_crn(list("PQRST"), [])),
}


@pytest.mark.parametrize("foreign", FOREIGN_PARTITIONS.values(), ids=FOREIGN_PARTITIONS)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_partition_of_another_network_rejected(crn, call, foreign):
    # Some of these used to answer for the wrong species, others ended in
    # IndexError or KeyError.
    with pytest.raises(PartitionError, match="not over the species of this network"):
        call(crn, foreign())


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_partition_of_an_equal_network_accepted(crn, call):
    twin, _ = parse_crn(serialize_crn(crn))
    assert twin.species == crn.species and twin.species[0] is not crn.species[0]
    call(crn, Partition.discrete(twin))
