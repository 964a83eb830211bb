import random
from fractions import Fraction

import pytest

from crnlump import (
    CRN,
    BisimMode,
    CRNError,
    InitialCondition,
    ParseError,
    MultisiteSpec,
    Partition,
    PartitionError,
    Species,
    backward_reduce,
    find_counterexample,
    forward_reduce,
    import_bngl_net,
    is_bisimulation,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    lumped_field_backward,
    lumped_field_forward,
    make_crn,
    multisite,
    parse_crn,
    quotient_species,
    refine,
    serialize_crn,
    validate,
    verify_backward,
    verify_forward,
)
import crnlump.core as core
from crnlump.core import scaled_reactions
from crnlump.odes import exact_lumpability_witness, ordinary_lumpability_witness
from conftest import (
    assert_checked_alike,
    assert_only_forward_refuses,
    blocks_of,
    shuffled_chain,
)
from oracle import (
    Multiset,
    ReferenceCRN,
    _lift,
    reactions_of,
    reference_import_bngl_net,
    reference_parse_crn,
)


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


A_B = (Species(0, "A"), Species(1, "B"))
# A -> B , 1, so that every bad row below is reaction 1.
GOOD_ROW = (((0, 1),), Fraction(1), ((1, 1),))
ROW_SHAPE = (
    "reaction 1: a row must be (reactant pairs, rate, product pairs), "
    "each side a tuple of (species id, multiplicity) pairs"
)


@pytest.mark.parametrize(
    "species,row,error,message",
    [
        (A_B, (((2, 1),), 1, ()), CRNError, "reaction 1: species id 2 is not an int in [0, 2)"),
        (A_B, (((-1, 1),), 1, ()), CRNError, "reaction 1: species id -1 is not an int in [0, 2)"),
        (A_B, ((("0", 1),), 1, ()), CRNError, "reaction 1: species id '0' is not an int in [0, 2)"),
        (
            A_B,
            (((0, 1),), 1, ((1, -1),)),
            CRNError,
            "reaction 1: multiplicity -1 of B is not a nonnegative int",
        ),
        (
            A_B,
            (((0, 1.5),), 1, ()),
            CRNError,
            "reaction 1: multiplicity 1.5 of A is not a nonnegative int",
        ),
        (A_B, (((0, 1),), 0.5, ()), CRNError, "reaction 1: rate 0.5 is not a Fraction or an int"),
        (A_B, ([(0, 1)], 1, ()), CRNError, ROW_SHAPE),
        (A_B, (((0, 1),), 1), CRNError, ROW_SHAPE),
        (A_B, (((0, 1, 1),), 1, ()), CRNError, ROW_SHAPE),
        (
            (Species(0, "A"), Species(1, "A")),
            (((0, 1),), 1, ()),
            ValueError,
            "duplicate species name A",
        ),
    ],
    ids=[
        "id past the end",
        "negative id",
        "non-int id",
        "negative multiplicity",
        "non-int multiplicity",
        "float rate",
        "list side",
        "two-field row",
        "three-field pair",
        "duplicate name",
    ],
)
def test_constructor_refuses_bad_rows(species, row, error, message):
    # The first four used to be taken silently, and validate passed them.
    with pytest.raises(error) as err:
        CRN(species, [GOOD_ROW, row, row])
    assert str(err.value) == message


def test_constructor_drops_zero_multiplicities_and_merges_equal_ids():
    rows = [
        (((1, 1), (0, 1), (1, 0)), Fraction(1, 2), ((0, 1), (0, 1))),
        (((0, 0), (1, 2)), 1, ((0, 0),)),
        (((1, 1), (1, 1)), 3, ((1, 2), (0, 1), (0, 0))),
    ]
    assert scaled_reactions(CRN(A_B, rows)) == (
        2,
        (
            (((0, 1), (1, 1)), ((0, 2),), 1),
            (((1, 2),), (), 2),
            (((1, 2),), ((0, 1), (1, 2)), 6),
        ),
    )


def test_make_crn_refuses_an_undeclared_name():
    # This used to end in a bare KeyError.
    with pytest.raises(CRNError) as err:
        make_crn(["A"], [({"B": 1}, 1, {"A": 1})])
    assert str(err.value) == "reaction 0: undeclared species B"
    with pytest.raises(CRNError) as err:
        make_crn(["A"], [({"A": 1}, 1, {}), ({"A": 1}, 1, {"A": 1, "C": 0})])
    assert str(err.value) == "reaction 1: undeclared species C"
    with pytest.raises(CRNError) as err:
        make_crn(["A"], [({"A": 1}, 1, {"A": -1})])
    assert str(err.value) == "reaction 0: multiplicity -1 of A is not a nonnegative int"


@pytest.mark.parametrize(
    "rate, shown", [("abc", "'abc'"), (None, "None"), ("1/0", "'1/0'"), (float("nan"), "nan")]
)
def test_make_crn_refuses_a_rate_that_is_not_a_number(rate, shown):
    # A rate that Fraction refuses used to end in its bare ValueError,
    # TypeError or ZeroDivisionError.
    with pytest.raises(CRNError) as err:
        make_crn(["A"], [({"A": 1}, 1, {}), ({"A": 1}, rate, {})])
    assert str(err.value) == f"reaction 1: rate {shown} is not a number"
    with pytest.raises(CRNError) as err:
        make_crn(["A"], [({"A": 1}, rate, {})])
    assert str(err.value) == f"reaction 0: rate {shown} is not a number"


def test_validate_running_example_is_clean(crn):
    assert validate(crn) == []


def test_validate_accepts_three_reactants():
    # Any reactant side is a mass-action reaction; only the forward mode
    # needs one or two molecules, and says so itself.
    crn = make_crn(["A", "B", "C", "D"], [({"A": 1, "B": 1, "C": 1}, 1, {"D": 1})])
    assert validate(crn) == []
    assert_only_forward_refuses(crn, "reaction 0 (A + B + C ->(1) D)")


def test_validate_flags_nonpositive_rate():
    crn = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1})])
    bad = CRN(crn.species, [(((0, 1),), Fraction(0), ((1, 1),))])
    assert any("rate must be positive" in v for v in validate(bad))


def test_validate_accepts_an_inflow_and_no_network_holds_a_foreign_species():
    crn = CRN(A_B, [((), Fraction(1), ((0, 1),)), (((0, 1),), Fraction(1), ((1, 1),))])
    assert validate(crn) == []
    assert_only_forward_refuses(crn, "reaction 0 (0 ->(1) A)")
    # A species id that is not the network's own is refused when the
    # network is built.
    with pytest.raises(CRNError) as err:
        CRN(A_B, [(((0, 1),), Fraction(1), ((7, 1),))])
    assert str(err.value) == "reaction 0: species id 7 is not an int in [0, 2)"


FOREIGN = {
    "other name": (
        lambda: make_crn(["A", "B"], [({"Q": 1}, 1, {"B": 1})]),
        "reaction 0: undeclared species Q",
    ),
    "new id": (
        lambda: CRN(A_B, [(((5, 1),), 1, ((1, 1),))]),
        "reaction 0: species id 5 is not an int in [0, 2)",
    ),
}


@pytest.mark.parametrize("build,message", FOREIGN.values(), ids=FOREIGN)
def test_a_foreign_species_is_an_error_not_another_species(build, message):
    # A species not of the network used to be read as another one (A' =
    # -A) or to end in an IndexError; now no network can hold one, so
    # every reader sees only its own species.
    with pytest.raises(CRNError) as err:
        build()
    assert str(err.value) == message


def test_validate_prints_only_the_reactions_it_reports(monkeypatch):
    crn, _ = parse_crn(serialize_crn(*multisite(MultisiteSpec(n_sites=3))))

    def text(crn, i):
        printed.append(i)
        return reaction_text(crn, i)

    printed = []
    reaction_text = core._reaction_text
    with monkeypatch.context() as patch:
        patch.setattr(core, "_reaction_text", text)
        assert validate(crn) == []
        bad_row = (((0, 3),), Fraction(0), ((2, 2), (1, 1)))
        bad = CRN([*A_B, Species(2, "G")], [GOOD_ROW, bad_row])
        # Only the rate is reported: three reactant molecules are valid.
        assert validate(bad) == ["reaction 1 (3A ->(0) B + 2G): rate must be positive"]
    assert printed == [1]
    # The same reaction in a network without G is refused at construction.
    with pytest.raises(CRNError) as err:
        CRN(A_B, [GOOD_ROW, bad_row])
    assert str(err.value) == "reaction 1: species id 2 is not an int in [0, 2)"


NOT_ELEMENTARY = ": not elementary: reactants must be one or two molecules"


@pytest.mark.parametrize(
    "reactions,message",
    [
        (
            [({"A": 1}, 1, {"B": 1}), ({"A": 3}, "1/2", {"B": 2})],
            "reaction 1 (3A ->(1/2) 2B)",
        ),
        ([({"C": 1, "A": 1, "B": 1}, 3, {"D": 1})], "reaction 0 (A + B + C ->(3) D)"),
    ],
    ids=["3A", "A+B+C"],
)
def test_non_elementary_error_is_read_from_the_integer_list(reactions, message):
    # Only the forward signatures need elementary reactions: every forward
    # decision names the first other reaction, and backward refinement
    # reads the network.
    forward = [
        lambda crn, p: refine(crn, p, BisimMode.FORWARD),
        lambda crn, p: is_bisimulation(crn, p, BisimMode.FORWARD),
        lambda crn, p: find_counterexample(crn, p, BisimMode.FORWARD),
    ]
    for decide in forward:
        crn = make_crn(["C", "B", "A", "D"], reactions)
        with pytest.raises(CRNError) as err:
            decide(crn, Partition.trivial(crn))
        assert str(err.value) == message + NOT_ELEMENTARY
        assert refine(crn, Partition.trivial(crn), BisimMode.BACKWARD).final.n_blocks > 1
    # A network rebuilt from the oracle's Reaction objects prints the same
    # text, which is the text such an object prints.
    built = make_crn(["C", "B", "A", "D"], reactions)
    crn = ReferenceCRN(built.species, reactions_of(built))
    with pytest.raises(CRNError) as err:
        refine(crn, Partition.trivial(crn), BisimMode.FORWARD)
    assert str(err.value) == message + NOT_ELEMENTARY
    assert message.endswith(f"({reactions_of(crn)[len(reactions) - 1]!r})")


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


def test_unchecked_blocks_are_normalized_as_the_constructor_does():
    # ``Partition._from_blocks`` skips the constructor's scans, not its
    # normalization: species listed out of name order, cut at random.
    rng = random.Random(11)
    for seed in range(60):
        net = shuffled_chain(1 + seed % 13, seed)
        listed = rng.sample(net.species, net.n_species)
        cuts = sorted(rng.sample(range(1, net.n_species), rng.randint(0, net.n_species - 1)))
        blocks = [listed[a:b] for a, b in zip([0, *cuts], [*cuts, net.n_species])]
        unchecked = Partition._from_blocks(net.species, blocks)
        checked = Partition(net.species, blocks)
        assert (unchecked, hash(unchecked), unchecked.blocks, unchecked.block_index) == (
            checked, hash(checked), checked.blocks, checked.block_index
        )
        assert_checked_alike(Partition.trivial(net))
        assert_checked_alike(Partition.discrete(net))
    empty = make_crn([], [])
    assert Partition.trivial(empty) == Partition.discrete(empty) == Partition((), [])


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


def test_core_lift_equals_the_oracle_lift():
    # Sides of 0-4 pairs in any order, the same species possibly twice and
    # multiplicities possibly zero, through ``range(n)`` (the key of a
    # side) and through random block indexes whose blocks often collect two
    # of them: always the oracle Multiset's normal form.
    rng = random.Random(19)
    species = [Species(i, f"S{i}") for i in range(6)]
    targets = [Species(b, f"B{b}") for b in range(len(species))]
    for _ in range(3000):
        n_blocks = rng.randint(1, len(species))
        pairs = tuple(
            (rng.randrange(len(species)), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))
        )
        for index in (range(len(species)), [rng.randrange(n_blocks) for _ in species]):
            expected = _lift(
                Multiset((species[sid], m) for sid, m in pairs),
                {sp: targets[index[sp.id]] for sp in species},
            )
            assert core._lift(pairs, index) == tuple((sp.id, m) for sp, m in expected)


# Reactant sides of 0-4 molecules: the mapping make_crn takes, the native
# text and the .net reactant field (species A, B, C, D are 1-4).
REACTANT_SIDES = [
    ({}, "0", "0"),
    ({"A": 1}, "A", "1"),
    ({"A": 2}, "2A", "1,1"),
    ({"A": 1, "B": 1}, "A + B", "1,2"),
    ({"A": 3}, "3A", "1,1,1"),
    ({"A": 2, "B": 1}, "2A + B", "2,1,1"),
    ({"A": 2, "B": 2}, "2A + 2B", "1,2,1,2"),
    ({"A": 1, "B": 1, "C": 1, "D": 1}, "A + B + C + D", "4,3,2,1"),
]


@pytest.mark.parametrize("rate", ["1/2", "0", "-3"])
@pytest.mark.parametrize("side", REACTANT_SIDES, ids=lambda side: side[1])
def test_every_reader_applies_one_reaction_rule(side, rate):
    # The one rule of every reader is a positive rate.  Any reactant side
    # is read; only forward refinement needs one or two molecules.
    reactants, text, field = side
    molecules = sum(reactants.values())
    crn = make_crn(["A", "B", "C", "D"], [(reactants, rate, {"C": 1})])
    positive = Fraction(rate) > 0
    assert [v.rsplit(": ", 1)[1] for v in validate(crn)] == (
        [] if positive else ["rate must be positive"]
    )
    if 1 <= molecules <= 2:
        refine(crn, Partition.trivial(crn), BisimMode.FORWARD)
    else:
        assert_only_forward_refuses(crn, f"reaction 0 ({text} ->({rate}) C)")

    native = f"species: A B C D\n{text} -> C , {rate}\n"
    net = (
        "begin species\n1 A 0\n2 B 0\n3 C 0\n4 D 0\nend species\n"
        f"begin reactions\n1 {field} 3 {rate}\nend reactions\n"
    )
    for parse, reference, source, line in (
        (parse_crn, reference_parse_crn, native, 2),
        (import_bngl_net, reference_import_bngl_net, net, 8),
    ):
        if positive:
            assert parse(source)[0] == crn == reference(source)[0]
        else:
            for read in (parse, reference):
                with pytest.raises(ParseError, match=f"^line {line}: rate must be positive$"):
                    read(source)


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
