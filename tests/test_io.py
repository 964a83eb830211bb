import random
import sys
from fractions import Fraction

import pytest

from crnlump import (
    CRN,
    CRNError,
    ParseError,
    Partition,
    PartitionError,
    import_bngl_net,
    make_crn,
    multisite,
    parse_crn,
    parse_initial_conditions,
    parse_partition,
    partition_from_initial_conditions,
    random_crn,
    running_example,
    serialize_crn,
)
from crnlump.io import format_rational, parse_rational
from crnlump.models import MultisiteSpec
from crnlump.sim import InitialCondition, verify_backward, verify_forward
from crnlump.odes import format_vector_field, vector_field
from conftest import assert_checked_alike, assert_only_forward_refuses, blocks_of
from oracle import Multiset, reactions_of, reference_import_bngl_net, reference_parse_crn

RUNNING_TEXT = """\
# the worked five-species example
species: A B C D E
A -> E , 6
B -> D , 6
A + B -> C , 2
C + D -> 2C + D , 5
E + D -> 2E + D , 5
"""


class TestParseCrn:
    def test_running_example_text(self):
        crn, inits = parse_crn(RUNNING_TEXT)
        assert inits is None
        assert crn == running_example()

    def test_products_with_coefficients(self):
        crn, _ = parse_crn("C + D -> 2C + D , 5")
        rxn = reactions_of(crn)[0]
        assert rxn.products.get(crn.by_name("C")) == 2
        assert rxn.products.get(crn.by_name("D")) == 1

    def test_first_appearance_order_without_header(self):
        crn, _ = parse_crn("B -> A , 1\nC -> B , 1")
        assert [sp.name for sp in crn.species] == ["B", "A", "C"]

    def test_empty_products_side(self):
        crn, _ = parse_crn("A -> 0 , 3")
        assert reactions_of(crn)[0].products == Multiset()

    def test_init_lines(self):
        crn, inits = parse_crn("A -> B , 1\ninit: A = 1/2\ninit: B = 0.25")
        assert inits.get(crn.by_name("A")) == Fraction(1, 2)
        assert inits.get(crn.by_name("B")) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("A -> B , 1\ninit: A = 1\ninit: A = 2", 3),
            ("init: A = 1\n# same value\ninit:  A=1\nA -> B , 1", 3),
            ("species: A B\ninit: B = 1/2\nA -> B , 1\ninit: A = 0\ninit: B = 1", 5),
        ],
    )
    def test_second_init_for_a_species_rejected(self, text, line):
        name = "B" if line == 5 else "A"
        with pytest.raises(ParseError, match=f"^line {line}: second initial value for {name}$"):
            parse_crn(text)

    def test_three_reactants_rejected(self):
        # rejected by the forward mode alone: the parser reads the reaction
        text = "A + B + C -> D , 1\nA -> 3B , 2"
        crn, _ = parse_crn(text)
        assert crn == reference_parse_crn(text)[0]
        assert reactions_of(crn)[0].reactants.total == 3
        assert_only_forward_refuses(crn, "reaction 0 (A + B + C ->(1) D)")

    def test_two_molecules_same_species_allowed(self):
        crn, _ = parse_crn("2A -> B , 1")
        assert reactions_of(crn)[0].reactants.get(crn.by_name("A")) == 2

    def test_zero_reactants_rejected(self):
        # rejected by the forward mode alone: the parser reads the inflow
        text = "0 -> A , 1\nA -> B , 1\n0A -> B , 2"
        crn, _ = parse_crn(text)
        assert crn == reference_parse_crn(text)[0]
        assert [r.reactants for r in reactions_of(crn)] == [
            Multiset(), Multiset.of(crn.by_name("A")), Multiset()
        ]
        assert serialize_crn(crn) == "species: A B\n0 -> A , 1\n0 -> B , 2\nA -> B , 1\n"
        assert_only_forward_refuses(crn, "reaction 0 (0 ->(1) A)")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ParseError, match="rate must be positive"):
            parse_crn("A -> B , 0")
        with pytest.raises(ParseError, match="rate must be positive"):
            parse_crn("A -> B , -2")

    def test_missing_rate_rejected(self):
        with pytest.raises(ParseError, match="missing rate"):
            parse_crn("A -> B")

    def test_undeclared_species_with_header(self):
        with pytest.raises(ParseError, match="undeclared species Z"):
            parse_crn("species: A B\nA -> Z , 1")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_crn("A -> B , 1\n# fine\nA -> B , bogus")

    def test_garbage_line(self):
        with pytest.raises(ParseError, match="expected a reaction line"):
            parse_crn("definitely not a reaction")

    @pytest.mark.parametrize(
        "line,reactants,products",
        [
            ("S(a+b) -> T(c,d) , 1", ["S(a+b)"], ["T(c,d)"]),
            ("X[a,b] + Y{c+d} -> Z(e->f) , 1", ["X[a,b]", "Y{c+d}"], ["Z(e->f)"]),
            ("P(x) -> Q(y,[z]) + R , 1", ["P(x)"], ["Q(y,[z])", "R"]),
            ("A(b[c+d,e]{f->g}) -> 2B{x,(y+z)} , 1", ["A(b[c+d,e]{f->g})"], ["B{x,(y+z)}"] * 2),
            # A stray closer makes the depth negative until an opener
            # brings it back, so the '+' between them separates nothing.
            ("A)+B(x -> C , 1", ["A)+B(x"], ["C"]),
            ("A -> B)+(C , 1", ["A"], ["B)+(C"]),
        ],
    )
    def test_separators_only_at_depth_zero(self, line, reactants, products):
        crn, _ = parse_crn(line)
        (rxn,) = reactions_of(crn)
        assert rxn.reactants == Multiset.of(*map(crn.by_name, reactants))
        assert rxn.products == Multiset.of(*map(crn.by_name, products))

    @pytest.mark.parametrize(
        "line,message",
        [
            ("A) -> B , 1", "expected a reaction line, got 'A) -> B , 1'"),
            ("A{ -> B } -> C , 1", "species name contains whitespace: 'A{ -> B }'"),
            ("A -> B) , 1", "missing rate (expected 'products , rate')"),
            ("A -> B(x , 1", "missing rate (expected 'products , rate')"),
            ("A -> B , C , 1", "species name contains whitespace: 'B , C'"),
        ],
    )
    def test_separators_hidden_by_brackets(self, line, message):
        with pytest.raises(ParseError) as err:
            parse_crn(line)
        assert str(err.value) == f"line 1: {message}"

    @pytest.mark.parametrize(
        "text,message",
        [
            # a malformed side that repeats fails where it first appears
            ("A -> B , 1\nA + -> B , 1\nB -> A , 1\n# c\nA + -> B , 1",
             "line 2: empty term in reaction side"),
            # and so does a repeated bad rate literal
            ("A -> B , 1\nB -> A , 1/0\nA -> A , 1/0", "line 2: not a rational number: '1/0'"),
            # a side read before as products is read again as reactants,
            # and the line's own fault is reported
            ("A -> 2A + B , 1\n2A + B -> A + , 1", "line 2: empty term in reaction side"),
            ("init: A = 0\nA -> B , 0", "line 2: rate must be positive"),
            # an undeclared species is reported at the first line naming it,
            # left side before right, wherever the header stands
            ("species: A B\nA -> B , 1\nB -> Z , 1\nZ -> A , 1\nA -> Z , 1",
             "line 3: undeclared species Z"),
            ("A -> B , 1\nY -> Z , 1\nspecies: A B", "line 2: undeclared species Y"),
            ("A -> B , 1\ninit: Y = 1\nB -> Z + A , 1\nZ + A -> B , 1\nspecies: A B",
             "line 3: undeclared species Z"),
            # an init line naming a species the header leaves out
            ("species: A B\nA -> B , 1\ninit: C = 1", "line 3: undeclared species C"),
            ("species: A B A\nA -> B , 1", "line 1: duplicate name in species: header"),
            ("A -> B , 1\ninit: A 1", "line 2: expected 'init: NAME = VALUE'"),
        ],
    )
    def test_error_reported_at_first_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_crn(text)
        assert str(err.value) == message

    def test_first_appearance_order_on_multisite(self):
        text = serialize_crn(*multisite(MultisiteSpec(n_sites=3)))
        body = text.split("\n", 1)[1]
        expected = []
        for line in body.splitlines():
            if line.startswith("init:"):
                names = [line[len("init:"):].partition("=")[0].strip()]
            else:
                lhs, rest = line.split(" -> ")
                rhs = rest.rsplit(" , ", 1)[0]
                names = [
                    term.lstrip("0123456789")
                    for side in (lhs, rhs) if side != "0"
                    for term in side.split(" + ")
                ]
            expected.extend(name for name in names if name not in expected)
        crn, _ = parse_crn(body)
        assert [sp.name for sp in crn.species] == expected
        assert expected != [sp.name for sp in parse_crn(text)[0].species]


class TestExactRates:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("6", Fraction(6)),
            ("0.1", Fraction(1, 10)),
            ("1e-3", Fraction(1, 1000)),
            ("2.5e2", Fraction(250)),
            ("3/7", Fraction(3, 7)),
        ],
    )
    def test_literals_become_exact_rationals(self, text, expected):
        assert parse_rational(text) == expected

    def test_no_float_round_trip_artifacts(self):
        crn, _ = parse_crn("A -> B , 0.1")
        line = serialize_crn(crn).splitlines()[1]
        assert line == "A -> B , 1/10"
        assert "0.1000000" not in serialize_crn(crn)

    def test_format_rational(self):
        assert format_rational(Fraction(6)) == "6"
        assert format_rational(Fraction(1, 10)) == "1/10"

    def test_digit_limit(self, digit_limit):
        # A value whose numerator or denominator Python cannot print back
        # used to pass parsing and fail later with a bare ValueError; an
        # exponent past three times the limit is refused before expanding.
        assert parse_rational(f"1e{digit_limit - 1}") == 10 ** (digit_limit - 1)
        assert parse_rational(f"1e-{digit_limit - 1}") == Fraction(1, 10 ** (digit_limit - 1))
        for text in (f"1e{digit_limit}", f"1e-{digit_limit}", f"1e{3 * digit_limit + 1}"):
            with pytest.raises(ParseError, match=f"^line 4: number has more than {digit_limit} digits$"):
                parse_rational(text, 4)

    def test_no_digit_limit_when_it_is_zero(self, digit_limit):
        sys.set_int_max_str_digits(0)
        assert parse_rational(f"1e{digit_limit}") == 10**digit_limit


class TestSerializeCrn:
    def test_reaction_lines_are_sorted(self, crn):
        lines = serialize_crn(crn).splitlines()
        assert lines[0] == "species: A B C D E"
        assert lines[1:] == [
            "A -> E , 6",
            "A + B -> C , 2",
            "B -> D , 6",
            "C + D -> 2C + D , 5",
            "D + E -> D + 2E , 5",
        ]

    def test_round_trip_identity_on_sorted_networks(self, crn):
        text = serialize_crn(crn)
        again, _ = parse_crn(text)
        assert serialize_crn(again) == text
        assert again.species == crn.species
        assert set(reactions_of(again)) == set(reactions_of(crn))

    def test_round_trip_preserves_inits(self, crn):
        v0 = InitialCondition.from_map(crn, {"A": Fraction(1, 2), "D": 2})
        text = serialize_crn(crn, inits=v0)
        crn2, v02 = parse_crn(text)
        assert v02.values == {crn2.by_name(sp.name): v for sp, v in v0.values.items()}

    @pytest.mark.parametrize(
        "other", [list("PQRST"), list("AB"), list("ABCDEF")], ids=["PQRST", "AB", "ABCDEF"]
    )
    def test_inits_of_another_network_rejected(self, crn, other):
        v0 = InitialCondition.from_map(make_crn(other, []), {}, 1)
        with pytest.raises(
            ValueError, match="^initial condition is not over the species of this network$"
        ):
            serialize_crn(crn, inits=v0)

    def test_reparse_is_byte_identical(self):
        texts = [serialize_crn(*multisite(MultisiteSpec(n_sites=n))) for n in range(1, 6)]
        texts += [serialize_crn(random_crn(s, 3 + s % 8, 2 + s % 13)) for s in range(300)]
        for text in texts:
            assert serialize_crn(*parse_crn(text)) == text

    def test_empty_network(self):
        text = serialize_crn(CRN([], []))
        assert text == "species:\n"
        crn, inits = parse_crn(text)
        assert crn.n_species == 0 and inits is None

    def test_reduced_metadata_comments_are_ignored_on_reparse(self, crn, h_o):
        from crnlump import forward_reduce

        reduced = forward_reduce(crn, h_o)
        comments = [f"# forward reduction, {h_o.n_blocks} blocks"] + [
            f"# block {block[0].name}: " + " ".join(sp.name for sp in block)
            for block in h_o.blocks
        ]
        text = "\n".join(comments) + "\n" + serialize_crn(reduced.crn)
        reparsed, _ = parse_crn(text)
        assert reparsed == reduced.crn


NET_FIXTURE = """\
begin parameters
    1 kp1 0.1
    2 km1 2e-2
    3 kcat 3
end parameters
begin species
    1 E(s) 7
    2 S(p1~U,p2~U) 10
    3 E(s!1).S(p1~U!1,p2~U) 0
end species
begin reactions
    1 1,2 3 kp1 #bind
    2 3 1,2 km1 #_reverse_bind
    3 3 1 0.5*kcat #lose_substrate
    4 2,2 3 1e-1 #nonsense_dimerize
end reactions
begin groups
    1 Etotal 1,3
end groups
"""


class TestNetImport:
    def test_species_names_are_verbatim_patterns(self):
        crn, _ = import_bngl_net(NET_FIXTURE)
        assert [sp.name for sp in crn.species] == [
            "E(s)",
            "S(p1~U,p2~U)",
            "E(s!1).S(p1~U!1,p2~U)",
        ]

    def test_parameter_rates_resolve_exactly(self):
        crn, _ = import_bngl_net(NET_FIXTURE)
        rates = [rxn.rate for rxn in reactions_of(crn)]
        assert rates == [Fraction(1, 10), Fraction(1, 50), Fraction(3, 2), Fraction(1, 10)]

    def test_initial_concentrations_from_species_block(self):
        crn, inits = import_bngl_net(NET_FIXTURE)
        assert inits.get(crn.species[0]) == 7
        assert inits.get(crn.species[2]) == 0

    def test_index_repetition_builds_multiplicity(self):
        crn, _ = import_bngl_net(NET_FIXTURE)
        dimerize = reactions_of(crn)[3]
        assert dimerize.reactants.get(crn.species[1]) == 2

    def test_import_is_deterministic(self):
        a, _ = import_bngl_net(NET_FIXTURE)
        b, _ = import_bngl_net(NET_FIXTURE)
        assert a == b

    def test_round_trips_through_native_format(self):
        crn, inits = import_bngl_net(NET_FIXTURE)
        text = serialize_crn(crn, inits=inits)
        again, inits2 = parse_crn(text)
        assert [sp.name for sp in again.species] == [sp.name for sp in crn.species]
        assert set(
            (r.reactants.name_key(), r.rate, r.products.name_key()) for r in reactions_of(again)
        ) == set(
            (r.reactants.name_key(), r.rate, r.products.name_key()) for r in reactions_of(crn)
        )

    def test_minimal_two_species_file(self):
        crn, inits = import_bngl_net(
            "begin species\n1 A() 1\n2 B() 0\nend species\n"
            "begin reactions\n1 1 2 5 #r\nend reactions\n"
        )
        assert crn.n_species == 2 and crn.n_reactions == 1
        assert reactions_of(crn)[0].rate == 5

    def test_species_concentration_from_parameter(self):
        crn, inits = import_bngl_net(
            "begin parameters\n1 S0 3/2\nend parameters\n"
            "begin species\n1 A() S0\n2 B() 0\nend species\n"
            "begin reactions\n1 1 2 1 #r\nend reactions\n"
        )
        assert inits.get(crn.species[0]) == Fraction(3, 2)

    def test_blank_lines_inside_blocks_are_skipped(self):
        text = (
            "begin species\n1 A() 1\n2 B() 0\nend species\n"
            "begin reactions\n1 1 2 5\nend reactions\n"
        )
        spaced = text.replace("1 A() 1\n", "1 A() 1\n\n").replace("1 1 2 5\n", "\n1 1 2 5\n\n")
        assert import_bngl_net(spaced) == import_bngl_net(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("begin parameters\n1 k 2 3\nend parameters\n",
             "line 2: bad parameter line '1 k 2 3'"),
            ("begin species\n1 A()\nend species\n", "line 2: bad species line '1 A()'"),
            ("begin species\nx A() 1\nend species\n", "line 2: bad species index 'x'"),
            ("begin reactions\n1 1 2\nend reactions\n", "line 2: bad reaction line '1 1 2'"),
            ("begin reactions\n1 1 2 2**3\nend reactions\n",
             "line 2: empty factor in rate expression"),
        ],
    )
    def test_malformed_line_errors_at_line(self, text, message):
        # Each text is completed by the blocks it leaves out, after it.
        if "begin species" not in text:
            text += "begin species\n1 A() 1\n2 B() 0\nend species\n"
        if "begin reactions" not in text:
            text += "begin reactions\nend reactions\n"
        with pytest.raises(ParseError) as err:
            import_bngl_net(text)
        assert str(err.value) == message

    def test_dangling_species_index(self):
        with pytest.raises(ParseError, match="dangling species index"):
            import_bngl_net(
                "begin species\n1 A() 1\nend species\n"
                "begin reactions\n1 1 9 2 #r\nend reactions\n"
            )

    def test_unsupported_rate_expression(self):
        with pytest.raises(ParseError, match="unsupported rate expression"):
            import_bngl_net(
                "begin species\n1 A() 1\n2 B() 0\nend species\n"
                "begin reactions\n1 1 2 kp1/2 #r\nend reactions\n"
            )

    def test_missing_blocks(self):
        with pytest.raises(ParseError, match="begin species"):
            import_bngl_net("begin parameters\n1 k 1\nend parameters\n")

    def test_non_sequential_species_index(self):
        with pytest.raises(ParseError, match="non-sequential"):
            import_bngl_net(
                "begin species\n2 A() 1\nend species\n"
                "begin reactions\nend reactions\n"
            )

    def test_zero_reactant_molecules_rejected(self):
        # rejected by the forward mode alone: 0 -> A imports as an inflow,
        # which the vector field reads
        text = (
            "begin species\n1 A() 1\nend species\n"
            "begin reactions\n1 0 1 1 #r\n2 1 0 2 #r\nend reactions\n"
        )
        crn, _ = import_bngl_net(text)
        assert crn == reference_import_bngl_net(text)[0]
        assert format_vector_field(vector_field(crn)) == "A()' = 1 - 2*A()\n"
        assert_only_forward_refuses(crn, "reaction 0 (0 ->(1) A())")

    def test_three_reactant_molecules_rejected(self):
        # rejected by the forward mode alone; a field read before as
        # products is read again as reactants
        text = (
            "begin species\n1 A() 1\n2 B() 0\n3 C() 0\nend species\n"
            "begin reactions\n1 1 1,2,2 1 #r\n2 1,2,2 3 1 #r\nend reactions\n"
        )
        crn, _ = import_bngl_net(text)
        assert crn == reference_import_bngl_net(text)[0]
        assert parse_crn(serialize_crn(crn))[0] == crn
        assert_only_forward_refuses(crn, "reaction 1 (A() + 2B() ->(1) C())")

    @pytest.mark.parametrize(
        "reactions,message",
        [
            # a line's rate is read and checked before its reactant field
            ("1 1 1,2,2 1 #r\n2 1,2,x 3 0 #r", "line 8: rate must be positive"),
            ("1 1 x 1 #r\n2 1 x 1 #r", "line 7: bad species index 'x'"),
            ("1 1 2 1 #r\n2 9 2 1 #r\n3 9 2 1 #r", "line 8: dangling species index 9"),
            ("1 1 2 k #r\n2 1 2 k #r", "line 7: unsupported rate expression token 'k'"),
        ],
    )
    def test_repeated_field_errors_at_line(self, reactions, message):
        with pytest.raises(ParseError) as err:
            import_bngl_net(
                "begin species\n1 A() 1\n2 B() 0\n3 C() 0\nend species\n"
                f"begin reactions\n{reactions}\nend reactions\n"
            )
        assert str(err.value) == message

    def test_duplicate_species_pattern_rejected(self):
        with pytest.raises(ParseError, match="^line 3: duplicate species pattern 'A\\(\\)'"):
            import_bngl_net(
                "begin species\n1 A() 1\n2 A() 0\nend species\n"
                "begin reactions\n1 1 2 1 #r\nend reactions\n"
            )


class TestPartitionFiles:
    def test_block_line_with_implicit_rest(self, crn):
        p = parse_partition("C, E\n", crn)
        assert p == blocks_of(crn, "CE", "ABD")

    def test_empty_file_is_trivial(self, crn):
        assert parse_partition("# nothing\n\n", crn) == Partition.trivial(crn)

    def test_all_singletons(self, crn):
        text = "\n".join(name for name in "ABCDE")
        assert parse_partition(text, crn) == Partition.discrete(crn)

    def test_unknown_species(self, crn):
        with pytest.raises(PartitionError, match="unknown species Z"):
            parse_partition("Z\n", crn)

    def test_duplicate_species(self, crn):
        with pytest.raises(PartitionError, match="two blocks"):
            parse_partition("A, B\nB, C\n", crn)

    def test_empty_name(self, crn):
        with pytest.raises(ParseError, match="^line 2: empty species name in partition block$"):
            parse_partition("A\nB, , C\n", crn)

    def test_names_with_commas_inside_parens(self):
        crn, _ = import_bngl_net(NET_FIXTURE)
        p = parse_partition("E(s), E(s!1).S(p1~U!1,p2~U)\n", crn)
        assert p.n_blocks == 2


class TestInitialConditionFiles:
    def test_parse_values(self, crn):
        v0 = parse_initial_conditions("A = 1\ninit: B = 2/3\n", crn)
        assert v0.get(crn.by_name("A")) == 1
        assert v0.get(crn.by_name("B")) == Fraction(2, 3)
        assert v0.get(crn.by_name("C")) == 0

    def test_unknown_species(self, crn):
        with pytest.raises(ParseError, match="unknown species"):
            parse_initial_conditions("Z = 1\n", crn)

    def test_negative_rejected(self, crn):
        with pytest.raises(ParseError, match="nonnegative"):
            parse_initial_conditions("A = -1\n", crn)

    def test_line_without_equals_rejected(self, crn):
        with pytest.raises(ParseError, match="^line 2: expected 'NAME = VALUE'$"):
            parse_initial_conditions("A = 1\ninit: B 2\n", crn)

    @pytest.mark.parametrize("second", ["A = 2", "init: A = 1", "A=1/1"])
    def test_second_value_for_a_species_rejected(self, crn, second):
        text = f"A = 1\n# comment\nB = 2\n{second}\n"
        with pytest.raises(ParseError, match="^line 4: second initial value for A$"):
            parse_initial_conditions(text, crn)


class TestPartitionFromInits:
    def test_equal_values_share_blocks(self, crn):
        v0 = InitialCondition.from_map(
            crn, {"A": 1, "B": 1, "C": 0, "D": 0, "E": 2}
        )
        assert partition_from_initial_conditions(v0) == blocks_of(
            crn, "AB", "CD", "E"
        )

    def test_all_equal_is_trivial(self, crn):
        v0 = InitialCondition.from_map(crn, {n: 3 for n in "ABCDE"})
        assert partition_from_initial_conditions(v0) == Partition.trivial(crn)

    def test_all_distinct_is_discrete(self, crn):
        v0 = InitialCondition.from_map(
            crn, {n: k for k, n in enumerate("ABCDE")}
        )
        assert partition_from_initial_conditions(v0) == Partition.discrete(crn)

    def test_random_values_group_as_their_fractions(self):
        # Grouped by (numerator, denominator) and built without the
        # constructor's checks, the partition must be the checked one of the
        # blocks of equal Fractions.
        rng = random.Random(3)
        for seed in range(60):
            net = random_crn(seed, 1 + seed % 12, 4)
            pool = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(1 + seed % 5)]
            v0 = InitialCondition.from_map(net, {sp: rng.choice(pool) for sp in net.species})
            groups = {}
            for sp in net.species:
                groups.setdefault(v0.get(sp), []).append(sp)
            p = partition_from_initial_conditions(v0)
            assert p == Partition(net.species, groups.values())
            assert_checked_alike(p)

    def test_a_missing_species_raises_crn_error_naming_it(self, crn):
        # An InitialCondition built directly need not hold every species.
        first, *rest = crn.species
        v0 = InitialCondition(species=crn.species, values={sp: Fraction(1) for sp in rest})
        discrete = Partition.discrete(crn)
        readers = (
            partition_from_initial_conditions,
            InitialCondition.as_array,
            lambda v: v.get(first),
            lambda v: v.constant_on(Partition.trivial(crn)),
            lambda v: verify_forward(crn, discrete, v, 1.0, 1e-6),
            lambda v: verify_backward(crn, discrete, v, 1.0, 1e-6),
            lambda v: serialize_crn(crn, inits=v),
        )
        for read in readers:
            with pytest.raises(CRNError) as err:
                read(v0)
            assert str(err.value) == f"initial condition has no value for species {first.name}"
            assert err.value.__suppress_context__

    @pytest.mark.parametrize(
        "value,message",
        [
            (Fraction(-1), "negative initial concentration for A"),
            (-0.5, "negative initial concentration for A"),
            (float("-inf"), "negative initial concentration for A"),
            ("x", "initial concentration 'x' for A is not a finite number"),
            (None, "initial concentration None for A is not a finite number"),
            (float("nan"), "initial concentration nan for A is not a finite number"),
            (float("inf"), "initial concentration inf for A is not a finite number"),
        ],
        ids=["-1", "-0.5", "-inf", "x", "None", "nan", "inf"],
    )
    def test_a_bad_value_is_refused_when_built(self, crn, value, message):
        # A directly built condition used to pass these: the partition
        # grouped a negative value, ``'x'`` ended in a bare AttributeError
        # and NaN in a bare ValueError, and ``serialize_crn`` wrote
        # ``init: A = x``.
        first, *rest = crn.species
        values = {first: value, **{sp: Fraction(1) for sp in rest}}
        with pytest.raises(ValueError) as err:
            InitialCondition(species=crn.species, values=values)
        assert str(err.value) == message

    def test_values_of_other_number_types_group_as_they_compare(self, crn):
        # An InitialCondition built directly may hold ints and floats.
        a, b, c, d, e = crn.species
        values = {a: 0.5, b: Fraction(1, 2), c: 2, d: Fraction(2), e: 0.25}
        v0 = InitialCondition(species=crn.species, values=values)
        assert partition_from_initial_conditions(v0) == blocks_of(crn, "AB", "CD", "E")

    def test_exact_equality_not_float_equality(self, crn):
        v0 = InitialCondition.from_map(
            crn,
            {"A": Fraction(1, 3), "B": "0.3333333333333333", "C": 0, "D": 0, "E": 0},
        )
        p = partition_from_initial_conditions(v0)
        assert not p.same_block(crn.by_name("A"), crn.by_name("B"))
