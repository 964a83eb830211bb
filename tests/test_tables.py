"""The integer tables of ``crnlump.core``: built once per network, shared
by refinement, both reductions, the vector field and the lumpability
checks, and never written after they are built.  The forward signatures'
table is not among them: ``crnlump.bisim`` builds it per refinement or
decision (``test_bisim.py`` checks it against a reference)."""

import gc
import random
import sys
import threading
from fractions import Fraction

import pytest

import crnlump.core as core
from crnlump import (
    CRN,
    BisimMode,
    InitialCondition,
    MultisiteSpec,
    NotBisimulationError,
    Partition,
    backward_reduce,
    find_counterexample,
    forward_reduce,
    import_bngl_net,
    integrate,
    is_bisimulation,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    make_crn,
    multisite,
    parse_crn,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    serialize_crn,
    validate,
    vector_field,
    verify_backward,
    verify_forward,
)
from crnlump.cli import main
from oracle import reference_flux_table
from test_io import NET_FIXTURE

FB, BB = BisimMode.FORWARD, BisimMode.BACKWARD

BUILDERS = {"flux_table": "_build_flux_table"}


@pytest.fixture
def builds(monkeypatch):
    """Counts of the table builds, by public table name."""
    counts = dict.fromkeys(BUILDERS, 0)

    def counted(name, build):
        def wrapper(crn):
            counts[name] += 1
            return build(crn)

        return wrapper

    for name, builder in BUILDERS.items():
        monkeypatch.setattr(core, builder, counted(name, getattr(core, builder)))
    return counts


def _every_consumer(crn):
    """Refine and reduce in both modes, then the vector field and both
    lumpability checks; returns what they computed."""
    fb = refine(crn, Partition.trivial(crn), FB).final
    bb = refine(crn, Partition.trivial(crn), BB).final
    return (
        fb,
        bb,
        serialize_crn(forward_reduce(crn, fb).crn),
        serialize_crn(backward_reduce(crn, bb).crn),
        vector_field(crn),
        is_ordinarily_lumpable(crn, fb),
        is_exactly_lumpable(crn, bb),
    )


def _parsed_example():
    return parse_crn(serialize_crn(running_example()))[0]


def _rebuilt(net):
    """An equal network built by ``CRN(species, rows)`` from the integer
    reaction list of ``net``, with none of its tables."""
    scale, rows = core.scaled_reactions(net)
    return CRN(net.species, [(lhs, Fraction(value, scale), rhs) for lhs, rhs, value in rows])


def test_every_table_is_built_once_per_network(builds):
    # Every network holds its integer reaction list from construction on;
    # the flux table is built once, and a network keeps nothing else.
    crn = _parsed_example()
    _every_consumer(crn)
    assert builds == {"flux_table": 1}
    # An equal network parsed separately compares equal, although only one
    # of them has built its tables, and builds its own.
    twin = _parsed_example()
    assert twin == crn and hash(twin) == hash(crn)
    _every_consumer(twin)
    assert builds == {"flux_table": 2}
    # So does a network built by CRN(species, rows), whose list is that of
    # the network it copies.
    rebuilt = _rebuilt(running_example())
    assert core.scaled_reactions(rebuilt) == core.scaled_reactions(running_example())
    _every_consumer(rebuilt)
    assert builds == {"flux_table": 3}
    assert [slot for slot in core.CRN.__slots__ if "elementary" in slot] == []


def _is_elementary(crn):
    """Whether every reaction of ``crn`` has one or two reactant molecules."""
    return all(sum(m for _, m in r) in (1, 2) for r, _, _ in core.scaled_reactions(crn)[1])


def test_parsed_networks_are_known_to_be_elementary():
    # An elementary text parses to an elementary network, which the
    # forward signatures accept; the parsers themselves read any reactant
    # side (test_other_networks_still_scan_their_rows).
    text = serialize_crn(*multisite(MultisiteSpec(n_sites=3)))
    body = text.split("\n", 1)[1]
    parsed = {
        "parse_crn": parse_crn(text)[0],
        # Without a header, with a comment, and with a line whose first
        # arrow is inside brackets, which the bracket-counting scans cut.
        "parse_crn, other paths": parse_crn(
            f"{body}# a comment\nS(U,U,U) -> X(a->b) , 1\nX(a->b) -> E + S(U,U,U) , 2\n"
        )[0],
        "import_bngl_net": import_bngl_net(NET_FIXTURE)[0],
    }
    for crn in parsed.values():
        assert _is_elementary(crn)
        refine(crn, Partition.trivial(crn), FB)
        refine(crn, Partition.trivial(crn), BB)


def test_other_networks_still_scan_their_rows():
    # No reader checks the molecule rule: the forward signatures scan the
    # rows of every network, parsed or built, every time they are built,
    # and refuse the first reaction that is not elementary; the backward
    # signatures read any reaction.
    for build in (running_example, lambda: _rebuilt(running_example())):
        crn = build()
        refine(crn, Partition.trivial(crn), FB)
        refine(crn, Partition.trivial(crn), FB)
    bad = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1}), ({"A": 3}, 1, {"B": 1})])
    parsed = parse_crn("A -> B , 1\n3A -> B , 1\n")[0]
    assert parsed == bad
    for crn in (bad, _rebuilt(bad), parsed):
        for _ in range(2):
            with pytest.raises(core.CRNError) as err:
                refine(crn, Partition.trivial(crn), FB)
            assert str(err.value) == (
                "reaction 1 (3A ->(1) B): not elementary: reactants must be one or two molecules"
            )
        assert refine(crn, Partition.trivial(crn), BB).final == Partition.discrete(crn)


def test_tables_are_returned_unchanged_and_equal_a_fresh_build():
    crn = _parsed_example()
    table = core.flux_table(crn)
    scaled = core.scaled_reactions(crn)
    _every_consumer(crn)
    _every_consumer(crn)
    assert core.flux_table(crn) is table
    assert table == core._build_flux_table(crn)
    assert core.scaled_reactions(crn) is scaled
    fresh = _parsed_example()
    assert scaled == core.scaled_reactions(fresh)
    assert table == core.flux_table(fresh)


def _non_elementary(seed):
    """A seeded network whose reactant sides hold 0 to 6 molecules, so that
    some of its reactions are not elementary, with fractional rates."""
    rng = random.Random(seed)
    names = [f"S{i}" for i in rng.sample(range(9), rng.randint(1, 6))]

    def side():
        return {rng.choice(names): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}

    rows = [(side(), Fraction(rng.randint(1, 9), rng.randint(1, 6)), side()) for _ in range(12)]
    return make_crn(names, rows[: rng.randint(0, 12)])


def _flux_networks():
    yield running_example()
    yield _parsed_example()
    for n in (1, 2, 3):
        yield multisite(MultisiteSpec(n_sites=n))[0]
    for seed in range(40):
        yield random_crn(seed, 1 + seed % 8, seed % 16)
        yield _non_elementary(seed)


def test_flux_table_equals_the_per_reaction_reference():
    non_elementary = 0
    for net in _flux_networks():
        table = core.flux_table(net)
        scale, keys, rows = table
        expected = reference_flux_table(net)
        assert table == expected, net
        # Equal dicts may list their items in another order; these may not.
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected[2]]
        # Each key is the reactant tuple of the first reaction with it.
        first = {}
        for reactants, _, _ in core.scaled_reactions(net)[1]:
            first.setdefault(reactants, reactants)
        assert list(keys) == list(first) and all(key is first[key] for key in keys)
        assert type(keys) is type(rows) is tuple and all(type(row) is dict for row in rows)
        # A dict of ints alone is left out of every garbage collection.
        assert not any(gc.is_tracked(row) for row in rows)
        non_elementary += not _is_elementary(net)
    assert non_elementary > 10


def _integrate_twice(crn):
    integrate(crn, InitialCondition.from_map(crn, {}, 1), 1.0, n_points=3)
    vector_field(crn)
    integrate(crn, InitialCondition.from_map(crn, {}, 1), 1.0, n_points=3)


def test_integration_reads_the_shared_flux_table(builds):
    _integrate_twice(_parsed_example())
    assert builds == {"flux_table": 1}
    _integrate_twice(_rebuilt(running_example()))
    assert builds == {"flux_table": 2}


def test_reduce_path_never_builds_reactions(tmp_path):
    # Parsing, refinement, both reductions, the checks and the numerical
    # verification read only the integer reaction list of a parsed network:
    # a network has no other form of its reactions.
    crn, inits = parse_crn(serialize_crn(*multisite(MultisiteSpec(n_sites=2))))
    fb = refine(crn, Partition.trivial(crn), FB).final
    bb = refine(crn, partition_from_initial_conditions(inits), BB).final
    assert serialize_crn(forward_reduce(crn, fb).crn)
    assert serialize_crn(backward_reduce(crn, bb).crn)
    assert find_counterexample(crn, Partition.trivial(crn), FB) is not None
    assert find_counterexample(crn, Partition.trivial(crn), BB) is not None
    assert is_ordinarily_lumpable(crn, fb)
    assert is_exactly_lumpable(crn, bb)
    assert verify_forward(crn, fb, inits, 1.0, 1e-6).passed
    assert verify_backward(crn, bb, inits, 1.0, 1e-6).passed
    assert crn.n_reactions == 48
    assert not hasattr(crn, "reactions")
    # Every builder starts from the integer reaction list too, and printing
    # a network or either quotient reads only that list.
    built = {
        "make_crn": running_example(),
        "multisite": multisite(MultisiteSpec(n_sites=2))[0],
        "random_crn": random_crn(3, 30, 40),
        "import_bngl_net": import_bngl_net(NET_FIXTURE)[0],
    }
    for name, crn in built.items():
        assert serialize_crn(crn), name
        fb = refine(crn, Partition.trivial(crn), FB).final
        bb = refine(crn, Partition.trivial(crn), BB).final
        assert serialize_crn(forward_reduce(crn, fb).crn), name
        assert serialize_crn(backward_reduce(crn, bb).crn), name
        assert not hasattr(crn, "reactions"), name
    for argv in (["multisite", "--sites", "2"], ["random", "--seed", "3"], ["two-state"]):
        assert main(["gen", *argv, "--out", str(tmp_path / "gen.crn")]) == 0, argv


def test_validate_and_equality_never_build_reactions():
    # validate, == and hash read the integer reaction list of every
    # network the package builds, the quotients included.
    text = serialize_crn(*multisite(MultisiteSpec(n_sites=3)))
    builders = {
        "parse_crn": lambda: parse_crn(text)[0],
        "make_crn": running_example,
        "multisite": lambda: multisite(MultisiteSpec(n_sites=2))[0],
        "random_crn": lambda: random_crn(3, 30, 40),
        "import_bngl_net": lambda: import_bngl_net(NET_FIXTURE)[0],
    }

    def with_quotients(build):
        crn = build()
        fb = refine(crn, Partition.trivial(crn), FB).final
        bb = refine(crn, Partition.trivial(crn), BB).final
        return crn, forward_reduce(crn, fb).crn, backward_reduce(crn, bb).crn

    for name, build in builders.items():
        nets, twins = with_quotients(build), with_quotients(build)
        for net, twin in zip(nets, twins):
            assert validate(net) == validate(twin) == [], name
            assert net == twin and hash(net) == hash(twin), name
        assert nets[0] != nets[1] and nets[0] != nets[2], name
        assert not hasattr(nets[0], "reactions"), name
    # A reported reaction is printed from the list too.
    bad = make_crn(["A", "B", "C", "D"], [({"A": 1, "B": 1, "C": 1}, 0, {"D": 1})])
    assert validate(bad) == ["reaction 0 (A + B + C ->(0) D): rate must be positive"]


def test_species_and_reactions_cannot_be_reassigned(h_o):
    # The kept tables are built from these fields, so the fields must not
    # change: a network without reactions makes every partition a
    # bisimulation, which tables built from the old reactions would deny.
    crn = running_example()
    trivial = Partition.trivial(crn)
    assert refine(crn, trivial, FB).final == h_o
    with pytest.raises(AttributeError):
        crn.reactions = ()
    with pytest.raises(AttributeError):
        crn.species = ()
    assert crn == running_example()
    assert is_bisimulation(crn, h_o, FB)
    assert not is_bisimulation(crn, trivial, FB)
    empty = CRN(crn.species, ())
    assert is_bisimulation(empty, Partition.trivial(empty), FB)


def test_threads_sharing_a_fresh_network_agree_with_a_serial_run():
    text = serialize_crn(*multisite(MultisiteSpec(n_sites=3)))

    def work(crn, inits):
        fb = refine(crn, Partition.trivial(crn), FB).final
        bb = refine(crn, partition_from_initial_conditions(inits), BB).final
        # Every thread certifies its partitions on the shared network; no
        # certificate may let through the one block, which is not a forward
        # bisimulation.
        with pytest.raises(NotBisimulationError):
            forward_reduce(crn, Partition.trivial(crn))
        return (
            fb,
            bb,
            serialize_crn(forward_reduce(crn, fb).crn),
            serialize_crn(backward_reduce(crn, bb).crn),
        )

    serial = work(*parse_crn(text))
    shared, inits = parse_crn(text)
    start = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def run(i):
        start.wait()
        results[i] = work(shared, inits)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    # Switch threads often, so that their first uses of the tables overlap.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 8
    assert core.flux_table(shared) == core._build_flux_table(shared)
