"""The integer tables of ``crnlump.core``: built once per network, shared
by refinement, both reductions, the vector field and the lumpability
checks, and never written after they are built."""

import sys
import threading

import pytest

import crnlump.core as core
from crnlump import (
    CRN,
    BisimMode,
    InitialCondition,
    MultisiteSpec,
    Partition,
    backward_reduce,
    find_counterexample,
    forward_reduce,
    import_bngl_net,
    integrate,
    is_bisimulation,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    multisite,
    parse_crn,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    serialize_crn,
    vector_field,
    verify_backward,
    verify_forward,
)
from crnlump.cli import main
from test_io import NET_FIXTURE

FB, BB = BisimMode.FORWARD, BisimMode.BACKWARD

BUILDERS = {
    "scaled_reactions": "_build_scaled_reactions",
    "flux_table": "_build_flux_table",
    "forward_table": "_build_forward_table",
    "require_elementary": "_first_non_elementary",
}


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


def _from_reactions(net):
    """An equal network built through the public constructor from the
    Reaction objects of ``net``; it keeps them and has no reaction list yet."""
    return CRN(net.species, net.reactions)


def test_every_table_is_built_once_per_network(builds):
    # A parsed network starts from its integer reaction list, so it never
    # builds that list; every other table is built once.
    crn = _parsed_example()
    _every_consumer(crn)
    assert builds == {**dict.fromkeys(BUILDERS, 1), "scaled_reactions": 0}
    # An equal network parsed separately compares equal, although only one
    # of them has built its tables, and builds its own.
    twin = _parsed_example()
    assert twin == crn and hash(twin) == hash(crn)
    _every_consumer(twin)
    assert builds == {**dict.fromkeys(BUILDERS, 2), "scaled_reactions": 0}
    # A network built from Reaction objects builds its reaction list once.
    _every_consumer(_from_reactions(running_example()))
    assert builds == {**dict.fromkeys(BUILDERS, 3), "scaled_reactions": 1}


def test_tables_are_returned_unchanged_and_equal_a_fresh_build():
    crn = _parsed_example()
    names = ("scaled_reactions", "flux_table", "forward_table")
    first = {name: getattr(core, name)(crn) for name in names}
    _every_consumer(crn)
    _every_consumer(crn)
    for name, table in first.items():
        assert getattr(core, name)(crn) is table
        assert table == getattr(core, BUILDERS[name])(crn)
    fresh = _parsed_example()
    assert first["scaled_reactions"] == core.scaled_reactions(fresh)
    assert first["flux_table"] == core.flux_table(fresh)
    assert first["forward_table"] == core.forward_table(fresh)


def _integrate_twice(crn):
    integrate(crn, InitialCondition.from_map(crn, {}, 1), 1.0, n_points=3)
    vector_field(crn)
    integrate(crn, InitialCondition.from_map(crn, {}, 1), 1.0, n_points=3)


def test_integration_reads_the_shared_flux_table(builds):
    _integrate_twice(_parsed_example())
    assert builds == {
        "scaled_reactions": 0, "flux_table": 1, "forward_table": 0, "require_elementary": 0
    }
    _integrate_twice(_from_reactions(running_example()))
    assert builds == {
        "scaled_reactions": 1, "flux_table": 2, "forward_table": 0, "require_elementary": 0
    }


def test_reduce_path_never_builds_reactions(monkeypatch, tmp_path):
    # Parsing, refinement, both reductions, the checks and the numerical
    # verification read only the integer reaction list of a parsed network.
    def refuse(crn):
        raise AssertionError("Reaction objects built")

    monkeypatch.setattr(core, "_build_reactions", refuse)
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
    with pytest.raises(AssertionError, match="Reaction objects built"):
        crn.reactions
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
        with pytest.raises(AssertionError, match="Reaction objects built"):
            crn.reactions
    for argv in (["multisite", "--sites", "2"], ["random", "--seed", "3"], ["two-state"]):
        assert main(["gen", *argv, "--out", str(tmp_path / "gen.crn")]) == 0, argv


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
        return (
            fb,
            bb,
            serialize_crn(forward_reduce(crn, fb).crn),
            serialize_crn(backward_reduce(crn, bb).crn),
        )

    serial = work(*parse_crn(text))
    shared, inits = parse_crn(text)
    # A second fresh network whose Reaction objects the threads build first.
    viewed = parse_crn(text)[0]
    start = threading.Barrier(8, timeout=60)
    results = [None] * 8
    views = [None] * 8

    def run(i):
        start.wait()
        views[i] = viewed.reactions
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
    assert views == [parse_crn(text)[0].reactions] * 8
    assert all(isinstance(view, tuple) for view in views)
    for name in ("scaled_reactions", "flux_table", "forward_table"):
        assert getattr(core, name)(shared) == getattr(core, BUILDERS[name])(shared)
