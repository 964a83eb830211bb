"""Two digests: one over the printed output of both reductions, one over
the lumped fields and lumpability witnesses.

Each digest is the sha256 of a sequence of texts, each followed by a NUL
byte, in the order listed.  ``GOLDEN`` covers the ``serialize_crn`` text
of every reduced network below; ``LUMPING_GOLDEN`` covers, per network
and partition, the ``check --what ord-lump`` and ``exact-lump`` lines and
the ``format_vector_field`` text of both lumped fields (or the message
of the error that refuses one).  They pin that output byte for byte: a
change that is meant to leave it alone must leave the digest alone.
"""

import hashlib

from crnlump import (
    BisimMode,
    MultisiteSpec,
    NotLumpableError,
    Partition,
    backward_reduce,
    format_vector_field,
    forward_reduce,
    lumped_field_backward,
    lumped_field_forward,
    multisite,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    serialize_crn,
)
from crnlump.odes import exact_lumpability_witness, ordinary_lumpability_witness

FB, BB = BisimMode.FORWARD, BisimMode.BACKWARD

GOLDEN = "70fd73245a76593a81356062fe344b00581de2921376f4474a7761dcec4028f8"
LUMPING_GOLDEN = "b4ee75392591205ef601e56d25fa6936be73c82e56da11a77dd7ec5b59ece177"


def _reduced_texts():
    """Every reduction the digest covers, as printed text."""

    def reduce(crn, initial, mode):
        reducer = forward_reduce if mode is FB else backward_reduce
        return serialize_crn(reducer(crn, refine(crn, initial, mode).final).crn)

    for seed in range(300):
        net = random_crn(seed, 3 + seed % 10, 2 + seed % 17)
        for mode in (FB, BB):
            yield reduce(net, Partition.trivial(net), mode)
    for n in range(1, 6):
        net, inits = multisite(MultisiteSpec(n_sites=n))
        yield reduce(net, Partition.trivial(net), FB)
        yield reduce(net, Partition.trivial(net), BB)
        yield reduce(net, partition_from_initial_conditions(inits), BB)
    net = running_example()
    for mode in (FB, BB):
        yield reduce(net, Partition.trivial(net), mode)


def test_reductions_match_the_golden_digest():
    digest = hashlib.sha256()
    for text in _reduced_texts():
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == GOLDEN


def _lumping_cases():
    """Each network with its coarsest fb and bb partitions and one block."""

    def cases(net, *initials):
        for initial, mode in ((Partition.trivial(net), FB), *initials):
            yield net, refine(net, initial, mode).final
        yield net, Partition.trivial(net)

    for seed in range(100):
        net = random_crn(seed, 3 + seed % 10, 2 + seed % 17)
        yield from cases(net, (Partition.trivial(net), BB))
    for n in range(1, 5):
        net, inits = multisite(MultisiteSpec(n_sites=n))
        site_states = partition_from_initial_conditions(inits)
        yield from cases(net, (Partition.trivial(net), BB), (site_states, BB))
    net = running_example()
    yield from cases(net, (Partition.trivial(net), BB))


def _lumping_texts():
    """The ``check`` lines and both lumped fields, as printed text."""
    for crn, p in _lumping_cases():
        witness = ordinary_lumpability_witness(crn, p)
        if witness is None:
            yield f"ord-lump holds for {p!r}"
        else:
            block_idx, (i, j) = witness
            members = ", ".join(sp.name for sp in p.blocks[block_idx])
            yield (
                f"ord-lump fails: block sum over {{{members}}} changes under the "
                f"shear moving mass between {crn.species[i].name} and {crn.species[j].name}"
            )
        witness = exact_lumpability_witness(crn, p)
        if witness is None:
            yield f"exact-lump holds for {p!r}"
        else:
            x, y = witness
            members = ", ".join(sp.name for sp in p.block_members(x))
            yield (
                f"exact-lump fails: components of {x.name} and {y.name} differ after "
                f"merging block {{{members}}}"
            )
        for lumped in (lumped_field_forward, lumped_field_backward):
            try:
                yield format_vector_field(lumped(crn, p))
            except NotLumpableError as err:
                yield f"NotLumpableError: {err}"


def test_lumped_fields_and_witnesses_match_the_golden_digest():
    digest = hashlib.sha256()
    for text in _lumping_texts():
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == LUMPING_GOLDEN
