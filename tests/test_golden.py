"""One digest over the printed output of both reductions.

The digest is the sha256 of the ``serialize_crn`` text of every reduced
network below, each followed by a NUL byte, in the order listed.  It
pins the reductions byte for byte: a change that is meant to leave their
output alone must leave this digest alone.
"""

import hashlib

from crnlump import (
    BisimMode,
    MultisiteSpec,
    Partition,
    backward_reduce,
    forward_reduce,
    multisite,
    partition_from_initial_conditions,
    random_crn,
    refine,
    running_example,
    serialize_crn,
)

FB, BB = BisimMode.FORWARD, BisimMode.BACKWARD

GOLDEN = "ad481698a25ff0fd55269bc6cfc2c0eff5990a993fff3546b795128ecc33959c"


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
