"""Opt-in runs too large for the default suite; ``pytest -m large`` runs
them.  Multisite n=8 (65538 species, 786432 reactions) takes about 12 s
and 670 MB of peak RSS on a 2-vCPU x86 VM."""

import pytest

from crnlump import (
    BisimMode,
    MultisiteSpec,
    Partition,
    backward_reduce,
    forward_reduce,
    multisite,
    multisite_block_count,
    partition_from_initial_conditions,
    refine,
)


@pytest.mark.large
def test_multisite_8_reduces_in_both_modes():
    crn, inits = multisite(MultisiteSpec(n_sites=8))
    assert (crn.n_species, crn.n_reactions) == (65538, 786432)
    fb = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
    assert fb.n_blocks == multisite_block_count(8) == 167
    assert forward_reduce(crn, fb).crn.n_reactions == 720
    bb = refine(crn, partition_from_initial_conditions(inits), BisimMode.BACKWARD).final
    assert bb.n_blocks == 167
    assert backward_reduce(crn, bb).crn.n_reactions == 1992
