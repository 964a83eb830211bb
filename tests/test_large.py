"""Opt-in runs too large for the default suite; ``pytest -m large`` runs
them.  On a 2-vCPU x86 VM whose vCPUs run at one of two speeds about 2x
apart, each multisite n=8 test (65538 species, 786432 reactions) takes
12-24 s, with a peak RSS of 580-670 MB; of that, the ordinary
lumpability check takes about 7.6 s and the exact one 1.8 s at the
slower speed.  ``compare`` on n=6 (4098 species) takes 0.6-1 s per mode
after generation."""

import pytest

from crnlump import (
    BisimMode,
    MultisiteSpec,
    Partition,
    backward_reduce,
    forward_reduce,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
    multisite,
    multisite_block_count,
    partition_from_initial_conditions,
    refine,
    verify_backward,
    verify_forward,
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


@pytest.mark.large
def test_multisite_8_quotients_are_lumpable():
    crn, inits = multisite(MultisiteSpec(n_sites=8))
    fb = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
    assert is_ordinarily_lumpable(crn, fb)
    bb = refine(crn, partition_from_initial_conditions(inits), BisimMode.BACKWARD).final
    assert is_exactly_lumpable(crn, bb)


@pytest.mark.large
@pytest.mark.parametrize("mode", [BisimMode.FORWARD, BisimMode.BACKWARD], ids=["fb", "bb"])
def test_multisite_6_compare_agrees_to_rounding(mode):
    # what ``crnlump compare m6.crn --t-end 10 --tol 1e-6`` runs with
    # ``--mode fb`` and with ``--mode bb --from-inits``
    crn, inits = multisite(MultisiteSpec(n_sites=6))
    if mode is BisimMode.FORWARD:
        p = refine(crn, Partition.trivial(crn), mode).final
        report = verify_forward(crn, p, inits, 10.0, 1e-6)
    else:
        p = refine(crn, partition_from_initial_conditions(inits), mode).final
        report = verify_backward(crn, p, inits, 10.0, 1e-6)
    assert p.n_blocks == multisite_block_count(6)
    assert report.passed
    assert report.max_error <= 1e-10
