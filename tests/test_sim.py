import dataclasses
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import crnlump.sim
from crnlump import (
    BisimMode,
    InitialCondition,
    IntegrationError,
    MultisiteSpec,
    Partition,
    PartitionError,
    Polynomial,
    Species,
    VerificationReport,
    backward_reduce,
    forward_reduce,
    integrate,
    make_crn,
    multisite,
    parse_crn,
    partition_from_initial_conditions,
    refine,
    running_example,
    serialize_crn,
    trajectory_to_csv,
    vector_field,
    verify_backward,
    verify_forward,
)
from crnlump.cli import main
from crnlump.core import DEFAULT_ATOL, DEFAULT_POINTS, DEFAULT_RTOL, DEFAULT_T_END, flux_table
from crnlump.models import random_crn
from crnlump.sim import _compile
from conftest import blocks_of
from oracle import (
    reactions_of,
    reference_backward_report,
    reference_forward_report,
    reference_right_hand_side,
)


def inits(crn, **values):
    return InitialCondition.from_map(crn, values)


class TestInitialCondition:
    def test_defaults_cover_all_species(self, crn):
        v0 = inits(crn, A=1)
        assert v0.get(crn.by_name("A")) == 1
        assert v0.get(crn.by_name("E")) == 0
        assert len(v0.values) == 5

    def test_rejects_negative(self, crn):
        with pytest.raises(ValueError, match="^negative initial concentration for A$"):
            inits(crn, A=-1)

    @pytest.mark.parametrize("default", [-1, Fraction(-1, 3)], ids=str)
    def test_rejects_negative_default(self, crn, default):
        with pytest.raises(ValueError, match="^negative initial concentration"):
            InitialCondition.from_map(crn, {}, default=default)
        with pytest.raises(ValueError, match="^negative initial concentration"):
            InitialCondition.from_map(crn, {"A": 1}, default=default)

    def test_constant_on(self, crn, h_e):
        assert inits(crn, A=1, B=1).constant_on(h_e)
        assert not inits(crn, A=1, B=2).constant_on(h_e)

    def test_values_stay_exact(self, crn):
        v0 = InitialCondition.from_map(crn, {"A": "0.1"})
        assert v0.get(crn.by_name("A")) == Fraction(1, 10)

    @pytest.mark.parametrize(
        "foreign", [Species(0, "P"), Species(1, "A"), Species(7, "E")], ids=str
    )
    def test_species_of_another_network_rejected(self, crn, foreign):
        # the error an unknown name raises
        with pytest.raises(KeyError, match="^'unknown species P'$"):
            inits(crn, P=5)
        with pytest.raises(KeyError, match=f"^'unknown species {foreign.name}'$"):
            InitialCondition.from_map(crn, {foreign: 5})

    def test_equal_species_of_an_equal_network_accepted(self, crn):
        v0 = InitialCondition.from_map(crn, {Species(0, "A"): 5})
        assert v0.as_array().tolist() == [5, 0, 0, 0, 0]


class TestIntegrate:
    def test_zero_field_is_constant(self):
        net = make_crn(["A", "B"], [])
        v0 = inits(net, A=2, B=3)
        traj = integrate(net, v0, 5.0)
        assert np.allclose(traj.values[:, 0], 2.0)
        assert np.allclose(traj.values[:, 1], 3.0)

    def test_exponential_decay_closed_form(self):
        net = make_crn(["X", "Y"], [({"X": 1}, 1, {"Y": 1})])
        traj = integrate(net, inits(net, X=1), 1.0)
        assert traj.times[-1] == 1.0
        assert abs(traj.column(net.by_name("X"))[-1] - math.exp(-1)) < 1e-7

    def test_error_against_closed_form_shrinks_as_rtol_halves(self):
        # A -> B at rate 3 from A = 1: A = exp(-3t), B = 1 - exp(-3t)
        net = make_crn(["A", "B"], [({"A": 1}, 3, {"B": 1})])
        errors = []
        for rtol in (1e-4, 5e-5, 2.5e-5):
            traj = integrate(net, inits(net, A=1), 10.0, rtol=rtol, atol=rtol * 1e-2)
            decayed = np.exp(-3 * traj.times)
            exact = np.stack([decayed, 1 - decayed], axis=1)
            errors.append(float(np.abs(traj.values - exact).max()))
        assert 0 < errors[0] < 1e-4
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 0.75 * coarse

    def test_fed_species_grows_monotonically(self):
        # X' = -X, D' = 6X: D increases while X decays
        net = make_crn(
            ["X", "D"],
            [({"X": 1}, 1, {}), ({"X": 1}, 6, {"D": 1, "X": 1})],
        )
        traj = integrate(net, inits(net, X=1), 5.0)
        d = traj.column(net.by_name("D"))
        x = traj.column(net.by_name("X"))
        assert np.all(np.diff(d) > 0)
        assert np.all(np.diff(x) < 0)

    def test_requires_positive_horizon(self, crn):
        with pytest.raises(ValueError):
            integrate(crn, inits(crn, A=1), 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": math.nan},
            {"t_end": math.inf},
            {"rtol": math.nan},
            {"rtol": 0.0},
            {"atol": -1e-10},
            {"n_points": 0},
        ],
        ids=lambda kw: " ".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_unusable_arguments(self, crn, kwargs):
        args = {"t_end": 1.0, **kwargs}
        with pytest.raises(ValueError):
            integrate(crn, inits(crn, A=1), **args)

    def test_blowup_raises(self):
        # X + X -> 3X doubles into itself: finite-time blowup
        net = make_crn(["X"], [({"X": 2}, 2, {"X": 3})])
        # X(t) = 1 / (1 - 2t) blows up at t = 1/2; 0.5 is the last grid
        # point the solver reached.
        message = (
            "integration failed at t=0.5: "
            "Required step size is less than spacing between numbers."
        )
        with pytest.raises(IntegrationError, match=f"^{re.escape(message)}$"):
            integrate(net, inits(net, X=1), 10.0)

    def test_non_finite_output_raises(self, crn, monkeypatch):
        # The solver's output is checked, whatever step produced it.
        solve = crnlump.sim._rk45.solve

        def poisoned(*args):
            times, values = solve(*args)
            values[0, -1] = np.nan
            return times, values

        monkeypatch.setattr(crnlump.sim._rk45, "solve", poisoned)
        with pytest.raises(IntegrationError, match="^integration produced non-finite values$"):
            integrate(crn, inits(crn, A=1), 1.0)

    @pytest.mark.parametrize(
        "t_eval, message",
        [
            ([0, 2, 1], "Values in `t_eval` are not properly sorted."),
            ([0, 1, 1, 2], "Values in `t_eval` are not properly sorted."),
            ([0, 1, 2.5], "Values in `t_eval` are not within `t_span`."),
            ([-1, 0, 1], "Values in `t_eval` are not within `t_span`."),
            ([0, math.nan], "Values in `t_eval` are not within `t_span`."),
            ([[0, 1]], "`t_eval` must be 1-dimensional."),
            ([], "`t_eval` must hold at least one time."),
        ],
        ids=["decreasing", "repeated", "beyond-t-end", "before-zero", "nan", "2-d", "empty"],
    )
    def test_unusable_grid_rejected(self, t_eval, message):
        net = make_crn(["A", "B"], [({"A": 1}, 3, {"B": 1})])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integrate(net, inits(net, A=1), 2.0, t_eval=t_eval)

    def test_rtol_below_100_eps_is_clamped_with_a_warning(self):
        net = make_crn(["A", "B"], [({"A": 1}, 3, {"B": 1})])
        floor = 100 * np.finfo(float).eps
        message = f"rtol 1e-15 is below 100 machine epsilons; using {floor}"
        with pytest.warns(UserWarning, match=f"^{re.escape(message)}$"):
            clamped = integrate(net, inits(net, A=1), 2.0, rtol=1e-15)
        at_floor = integrate(net, inits(net, A=1), 2.0, rtol=floor)
        assert np.array_equal(clamped.times, at_floor.times)
        assert np.array_equal(clamped.values, at_floor.values)

    @pytest.mark.parametrize(
        "rate, value", [(Fraction(10**400), 1), (1, Fraction(10**400))], ids=["rate", "init"]
    )
    def test_beyond_the_float_range_raises(self, rate, value):
        net = make_crn(["X", "Y"], [({"X": 1}, rate, {"Y": 1})])
        with pytest.raises(IntegrationError, match="exceeds the float range"):
            integrate(net, inits(net, X=value), 1.0)

    def test_mismatched_species_rejected(self, crn):
        other = make_crn(["A"], [])
        with pytest.raises(ValueError, match="^initial condition is not over the species"):
            integrate(crn, inits(other, A=1), 1.0)


class TestTrajectoryColumn:
    def test_every_column_of_running_example(self, crn):
        traj = integrate(crn, inits(crn, A=1, B=2, C=3, D=4, E=5), 1.0)
        for i, sp in enumerate(crn.species):
            assert np.array_equal(traj.column(sp), traj.values[:, i])
            # an equal species that is another object
            assert np.array_equal(traj.column(Species(sp.id, sp.name)), traj.values[:, i])

    @pytest.mark.parametrize(
        "foreign", [Species(0, "Z"), Species(5, "A"), Species(-1, "E")], ids=str
    )
    def test_species_of_another_network_rejected(self, crn, foreign):
        traj = integrate(crn, inits(crn, A=1), 1.0, n_points=3)
        with pytest.raises(ValueError, match=f"^unknown species {foreign.name}$"):
            traj.column(foreign)


class TestCompiledRightHandSide:
    """The numpy right-hand side against exact rational evaluation."""

    @staticmethod
    def assert_matches_exact(net, seed):
        rng = random.Random(seed)
        rhs = _compile(net)
        vf = vector_field(net)
        for _ in range(5):
            state = [Fraction(rng.randint(0, 2000), rng.randint(1, 1000)) for _ in vf.species]
            got = rhs(0.0, np.array([float(v) for v in state]))
            assert got.shape == (len(vf.species),)
            values = dict(enumerate(state))
            for i, sp in enumerate(vf.species):
                poly = vf.components[sp]
                exact = poly.evaluate(values)
                # Relative to the summed term magnitudes, which bound the
                # rounding error of a float sum with cancellation.
                scale = Polynomial({m: abs(c) for m, c in poly.terms.items()}).evaluate(values)
                assert abs(got[i] - float(exact)) <= 1e-12 * float(scale)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_networks(self, seed):
        self.assert_matches_exact(random_crn(seed, 6, 12), seed)

    def test_homodimer_squares_the_reactant(self):
        net = make_crn(["A", "B"], [({"A": 2}, 3, {"B": 1}), ({"B": 1}, Fraction(1, 3), {"A": 2})])
        self.assert_matches_exact(net, 0)

    def test_no_reactions_gives_zero(self):
        net = make_crn(["A", "B"], [])
        self.assert_matches_exact(net, 0)
        assert not _compile(net)(0.0, np.array([1.0, 2.0])).any()

    def test_constant_term_and_higher_powers(self):
        # X' = 7/3 - 2*X^3*Y; the catalyst Y's component is zero
        net = make_crn(
            ["X", "Y"],
            [({}, Fraction(7, 3), {"X": 1}), ({"X": 3, "Y": 1}, 2, {"X": 2, "Y": 1})],
        )
        self.assert_matches_exact(net, 1)
        assert _compile(net)(0.0, np.array([0.0, 0.0])) == pytest.approx([7 / 3, 0])
        assert _compile(net)(0.0, np.array([2.0, 3.0])) == pytest.approx([7 / 3 - 48, 0])


class TestStackedRightHandSide:
    """``_compile(a, b)`` is ``_compile(a)`` and ``_compile(b)`` side by
    side, to the last bit."""

    @staticmethod
    def assert_stacks_exactly(a, b, seed):
        rng = np.random.default_rng(seed)
        ya = rng.uniform(0, 3, a.n_species)
        yb = rng.uniform(0, 3, b.n_species)
        got = _compile(a, b)(0.0, np.concatenate([ya, yb]))
        expected = np.concatenate([_compile(a)(0.0, ya), _compile(b)(0.0, yb)])
        assert got.shape == expected.shape
        assert (got == expected).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, seed):
        a = random_crn(2 * seed, 6, 12)
        b = random_crn(2 * seed + 1, 4, 9)
        self.assert_stacks_exactly(a, b, seed)

    @pytest.mark.parametrize("empty_first", [True, False], ids=["empty-first", "empty-second"])
    def test_network_without_reactions(self, empty_first):
        empty = make_crn(["P", "Q", "R"], [])
        for seed in range(5):
            other = random_crn(seed, 5, 10)
            pair = (empty, other) if empty_first else (other, empty)
            self.assert_stacks_exactly(*pair, seed)


def multisite_with_quotient(n_sites, mode):
    """Multisite ``n_sites``, its coarsest partition in ``mode`` (backward
    from the initial conditions, as ``compare --from-inits`` refines) and
    the quotient under it."""
    crn, v0 = multisite(MultisiteSpec(n_sites=n_sites))
    if mode is BisimMode.FORWARD:
        p = refine(crn, Partition.trivial(crn), mode).final
        return crn, v0, p, forward_reduce(crn, p).crn
    p = refine(crn, partition_from_initial_conditions(v0), mode).final
    return crn, v0, p, backward_reduce(crn, p).crn


class TestRightHandSideMatchesSparseMatrix:
    """``_compile`` hands arrays it builds itself to scipy's compiled CSR
    kernel; ``oracle.reference_right_hand_side`` builds the matrix with the
    public ``csr_matrix`` constructor and multiplies with ``@``.  The two
    agree to the last bit, the signs of zeros included."""

    @staticmethod
    def assert_same(networks, seed):
        rng = np.random.default_rng(seed)
        n = sum(net.n_species for net in networks)
        rhs, reference = _compile(*networks), reference_right_hand_side(*networks)
        for y in (rng.uniform(0, 3, n), rng.uniform(-1, 1, n), np.zeros(n)):
            got, expected = rhs(0.0, y), reference(0.0, y)
            assert got.shape == expected.shape == (n,)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_random_networks(self, seed):
        rng = random.Random(seed)
        net = random_crn(seed, rng.randint(1, 10), rng.randint(0, 25))
        self.assert_same((net,), seed)

    @pytest.mark.parametrize(
        "names, rows",
        [
            (["X", "Y"], [({}, Fraction(7, 3), {"X": 1}), ({"X": 3, "Y": 1}, 2, {"X": 2, "Y": 1})]),
            (["A", "B"], [({"A": 3}, 2, {"B": 2}), ({"A": 2, "B": 1}, Fraction(1, 7), {})]),
            (["A"], [({}, 2, {"A": 1}), ({}, Fraction(1, 3), {"A": 2})]),
            (["A", "B"], []),
            ([], []),
        ],
        ids=["constant-and-cube", "powers", "constants-only", "no-reactions", "no-species"],
    )
    def test_constant_terms_powers_and_no_reactions(self, names, rows):
        net = make_crn(names, rows)
        self.assert_same((net,), 0)
        other = random_crn(1, 5, 10)
        self.assert_same((net, other), 1)
        self.assert_same((other, net), 2)

    @pytest.mark.parametrize("mode", [BisimMode.FORWARD, BisimMode.BACKWARD], ids=["fb", "bb"])
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_stacked_systems_of_multisite(self, n_sites, mode):
        crn, _, _, quotient = multisite_with_quotient(n_sites, mode)
        self.assert_same((crn, quotient), n_sites)

    @pytest.mark.parametrize(
        "mode, reduce",
        [(BisimMode.FORWARD, forward_reduce), (BisimMode.BACKWARD, backward_reduce)],
        ids=["fb", "bb"],
    )
    def test_key_with_an_empty_row(self, mode, reduce):
        # A + B -> A + B changes nothing, so the key A + B has no entries
        # and its monomial index appears in no row.
        crn, _ = parse_crn("A + B -> A + B , 1\nA -> B , 1\n")
        quotient = reduce(crn, refine(crn, Partition.trivial(crn), mode).final).crn
        for net in (crn, quotient):
            assert {} in flux_table(net)[2]
        self.assert_same((crn,), 0)
        self.assert_same((crn, quotient), 1)

    def test_every_call_returns_a_new_array(self, crn):
        # The stepper keeps f while it writes the next stages, so a
        # shared output buffer would overwrite it.
        rhs = _compile(crn)
        first = rhs(0.0, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        kept = first.copy()
        second = rhs(0.0, np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)


def test_unbounded_horizon_stops_at_the_evaluation_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(crnlump.sim, "_MAX_EVALUATIONS", 10**4)
    model = tmp_path / "decay.crn"
    model.write_text("A -> B , 1\ninit: A = 1\n")
    argv = ["simulate", str(model), "--t-end", "1e9", "--points", "5"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(
        r"error: integration stopped after 10000 right-hand-side evaluations "
        r"at t=\S+ of 1e\+09",
        lines[0],
    )


class TestCsvExport:
    def test_header_and_shape(self, crn):
        traj = integrate(crn, inits(crn, A=1, B=1), 1.0, n_points=11)
        text = trajectory_to_csv(traj)
        lines = text.splitlines()
        assert lines[0] == "t,A,B,C,D,E"
        assert len(lines) == 12
        assert text.endswith("\n")

    def test_deterministic(self, crn):
        v0 = inits(crn, A=1, B=1)
        a = trajectory_to_csv(integrate(crn, v0, 1.0))
        b = trajectory_to_csv(integrate(crn, v0, 1.0))
        assert a == b


def test_summary_names_a_negative_dip():
    report = VerificationReport("backward", 2e-9, 1e-6, True, 1e-9, 2e-9, -3.7e-10)
    assert report.summary() == (
        "backward: max error 2.000e-09 (tol 1e-06) pass; within-block spread 1.000e-09; "
        "representative deviation 2.000e-09; (most negative concentration -3.7e-10)"
    )


class TestVerifyForward:
    def test_running_example_passes(self, crn, h_o):
        v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
        report = verify_forward(crn, h_o, v0, 10.0, 1e-6)
        assert report.passed
        assert report.max_error < 1e-6
        assert report.negative_dip > -1e-6

    def test_discrete_partition_matches_itself(self, crn):
        v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
        report = verify_forward(crn, Partition.discrete(crn), v0, 5.0, 1e-6)
        assert report.max_error < 1e-8



@pytest.mark.parametrize("rtol", [1e-4, 5e-5, 2.5e-5])
@pytest.mark.parametrize("verify", [verify_forward, verify_backward], ids=["fb", "bb"])
def test_verify_error_is_rounding_at_loose_tolerances(crn, h_o, h_e, verify, rtol):
    # The network and its quotient share one step sequence, so however
    # loose the solver tolerance, a correct quotient agrees to rounding.
    p = h_o if verify is verify_forward else h_e
    v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
    report = verify(crn, p, v0, 10.0, 1e-12, rtol=rtol, atol=rtol * 1e-2)
    assert report.max_error <= 1e-12
    assert report.passed


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("verify", [verify_forward, verify_backward], ids=["fb", "bb"])
def test_verify_rejects_unusable_tol(crn, h_o, h_e, verify, tol):
    p = h_o if verify is verify_forward else h_e
    v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        verify(crn, p, v0, 1.0, tol)


@pytest.mark.parametrize("verify", [verify_forward, verify_backward], ids=["fb", "bb"])
def test_verify_rejects_initial_condition_of_another_network(crn, verify, monkeypatch):
    def refuse(*_args):
        raise AssertionError("reduced before the initial condition was checked")

    monkeypatch.setattr(crnlump.sim, "forward_reduce", refuse)
    monkeypatch.setattr(crnlump.sim, "backward_reduce", refuse)
    v0 = InitialCondition.from_map(make_crn(list("PQRST"), []), {}, 1)
    with pytest.raises(ValueError, match="^initial condition is not over the species"):
        verify(crn, Partition.discrete(crn), v0, 1.0, 1e-6)


def test_integration_never_builds_the_exact_vector_field(crn, h_o, h_e, monkeypatch, tmp_path):
    def refuse(_crn):
        raise AssertionError("the exact vector field was built")

    for module in list(sys.modules.values()):
        if module.__name__.startswith("crnlump") and hasattr(module, "vector_field"):
            monkeypatch.setattr(module, "vector_field", refuse)
    v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
    assert integrate(crn, v0, 1.0).values.shape == (201, 5)
    assert verify_forward(crn, h_o, v0, 1.0, 1e-6).passed
    assert verify_backward(crn, h_e, v0, 1.0, 1e-6).passed
    model = tmp_path / "model.crn"
    model.write_text(serialize_crn(crn, v0))
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(model), "--t-end", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,A,B,C,D,E\n")
    for mode in ("fb", "bb"):
        assert main(["compare", str(model), "--mode", mode, "--t-end", "1"]) == 0


def doubled_first_rate(reduce):
    """``reduce`` with the first reaction of its quotient at twice its rate."""

    def wrong(crn, p):
        reduced = reduce(crn, p)
        rows = [
            (
                {sp.name: m for sp, m in rxn.reactants},
                rxn.rate * (2 if i == 0 else 1),
                {sp.name: m for sp, m in rxn.products},
            )
            for i, rxn in enumerate(reactions_of(reduced.crn))
        ]
        quotient = make_crn([sp.name for sp in reduced.crn.species], rows)
        return dataclasses.replace(reduced, crn=quotient)

    return wrong


@pytest.mark.parametrize("mode", ["fb", "bb"])
def test_wrong_quotient_fails_the_check(crn, h_o, h_e, mode, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(crnlump.sim, "forward_reduce", doubled_first_rate(forward_reduce))
    monkeypatch.setattr(crnlump.sim, "backward_reduce", doubled_first_rate(backward_reduce))
    v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
    verify, p = (verify_forward, h_o) if mode == "fb" else (verify_backward, h_e)
    report = verify(crn, p, v0, 10.0, 1e-6)
    assert not report.passed
    assert report.max_error > 1e-3
    model = tmp_path / "model.crn"
    model.write_text(serialize_crn(crn, v0))
    assert main(["compare", str(model), "--mode", mode, "--t-end", "10", "--tol", "1e-6"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["fb", "bb"])
def test_compare_network_without_reactions(mode, tmp_path, capsys):
    net = make_crn(["A", "B", "C"], [])
    v0 = inits(net, A=2, B=2, C=2)
    p = Partition.trivial(net)
    verify = verify_forward if mode == "fb" else verify_backward
    report = verify(net, p, v0, 5.0, 1e-12)
    assert report.passed
    assert report.max_error == 0.0
    model = tmp_path / "still.crn"
    model.write_text(serialize_crn(net, v0))
    assert main(["compare", str(model), "--mode", mode, "--t-end", "5"]) == 0
    assert capsys.readouterr().out.startswith("partition: 1 blocks; ")


class TestVerifyBackward:
    def test_running_example_passes(self, crn, h_e):
        v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
        report = verify_backward(crn, h_e, v0, 10.0, 1e-6)
        assert report.passed
        assert report.max_spread <= 1e-7  # ten times the solver rtol
        assert report.max_representative_deviation < 1e-6

    def test_unequal_inits_rejected(self, crn, h_e):
        v0 = inits(crn, A=1, B=2, C=1, D=1, E=1)
        with pytest.raises(PartitionError, match="block equality"):
            verify_backward(crn, h_e, v0, 10.0, 1e-6)

    def test_discrete_partition_vacuous_pass(self, crn):
        v0 = inits(crn, A=1, B=2, C=3, D=4, E=5)
        report = verify_backward(crn, Partition.discrete(crn), v0, 5.0, 1e-6)
        assert report.passed
        assert report.max_spread == 0.0

    def test_block_constancy_on_random_backward_partitions(self):
        checked = 0
        for seed in range(40):
            net = random_crn(seed, 4, 3)
            p = refine(net, Partition.trivial(net), BisimMode.BACKWARD).final
            if p.n_blocks == net.n_species:
                continue
            v0 = InitialCondition.from_map(net, {sp: Fraction(1) for sp in net.species})
            try:
                report = verify_backward(net, p, v0, 5.0, 1e-6)
            except IntegrationError:
                continue  # random networks may blow up; not this test's concern
            assert report.max_spread <= 1e-7
            checked += 1
        assert checked >= 3


class TestReportsMatchPerSpeciesReduction:
    """``verify_forward`` and ``verify_backward`` reduce the trajectories
    block by block; ``oracle.reference_forward_report`` and
    ``reference_backward_report`` reduce the same trajectories species by
    species.  Every figure of the report must equal theirs exactly."""

    @staticmethod
    def assert_matches(verify, crn, p, v0, t_end, monkeypatch, **kwargs):
        solve = crnlump.sim._solve
        seen = []

        def recorded(*args):
            seen.append(solve(*args))
            return seen[-1]

        monkeypatch.setattr(crnlump.sim, "_solve", recorded)
        report = verify(crn, p, v0, t_end, 1e-6, **kwargs)
        ((original, lumped),) = seen
        if verify is verify_forward:
            expected = reference_forward_report(original, lumped, p)
            assert (report.max_error, report.negative_dip) == expected
        else:
            expected = reference_backward_report(original, lumped, p)
            got = (
                report.max_error,
                report.max_spread,
                report.max_representative_deviation,
                report.negative_dip,
            )
            assert got == expected
        return report

    @pytest.mark.parametrize("mode", [BisimMode.FORWARD, BisimMode.BACKWARD], ids=["fb", "bb"])
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_multisite(self, n_sites, mode, monkeypatch):
        crn, v0, p, _ = multisite_with_quotient(n_sites, mode)
        verify = verify_forward if mode is BisimMode.FORWARD else verify_backward
        self.assert_matches(verify, crn, p, v0, 10.0, monkeypatch)

    def test_random_backward_partitions(self, monkeypatch):
        # The networks and partitions of
        # TestVerifyBackward.test_block_constancy_on_random_backward_partitions.
        checked = 0
        for seed in range(40):
            net = random_crn(seed, 4, 3)
            p = refine(net, Partition.trivial(net), BisimMode.BACKWARD).final
            if p.n_blocks == net.n_species:
                continue
            v0 = InitialCondition.from_map(net, {sp: Fraction(1) for sp in net.species})
            try:
                self.assert_matches(verify_backward, net, p, v0, 5.0, monkeypatch)
            except IntegrationError:
                continue
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("n_points", [1, 7, DEFAULT_POINTS])
    @pytest.mark.parametrize("mode", ["fb", "bb"])
    def test_wrong_quotients(self, crn, h_o, h_e, mode, n_points, monkeypatch):
        # Errors far above rounding, on a grid of one point too.
        monkeypatch.setattr(crnlump.sim, "forward_reduce", doubled_first_rate(forward_reduce))
        monkeypatch.setattr(crnlump.sim, "backward_reduce", doubled_first_rate(backward_reduce))
        v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
        verify, p = (verify_forward, h_o) if mode == "fb" else (verify_backward, h_e)
        report = self.assert_matches(verify, crn, p, v0, 10.0, monkeypatch, n_points=n_points)
        assert (report.max_error > 1e-3) == (n_points > 1)

    @pytest.mark.parametrize(
        "values",
        [
            {"A": 0.5, "B": 2.25, "C": 0.1, "D": 3.0, "E": 0.2},
            {"A": 1, "B": 2, "C": 3, "D": 4, "E": 5},
            {"A": 1, "B": Fraction(1, 3), "C": Fraction(5, 6), "D": 4, "E": Fraction(7, 4)},
        ],
        ids=["float", "int", "int-and-Fraction"],
    )
    def test_forward_block_sums(self, crn, h_o, values, monkeypatch):
        # A directly built condition may hold any finite real.  Each block
        # of the quotient starts from the running sum of its members'
        # values: for floats, the float that 0.1 + 0.2 rounds to in {C, E}.
        v0 = InitialCondition(crn.species, {crn.by_name(k): v for k, v in values.items()})
        solve = crnlump.sim._solve
        seen = []

        def recorded(*args):
            seen.append(args)
            return solve(*args)

        monkeypatch.setattr(crnlump.sim, "_solve", recorded)
        self.assert_matches(verify_forward, crn, h_o, v0, 10.0, monkeypatch)
        (((_, quotient), (_, quotient_v0), *_),) = seen
        sums = [sum((v0.get(sp) for sp in block), Fraction(0)) for block in h_o.blocks]
        assert quotient_v0 == InitialCondition.from_map(quotient, dict(zip(quotient.species, sums)))


class TestMatchesScipy:
    """The in-package stepper, ``crnlump._rk45``, transcribes the RK45 path
    of scipy 1.17.1's ``solve_ivp(fun, (0, t_end), y0, method="RK45",
    t_eval=grid)``, so ``t`` and ``y`` must equal scipy's bit for bit.
    scipy.integrate is imported here only, as the oracle."""

    @staticmethod
    def assert_same(networks, initials, t_end, rtol, atol, grid, trajectories):
        from scipy.integrate import solve_ivp

        y0 = np.concatenate([v0.as_array() for v0 in initials])
        expected = solve_ivp(
            _compile(*networks), (0.0, float(t_end)), y0,
            method="RK45", rtol=rtol, atol=atol, t_eval=grid,
        )
        assert expected.success
        assert len(trajectories) == len(networks)
        for traj in trajectories:
            assert np.array_equal(traj.times, expected.t)
        assert np.array_equal(np.hstack([traj.values for traj in trajectories]), expected.y.T)

    @classmethod
    def assert_verify_matches(cls, verify, crn, p, v0, t_end, rtol, monkeypatch):
        """Run ``verify`` and hold each stacked (network, quotient) system
        it integrates against scipy."""
        solve = crnlump.sim._solve
        seen = []

        def recorded(*args):
            trajectories = solve(*args)
            seen.append((args, trajectories))
            return trajectories

        monkeypatch.setattr(crnlump.sim, "_solve", recorded)
        verify(crn, p, v0, t_end, 1e-6, rtol=rtol, atol=rtol * 1e-2)
        ((args, trajectories),) = seen
        assert len(args[0]) == 2
        cls.assert_same(*args, trajectories)

    @pytest.mark.parametrize(
        "n_sites, rtol",
        [
            pytest.param(n, rtol, id=f"{f'multisite{n}' if n else 'running'}-{rtol}")
            for n in (0, 1, 2, 3)
            for rtol in (DEFAULT_RTOL, 1e-3, 1e-12)
        ]
        # Multisite n=4 is the stack that the benchmark's compare integrates.
        + [pytest.param(4, DEFAULT_RTOL, id=f"multisite4-{DEFAULT_RTOL}")],
    )
    def test_stacked_systems_of_verify(self, n_sites, rtol, monkeypatch):
        if n_sites:
            crn, v0 = multisite(MultisiteSpec(n_sites=n_sites))
        else:
            crn = running_example()
            v0 = inits(crn, A=1, B=2, C=3, D=4, E=5)
        # The running example grows without bound (C overflows near t = 24),
        # and ever faster: a short horizon keeps its rtol 1e-12 run short.
        t_end = (DEFAULT_T_END if rtol != 1e-12 else 10.0) if n_sites else 2.0
        fb = refine(crn, Partition.trivial(crn), BisimMode.FORWARD).final
        self.assert_verify_matches(verify_forward, crn, fb, v0, t_end, rtol, monkeypatch)
        if not n_sites:
            v0 = inits(crn, A=1, B=1, C=1, D=1, E=1)
        bb = refine(crn, partition_from_initial_conditions(v0), BisimMode.BACKWARD).final
        self.assert_verify_matches(verify_backward, crn, bb, v0, t_end, rtol, monkeypatch)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_networks(self, seed):
        rng = random.Random(seed)
        net = random_crn(seed, rng.randint(1, 8), rng.randint(0, 12))
        v0 = InitialCondition.from_map(
            net, {sp: Fraction(rng.randint(0, 40), rng.randint(1, 20)) for sp in net.species}
        )
        t_end = rng.choice([0.5, 1.0, 3.0])
        grid = np.linspace(0.0, t_end, rng.randint(1, 50))
        rtol = rng.choice([DEFAULT_RTOL, 1e-3, 1e-12])
        traj = integrate(net, v0, t_end, rtol=rtol, atol=DEFAULT_ATOL, t_eval=grid)
        self.assert_same((net,), (v0,), t_end, rtol, DEFAULT_ATOL, grid, [traj])

    def test_first_step_where_the_scaled_derivative_overflows(self, monkeypatch):
        # B starts at 0, so its error scale is atol and f0 / scale overflows:
        # the first trial step is 0, and scipy divides 0 by it (nan), then
        # takes its smallest step.  It reaches t=1 in 2006 evaluations.
        crn = make_crn(["A", "B"], [({"A": 1}, 1, {"B": 1})])
        v0 = inits(crn, A=Fraction(10) ** 200)
        grid = np.linspace(0.0, 1.0, 5)
        traj = integrate(crn, v0, 1.0, t_eval=grid)
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_same((crn,), (v0,), 1.0, DEFAULT_RTOL, DEFAULT_ATOL, grid, [traj])
            p = Partition.discrete(crn)
            for verify in (verify_forward, verify_backward):
                self.assert_verify_matches(verify, crn, p, v0, 1.0, DEFAULT_RTOL, monkeypatch)
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "grid",
        [
            [0.0],
            [1.0],
            [0.25, 0.5, 0.875, 1.0],
            [1e-9, 0.5],
            # Far denser than the steps: one step emits many points.
            pytest.param(np.linspace(0.0, 1.0, 2001).tolist(), id="linspace-2001"),
            # Ends well before t_end: the last steps emit none.
            pytest.param([0.01, 0.02, 0.3], id="ends-at-0.3"),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("rtol", [1e-3, 1e-12], ids=str)
    def test_user_grids(self, crn, grid, rtol):
        v0 = inits(crn, A=1, B=2, C=3, D=4, E=5)
        traj = integrate(crn, v0, 1.0, rtol=rtol, t_eval=grid)
        self.assert_same((crn,), (v0,), 1.0, rtol, DEFAULT_ATOL, np.array(grid), [traj])

    @pytest.mark.parametrize("names", [["A", "B"], []], ids=["two-species", "no-species"])
    def test_network_without_reactions(self, names):
        net = make_crn(names, [])
        v0 = InitialCondition.from_map(net, {name: 2 for name in names})
        traj = integrate(net, v0, 5.0, n_points=7)
        grid = np.linspace(0.0, 5.0, 7)
        self.assert_same((net,), (v0,), 5.0, DEFAULT_RTOL, DEFAULT_ATOL, grid, [traj])
