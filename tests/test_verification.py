import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import qlocker as q
from qlocker import RandomStream, VerificationParams
from qlocker.tomography import FULL_REDUCED
from qlocker.verification import CLICK_POLICIES, sample_acceptance_runs
from conftest import accepted_mass, every_record, random_qubit_state
from oracles import (iterate_once, perturbation_step, phase_aligned_distance,
                     qubit_probabilities, reference_acceptance_runs,
                     weak_steps)

# the largest theta below pi/2: sin^2(theta) rounds to 1.0 there
NEAR_RIGHT_ANGLE = math.nextafter(math.pi / 2, 0)


class QueueStream:
    """A stand-in stream that hands out prepared draws, one array per
    ``randoms`` or ``below`` call."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def randoms(self, size):
        draws = next(self._draws)
        assert len(draws) == size
        return draws

    def below(self, p, size):
        return self.randoms(size) < p


def threshold_draws(alpha_sq, theta, iterations, strict):
    """Draws that sit on each run's thresholds, and the accept array they
    must give.

    Run ``(c, e)`` clicks at step ``c`` (never, for ``c = iterations``) by
    drawing the largest double below its ``p1``, and otherwise draws
    ``p1`` itself, which does not click.  A run that never clicked draws
    its final P(|0>) ``a2`` moved by ``e`` ulps last.  The chain is the
    per-run law in plain floats, so a sampler that rounds any step
    differently, or compares with ``<=``, moves some run across its
    threshold.  A run that clicked sits in |0>, its ``a2`` 1 for good: it
    draws the largest double below 1 last, and accepts unless the policy
    is strict.
    """
    sin_sq = math.sin(theta) ** 2
    cos_sq = math.cos(theta) ** 2
    columns, accept = [], []
    for click_step in range(iterations + 1):
        for ulps in (-1, 0, 1):
            a2, draws, clicked = alpha_sq, [], False
            for j in range(iterations):
                p1 = a2 * sin_sq
                if j == click_step or p1 >= 1.0:
                    draws.append(math.nextafter(min(p1, 1.0), 0.0))
                    a2, clicked = 1.0, True
                else:
                    draws.append(p1)
                    if not clicked:
                        a2 = a2 * cos_sq / (1.0 - p1)
            if clicked:
                columns.append(draws + [math.nextafter(1.0, 0.0)])
                accept.append(not strict)
                continue
            final = a2
            for _ in range(abs(ulps)):
                final = math.nextafter(final, ulps * math.inf)
            columns.append(draws + [final])
            accept.append(final < a2)
    return list(np.array(columns).T), np.array(accept)


def brute_force_records(alpha_sq: float, theta: float, iterations: int,
                        strict: bool = False) -> dict[str, float]:
    """Path-sum oracle, written independently of the library's closed form.

    Enumerates every ancilla outcome tuple with plain-float products of the
    per-step conditional probabilities, tracking the collapsed state as its
    P(|0>), and gives the probability of each record as ``box_records``
    writes it.  A strict record ends at its first click, so of the tuples
    that share its prefix only the one with no later click is counted.
    """
    sin_sq = math.sin(theta) ** 2
    cos_sq = math.cos(theta) ** 2
    records: dict[str, float] = {}
    for path in itertools.product((0, 1), repeat=iterations):
        if strict and 1 in path and 1 in path[path.index(1) + 1:]:
            continue
        prob, a2, steps = 1.0, alpha_sq, ""
        for outcome in path:
            steps += str(outcome)
            p1 = a2 * sin_sq
            if outcome == 1:
                prob *= p1
                a2 = 1.0
                if strict:
                    break
            else:
                # not 1 - p1, which is 0 where sin^2 rounds to 1
                p0 = a2 * cos_sq + (1.0 - a2)
                prob *= p0
                a2 = a2 * cos_sq / p0
        for final, p_final in (("0", a2), ("1", 1.0 - a2)):
            records[steps + final] = prob * p_final
    return records


def brute_force_acceptance(alpha_sq: float, theta: float, iterations: int,
                           strict: bool = False) -> float:
    """The accepted records' mass: a readout of 0, after no click if
    ``strict``."""
    return sum(p for record, p in brute_force_records(
        alpha_sq, theta, iterations, strict).items()
        if record[-1] == "0" and not (strict and "1" in record))


class TestParams:
    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            VerificationParams(theta=0.0)
        with pytest.raises(ValueError):
            VerificationParams(theta=math.pi / 2)

    def test_iterations_bound(self):
        with pytest.raises(ValueError):
            VerificationParams(iterations=-1)
        assert VerificationParams(iterations=0).iterations == 0

    def test_longest_box(self):
        # a row draws n * (N + 1) uniforms up front, so N is bounded; the
        # check is in the parameters, before anything is allocated
        longest = q.verification.MAX_ITERATIONS
        assert VerificationParams(iterations=longest).iterations == longest
        with pytest.raises(ValueError, match="10000"):
            VerificationParams(iterations=10_001)

    @pytest.mark.parametrize("iterations", [38.0, True, np.float64(38)],
                             ids=["float", "bool", "numpy-float"])
    def test_iterations_must_be_an_integer(self, iterations):
        with pytest.raises(TypeError, match="iterations must be an integer"):
            VerificationParams(0.1, iterations)

    @pytest.mark.parametrize("theta", [True, "0.1", None],
                             ids=["bool", "str", "none"])
    def test_theta_must_be_a_real_number(self, theta):
        with pytest.raises(TypeError, match="theta must be a real number"):
            VerificationParams(theta)

    def test_numpy_theta_is_a_real_number(self):
        assert VerificationParams(np.float64(0.25)) == VerificationParams(0.25)

    def test_numpy_integer_iterations_run_a_box(self):
        params = VerificationParams(0.1, np.int64(3))
        assert params == VerificationParams(0.1, 3)
        traj, _ = q.run_box(q.basis_state("0"), 0, params, RandomStream(7))
        assert len(traj.ancilla_outcomes) == 3

    def test_policy_names(self):
        with pytest.raises(ValueError):
            VerificationParams(click_policy="lenient")


class TestIterateOnce:
    def test_one_state_is_inert(self):
        params = VerificationParams(theta=0.2, iterations=1)
        outcome, state, p1 = iterate_once(
            q.basis_state("1"), params, RandomStream(0))
        assert outcome == 0 and p1 == 0.0
        np.testing.assert_array_equal(state.amplitudes, [0, 1])

    def test_zero_state_click_probability(self):
        params = VerificationParams(theta=0.2, iterations=1)
        seen = set()
        for i in range(200):
            outcome, state, p1 = iterate_once(
                q.new_state(1), params, RandomStream(0).substream(i))
            assert p1 == pytest.approx(0.03946950299855745, abs=1e-15)
            np.testing.assert_allclose(np.abs(state.amplitudes), [1, 0],
                                       atol=1e-12)
            seen.add(outcome)
        assert seen == {0, 1}  # both branches exercised at sin^2(0.2) ~ 4%

    def test_superposition_probabilities(self):
        state = q.StateVector(1, [math.cos(math.pi / 8), math.sin(math.pi / 8)])
        params = VerificationParams(theta=0.2, iterations=1)
        _, _, p1 = iterate_once(state, params, RandomStream(1))
        assert p1 == pytest.approx(0.033689328109450134, abs=1e-15)
        # the published diagonal ancilla model rounds these to 0.966 / 0.034
        assert round(1 - p1, 3) == 0.966
        assert round(p1, 3) == 0.034

    def test_no_click_collapse_matches_formula(self):
        state = random_qubit_state(np.random.default_rng(5))
        alpha, beta = state.amplitudes
        params = VerificationParams(theta=0.4, iterations=1)
        for i in range(50):
            outcome, nxt, _ = iterate_once(state, params,
                                           RandomStream(2).substream(i))
            if outcome == 0:
                expect = perturbation_step(alpha, beta, 0.4)
                np.testing.assert_allclose(nxt.amplitudes, expect, atol=1e-12)
                break
        else:
            pytest.fail("no zero outcome in 50 draws")

    def test_requires_single_qubit(self):
        with pytest.raises(ValueError):
            iterate_once(q.new_state(2),
                         VerificationParams(), RandomStream(0))


class TestRunVerification:
    def test_zero_state_always_accepts(self):
        params = VerificationParams(theta=0.3, iterations=5)
        root = RandomStream(77)
        for i in range(500):
            traj, _ = q.run_box(q.new_state(1), 0, params, root.substream(i))
            assert traj.accepted and traj.final_system_outcome == 0

    def test_one_state_always_rejects(self):
        params = VerificationParams(theta=0.3, iterations=5)
        root = RandomStream(78)
        for i in range(500):
            traj, _ = q.run_box(q.basis_state("1"), 0, params,
                                root.substream(i))
            assert not traj.accepted and traj.final_system_outcome == 1
            assert traj.outcomes_bitstring() == "00000"

    def test_trajectory_lengths_match_executed_iterations(self):
        params = VerificationParams(theta=1.2, iterations=6,
                                    click_policy=q.STRICT_ABORT)
        root = RandomStream(9)
        truncated = False
        for i in range(100):
            traj, _ = q.run_box(q.new_state(1), 0, params, root.substream(i))
            # the steps the kernel runs on the box's draws, up to and
            # including the first click
            clicks, _, _ = weak_steps(q.new_state(1).amplitudes[None], 0,
                                      params.theta,
                                      root.substream(i).randoms(7)[None, :6])
            executed = clicks[0].tolist().index(1) + 1 if clicks.any() else 6
            assert traj.ancilla_outcomes == clicks[0, :executed].tolist()
            if any(traj.ancilla_outcomes):
                assert traj.ancilla_outcomes[-1] == 1
                assert len(traj.ancilla_outcomes) <= 6
                assert not traj.accepted
                truncated = len(traj.ancilla_outcomes) < 6 or truncated
        assert truncated

    def test_p1_non_increasing_on_all_zero_prefix(self, np_rng):
        params = VerificationParams(theta=0.25, iterations=12)
        root = RandomStream(10)
        for i in range(60):
            state = random_qubit_state(np_rng)
            traj, _ = q.run_box(state, 0, params, root.substream(i))
            # the kernel's click probabilities, replayed on the box's draws
            draws = root.substream(i).randoms(13)[None, :12]
            clicks, p1, _ = weak_steps(state.amplitudes[None], 0,
                                       params.theta, draws)
            assert clicks[0].tolist() == traj.ancilla_outcomes
            prefix_end = (traj.ancilla_outcomes.index(1)
                          if any(traj.ancilla_outcomes) else 12)
            p1s = p1[0, :prefix_end + 1].tolist()
            assert all(b <= a + 1e-12 for a, b in zip(p1s, p1s[1:]))


class TestAcceptanceProbability:
    def test_endpoints(self):
        params = VerificationParams(theta=0.3, iterations=4)
        assert q.acceptance_probability(1.0, params) == 1.0
        assert q.acceptance_probability(0.0, params) == 0.0

    def test_half_is_exact_for_default_policy(self):
        params = VerificationParams(theta=0.3, iterations=4)
        assert q.acceptance_probability(0.5, params) == 0.5

    def test_domain_error(self):
        params = VerificationParams()
        with pytest.raises(ValueError):
            q.acceptance_probability(1.5, params)
        with pytest.raises(ValueError):
            q.acceptance_probability(-0.1, params)

    def test_against_brute_force_oracle(self):
        for alpha_sq in (0.0, 0.3, 0.5, 0.9, 1.0):
            for theta in (0.1, 0.5):
                for iterations in (1, 3, 6):
                    for policy, strict in ((q.PAPER_DEFAULT, False),
                                           (q.STRICT_ABORT, True)):
                        params = VerificationParams(theta, iterations, policy)
                        oracle = brute_force_acceptance(
                            alpha_sq, theta, iterations, strict)
                        assert q.acceptance_probability(
                            alpha_sq, params) == pytest.approx(oracle, abs=1e-12)

    def test_strict_policy_never_exceeds_default(self):
        for alpha_sq in (0.2, 0.7, 1.0):
            for theta in (0.05, 0.4):
                for iterations in (1, 10, 38):
                    default = q.acceptance_probability(
                        alpha_sq, VerificationParams(theta, iterations))
                    strict = q.acceptance_probability(
                        alpha_sq,
                        VerificationParams(theta, iterations, q.STRICT_ABORT))
                    assert strict <= default + 1e-15


class TestEnumeration:
    def test_one_state_single_path(self):
        params = VerificationParams(theta=0.2, iterations=2)
        law = {r: q.record_probability(r, 0.0, params)
               for r in every_record(2, False)}
        assert {r for r, p in law.items() if p} == {"001"}
        assert law["001"] == 1.0

    def test_zero_state_two_paths(self):
        params = VerificationParams(theta=0.2, iterations=1)
        law = {r: q.record_probability(r, 1.0, params)
               for r in every_record(1, False)}
        assert law["00"] == pytest.approx(math.cos(0.2) ** 2, abs=1e-15)
        assert law["10"] == pytest.approx(math.sin(0.2) ** 2, abs=1e-15)
        assert law["01"] == law["11"] == 0.0  # |0> never reads out 1

    def test_plus_state_accept_mass(self):
        accept = accepted_mass(0.5, VerificationParams(theta=0.1, iterations=3))
        assert accept == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, np_rng):
        for _ in range(10):
            alpha_sq = abs(random_qubit_state(np_rng).amplitudes[0]) ** 2
            for policy in q.verification.CLICK_POLICIES:
                params = VerificationParams(0.7, 6, policy)
                total = sum(q.record_probability(r, alpha_sq, params)
                            for r in every_record(6, policy == q.STRICT_ABORT))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_strict_paths_truncate_at_click(self):
        params = VerificationParams(theta=0.3, iterations=4,
                                    click_policy=q.STRICT_ABORT)
        law = {r: q.record_probability(r, 1.0, params)
               for r in every_record(4, True)}
        for record in every_record(4, False):
            if record not in law:  # runs on past its click
                assert q.record_probability(record, 1.0, params) == 0.0
        assert all(law["0" * j + "10"] > 0.0 for j in range(4))
        assert law["00001"] == 0.0
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_run_box_distribution(self):
        # sampled full-simulator runs against exact record probabilities
        state = q.StateVector(1, [math.cos(0.6), math.sin(0.6)])
        params = VerificationParams(theta=0.5, iterations=3)
        exact = {r: q.record_probability(r, math.cos(0.6) ** 2, params)
                 for r in every_record(3, False)}
        runs = 4000
        root = RandomStream(55)
        tally: dict[str, int] = {}
        for i in range(runs):
            traj, _ = q.run_box(state, 0, params, root.substream(i))
            key = traj.outcomes_bitstring() + str(traj.final_system_outcome)
            tally[key] = tally.get(key, 0) + 1
        assert all(exact[key] > 0.0 for key in tally)
        for key, prob in exact.items():
            if prob < 0.01:
                continue
            seen = tally.get(key, 0) / runs
            assert abs(seen - prob) < 4 * math.sqrt(prob * (1 - prob) / runs)


class TestRecordProbability:
    def test_matches_the_path_sum_oracle(self):
        rng = np.random.default_rng(31)
        thetas = [1e-3, *rng.uniform(0.0, math.pi / 2, 3), NEAR_RIGHT_ANGLE]
        for theta, iterations, policy in itertools.product(
                thetas, range(9), q.verification.CLICK_POLICIES):
            params = VerificationParams(theta, iterations, policy)
            strict = policy == q.STRICT_ABORT
            for alpha_sq in (0.0, 1.0, *rng.uniform(0.0, 1.0, 2)):
                oracle = brute_force_records(alpha_sq, theta, iterations,
                                             strict)
                for record, want in oracle.items():
                    got = q.record_probability(record, alpha_sq, params)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (
                        record, alpha_sq, params)
                total = sum(q.record_probability(r, alpha_sq, params)
                            for r in every_record(iterations, strict))
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("policy", (q.PAPER_DEFAULT, q.STRICT_ABORT))
    def test_quiet_record_is_the_strict_acceptance(self, policy):
        for theta, iterations, alpha_sq in itertools.product(
                (1e-3, 0.1, 1.2, NEAR_RIGHT_ANGLE), (0, 1, 38, 10_000),
                (0.0, 0.3, 0.5, 1.0)):
            strict = VerificationParams(theta, iterations, q.STRICT_ABORT)
            quiet = "0" * (iterations + 1)
            assert q.record_probability(
                quiet, alpha_sq, VerificationParams(theta, iterations, policy)
            ) == q.acceptance_probability(alpha_sq, strict)

    @pytest.mark.parametrize("policy", (q.PAPER_DEFAULT, q.STRICT_ABORT))
    def test_impossible_records_have_probability_zero(self, policy):
        params = VerificationParams(0.3, 4, policy)
        for record in ("0", "0000", "000000", "01001", "00011", "1" * 6):
            assert q.record_probability(record, 0.5, params) == 0.0
        cut = "010"  # a strict record, cut at its click
        assert (q.record_probability(cut, 0.5, params) > 0.0) == (
            policy == q.STRICT_ABORT)

    def test_domain_errors(self):
        params = VerificationParams(0.3, 2)
        for record in ("", "012", "0a0", " 000", "00 0"):
            with pytest.raises(ValueError, match="0s and 1s"):
                q.record_probability(record, 0.5, params)
        tol = q.statevector.NORM_TOL
        for alpha_sq in (-2 * tol, 1.0 + 2 * tol, math.nan, 1.5):
            with pytest.raises(ValueError, match="alpha_sq"):
                q.record_probability("000", alpha_sq, params)
        # a rounding error past [0, 1] reads as the endpoint
        assert q.record_probability("001", 1.0 + tol / 2, params) == 0.0
        assert q.record_probability("001", -tol / 2, params) == 1.0


# the sampled box against the law: (N, theta, shots) at the paper's box and
# at boxes 5 and 26 times as long, on a state with unequal weights and a
# relative phase
LAW_BOXES = [(38, 0.1, 8192), (200, 0.1, 4000), (1000, 0.05, 1000)]
LAW_STATE = q.StateVector(1, [math.sqrt(0.6), 1j * math.sqrt(0.4)])
ALPHA_SQ = abs(LAW_STATE.amplitudes[0]) ** 2


@pytest.fixture(scope="module", ids=lambda p: f"N{p[0][0]}-{p[1]}", params=[
    (box, policy) for box in LAW_BOXES
    for policy in (q.PAPER_DEFAULT, q.STRICT_ABORT)])
def sampled_box(request):
    """The shipped box (``box_shots``) on ``LAW_STATE``, its rows joined
    across blocks, with each shot's draws and its first click step (N for
    none)."""
    (iterations, theta, shots), policy = request.param
    params = VerificationParams(theta, iterations, policy)
    blocks = [box for (box,) in q.box_shots(LAW_STATE, params,
                                            RandomStream(2024), range(shots))]
    box = q.verification.BoxRows(*map(np.concatenate, zip(*blocks)))
    uniforms = RandomStream(2024).shot_uniforms(range(shots), iterations + 1)
    clicked = box.outcomes.any(axis=1)
    first = np.where(clicked, box.outcomes.argmax(axis=1), iterations)
    return params, box, uniforms, first


def closed_form(params, first):
    """Each row's click probabilities ``(R, N)`` and the P(0) its readout
    reads: ``a_j sin^2`` up to the first click, with
    ``a_j = alpha^2 cos^2j / (alpha^2 cos^2j + beta^2)``, and ``sin^2``
    after it; ``a_N`` after no click, 1 after one."""
    sin_sq = math.sin(params.theta) ** 2
    weight = ALPHA_SQ * math.cos(params.theta) ** (
        2 * np.arange(params.iterations + 1))
    a = weight / (weight + (1.0 - ALPHA_SQ))
    steps = np.arange(params.iterations)
    p1 = np.where(steps <= first[:, None], a[:-1] * sin_sq, sin_sq)
    return p1, np.where(first == params.iterations, a[-1], 1.0)


def first_click_law(params) -> np.ndarray:
    """P(first click at step j) for j < N, then P(no click) read out as 0
    and as 1: the law of the strict record, which ends at its first
    click."""
    strict = VerificationParams(params.theta, params.iterations,
                                q.STRICT_ABORT)
    return np.array([q.record_probability(r, ALPHA_SQ, strict)
                     for r in every_record(params.iterations, True)])


def chi_square_pvalue(observed, expected) -> float:
    """Pearson's test, adjacent bins merged in order until each expects at
    least 5 counts (a short last run joins the bin before it)."""
    bins, obs, exp = [], 0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            bins.append([obs, exp])
            obs, exp = 0, 0.0
    bins[-1][0] += obs
    bins[-1][1] += exp
    observed, expected = np.array(bins).T
    return scipy.stats.chisquare(observed, expected).pvalue


class TestSampledBoxLaw:
    """The shipped sampled box against :func:`record_probability`'s law at
    N = 38, 200 and 1000, under both policies."""

    def test_step_p1_is_the_closed_form(self, sampled_box):
        # the kernel's click probabilities, replayed on every row's draws:
        # up to the end of its record a row replays the box's outcomes
        params, box, uniforms, first = sampled_box
        p1, _ = closed_form(params, first)
        rows = np.broadcast_to(LAW_STATE.amplitudes, (len(first), 2))
        clicks, replayed, _ = weak_steps(rows, 0, params.theta,
                                         uniforms[:, :params.iterations])
        read = np.arange(params.iterations) < box.steps[:, None]
        np.testing.assert_array_equal(clicks[read], box.outcomes[read])
        np.testing.assert_allclose(replayed[read], p1[read], rtol=1e-12)

    def test_every_record_is_possible(self, sampled_box):
        params, box, _, _ = sampled_box
        for record in set(q.box_records(box)):
            assert q.record_probability(record, ALPHA_SQ, params) > 0.0, record

    def test_records_replay_their_draws(self, sampled_box):
        # weak step j clicks on column j's draw, and the readout reads 1 on
        # column N's, each at the law's threshold: a box that reads another
        # column of its window, or another law, records other bits
        params, box, uniforms, first = sampled_box
        p1, p0_final = closed_form(params, first)
        n = params.iterations
        cut = params.click_policy == q.STRICT_ABORT and first < n
        np.testing.assert_array_equal(box.steps, np.where(cut, first + 1, n))
        read = np.arange(n) < box.steps[:, None]
        np.testing.assert_array_equal(
            box.outcomes[read], (uniforms[:, :n] >= 1.0 - p1)[read])
        np.testing.assert_array_equal(box.final, uniforms[:, n] >= p0_final)

    def test_first_clicks_fit_the_law(self, sampled_box):
        # bins: a first click at step 0 .. N-1, then no click read out as 0
        # and as 1
        params, box, _, first = sampled_box
        n, shots = params.iterations, len(first)
        quiet = first == n
        observed = [*np.bincount(first[~quiet], minlength=n),
                    np.sum(quiet & ~box.final), np.sum(quiet & box.final)]
        law = first_click_law(params)
        assert chi_square_pvalue(observed, shots * law) > 1e-3

    def test_clicks_after_the_first_fit_the_law(self, sampled_box):
        # bins: k = 0 .. N-1 clicks after the first, then no click; after
        # a click at step j each of the N-1-j later steps clicks with
        # sin^2, and a strict record has none
        params, box, _, first = sampled_box
        n, shots = params.iterations, len(first)
        read = np.arange(n) < box.steps[:, None]
        later = (box.outcomes * read).sum(axis=1) - 1
        quiet = first == n
        observed = [*np.bincount(later[~quiet], minlength=n), np.sum(quiet)]
        steps = np.arange(n)
        trials = (n - 1 - steps if params.click_policy == q.PAPER_DEFAULT
                  else np.zeros_like(steps))
        # row j, column k: k later clicks after a first click at step j
        later_law = scipy.stats.binom.pmf(steps, trials[:, None],
                                          math.sin(params.theta) ** 2)
        first_law = first_click_law(params)
        law = [*first_law[:n] @ later_law, first_law[n:].sum()]
        assert chi_square_pvalue(observed, shots * np.array(law)) > 1e-3


class TestPerturbationStep:
    def test_fixed_points_exact(self):
        assert perturbation_step(1.0, 0.0, 0.3) == (1.0, 0.0)
        assert perturbation_step(0.0, 1.0, 0.3) == (0.0, 1.0)

    def test_balanced_state_small_theta(self):
        a = b = 1 / math.sqrt(2)
        alpha, beta = perturbation_step(a, b, 0.01)
        assert abs(alpha) ** 2 == pytest.approx(0.49997499958334307, abs=1e-15)
        # first-order form of the collapse, accurate to O(theta^4)
        approx_alpha = a * (1 - abs(b) ** 2 * 0.01**2 / 2)
        approx_beta = b * (1 + abs(a) ** 2 * 0.01**2 / 2)
        assert abs(alpha - approx_alpha) < 1e-8
        assert abs(beta - approx_beta) < 1e-8

    def test_strict_monotonicity(self, np_rng):
        for _ in range(50):
            state = random_qubit_state(np_rng)
            a, b = state.amplitudes
            a2, b2 = perturbation_step(a, b, 0.2)
            if abs(a) > 1e-9 and abs(b) > 1e-9:
                assert abs(a2) < abs(a)
                assert abs(b2) > abs(b)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            perturbation_step(1.0, 1.0, 0.1)

    def test_all_zero_trajectory_closed_form(self):
        a, b = 0.8, 0.6
        theta, n = 0.35, 20
        alpha, beta = complex(a), complex(b)
        beta_history = [abs(beta) ** 2]
        for _ in range(n):
            alpha, beta = perturbation_step(alpha, beta, theta)
            beta_history.append(abs(beta) ** 2)
        closed = b**2 / (b**2 + a**2 * math.cos(theta) ** (2 * n))
        assert abs(beta) ** 2 == pytest.approx(closed, rel=1e-12)
        assert all(y > x for x, y in zip(beta_history, beta_history[1:]))


# sample_acceptance_runs' row of each click policy
PAPER_ROW, STRICT_ROW = (CLICK_POLICIES.index(policy)
                         for policy in (q.PAPER_DEFAULT, q.STRICT_ABORT))


class TestSampler:
    def test_matches_law_at_1e5(self):
        params = VerificationParams(theta=0.2, iterations=6)
        rate = sample_acceptance_runs(0.37, params, 100_000,
                                      RandomStream(5))[PAPER_ROW].mean()
        sigma = math.sqrt(0.37 * 0.63 / 100_000)
        assert abs(rate - 0.37) < 4 * sigma

    def test_strict_law(self):
        params = VerificationParams(theta=0.3, iterations=4,
                                    click_policy=q.STRICT_ABORT)
        expect = 0.6 * math.cos(0.3) ** 8
        rate = sample_acceptance_runs(0.6, params, 100_000,
                                      RandomStream(6))[STRICT_ROW].mean()
        sigma = math.sqrt(expect * (1 - expect) / 100_000)
        assert abs(rate - expect) < 4 * sigma

    def test_endpoints_exact(self):
        params = VerificationParams(theta=0.2, iterations=10)
        for alpha_sq, seed in ((0.0, 7), (1.0, 8)):
            accept = sample_acceptance_runs(alpha_sq, params, 5000,
                                            RandomStream(seed))[PAPER_ROW]
            assert accept.mean() == alpha_sq

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(theta=st.one_of(st.sampled_from([1e-3, 1.5, NEAR_RIGHT_ANGLE]),
                           st.floats(0.0, math.pi / 2, exclude_min=True,
                                     exclude_max=True)),
           iterations=st.integers(0, 200),
           alpha_sq=st.one_of(st.sampled_from([0.0, 1.0]),
                              st.floats(0.0, 1.0)),
           runs=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_run_oracle_bit_for_bit(
            self, theta, iterations, alpha_sq, runs, seed):
        # one pass gives each policy's row: the oracle's runs under that
        # policy, on a stream of the same seed
        got_rng = RandomStream(seed)
        got = sample_acceptance_runs(
            alpha_sq, VerificationParams(theta, iterations), runs, got_rng)
        assert got.shape == (len(CLICK_POLICIES), runs)
        want_rngs = []
        for row, policy in zip(got, CLICK_POLICIES):
            want_rngs.append(RandomStream(seed))
            want = reference_acceptance_runs(
                alpha_sq, VerificationParams(theta, iterations, policy), runs,
                want_rngs[-1])
            assert np.array_equal(row, want), policy
        # the policies judge one record: a strict accept never clicked and
        # read 0, which the paper policy accepts too
        assert not (got[STRICT_ROW] & ~got[PAPER_ROW]).any()
        # the same draws in the same order: every stream stands at one
        # place, (N + 1) * runs draws in
        after = got_rng.randoms(1)
        assert all(rng.randoms(1) == after for rng in want_rngs)

    @pytest.mark.parametrize("policy, theta, alpha_sq, iterations", [
        *itertools.product((q.PAPER_DEFAULT, q.STRICT_ABORT),
                           [0.3, 1.2, 1.5], [0.3, 0.9, 1.0], [12]),
        # P(|0>) = 1 is an unstable fixed point: rounding pushes the run
        # that never clicks up to a2 = 25 (a2 * cos^2 = 12) at step 49,
        # where p1 >= 1 forces its click, so every run clicks and accepts
        # (strict runs would all reject)
        (q.PAPER_DEFAULT, 0.808, 1.0, 52)])
    def test_draws_on_the_thresholds(self, policy, theta, alpha_sq,
                                     iterations):
        params = VerificationParams(theta, iterations, policy)
        draws, want = threshold_draws(alpha_sq, theta, iterations,
                                      policy == q.STRICT_ABORT)
        assert want.any() and want.all() == (iterations == 52)
        row = CLICK_POLICIES.index(policy)
        got = sample_acceptance_runs(alpha_sq, params, len(want),
                                     QueueStream(draws))
        assert np.array_equal(got[row], want)
        got = reference_acceptance_runs(alpha_sq, params, len(want),
                                        QueueStream(draws))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("policy", (q.PAPER_DEFAULT, q.STRICT_ABORT))
    @pytest.mark.parametrize("alpha_sq", [0.0, 0.5, 1.0])
    def test_sin_squared_of_one_divides_nothing_by_zero(self, policy,
                                                        alpha_sq):
        # pytest turns the RuntimeWarning of a division by zero into an error
        params = VerificationParams(NEAR_RIGHT_ANGLE, 3, policy)
        row = CLICK_POLICIES.index(policy)
        accept = sample_acceptance_runs(alpha_sq, params, 2000,
                                        RandomStream(11))[row]
        want = reference_acceptance_runs(alpha_sq, params, 2000,
                                         RandomStream(11))
        assert np.array_equal(accept, want)
        if alpha_sq != 0.5:  # every run clicks at once, or none ever does
            expect = alpha_sq == 1.0 and policy == q.PAPER_DEFAULT
            assert accept.all() if expect else not accept.any()

    def test_a_run_that_clicked_accepts_under_the_paper_policy(self):
        # the run clicks at once, then stays quiet for 29 steps; its
        # P(|0>) is 1 for good, so its closing draw of 0.5 accepts.  A
        # per-run P(|0>) kept in floats would drift from 1 to 4.6e-10 here,
        # each quiet step multiplying its rounding error by 1/cos^2(theta)
        params = VerificationParams(1.2, 30)
        draws = [np.array([0.0])] + [np.array([0.99])] * 29 + [
            np.array([0.5])]
        got = sample_acceptance_runs(0.5, params, 1, QueueStream(draws))
        assert got[PAPER_ROW].tolist() == [True]
        assert got[STRICT_ROW].tolist() == [False]
        got = reference_acceptance_runs(0.5, params, 1, QueueStream(draws))
        assert got.tolist() == [True]

    # the ids keep each policy's former bound (paper 16, strict 20); one
    # pass now serves both policies, so both cases hold it to 16
    @pytest.mark.parametrize("policy", [q.PAPER_DEFAULT, q.STRICT_ABORT],
                             ids=["paper-16", "strict-20"])
    def test_memory_per_run(self, policy):
        # a click mask, one step's raw words and the mask of their test,
        # then each policy's row, whatever params.click_policy says:
        # cli.py's bound on sweep's shots rests on these 16 bytes a run
        runs = 1 << 18
        params = VerificationParams(0.5, 4, policy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_acceptance_runs(0.5, params, runs, RandomStream(3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * runs

    def test_no_runs_is_an_error(self):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            sample_acceptance_runs(0.5, VerificationParams(), 0,
                                   RandomStream(3))

    @pytest.mark.parametrize("runs", [2.0, True, np.float64(2)],
                             ids=["float", "bool", "numpy-float"])
    def test_runs_must_be_an_integer(self, runs):
        with pytest.raises(TypeError, match="runs must be an integer"):
            sample_acceptance_runs(0.5, VerificationParams(), runs,
                                   RandomStream(3))

    def test_numpy_integer_runs_are_runs(self):
        params = VerificationParams(0.2, 6)
        assert sample_acceptance_runs(
            0.5, params, np.int64(50), RandomStream(3)).tolist() == \
            sample_acceptance_runs(0.5, params, 50, RandomStream(3)).tolist()


def test_trajectory_record_format():
    traj = q.Trajectory([0, 0, 1], 0, True)
    params = VerificationParams(theta=0.1, iterations=3)
    assert q.trajectory_record(traj, 42, params) == "42,3,0.1,001,0,1"


def test_fixed_points_exactly_preserved_per_iteration():
    params = VerificationParams(theta=0.3, iterations=1)
    for bits, expect in (("0", [1, 0]), ("1", [0, 1])):
        state = q.basis_state(bits)
        root = RandomStream(17)
        for i in range(100):
            _, state, _ = iterate_once(state, params, root.substream(i))
            assert phase_aligned_distance(np.array(expect, dtype=complex),
                                            state.amplitudes) < 1e-12


def test_acceptance_probability_takes_a_rounding_error_above_one():
    params = VerificationParams(theta=0.3, iterations=4)
    assert q.acceptance_probability(1.0 + 1e-15, params) == 1.0


def _strict_runs(alpha_sq):
    """Two strict one-step runs whose first draw is the click probability
    of alpha_sq = 1, so a P(|0>) left above 1 clicks there."""
    params = VerificationParams(0.3, 1)
    draws = [np.array([math.sin(0.3) ** 2, 0.9]), np.array([0.5, 0.5])]
    return sample_acceptance_runs(alpha_sq, params, 2,
                                  QueueStream(draws))[STRICT_ROW].tolist()


# every law that takes a P(|0>), as a function of it
P0_LAWS = {
    "acceptance_probability": lambda a2: q.acceptance_probability(
        a2, VerificationParams(0.3, 4, q.STRICT_ABORT)),
    "record_probability": lambda a2: q.record_probability(
        "0000", a2, VerificationParams(0.3, 3)),
    "sample_acceptance_runs": _strict_runs,
    # takes alpha, and |alpha|^2 is never negative
    "theoretical_ancilla_density": lambda a2: q.theoretical_ancilla_density(
        math.sqrt(a2), 0.3, FULL_REDUCED).matrix.tolist(),
}


@pytest.mark.parametrize("law", P0_LAWS)
def test_a_rounding_error_past_the_unit_interval_reads_as_its_end(law):
    tol, p0_law = q.statevector.NORM_TOL, P0_LAWS[law]
    assert p0_law(1.0 + tol / 2) == p0_law(1.0)
    too_far = [1.0 + 2 * tol, math.nan]
    if law != "theoretical_ancilla_density":
        assert p0_law(-tol / 2) == p0_law(0.0)
        too_far.append(-2 * tol)
    for alpha_sq in too_far:
        with pytest.raises(ValueError, match="alpha_sq"):
            p0_law(alpha_sq)


class TestRunBox:
    def test_entangled_register_keeps_other_qubit_correlated(self):
        # Bell pair: the box on qubit 0 collapses qubit 1 with it
        bell = q.apply_gate(q.apply_gate(q.new_state(2), q.h(0)),
                            q.cnot(0, 1))
        params = VerificationParams(theta=0.3, iterations=5)
        root = RandomStream(11)
        for i in range(50):
            traj, post = q.run_box(bell, 0, params, root.substream(i))
            bit = traj.final_system_outcome
            assert qubit_probabilities(post, 1)[bit] == pytest.approx(
                1.0, abs=1e-12)
        np.testing.assert_array_equal(
            bell.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_one_uniform_per_iteration_plus_closing(self):
        params = VerificationParams(theta=0.2, iterations=7)
        rng = RandomStream(12)
        q.run_box(q.new_state(3), 1, params, rng)
        reference = RandomStream(12)
        for _ in range(8):
            reference.random()
        assert rng.random() == reference.random()

    def test_qubit_index_checked(self):
        # before the box draws
        rng = RandomStream(0)
        with pytest.raises(IndexError, match="qubit 2 out of range"):
            q.run_box(q.new_state(2), 2, VerificationParams(), rng)
        assert rng.random() == RandomStream(0).random()
