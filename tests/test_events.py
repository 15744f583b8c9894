import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevents import (DensityState, FiniteAlgebra, HeisenbergFrame,
                     InadmissibleThresholdError, InvariantViolation,
                     PartitionOfUnity, admissible_threshold, born_probabilities,
                     collapse, detect_event, diagonal_algebra, earliest_event,
                     run_trajectory, substream, unrecorded_update)
from qevents.events import _sample_paths

from _helpers import (random_density, random_partition, random_unitary,
                      reference_trajectory, rng, run_capped)

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.conj().T
I2 = np.eye(2, dtype=complex)
HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

PART = PartitionOfUnity(("+", "-"), (E11, E22))
RHO_37 = DensityState(np.diag([0.3, 0.7]).astype(complex))
PLUS = DensityState(np.full((2, 2), 0.5, dtype=complex))


def single_time_frame():
    return HeisenbergFrame((1.0,), (I2,), ((PART,),), (None,))


def hadamard_frame(steps=3):
    return HeisenbergFrame.build(tuple(float(k + 1) for k in range(steps)),
                                 PART, step_propagator=HAD)


class TestFrameConstruction:
    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            HeisenbergFrame((2.0, 1.0), (I2, I2), ((PART,), (PART,)), (None, None))

    def test_first_propagator_must_be_identity(self):
        with pytest.raises(InvariantViolation, match="identity"):
            HeisenbergFrame((1.0,), (HAD,), ((PART,),), (None,))

    def test_propagators_must_be_unitary(self):
        with pytest.raises(InvariantViolation, match="unitary"):
            HeisenbergFrame((1.0, 2.0), (I2, 2 * I2), ((PART,), (PART,)), (None, None))

    def test_propagators_must_share_the_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            HeisenbergFrame((1.0, 2.0), (I2, np.eye(3, dtype=complex)),
                            ((PART,), (PART,)), (None, None))

    def test_step_propagator_builds_powers(self):
        fr = hadamard_frame(3)
        np.testing.assert_allclose(fr.propagators[0], I2, atol=1e-12)
        np.testing.assert_allclose(fr.propagators[1], HAD, atol=1e-12)
        np.testing.assert_allclose(fr.propagators[2], I2, atol=1e-12)
        # partitions are transported into each time
        np.testing.assert_allclose(fr.partitions[1][0].projection_for("+"),
                                   np.full((2, 2), 0.5), atol=1e-12)

    def test_restrictions_must_nest(self):
        D = FiniteAlgebra.from_span([E11, E22])
        with pytest.raises(InvariantViolation, match="nested"):
            HeisenbergFrame((1.0, 2.0), (I2, I2), ((PART,), (PART,)), (D, None))

    def test_index_of_unknown_time(self):
        with pytest.raises(ValueError, match="not in the frame"):
            single_time_frame().index_of(9.0)


class TestAdmissibleThreshold:
    def test_distinct_weights(self):
        assert admissible_threshold(RHO_37, PART) == pytest.approx(0.2, rel=1e-12)
        assert admissible_threshold(RHO_37, PART, safety=0.25) == pytest.approx(0.1)

    def test_degenerate_weights_raise(self):
        with pytest.raises(InadmissibleThresholdError, match="gap"):
            admissible_threshold(PLUS, PART)

    def test_single_outcome_partition_raises(self):
        trivial = PartitionOfUnity(("all",), (I2,))
        with pytest.raises(InadmissibleThresholdError, match="single-outcome"):
            admissible_threshold(RHO_37, trivial)

    def test_safety_must_be_a_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="safety"):
                admissible_threshold(RHO_37, PART, safety=bad)


class TestDetectEvent:
    def test_incoherent_state_fires_with_zero_distance(self):
        v = detect_event(single_time_frame(), RHO_37, 1.0, PART)
        assert v.happened and v.admissible
        assert v.distance == pytest.approx(0.0, abs=1e-12)
        assert v.threshold == pytest.approx(0.1, rel=1e-12)
        assert v.gap == pytest.approx(0.4, rel=1e-12)

    def test_balanced_superposition_is_inadmissible(self):
        v = detect_event(single_time_frame(), PLUS, 1.0, PART)
        assert not v.happened and not v.admissible
        assert np.isnan(v.threshold)
        assert v.distance == pytest.approx(0.5, rel=1e-9)

    def test_small_coherence_keeps_firing(self):
        # distances grow continuously with the off-diagonal perturbation
        state = DensityState(np.array([[0.3, 0.01], [0.01, 0.7]], dtype=complex))
        v = detect_event(single_time_frame(), state, 1.0, PART)
        assert v.happened
        assert v.distance == pytest.approx(0.0249688084719466, rel=1e-9)
        assert v.distance < v.threshold / 2

    def test_large_coherence_blocks_the_event(self):
        state = DensityState(np.array([[0.3, 0.05], [0.05, 0.7]], dtype=complex))
        v = detect_event(single_time_frame(), state, 1.0, PART)
        assert not v.happened and v.admissible
        assert v.distance == pytest.approx(0.121267812518167, rel=1e-9)

    def test_restricted_access_recovers_the_event(self):
        # entangled pair: no event with full access, but tracing over the
        # second factor leaves an incoherent two-level state that fires
        psi = np.zeros(4, dtype=complex)
        psi[0] = np.sqrt(0.3)
        psi[3] = np.sqrt(0.7)
        state = DensityState(np.outer(psi, psi.conj()))
        sub = FiniteAlgebra.from_span([np.kron(B, I2) for B in (E11, E22, E12, E21)])
        part4 = PartitionOfUnity(("0", "1"), (np.kron(E11, I2), np.kron(E22, I2)))
        eye4 = np.eye(4, dtype=complex)
        restricted = HeisenbergFrame((1.0,), (eye4,), ((part4,),), (sub,))
        full = HeisenbergFrame((1.0,), (eye4,), ((part4,),), (None,))
        v_r = detect_event(restricted, state, 1.0, part4)
        v_f = detect_event(full, state, 1.0, part4)
        assert v_r.happened and v_r.distance == pytest.approx(0.0, abs=1e-10)
        assert not v_f.happened
        assert v_f.distance == pytest.approx(17.0 / 30.0, rel=1e-9)
        assert v_r.gap == v_f.gap == pytest.approx(0.4)

    def test_unknown_time_rejected(self):
        with pytest.raises(ValueError, match="not in the frame"):
            detect_event(single_time_frame(), RHO_37, 5.0, PART)

    def test_full_access_at_dimension_256_fits_in_1_gib(self):
        # the full matrix algebra as ambient, where a span basis alone has
        # d^4 entries (68 GB); the state has two eigenvalues, so two atoms
        script = (
            "import numpy as np\n"
            "from qevents import DensityState, HeisenbergFrame, PartitionOfUnity, detect_event\n"
            "low = np.arange(256) < 128\n"
            "P = np.diag(low.astype(float))\n"
            "part = PartitionOfUnity(('a', 'b'), (P, np.eye(256) - P))\n"
            "frame = HeisenbergFrame.build(times=(1.0,), partitions=part)\n"
            "state = DensityState(np.diag(np.where(low, 0.3, 0.7) / 128))\n"
            "v = detect_event(frame, state, 1.0, part)\n"
            "print(v.happened, v.distance, round(v.threshold, 12))\n"
        )
        proc = run_capped(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split("\n")[0] == "True 0.0 0.1"


class TestEarliestEvent:
    def test_alternating_fire_pattern(self):
        fr = hadamard_frame(4)
        report = earliest_event(fr, RHO_37)
        assert report.happened
        assert report.t_min == 1.0 and report.t_star == 1.0
        fired = [any(v.happened for v in row) for row in report.verdicts]
        assert fired == [True, False, True, False]

    def test_no_event_anywhere(self):
        fr = HeisenbergFrame((1.0,), (I2,), ((PART,),), (None,))
        report = earliest_event(fr, PLUS)
        assert not report.happened
        assert report.t_min is None and report.t_star is None


class TestBornAndCollapse:
    def test_probabilities_sum_to_one(self):
        probs = dict(born_probabilities(RHO_37, PART))
        assert probs["+"] == pytest.approx(0.3)
        assert probs["-"] == pytest.approx(0.7)

    def test_collapse_renormalizes(self):
        out = collapse(RHO_37, E11)
        np.testing.assert_allclose(out.matrix, E11, atol=1e-12)

    def test_collapse_on_zero_branch_raises(self):
        pure = DensityState(E11)
        with pytest.raises(ValueError, match="probability"):
            collapse(pure, E22)

    def test_unrecorded_update_removes_coherences(self):
        out = unrecorded_update(PLUS, PART)
        np.testing.assert_allclose(out.matrix, 0.5 * np.eye(2), atol=1e-12)
        # weights are preserved
        np.testing.assert_allclose(np.diag(out.matrix).real, [0.5, 0.5])


class TestTrajectories:
    def test_single_step_records_the_sampled_event(self):
        res = run_trajectory(single_time_frame(), RHO_37, rng_seed=substream(11, 0))
        assert [(r.time, r.outcome, r.probability, r.recorded) for r in res.history] \
            == [(1.0, "+", pytest.approx(0.3), True)]
        np.testing.assert_allclose(res.final_state.matrix, E11, atol=1e-12)

    def test_detection_gate_skips_inadmissible_times(self):
        res = run_trajectory(hadamard_frame(3), RHO_37, rng_seed=substream(3, 0))
        fired = [(b.time, b.fired, b.admissible) for b in res.branch_log]
        assert fired == [(1.0, True, True), (2.0, False, False), (3.0, True, True)]
        assert [r.time for r in res.history] == [1.0, 3.0]
        # after the first collapse the state is an eigenstate: the next
        # admissible event is deterministic
        assert res.history[1].probability == pytest.approx(1.0)

    def test_same_seed_reproduces_the_trajectory(self):
        fr = hadamard_frame(3)
        a = run_trajectory(fr, RHO_37, rng_seed=substream(5, 0))
        b = run_trajectory(fr, RHO_37, rng_seed=substream(5, 0))
        assert [r.outcome for r in a.history] == [r.outcome for r in b.history]
        np.testing.assert_array_equal(a.final_state.matrix, b.final_state.matrix)

    def test_streams_decorrelate(self):
        fr = hadamard_frame(3)
        outcomes = {tuple(r.outcome for r in
                          run_trajectory(fr, RHO_37, rng_seed=substream(5, k)).history)
                    for k in range(20)}
        assert len(outcomes) > 1

    def test_record_policy_never_keeps_no_history(self):
        fr = single_time_frame()
        res = run_trajectory(fr, RHO_37, record_policy="never")
        assert res.history == ()
        assert len(res.branch_log) == 1 and res.branch_log[0].fired
        # unrecorded events apply the dephasing channel deterministically
        expected = unrecorded_update(RHO_37, PART)
        np.testing.assert_allclose(res.final_state.matrix, expected.matrix, atol=1e-12)

    def test_unconditional_mode_matches_the_generic_path(self):
        fr = hadamard_frame(3)
        fast = run_trajectory(fr, RHO_37, record_policy="always",
                              require_detection=False, rng_seed=substream(9, 4))
        slow = run_trajectory(fr, RHO_37, record_policy=lambda t: True,
                              require_detection=False, rng_seed=substream(9, 4))
        assert [r.outcome for r in fast.history] == [r.outcome for r in slow.history]
        np.testing.assert_allclose(fast.final_state.matrix, slow.final_state.matrix,
                                   atol=1e-12)

    def test_unconditional_sampling_frequencies(self):
        fr = single_time_frame()
        gen = rng(12)
        n = 4000
        plus = sum(1 for _ in range(n)
                   if run_trajectory(fr, RHO_37, require_detection=False,
                                     rng_seed=gen).history[0].outcome == "+")
        assert plus / n == pytest.approx(0.3, abs=0.03)

    def test_callable_record_policy(self):
        fr = hadamard_frame(3)
        res = run_trajectory(fr, RHO_37, record_policy=lambda t: t < 2.0,
                             rng_seed=substream(2, 0))
        recorded = [r.time for r in res.history if r.recorded]
        assert recorded == [1.0]


def _random_frame(gen, dim, outcomes, steps, access, candidates, state):
    """A frame and a state under which events fire often.

    ``state`` is "random", "aligned" (diagonal in the first candidate's
    blocks) or "tied" (aligned, with two equal outcome weights, so that no
    event fires at the first time and later events draw the first uniform).
    """
    rotate = access == "full"
    parts = [random_partition(gen, dim, outcomes, rotate=rotate) for _ in range(candidates)]
    if rotate:
        step = random_unitary(gen, dim)
        restrictions = None
    else:
        # a permutation with phases keeps diagonal partitions diagonal
        step = np.zeros((dim, dim), dtype=complex)
        step[gen.permutation(dim), np.arange(dim)] = np.exp(2j * np.pi * gen.random(dim))
        restrictions = diagonal_algebra(dim)
    frame = HeisenbergFrame.build(tuple(float(k + 1) for k in range(steps)), parts,
                                  step_propagator=step, restrictions=restrictions)
    if state == "random":
        return frame, random_density(gen, dim)
    w = gen.dirichlet(np.ones(outcomes))
    if state == "tied":
        w[1] = w[0]
        w /= w.sum()
    rho = sum(wi * P / np.trace(P).real for wi, P in zip(w, parts[0].projections))
    return frame, DensityState(rho)


def _assert_same_trajectory(history, branch_log, state, ref):
    assert history == ref.history
    assert branch_log == ref.branch_log
    np.testing.assert_allclose(state, ref.final_state.matrix, rtol=0, atol=1e-12)


class TestBatchedSampler:
    """The prefix-grouped batch sampler against a one-sample-at-a-time loop."""

    POLICIES = {"always": "always", "never": "never", "from2": lambda t: t >= 2.0}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 4), outcomes=st.integers(2, 3), steps=st.integers(1, 4),
           access=st.sampled_from(["full", "diagonal"]), detection=st.booleans(),
           two_candidates=st.booleans(),
           state_kind=st.sampled_from(["random", "aligned", "tied"]),
           policy=st.sampled_from(["always", "never", "from2"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_sample_loop(self, dim, outcomes, steps, access, detection,
                                         two_candidates, state_kind, policy, seed):
        gen = rng(seed)
        candidates = 2 if detection and two_candidates else 1
        frame, state = _random_frame(gen, dim, min(outcomes, dim), steps, access,
                                     candidates, state_kind)
        record = self.POLICIES[policy]
        kw = dict(record_policy=record, require_detection=detection)
        samples = 6

        # one shared generator, run_trajectory called once per sample
        mine, theirs = substream(seed, 1), substream(seed, 1)
        for _ in range(samples):
            res = run_trajectory(frame, state, rng_seed=mine, **kw)
            ref = reference_trajectory(frame, state, rng_seed=theirs, **kw)
            _assert_same_trajectory(res.history, res.branch_log, res.final_state.matrix, ref)
        assert repr(mine.bit_generator.state) == repr(theirs.bit_generator.state)

        # one batch, one generator per sample (the command-line contract)
        uniforms = np.array([substream(seed, 2 + i).random(steps) for i in range(samples)])
        paths = list(_sample_paths(frame, state, samples, lambda m, j: uniforms[m, j], **kw))
        assert sorted(i for p in paths for i in p.members.tolist()) == list(range(samples))
        for path in paths:
            for i in path.members.tolist():
                ref = reference_trajectory(frame, state, rng_seed=substream(seed, 2 + i), **kw)
                _assert_same_trajectory(path.history, path.branch_log, path.state, ref)

        # one batch from one (samples, steps) block of a shared generator, as
        # sampler_vs_measure draws it: every step fires, so row i is sample i
        if not detection:
            block = substream(seed, 3).random((samples, steps))
            shared = substream(seed, 3)
            refs = [reference_trajectory(frame, state, rng_seed=shared, **kw)
                    for _ in range(samples)]
            paths = list(_sample_paths(frame, state, samples, lambda m, j: block[m, j], **kw))
            for path in paths:
                for i in path.members.tolist():
                    _assert_same_trajectory(path.history, path.branch_log, path.state, refs[i])

    def test_paths_group_samples_by_outcome_prefix(self):
        fr = hadamard_frame(3)
        u = substream(4).random((500, 3))
        paths = list(_sample_paths(fr, RHO_37, 500, lambda m, j: u[m, j],
                                   require_detection=False))
        keys = [tuple(r.outcome for r in p.history) for p in paths]
        assert len(set(keys)) == len(keys) == 8
        assert sum(p.members.size for p in paths) == 500

    def test_vanished_branch_weight_raises(self):
        frame = HeisenbergFrame((1.0,), (I2,), ((PART,),), (None,))
        # clipped weights (0, 0), yet a weight gap of 0.5 lets the event fire
        broken = DensityState(np.diag([-0.5, 0.0]), validate=False)
        for detection in (False, True):
            with pytest.raises(InvariantViolation, match="vanished"):
                list(_sample_paths(frame, broken, 3, lambda m, j: np.zeros(m.size),
                                   require_detection=detection))
