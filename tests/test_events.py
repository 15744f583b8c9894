from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevents import (DensityState, FiniteAlgebra, HeisenbergFrame,
                     InadmissibleThresholdError, InvariantViolation,
                     PartitionOfUnity, admissible_threshold, born_probabilities,
                     centralizer, collapse, contains, detect_event, diagonal_algebra,
                     earliest_event, expect_onto_center, full_matrix_algebra, operator_norm,
                     run_trajectory, sample_trajectories, substream, unrecorded_update)
import qevents.centralizers
import qevents.events
from qevents.events import _sample_paths
from qevents.operators import DEFAULT_TOL, DEGENERACY_TOL

from _helpers import (in_tensor_block, outcome, random_density, random_partition,
                      random_unitary, reference_centralizer, reference_detect,
                      reference_sample_paths, reference_trajectory,
                      reference_validate_projection_family, rng, run_capped, tensor_ambient,
                      tensor_state)

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

    def test_identity_propagators_are_implicit(self):
        fr = HeisenbergFrame.build((1.0, 2.0, 3.0), PART)
        assert "propagators" not in vars(fr)
        assert fr.dim == 2 and all(c == (PART,) for c in fr.partitions)
        assert len(fr.propagators) == 3
        for U in fr.propagators:
            np.testing.assert_array_equal(U, I2)
            assert not U.flags.writeable
        direct = HeisenbergFrame((1.0,), None, ((PART,),), (None,))
        assert direct.dim == 2 and "propagators" not in vars(direct)
        with pytest.raises(ValueError, match="one candidate list per time"):
            HeisenbergFrame((1.0, 2.0), None, ((PART,),), (None, None))

    def test_explicit_dimension_must_match_the_partitions(self):
        with pytest.raises(ValueError, match="partition dimension differs"):
            HeisenbergFrame.build((1.0, 2.0), [(PART,), (PART,)], dim=3)
        part3 = PartitionOfUnity(("a", "b"), ([1, 0, 0], [0, 1, 1]))
        with pytest.raises(ValueError, match="partition dimension differs"):
            HeisenbergFrame.build((1.0, 2.0), [(PART,), (part3,)])

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

    def test_a_repeated_restriction_is_not_checked_against_itself(self):
        # checking D inside D would materialize D.basis: d dense d x d
        # matrices, 16 GB at d = 1024
        script = (
            "import time\n"
            "import numpy as np\n"
            "from qevents import HeisenbergFrame, PartitionOfUnity, diagonal_algebra\n"
            "low = np.arange(1024) < 512\n"
            "part = PartitionOfUnity(('a', 'b'), (low.astype(float), (~low).astype(float)))\n"
            "start = time.perf_counter()\n"
            "frame = HeisenbergFrame.build((1.0, 2.0, 3.0, 4.0), part,\n"
            "                              restrictions=diagonal_algebra(1024))\n"
            "elapsed = time.perf_counter() - start\n"
            "# VmHWM, the peak RSS since exec: ru_maxrss may count the forking parent's\n"
            "peak = next(l for l in open('/proc/self/status') if l.startswith('VmHWM'))\n"
            "print(elapsed, int(peak.split()[1]) * 1024)\n"
        )
        proc = run_capped(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        seconds, peak = map(float, proc.stdout.split())
        assert seconds < 1.0 and peak < 200 * 2 ** 20, (seconds, peak / 2 ** 20)

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

        # one batch, one stream per sample (the command-line contract): sample
        # i is the trajectory run_trajectory gives on substream(seed, i)
        paths = list(sample_trajectories(frame, state, samples, seed=seed, **kw))
        assert sorted(i for p in paths for i in p.members.tolist()) == list(range(samples))
        for path in paths:
            for i in path.members.tolist():
                for run in (run_trajectory, reference_trajectory):
                    ref = run(frame, state, rng_seed=substream(seed, i), **kw)
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

    def test_sample_trajectories_needs_a_sample(self):
        with pytest.raises(ValueError, match="at least 1"):
            sample_trajectories(hadamard_frame(3), RHO_37, 0)

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


def _mixed_frame(p):
    """A d = 4 diagonal frame whose groups fire and skip side by side, with
    candidates of 3 and 2 outcomes winning for different groups at one time.

    For weights p (p0, p1, p2 distinct, p1 != p2): at t = 1 {0, 1, 2 | 3}
    splits off the pure state e3; at t = 2 the pure group ties two weights
    of {0 | 1, 2 | 3} (inadmissible, skipped) while the other fires; at
    t = 3 the group on {1, 2} takes the 3-outcome {0 | 1 | 2, 3}, listed
    first, while e0 and e3 can only take the 2-outcome {0, 1 | 2, 3}.
    """
    def part(labels, *blocks):
        return PartitionOfUnity(labels, tuple(np.isin(np.arange(4), b).astype(float)
                                              for b in blocks))

    partitions = ((part(("a0", "a1"), (0, 1, 2), (3,)),),
                  (part(("b0", "b1", "b2"), (0,), (1, 2), (3,)),),
                  (part(("x", "y", "z"), (0,), (1,), (2, 3)),
                   part(("c0", "c1"), (0, 1), (2, 3))))
    frame = HeisenbergFrame((1.0, 2.0, 3.0), None, partitions, (diagonal_algebra(4),) * 3)
    return frame, DensityState(np.diag(p).astype(complex))


def _assert_same_paths(paths, refs):
    assert len(paths) == len(refs)
    for path, ref in zip(paths, refs):
        assert path.members.tolist() == ref.members.tolist()
        assert path.history == ref.history
        assert path.branch_log == ref.branch_log
        assert path.outcomes == tuple(r.outcome for r in ref.history)
        assert path.state.tobytes() == ref.state.tobytes()


class TestSteppedSampler:
    """The sampler, a chunk of groups a time step at a time, against the
    depth-first loop with eager records."""

    POLICIES = {"always": "always", "never": "never", "from2": lambda t: t >= 2.0}

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["random", "mixed"]), dim=st.integers(2, 4),
           outcomes=st.integers(2, 3), steps=st.integers(0, 4),
           access=st.sampled_from(["full", "diagonal"]), detection=st.booleans(),
           two_candidates=st.booleans(),
           state_kind=st.sampled_from(["random", "aligned", "tied"]),
           policy=st.sampled_from(["always", "never", "from2"]),
           budget=st.sampled_from([1, 50, None]), samples=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_depth_first_oracle(self, kind, dim, outcomes, steps, access, detection,
                                            two_candidates, state_kind, policy, budget, samples,
                                            seed):
        gen = rng(seed)
        if kind == "mixed":
            frame, state = _mixed_frame(gen.dirichlet(np.ones(4)))
            detection, steps = True, min(steps, 3)
        else:
            candidates = 2 if detection and two_candidates else 1
            frame, state = _random_frame(gen, dim, min(outcomes, dim), max(steps, 1), access,
                                         candidates, state_kind)
        uniforms = gen.random((samples, len(frame.times)))
        kw = dict(record_policy=self.POLICIES[policy], require_detection=detection, steps=steps)
        draws = []

        def draw(members, j):
            draws.append(len(members))
            return uniforms[members, j]

        budget = qevents.events._CHUNK_ELEMENTS if budget is None else budget
        with mock.patch.object(qevents.events, "_CHUNK_ELEMENTS", budget):
            paths = list(_sample_paths(frame, state, samples, draw, **kw))
        refs = list(reference_sample_paths(frame, state, samples,
                                           lambda m, j: uniforms[m, j], **kw))
        _assert_same_paths(paths, refs)
        # one draw per chunk and step, one uniform per sample and fired time
        assert sum(draws) == sum(len(p.members) * sum(b.fired for b in p.branch_log)
                                 for p in refs)

    def test_groups_fire_and_skip_with_different_widths_in_one_chunk(self):
        frame, state = _mixed_frame([0.1, 0.2, 0.3, 0.4])
        uniforms = rng(151).random((400, 3))
        draws = []

        def draw(members, j):
            draws.append(j.copy())
            return uniforms[members, j]

        paths = list(_sample_paths(frame, state, 400, draw))
        refs = list(reference_sample_paths(frame, state, 400, lambda m, j: uniforms[m, j]))
        _assert_same_paths(paths, refs)
        # one chunk per step: the e3 group skips t = 2, so its samples draw
        # their second uniform at t = 3 beside samples drawing their third
        assert len(draws) == 3 and set(draws[2].tolist()) == {1, 2}
        fired_at_2 = {p.branch_log[1].fired for p in paths}
        labels_at_3 = {p.branch_log[2].outcome for p in paths}
        assert fired_at_2 == {True, False}
        assert labels_at_3 & {"x", "y", "z"} and labels_at_3 & {"c0", "c1"}

    def test_non_finite_state_raises_before_any_division(self):
        frame = HeisenbergFrame((1.0,), (I2,), ((PART,),), (None,))
        broken = DensityState(np.array([[np.nan, 0.0], [0.0, 0.5]]), validate=False)
        for detection in (False, True):
            with pytest.raises(InvariantViolation, match="not finite"):
                list(_sample_paths(frame, broken, 4, lambda m, j: np.full(m.size, 0.3),
                                   require_detection=detection))

    def test_non_finite_branch_weight_raises(self):
        # a finite state whose weights overflow: the sum of two finite
        # weights is inf, which the old `total <= 0.0` guard let through
        frame = HeisenbergFrame((1.0,), (I2,), ((PART,),), (None,))
        huge = DensityState(np.diag([1e308, 1e308]).astype(complex), validate=False)
        with np.errstate(over="ignore"), pytest.raises(InvariantViolation, match="not finite"):
            list(_sample_paths(frame, huge, 2, lambda m, j: np.zeros(m.size),
                               require_detection=False))

    def test_a_non_finite_leaf_fails_the_density_check(self):
        frame = HeisenbergFrame((1.0,), (I2,), ((PART,),), (None,))
        broken = DensityState(np.array([[np.nan, 0.0], [0.0, 0.5]]), validate=False)
        with pytest.raises(InvariantViolation, match="manifold"):
            list(qevents.events._leaves(broken.matrix[None], np.arange(2),
                                        np.zeros(2, dtype=np.intp), [()]))

    def test_20000_samples_in_bounded_memory(self):
        # d = 16, T = 12, m = 2: about 4096 distinct paths, whose last level
        # alone would take 16.8 MB unchunked
        script = (
            "import tracemalloc\n"
            "import numpy as np\n"
            "from qevents import DensityState, HeisenbergFrame, PartitionOfUnity\n"
            "from qevents.events import _sample_paths\n"
            "g = np.random.default_rng(157)\n"
            "z = g.standard_normal((16, 16)) + 1j * g.standard_normal((16, 16))\n"
            "S, _ = np.linalg.qr(z)\n"
            "low = np.arange(16) < 8\n"
            "part = PartitionOfUnity((0, 1), (low.astype(float), (~low).astype(float)))\n"
            "frame = HeisenbergFrame.build(tuple(float(k + 1) for k in range(12)), part,\n"
            "                              step_propagator=S)\n"
            "w = g.dirichlet(np.ones(16))\n"
            "state = DensityState(np.diag(w).astype(complex))\n"
            "u = g.random((20000, 12))\n"
            "part.stack\n"
            "tracemalloc.start()\n"
            "paths = members = 0\n"
            "for path in _sample_paths(frame, state, 20000, lambda m, j: u[m, j],\n"
            "                          require_detection=False):\n"
            "    paths += 1\n"
            "    members += path.members.size\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "print(paths, members, peak)\n"
        )
        proc = run_capped(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        paths, members, peak = proc.stdout.split()
        assert int(members) == 20000 and int(paths) > 2000
        assert float(peak) <= 4 * 2 ** 20, f"tracemalloc peak {float(peak) / 2**20:.1f} MB"

    def test_counting_consumers_read_no_records(self, monkeypatch):
        from qevents import sampler_vs_measure

        def unread(self):
            raise AssertionError("records built")

        monkeypatch.setattr(qevents.events.SampledPath, "history", property(unread))
        monkeypatch.setattr(qevents.events.SampledPath, "branch_log", property(unread))
        assert 0.0 <= sampler_vs_measure(hadamard_frame(3), RHO_37, 3, 200, seed=1) <= 1.0


def _block_instance(gen, kind, n, m, scalars, outcomes, state_kind):
    """An ambient of the given kind, a partition inside it and a state of the given kind.

    The ambient is M_n (x) 1_m (+) C^scalars: a factor ("factor": scalars
    0, the full matrix algebra when m = 1 half the time), the diagonal
    algebra ("diagonal": n = m = 1) or a Haar-framed tensor block with
    scalar blocks ("scalars").  The partition is a rotated partition of the
    M_n block with each scalar block given to one outcome.  Q's eigenvalues
    (after normalization) by ``state_kind``: "generic" random; "merged" puts
    two in the M_n block 3e-9 apart and a scalar between them, one chained
    cluster across blocks; "near" puts them 1e-7 apart and a scalar halfway,
    clusters 5e-8 apart in different blocks; "deficient" zeroes about
    half, whose atoms take the trace fallback; "aligned" is constant on each
    outcome, so the event fires.  Except for "aligned", the state has a part
    outside the ambient, as large as positivity allows.
    """
    if kind == "diagonal":
        n = m = 1
    if kind == "factor":
        scalars = 0
    if kind == "factor" and m == 1 and gen.random() < 0.5:
        ambient = full_matrix_algebra(n)
    elif kind == "diagonal":
        ambient = diagonal_algebra(1 + scalars)
    else:
        ambient = tensor_ambient(gen, n, m, scalars)
    outcomes = min(outcomes, n + scalars)
    small = random_partition(gen, n, min(outcomes, n))
    owner = np.concatenate([np.arange(small.size, outcomes),
                            gen.integers(0, outcomes, scalars - outcomes + small.size)])
    gen.shuffle(owner)
    blocks = [small.projections[o] if o < small.size else np.zeros((n, n))
              for o in range(outcomes)]
    part = PartitionOfUnity(tuple(range(outcomes)), tuple(
        in_tensor_block(ambient, p, (owner == o).astype(float)) for o, p in enumerate(blocks)))
    if state_kind == "aligned":
        rank = [m * np.trace(p).real + np.sum(owner == o) for o, p in enumerate(blocks)]
        level = gen.dirichlet(np.ones(outcomes)) / rank
        q = sum(lv * p for lv, p in zip(level, blocks))
        return ambient, part, DensityState(in_tensor_block(ambient, q, level[owner]))
    vals, rest = gen.random(n) + 0.1, gen.random(scalars) + 0.1
    trace = m * vals.sum() + rest.sum()
    if state_kind in ("merged", "near"):
        gap = {"merged": 3e-9, "near": 1e-7}[state_kind] * trace
        if n >= 2:
            vals[1] = vals[0] + gap
        if scalars:
            rest[0] = vals[0] + gap / 2
    if state_kind == "deficient":
        vals[gen.permutation(n)[:n // 2]] = 0.0
        rest[gen.permutation(scalars)[:(scalars + 1) // 2]] = 0.0
    U = random_unitary(gen, n)
    return ambient, part, tensor_state(gen, ambient, U @ np.diag(vals) @ U.conj().T, rest)


def _assert_same_verdict(v, ref):
    assert abs(v.distance - ref.distance) <= 1e-12
    assert (v.happened, v.admissible, v.gap) == (ref.happened, ref.admissible, ref.gap)
    assert v.threshold == ref.threshold or (np.isnan(v.threshold) and np.isnan(ref.threshold))


def _oracle_atoms(ambient, state, report, merged):
    """The atoms the dense path detects on: ``reference_centralizer``'s, matched
    one to one with the report's, unless clusters merge within DEGENERACY_TOL
    (or lie closer than the oracle's rank cutoff resolves); then the report's
    own, checked as a family inside the ambient commuting with the clustered Q."""
    if not merged:
        ref = reference_centralizer(ambient, state)
        atoms = report.central_projections
        assert len(atoms) == len(ref.central_projections)
        matched = [int(np.argmin([operator_norm(P - R) for R in ref.central_projections]))
                   for P in atoms]
        assert sorted(matched) == list(range(len(atoms)))
        for P, j in zip(atoms, matched):
            assert operator_norm(P - ref.central_projections[j]) <= 1e-9
        return ref
    reference_validate_projection_family(report.central_projections)
    Qbar = report.state_spectral.reconstruct()
    for z in report.central_projections:
        assert contains(ambient, z)[0]
        assert operator_norm(Qbar @ z - z @ Qbar) <= 1e-12
    return report


class TestDetectionAcrossAmbients:
    """Detection in the report's frame against the dense path, on every kind of ambient."""

    SHAPES = [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["factor", "diagonal", "scalars", "chain"]),
           shape=st.sampled_from(SHAPES), scalars=st.integers(1, 3), outcomes=st.integers(1, 3),
           state_kind=st.sampled_from(["generic", "merged", "near", "deficient", "aligned"]),
           two_candidates=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_path(self, kind, shape, scalars, outcomes, state_kind,
                                    two_candidates, seed):
        gen = rng(seed)
        n, m = shape
        if kind == "chain":
            # full access, then diagonal access, on C^n
            rank = max(1, n // 2) if state_kind == "deficient" else None
            state = random_density(gen, n, rank=rank)
            restrictions = (full_matrix_algebra(n), diagonal_algebra(n))
            candidates = ((random_partition(gen, n, min(outcomes, n)),),
                          (random_partition(gen, n, min(outcomes, n), rotate=False),))
            merged = False
        else:
            ambient, part, state = _block_instance(gen, kind, n, m, scalars, outcomes, state_kind)
            restrictions, candidates = (ambient,), ((part,),)
            if two_candidates:
                n, m = ambient.blocks[0]
                other = random_partition(gen, n, min(2, n))
                rest = np.ones(ambient.dim - n * m)
                candidates = ((part, PartitionOfUnity(other.labels, tuple(
                    in_tensor_block(ambient, p, rest * (j == 0))
                    for j, p in enumerate(other.projections)))),)
            merged = state_kind in ("merged", "near")
        times = tuple(1.0 + k for k in range(len(restrictions)))
        frame = HeisenbergFrame(times, None, candidates, restrictions)
        rows = earliest_event(frame, state).verdicts
        for t, ambient, row, parts in zip(times, restrictions, rows, candidates):
            report = centralizer(ambient, state)
            oracle = _oracle_atoms(ambient, state, report, merged)
            if state_kind == "deficient" and kind != "chain" and len(report.starts) > 1:
                _, info = expect_onto_center(ambient, state, parts[0].projections[0],
                                             report=report, return_info=True)
                assert info.fallback_atoms
            for v, p in zip(row, parts):
                _assert_same_verdict(v, reference_detect(state, p, t, ambient, oracle))
                _assert_same_verdict(detect_event(frame, state, t, p), v)


class TestFactorDetection:
    @pytest.mark.parametrize("m", [2, 3])
    def test_partition_outside_the_restriction_raises_at_detection(self, m):
        gen = rng(127)
        ambient = tensor_ambient(gen, 2, m)
        part = random_partition(gen, 2 * m, 2)
        frame = HeisenbergFrame((1.0,), None, ((part,),), (ambient,))
        state = random_density(gen, 2 * m)
        got = outcome(detect_event, frame, state, 1.0, part)
        want = outcome(reference_detect, state, part, 1.0, ambient, centralizer(ambient, state))
        assert got[0] is InvariantViolation and got == want
        assert "partition not inside the restriction algebra at time 1.0" in got[1]


class TestRestrictionCheckCache:
    def test_each_candidate_projection_is_checked_once_per_frame(self, monkeypatch):
        checked = []
        real = qevents.events.contains

        def spy(algebra, X, tol):
            checked.append(id(X))
            return real(algebra, X, tol)

        monkeypatch.setattr(qevents.events, "contains", spy)
        gen = rng(131)
        frame, state = _random_frame(gen, 3, 2, 4, "diagonal", 2, "random")
        for seed in range(4):
            run_trajectory(frame, state, rng_seed=seed)
        # the step propagator gives every (time, candidate) its own projections
        own = [id(P) for candidates in frame.partitions for c in candidates
               for P in c.projections]
        assert sorted(checked) == sorted(own)

        # a partition that is not one of the frame's candidates is checked on every call
        outside = random_partition(gen, 3, 2, rotate=False)
        checked.clear()
        for _ in range(2):
            detect_event(frame, state, 1.0, outside)
        assert len(checked) == 2 * outside.size

    def test_a_cached_failure_raises_on_every_call(self, monkeypatch):
        gen = rng(127)
        ambient = tensor_ambient(gen, 2, 2)
        part = random_partition(gen, 4, 2)
        frame = HeisenbergFrame((1.0,), None, ((part,),), (ambient,))
        state = random_density(gen, 4)
        first = outcome(detect_event, frame, state, 1.0, part)
        monkeypatch.setattr(qevents.events, "contains", None)
        assert first[0] is InvariantViolation
        assert outcome(detect_event, frame, state, 1.0, part) == first


class TestStateInFrameOnce:
    def test_one_step_with_three_candidates_forms_r_once(self, monkeypatch):
        formed, distances = [], []
        real_r, real_distance = qevents.events._state_in_frame, qevents.events._center_distance

        def spy_r(report, state):
            formed.append(report)
            return real_r(report, state)

        def spy_distance(report, R, stack, *args):
            distances.append(report)
            return real_distance(report, R, stack, *args)

        monkeypatch.setattr(qevents.events, "_state_in_frame", spy_r)
        monkeypatch.setattr(qevents.events, "_center_distance", spy_distance)
        frame, state = _random_frame(rng(163), 3, 2, 1, "full", 3, "random")
        run_trajectory(frame, state, rng_seed=1)
        assert len(formed) == 1 and len(distances) == 3
        assert all(report is formed[0] for report in distances)


def _spy_eigh(monkeypatch):
    """Record the stack each checked eigh inside ``centralizer`` runs on."""
    calls, real = [], qevents.centralizers._checked_eigh

    def spy(X, tol):
        calls.append(X.copy())
        return real(X, tol)

    monkeypatch.setattr(qevents.centralizers, "_checked_eigh", spy)
    return calls


def _same_verdict_exactly(v, ref):
    assert (v.happened, v.admissible, v.distance, v.gap) == \
        (ref.happened, ref.admissible, ref.distance, ref.gap)
    assert v.threshold == ref.threshold or (np.isnan(v.threshold) and np.isnan(ref.threshold))


class TestReportOnTheState:
    """A state keeps its centralizer reports, one per ambient object and tolerances."""

    def test_earliest_event_over_full_access_times_runs_one_eigh(self, monkeypatch):
        calls = _spy_eigh(monkeypatch)
        frame, state = _random_frame(rng(181), 4, 2, 5, "full", 2, "random")
        report = earliest_event(frame, state)
        assert len(report.verdicts) == 5 and len(calls) == 1

    def test_a_second_trajectory_runs_no_eigh_on_the_initial_state(self, monkeypatch):
        calls = _spy_eigh(monkeypatch)
        frame, state = _random_frame(rng(182), 3, 2, 3, "full", 1, "random")
        run_trajectory(frame, state, rng_seed=0)
        on_initial = [X for X in calls if np.array_equal(X[0], state.matrix)]
        assert len(on_initial) == 1
        calls.clear()
        run_trajectory(frame, state, rng_seed=1)
        assert not any(np.array_equal(X[0], state.matrix) for X in calls)

    def test_a_new_ambient_on_a_carried_state_runs_a_fresh_eigh(self, monkeypatch):
        # full access, then diagonal access: a generic state does not fire at
        # the first time, is carried to the second and fires there on its
        # diagonal; its one child, a pure state, meets the diagonal algebra
        # at the third time and ties there
        gen = rng(183)
        part = random_partition(gen, 3, 3, rotate=False)
        D = diagonal_algebra(3)
        frame = HeisenbergFrame.build((1.0, 2.0, 3.0), part, restrictions=[None, D, D])
        state = random_density(gen, 3)
        calls = _spy_eigh(monkeypatch)
        assert len(earliest_event(frame, state).verdicts) == 3 and len(calls) == 2
        calls.clear()
        log = run_trajectory(frame, DensityState(state.matrix.copy()), rng_seed=0).branch_log
        assert [b.fired for b in log] == [False, True, False]
        assert [X.shape for X in calls] == [(1, 3, 3), (3, 1, 1), (3, 1, 1)]
        calls.clear()
        run_trajectory(frame, state, rng_seed=0)
        assert [X.shape for X in calls] == [(3, 1, 1)]

    def test_a_group_carried_beside_firing_groups_keeps_its_report(self, monkeypatch):
        frame, state = _mixed_frame([0.1, 0.2, 0.3, 0.4])
        uniforms = rng(151).random((400, 3))
        calls = _spy_eigh(monkeypatch)
        paths = list(_sample_paths(frame, state, 400, lambda m, j: uniforms[m, j]))
        assert {p.branch_log[1].fired for p in paths} == {True, False}
        # one report per group: the root at t = 1, its two children at t = 2,
        # and at t = 3 the two children of the group that fired at t = 2; the
        # pure group skipped at t = 2 keeps its report, since the ambient stays
        assert len({p.outcomes[:2] for p in paths}) == 3 and len(calls) == 1 + 2 + 2

    def test_full_access_frames_share_one_report(self, monkeypatch):
        # every full matrix algebra of a dimension has the same report, so a
        # state used with many short-lived full-access frames keeps one
        gen = rng(184)
        part = random_partition(gen, 32, 2)
        state = random_density(gen, 32)
        calls = _spy_eigh(monkeypatch)
        for seed in range(200):
            frame = HeisenbergFrame.build((1.0, 2.0), part)
            run_trajectory(frame, state, rng_seed=seed)
        assert len(state._reports) == 1
        assert sum(np.array_equal(X[0], state.matrix) for X in calls) == 1

    def test_the_full_key_holds_the_dimension(self):
        state = DensityState(np.diag([0.2, 0.3, 0.5]))
        centralizer(full_matrix_algebra(3), state)
        with pytest.raises(ValueError, match="dimensions differ"):
            centralizer(full_matrix_algebra(4), state)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["factor", "diagonal", "scalars"]),
           shape=st.sampled_from([(n, m) for n in range(1, 5) for m in range(1, 4)]),
           scalars=st.integers(1, 2), outcomes=st.integers(1, 3),
           state_kind=st.sampled_from(["generic", "merged", "near", "deficient", "aligned"]),
           order=st.permutations(range(3)), seed=st.integers(0, 2**32 - 1))
    def test_a_reused_state_gives_the_verdicts_of_a_fresh_copy(self, kind, shape, scalars,
                                                               outcomes, state_kind, order,
                                                               seed):
        # "factor" is M_n (x) 1_m, the full algebra when m = 1; "scalars" adds
        # scalar blocks.  Each key clusters "merged" and "near" states apart.
        keys = [(DEFAULT_TOL, DEGENERACY_TOL), (1e-10, 1e-10), (DEFAULT_TOL, 1e-6)]
        gen = rng(seed)
        ambient, part, state = _block_instance(gen, kind, *shape, scalars, outcomes, state_kind)
        frame = HeisenbergFrame((1.0, 2.0), None, ((part,), (part,)), (ambient, ambient))
        for j in order:
            centralizer(ambient, state, *keys[j])
        first = earliest_event(frame, state).verdicts
        again = earliest_event(frame, state).verdicts
        fresh = earliest_event(frame, DensityState(state.matrix.copy())).verdicts
        for row, row_again, row_fresh in zip(first, again, fresh):
            for v, w, ref in zip(row, row_again, row_fresh):
                _same_verdict_exactly(v, ref)
                _same_verdict_exactly(w, ref)
        reports = [centralizer(ambient, state, *key) for key in keys]
        assert len({id(r) for r in reports}) == len(keys)
        for key, report in zip(keys, reports):
            assert centralizer(ambient, state, *key) is report
            ref = centralizer(ambient, DensityState(state.matrix.copy()), *key)
            for field in ("frame", "starts", "atoms", "multiplicities", "clusters",
                          "eigenvalues"):
                assert np.array_equal(getattr(report, field), getattr(ref, field))

    @pytest.mark.parametrize("access", ["full", "diagonal"])
    def test_trajectories_do_not_depend_on_call_order(self, access):
        # aligned states fire at the first time, and some later times carry over
        frame, state = _random_frame(rng(184), 4, 2, 4, access, 2, "aligned")
        other = DensityState(state.matrix.copy())
        forward = {s: run_trajectory(frame, state, rng_seed=s) for s in range(10)}
        backward = {s: run_trajectory(frame, other, rng_seed=s) for s in reversed(range(10))}
        for s in range(10):
            a, b = forward[s], backward[s]
            assert a.history == b.history and a.branch_log == b.branch_log
            assert a.final_state.matrix.tobytes() == b.final_state.matrix.tobytes()
        assert any(not b.fired for r in forward.values() for b in r.branch_log)


def _generic_full_access(d, seed):
    """A generic full-rank state and a two-outcome rotated partition with full access."""
    gen = rng(seed)
    G = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    M = G @ G.conj().T
    part = random_partition(gen, d, 2)
    frame = HeisenbergFrame.build(times=(1.0,), partitions=part)
    return frame, DensityState(M / np.trace(M).real), part


class TestDiagonalDetectionScale:
    def test_generic_diagonal_state_at_dimension_256_within_20_seconds(self):
        # 256 one-column atoms: the atoms z_i E_l formed and checked pairwise,
        # with a sum over atoms per projection, took 5.7 s at d = 128
        script = (
            "import numpy as np\n"
            "from qevents import (DensityState, HeisenbergFrame, PartitionOfUnity,\n"
            "                     detect_event, diagonal_algebra)\n"
            "g = np.random.default_rng(139)\n"
            "low = g.random(256) < 0.5\n"
            "part = PartitionOfUnity(('a', 'b'), (low.astype(float), (~low).astype(float)))\n"
            "frame = HeisenbergFrame((1.0,), None, ((part,),), (diagonal_algebra(256),))\n"
            "state = DensityState(g.dirichlet(np.ones(256)))\n"
            "v = detect_event(frame, state, 1.0, part)\n"
            "print(v.admissible, v.happened, v.distance)\n"
        )
        proc = run_capped(script, timeout=20)
        assert proc.returncode == 0, proc.stderr[-2000:]
        admissible, happened, distance = proc.stdout.split()
        assert admissible == happened == "True" and float(distance) <= 1e-12


class TestFactorDetectionScale:
    def test_generic_state_at_dimension_256_within_20_seconds(self):
        # d distinct eigenvalues: the dense path (k^2 pairwise checks and
        # k z P z products) took about 96 s here
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_events import _generic_full_access\n"
            "from qevents import detect_event\n"
            "frame, state, part = _generic_full_access(256, 131)\n"
            "v = detect_event(frame, state, 1.0, part)\n"
            "print(v.admissible, v.distance)\n"
        )
        proc = run_capped(script, timeout=20)
        assert proc.returncode == 0, proc.stderr[-2000:]
        admissible, distance = proc.stdout.split()
        assert admissible == "True" and 0.0 < float(distance) <= 1.0

    def test_dimension_128_agrees_with_the_dense_path(self):
        frame, state, part = _generic_full_access(128, 137)
        v = detect_event(frame, state, 1.0, part)
        ambient = frame.full_ambient
        ref = reference_detect(state, part, 1.0, ambient, centralizer(ambient, state))
        assert len(centralizer(ambient, state).state_spectral.eigenvalues) == 128
        _assert_same_verdict(v, ref)
