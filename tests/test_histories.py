import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevents import (DensityState, HeisenbergFrame, MeasurementProtocol,
                     PartitionOfUnity, commuting_realization, consistency_check,
                     DeFinettiModel, detect_event, enumerate_protocols,
                     exact_protocol_probability,
                     lsw_probability, operator_norm, sampler_vs_measure)
import qevents.histories
from qevents.histories import _clamp, _walk_outcome_tree

from _helpers import (random_density, random_unitary, reference_outcome_tree,
                      reference_sampler_vs_measure, rng, run_capped)

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PART = PartitionOfUnity(("+", "-"), (E11, E22))
RHO_37 = DensityState(np.diag([0.3, 0.7]).astype(complex))
PLUS = DensityState(np.full((2, 2), 0.5, dtype=complex))


def static_frame(steps):
    times = tuple(float(k + 1) for k in range(steps))
    return HeisenbergFrame.build(times, PART)


def hadamard_frame(steps):
    times = tuple(float(k + 1) for k in range(steps))
    return HeisenbergFrame.build(times, PART, step_propagator=HAD)


class TestProtocolValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            MeasurementProtocol(("+", "-"), (2.0, 1.0))

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="length"):
            MeasurementProtocol(("+",), (1.0, 2.0))

    def test_unknown_outcome_label(self):
        fr = static_frame(1)
        with pytest.raises(KeyError):
            lsw_probability(fr, RHO_37, MeasurementProtocol(("?",), (1.0,)))

    def test_time_outside_frame(self):
        fr = static_frame(1)
        with pytest.raises(ValueError, match="frame"):
            lsw_probability(fr, RHO_37, MeasurementProtocol(("+",), (7.0,)))


class TestLswValues:
    def test_empty_protocol_has_unit_mass(self):
        fr = static_frame(2)
        assert lsw_probability(fr, RHO_37, MeasurementProtocol((), ())) == 1.0

    def test_single_step_is_the_born_weight(self):
        fr = static_frame(2)
        p = lsw_probability(fr, RHO_37, MeasurementProtocol(("+",), (1.0,)))
        assert p == pytest.approx(0.3, rel=1e-12)

    def test_repeated_projective_question_is_consistent(self):
        fr = static_frame(2)
        same = lsw_probability(fr, RHO_37, MeasurementProtocol(("+", "+"), (1.0, 2.0)))
        flip = lsw_probability(fr, RHO_37, MeasurementProtocol(("+", "-"), (1.0, 2.0)))
        assert same == pytest.approx(0.3, rel=1e-12)
        assert flip == pytest.approx(0.0, abs=1e-12)

    def test_two_step_interference_pattern(self):
        fr = hadamard_frame(2)
        table = {("+", "+"): 0.15, ("+", "-"): 0.15, ("-", "+"): 0.35, ("-", "-"): 0.35}
        for outcomes, expected in table.items():
            p = lsw_probability(fr, RHO_37, MeasurementProtocol(outcomes, (1.0, 2.0)))
            assert p == pytest.approx(expected, rel=1e-12), outcomes

    def test_three_step_uniform_from_superposition(self):
        fr = hadamard_frame(3)
        for proto in enumerate_protocols(fr, 3):
            assert lsw_probability(fr, PLUS, proto) == pytest.approx(0.125, rel=1e-12)

    def test_protocols_may_skip_frame_times(self):
        fr = hadamard_frame(3)
        # skipping the middle time leaves a two-step diagonal protocol
        p = lsw_probability(fr, RHO_37, MeasurementProtocol(("+", "+"), (1.0, 3.0)))
        assert p == pytest.approx(0.3, rel=1e-12)


class TestEnumerationAndConsistency:
    def test_enumeration_covers_the_outcome_tree(self):
        fr = hadamard_frame(3)
        protos = enumerate_protocols(fr, 3)
        assert len(protos) == 8
        assert all(p.times == (1.0, 2.0, 3.0) for p in protos)
        total = sum(lsw_probability(fr, PLUS, p) for p in protos)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_consistency_report_is_exact_here(self):
        rep = consistency_check(hadamard_frame(3), PLUS, 3)
        assert rep.steps == 3 and rep.leaves == 8
        assert rep.max_marginal_residual < 1e-12
        assert rep.normalization_residual < 1e-12

    def test_prefix_marginals_by_hand(self):
        fr = hadamard_frame(2)
        for first in ("+", "-"):
            lhs = lsw_probability(fr, RHO_37, MeasurementProtocol((first,), (1.0,)))
            rhs = sum(lsw_probability(fr, RHO_37,
                                      MeasurementProtocol((first, second), (1.0, 2.0)))
                      for second in ("+", "-"))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_frames_satisfy_the_additivity_law(self):
        gen = rng(83)
        for _ in range(10):
            dim = int(gen.integers(2, 4))
            U = random_unitary(gen, dim)
            obs = np.diag(np.arange(dim, dtype=float)).astype(complex)
            base = PartitionOfUnity.from_observable(obs)
            fr = HeisenbergFrame.build((1.0, 2.0, 3.0), base, step_propagator=U)
            state = random_density(gen, dim)
            rep = consistency_check(fr, state, 3)
            assert rep.max_marginal_residual < 1e-12
            assert rep.normalization_residual < 1e-12

    def test_leaf_budget_is_enforced(self):
        obs = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        base = PartitionOfUnity.from_observable(obs)
        times = tuple(float(k + 1) for k in range(11))
        fr = HeisenbergFrame.build(times, base)
        state = DensityState(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        with pytest.raises(ValueError, match="leaves"):
            consistency_check(fr, state, 11)  # 4^11 > 10^6


class TestSamplerAgreement:
    def test_total_variation_small_and_deterministic(self):
        fr = hadamard_frame(3)
        tv1 = sampler_vs_measure(fr, PLUS, 3, 20000, seed=5)
        tv2 = sampler_vs_measure(fr, PLUS, 3, 20000, seed=5)
        assert tv1 == tv2
        assert tv1 == pytest.approx(0.009450000000000007, abs=1e-15)
        assert tv1 < 0.05

    def test_biased_initial_state(self):
        fr = hadamard_frame(2)
        tv = sampler_vs_measure(fr, RHO_37, 2, 20000, seed=8)
        assert tv < 0.05

    def test_acceptance_value_is_unchanged(self):
        tv = sampler_vs_measure(hadamard_frame(3), PLUS, 3, 10 ** 6, seed=0)
        assert tv == 0.0010719999999999966

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_protocol_oracle_bit_for_bit(self, seed):
        gen = rng(40 + seed)
        dim = int(gen.integers(2, 5))
        base = PartitionOfUnity.from_observable(np.diag(np.arange(dim)).astype(complex))
        frame = HeisenbergFrame.build((1.0, 2.0, 3.0), base,
                                      step_propagator=random_unitary(gen, dim))
        state = random_density(gen, dim)
        assert (sampler_vs_measure(frame, state, 3, 5000, seed=seed)
                == reference_sampler_vs_measure(frame, state, 3, 5000, seed=seed))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_at_least_one_sample(self, samples):
        with pytest.raises(ValueError, match="at least 1"):
            sampler_vs_measure(hadamard_frame(2), RHO_37, 2, samples)


class TestExactMeasureWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_leaves_are_the_lsw_probabilities_bit_for_bit(self, seed):
        gen = rng(seed)
        dim = int(gen.integers(2, 5))
        base = PartitionOfUnity.from_observable(np.diag(np.arange(dim)).astype(complex))
        times = (1.0, 2.0, 3.0)
        frame = HeisenbergFrame.build(times, base, step_propagator=random_unitary(gen, dim))
        state = random_density(gen, dim)
        exact = {}
        _walk_outcome_tree(frame, state, 3, lambda outcomes, mass: exact.update(
            {outcomes: _clamp(mass)}))
        protocols = enumerate_protocols(frame, 3)
        assert list(exact) == [p.outcomes for p in protocols]
        assert list(exact.values()) == [lsw_probability(frame, state, p) for p in protocols]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5), outcomes=st.integers(1, 3), steps=st.integers(0, 6),
           static=st.booleans(), chunk=st.sampled_from([None, 1, 50]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_node_oracle_bit_for_bit(self, dim, outcomes, steps, static,
                                                     chunk, seed):
        # ``static``: no propagator and a state without weight on outcome 0,
        # so the tree has zero-mass branches; ``chunk`` shrinks the element
        # budget so that every level is cut into several chunks
        gen = rng(seed)
        m = min(outcomes, dim)
        labels = gen.permutation(np.arange(dim) % m)
        base = PartitionOfUnity(tuple(range(m)), tuple(
            np.diag(labels == j).astype(complex) for j in range(m)))
        times = tuple(float(k + 1) for k in range(max(steps, 1)))
        if static:
            weights = gen.random(dim) * (labels != 0) if m > 1 else np.ones(dim)
            frame = HeisenbergFrame.build(times, base)
            state = DensityState(np.diag(weights / weights.sum()).astype(complex))
        else:
            frame = HeisenbergFrame.build(times, base, step_propagator=random_unitary(gen, dim))
            state = random_density(gen, dim)
        leaves = {}
        budget = qevents.histories._CHUNK_ELEMENTS if chunk is None else chunk
        with mock.patch.object(qevents.histories, "_CHUNK_ELEMENTS", budget):
            gap = _walk_outcome_tree(frame, state, steps,
                                     lambda outcomes, mass: leaves.update({outcomes: mass}))
        want, want_gap = reference_outcome_tree(frame, state, steps)
        assert list(leaves.items()) == list(want.items())
        assert gap == want_gap

    def test_too_many_steps_is_a_value_error(self):
        with pytest.raises(ValueError, match="steps requested"):
            consistency_check(static_frame(2), RHO_37, 3)

    def test_4096_leaves_in_bounded_memory(self):
        script = (
            "import time, tracemalloc\n"
            "import numpy as np\n"
            "from qevents import DensityState, HeisenbergFrame, PartitionOfUnity, consistency_check\n"
            "g = np.random.default_rng(3)\n"
            "G = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))\n"
            "S = np.linalg.qr(G)[0]\n"
            "M = G @ G.conj().T\n"
            "base = PartitionOfUnity.from_observable(np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))\n"
            "frame = HeisenbergFrame.build(tuple(float(k + 1) for k in range(12)), base,\n"
            "                              step_propagator=S)\n"
            "state = DensityState(M / np.trace(M).real)\n"
            "tracemalloc.start()\n"
            "t0 = time.perf_counter()\n"
            "report = consistency_check(frame, state, 12)\n"
            "elapsed = time.perf_counter() - t0\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "print(report.leaves, report.max_marginal_residual, report.normalization_residual,\n"
            "      elapsed, peak)\n"
        )
        proc = run_capped(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        leaves, marginal, normalization, elapsed, peak = proc.stdout.split()
        assert int(leaves) == 4096
        assert float(marginal) < 1e-12 and float(normalization) < 1e-12
        assert float(elapsed) < 10.0, f"4096-leaf consistency_check took {elapsed} s"
        # one array of at most _CHUNK_ELEMENTS children per step, 12 x 64 kB;
        # a level at a time would hold about 2.5 MB at the last two levels
        assert float(peak) < 1.5 * 2 ** 20, f"tracemalloc peak {float(peak) / 2**20:.1f} MB"


def dense_lsw(frame, state, protocol):
    """The history probability by dense products, whatever the structure."""
    sigma = state.matrix
    for t, label in zip(protocol.times, protocol.outcomes):
        P = frame.partitions[frame.index_of(t)][0].projection_for(label)
        sigma = P @ sigma @ P
    return float(np.real(np.trace(sigma)))


REALIZATIONS = [  # (weights, click probabilities, n): dims 16, 48, 128, 256, 512
    ((0.4, 0.6), (0.8, 0.3), 3),
    ((0.2, 0.3, 0.5), (0.1, 0.5, 0.9), 4),
    ((0.5, 0.5), (0.25, 0.7), 6),
    ((0.1, 0.2, 0.3, 0.4), (0.05, 0.35, 0.6, 0.95), 6),
    ((0.3, 0.7), (0.45, 0.9), 8),
]


class TestCommutingModels:
    @pytest.mark.parametrize("weights,p_plus,n", REALIZATIONS)
    def test_diagonal_products_match_dense_and_exact(self, weights, p_plus, n):
        model = DeFinettiModel(np.array(weights), np.array(p_plus))
        frame, state = commuting_realization(model, n)
        assert all(c[0].diagonals is not None for c in frame.partitions)
        gen = rng(n)
        for length in (1, n // 2, n):
            word = tuple(int(x) for x in gen.choice((1, -1), size=length))
            protocol = MeasurementProtocol(word, frame.times[:length])
            value = lsw_probability(frame, state, protocol)
            assert value == pytest.approx(dense_lsw(frame, state, protocol), abs=1e-15)
            assert value == pytest.approx(exact_protocol_probability(model, word), abs=1e-15)

    def test_no_svd_or_eigensolver_on_diagonal_input(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra on a diagonal model")

        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
            monkeypatch.setattr(np.linalg._linalg, name, refuse)
        with pytest.raises(AssertionError):
            operator_norm(np.ones((2, 2)))       # the patch reaches numpy's norm
        model = DeFinettiModel(np.array([0.3, 0.7]), np.array([0.45, 0.9]))
        tracemalloc.start()
        try:
            frame, state = commuting_realization(model, 10)   # dim 2048
            word = (1, -1, -1, 1, 1, 1, -1, 1, 1, -1)
            value = lsw_probability(frame, state, MeasurementProtocol(word, frame.times))
            report = consistency_check(frame, state, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.dim == 2048
        assert value == pytest.approx(exact_protocol_probability(model, word), abs=1e-15)
        assert report.leaves == 1024 and report.normalization_residual < 1e-12
        # O(dim) memory: 4 MB at dim 2048, where one dense matrix takes 64 MB
        assert peak < 2048 * state.dim, f"tracemalloc peak {peak / 2**20:.1f} MB"
        assert "matrix" not in vars(state)
        assert all("projections" not in vars(c[0]) for c in frame.partitions)
        assert "propagators" not in vars(frame)

    @pytest.mark.parametrize("weights,p_plus,n", REALIZATIONS[:3])
    def test_walk_on_diagonals_matches_the_dense_walk(self, weights, p_plus, n):
        model = DeFinettiModel(np.array(weights), np.array(p_plus))
        frame, state = commuting_realization(model, n)
        steps = min(n, 4)
        leaves = {}
        gap = _walk_outcome_tree(frame, state, steps,
                                 lambda outcomes, mass: leaves.update({outcomes: mass}))
        dense_leaves, dense_gap = reference_outcome_tree(frame, state, steps)
        assert list(leaves) == list(dense_leaves)
        for key, mass in leaves.items():
            assert mass == pytest.approx(dense_leaves[key], abs=1e-15)
        assert gap == pytest.approx(dense_gap, abs=1e-15)
        report = consistency_check(frame, state, steps)
        assert report.leaves == 2 ** steps
        assert report.max_marginal_residual == gap
        assert report.normalization_residual == pytest.approx(
            abs(sum(dense_leaves.values()) - 1.0), abs=1e-15)

    def test_dense_consumers_see_the_same_model(self):
        model = DeFinettiModel(np.array([0.2, 0.3, 0.5]), np.array([0.1, 0.5, 0.9]))
        frame, state = commuting_realization(model, 3)
        dense_frame = HeisenbergFrame(
            frame.times, tuple(np.eye(frame.dim, dtype=complex) for _ in frame.times),
            tuple((PartitionOfUnity(c[0].labels, c[0].projections),) for c in frame.partitions),
            frame.restrictions)
        dense_state = DensityState(state.matrix)
        assert (sampler_vs_measure(frame, state, 3, 4000, seed=5)
                == sampler_vs_measure(dense_frame, dense_state, 3, 4000, seed=5))
        for k, t in enumerate(frame.times):
            got = detect_event(frame, state, t, frame.partitions[k][0])
            want = detect_event(dense_frame, dense_state, t, dense_frame.partitions[k][0])
            assert (got.happened, got.distance, got.gap) == (want.happened, want.distance,
                                                             want.gap)

    def test_dim_4096_in_o_dim_memory(self):
        script = (
            "import time, tracemalloc\n"
            "import numpy as np\n"
            "from qevents import (DeFinettiModel, MeasurementProtocol,\n"
            "                     commuting_realization, lsw_probability)\n"
            "model = DeFinettiModel(np.array([0.3, 0.7]), np.array([0.45, 0.9]))\n"
            "word = (1, -1, -1, 1, 1, 1, -1, 1, 1, -1, 1)\n"
            "tracemalloc.start()\n"
            "t0 = time.perf_counter()\n"
            "frame, state = commuting_realization(model, 11)\n"
            "lsw_probability(frame, state, MeasurementProtocol(word, frame.times))\n"
            "elapsed = time.perf_counter() - t0\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "dim = state.dim\n"
            "tracemalloc.stop()\n"
            "frame, state = commuting_realization(model, 10)\n"
            "proto = MeasurementProtocol(word[:10], frame.times)\n"
            "lsw_probability(frame, state, proto)\n"
            "repeated = []\n"
            "for _ in range(21):\n"
            "    t0 = time.perf_counter()\n"
            "    lsw_probability(frame, state, proto)\n"
            "    repeated.append(time.perf_counter() - t0)\n"
            "print(dim, elapsed, peak, float(np.median(repeated)))\n"
        )
        proc = run_capped(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        dim, elapsed, peak, repeated = proc.stdout.split()
        assert dim == "4096"
        assert float(elapsed) < 1.0, f"n=11 build and one lsw_probability took {elapsed} s"
        assert float(peak) < 200 * 2 ** 20, f"n=11 tracemalloc peak {float(peak) / 2**20:.0f} MB"
        assert float(repeated) < 1e-3, f"repeated n=10 lsw_probability took {repeated} s"

    def test_mixture_realization_is_exactly_consistent(self):
        model = DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]))
        frame, state = commuting_realization(model, 3)
        rep = consistency_check(frame, state, 3)
        assert rep.max_marginal_residual < 1e-12
        assert rep.normalization_residual < 1e-12
