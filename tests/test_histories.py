import numpy as np
import pytest

from qevents import (DensityState, HeisenbergFrame, MeasurementProtocol,
                     PartitionOfUnity, commuting_realization, consistency_check,
                     DeFinettiModel, enumerate_protocols, lsw_probability,
                     sampler_vs_measure)

from _helpers import random_density, random_unitary, rng

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

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_at_least_one_sample(self, samples):
        with pytest.raises(ValueError, match="at least 1"):
            sampler_vs_measure(hadamard_frame(2), RHO_37, 2, samples)


class TestCommutingModels:
    def test_mixture_realization_is_exactly_consistent(self):
        model = DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]))
        frame, state = commuting_realization(model, 3)
        rep = consistency_check(frame, state, 3)
        assert rep.max_marginal_residual < 1e-12
        assert rep.normalization_residual < 1e-12
