import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, xlogy
from scipy.stats import binom

from qevents import (ClassificationBand, DeFinettiModel, born_rule_experiment,
                     born_rule_experiments, classify, classify_frequencies,
                     commuting_realization, detection_time, exact_protocol_probability,
                     frequency, lsw_probability, posterior, posterior_entropies,
                     relative_entropy, sample_protocols, sanov_check)
from qevents.histories import MeasurementProtocol
from qevents.mesoscopic import (_CHUNK_WORDS, _binom_logpmf, _binom_pmf, _click_thresholds,
                                 _logsumexp, _sample_lengths, _xlogy, log_band_mass,
                                 log_band_masses)

from qevents import mesoscopic

from _helpers import (reference_log_band_mass, reference_posterior_entropies,
                      reference_sample_protocols)

LN2 = np.log(2.0)


def reference_model(tau=1.0):
    return DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]), tau)


class TestModelValidation:
    def test_accepts_the_reference_model(self):
        m = reference_model()
        assert m.num_hypotheses == 2
        assert m.kappa == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(m.p_minus, [0.2, 0.7], atol=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DeFinettiModel(np.array([0.4, 0.4]), np.array([0.8, 0.3]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DeFinettiModel(np.array([1.5, -0.5]), np.array([0.8, 0.3]))

    def test_click_probabilities_must_be_probabilities(self):
        with pytest.raises(ValueError):
            DeFinettiModel(np.array([0.5, 0.5]), np.array([0.8, 1.3]))

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8]))

    def test_time_step_must_be_positive(self):
        with pytest.raises(ValueError):
            DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]), tau=0.0)

    @pytest.mark.parametrize("weights,p_plus", [
        ([np.nan, 1.0], [0.8, 0.3]),
        ([0.4, 0.6], [np.nan, 0.3]),
        ([0.4, 0.6], [0.8, np.inf]),
        ([np.inf, 0.6], [0.8, 0.3]),
    ])
    def test_non_finite_entries_rejected(self, weights, p_plus):
        with pytest.raises(ValueError, match="finite"):
            DeFinettiModel(np.array(weights), np.array(p_plus))

    def test_single_hypothesis_has_infinite_gap(self):
        m = DeFinettiModel(np.array([1.0]), np.array([0.8]))
        assert m.kappa == np.inf


class TestBands:
    def test_from_schedule(self):
        band = ClassificationBand.from_schedule(500)
        assert band.n == 500
        assert band.epsilon == pytest.approx(500 ** (-1.0 / 3.0), rel=1e-12)

    def test_schedule_exponent_range(self):
        with pytest.raises(ValueError):
            ClassificationBand.from_schedule(100, exponent=0.5)
        with pytest.raises(ValueError):
            ClassificationBand.from_schedule(100, exponent=0.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_schedule_starts_at_two_clicks(self, n):
        with pytest.raises(ValueError, match="n = 2"):
            ClassificationBand.from_schedule(n)

    def test_half_width_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            ClassificationBand(10, 1.0)
        with pytest.raises(ValueError):
            ClassificationBand(10, 0.0)


class TestSampling:
    def test_outcomes_are_signs_with_the_right_shape(self):
        m = reference_model()
        s = sample_protocols(m, 6, 500, seed=3)
        assert s.outcomes.shape == (500, 6)
        assert set(np.unique(s.outcomes)) <= {-1, 1}
        assert s.latent.shape == (500,)
        assert len(s) == 500 and s.n == 6

    def test_same_seed_reproduces_draws(self):
        m = reference_model()
        a = sample_protocols(m, 5, 200, seed=9)
        b = sample_protocols(m, 5, 200, seed=9)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_streams_differ(self):
        m = reference_model()
        a = sample_protocols(m, 5, 200, seed=9, stream=0)
        b = sample_protocols(m, 5, 200, seed=9, stream=1)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_marginal_statistics(self):
        m = reference_model()
        s = sample_protocols(m, 6, 5000, seed=1)
        assert (s.latent == 0).mean() == pytest.approx(0.4, abs=0.02)
        # mixture click probability: 0.4*0.8 + 0.6*0.3 = 0.5
        assert (s.outcomes == 1).mean() == pytest.approx(0.5, abs=0.02)

    def test_law_of_large_numbers_per_latent(self):
        m = reference_model()
        n = 10_000
        hits = total = 0
        for stream in range(10):
            s = sample_protocols(m, n, 1000, seed=21, stream=stream)
            f = s.frequencies()
            target = m.p_plus[s.latent]
            hits += int(np.sum(np.abs(f - target) <= 5.0 / np.sqrt(n)))
            total += len(s)
        assert hits / total >= 0.99

    def test_protocol_accessors(self):
        m = reference_model()
        s = sample_protocols(m, 4, 10, seed=2)
        row = s.protocol(3)
        assert isinstance(row, tuple) and len(row) == 4
        assert frequency(row, 1) == pytest.approx(np.mean(np.array(row) == 1))


MODELS = [DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3])),
          DeFinettiModel(np.array([0.2, 0.5, 0.3]), np.array([0.0, 1.0, 0.45])),
          DeFinettiModel(np.array([1.0]), np.array([0.7]))]


class TestLazyOutcomes:
    @given(model=st.sampled_from(MODELS), n=st.integers(0, 30), count=st.integers(0, 60),
           stream=st.integers(0, 3), seed=st.integers(-5, 2**64 + 5))
    @example(model=MODELS[0], n=0, count=0, stream=0, seed=0)
    @example(model=MODELS[0], n=0, count=7, stream=1, seed=3)
    @example(model=MODELS[1], n=5, count=0, stream=0, seed=1)
    # four protocols of a million clicks fill a chunk: three chunks
    @example(model=MODELS[1], n=1_000_000, count=9, stream=2, seed=11)
    @settings(max_examples=60, deadline=None)
    def test_counts_and_replay_match_the_eager_sampler(self, model, n, count, stream, seed):
        outcomes, latent = reference_sample_protocols(model, n, count, seed, stream)
        s = sample_protocols(model, n, count, seed=seed, stream=stream)
        assert len(s) == s.count == count and s.n == n
        np.testing.assert_array_equal(s.latent, latent)
        assert s.latent.dtype == np.int64
        np.testing.assert_array_equal(s.plus_counts(), (outcomes == 1).sum(axis=1))
        if n:
            np.testing.assert_array_equal(s.frequencies(), (outcomes == 1).sum(axis=1) / n)
        else:
            with pytest.raises(ValueError, match="empty protocol"):
                s.frequencies()
        assert "outcomes" not in s.__dict__
        for i in sorted({0, count - 1, count // 2, -1, -count} if count else ()):
            assert s.protocol(i) == tuple(int(x) for x in outcomes[i])
        assert "outcomes" not in s.__dict__
        assert s.outcomes.dtype == np.int8
        np.testing.assert_array_equal(s.outcomes, outcomes)
        assert s.outcomes is s.outcomes

    def test_counting_callers_never_build_the_outcome_matrix(self):
        m = reference_model()
        exp = born_rule_experiment(m, 200, 3000, seed=5)
        ents = posterior_entropies(m, exp.sample)
        assert ents.shape == (3000,)
        assert "outcomes" not in exp.sample.__dict__

    def test_protocol_replays_one_row_or_reads_the_cache(self, monkeypatch):
        for model in MODELS:
            s = sample_protocols(model, 7, 23, seed=4, stream=1)
            rows = [s.protocol(i) for i in range(-23, 23)]
            assert "outcomes" not in s.__dict__
            assert rows == [tuple(int(x) for x in s.outcomes[i]) for i in range(-23, 23)]
            for i in (23, -24):
                with pytest.raises(IndexError):
                    s.protocol(i)

            def refuse(*args):
                raise AssertionError("replayed although the outcomes are cached")

            monkeypatch.setattr(mesoscopic, "substream", refuse)
            assert [s.protocol(i) for i in range(-23, 23)] == rows
            monkeypatch.undo()

    def test_counts_are_read_only(self):
        s = sample_protocols(reference_model(), 8, 20, seed=1)
        with pytest.raises(ValueError):
            s.plus_counts()[0] = 3


# click probabilities at the edges of the integer-threshold rule, and any other
EDGE_P = st.one_of(st.sampled_from([0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5]),
                   st.floats(0.0, 1.0))


def uniform_model(ps):
    return DeFinettiModel(np.full(len(ps), 1.0 / len(ps)), np.array(ps, dtype=float))


class TestClickPass:
    """The integer-threshold, one-pass click counter against the float draw."""

    @given(p=EDGE_P, low=st.integers(0, 2 ** 11 - 1))
    @settings(max_examples=200, deadline=None)
    def test_threshold_is_the_float_comparison_at_its_edge(self, p, low):
        t = int(_click_thresholds(uniform_model([p]))[0])
        for m in {max(t - 1, 0), min(t, 2 ** 53 - 1)}:
            x = np.array([(m << 11) | low], dtype=np.uint64)
            mantissa = x >> np.uint64(11)
            assert bool(mantissa[0] < t) == bool(mantissa[0] * 2.0 ** -53 < p)

    @given(ps=st.lists(EDGE_P, min_size=1, max_size=4),
           ns=st.lists(st.integers(0, 40), min_size=1, max_size=4),
           count=st.integers(0, 60), seed=st.integers(0, 2 ** 64 - 1),
           stream=st.integers(0, 3))
    # several chunks, n not dividing the chunk: rows cut by chunk edges
    @example(ps=[0.3, 0.7], ns=[1000, 7, 1000, 999], count=100, seed=5, stream=0)
    # rows longer than a chunk, next to a length that fits many times
    @example(ps=[0.5, 1.0 - 2.0 ** -53, 2.0 ** -53], ns=[3, _CHUNK_WORDS + 3], count=5,
             seed=1, stream=2)
    @example(ps=[0.25], ns=[0, 5], count=0, seed=0, stream=0)
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_the_float_draw_of_each_length(self, ps, ns, count, seed, stream):
        model = uniform_model(ps)
        samples = _sample_lengths(model, ns, count, seed, stream)
        assert [s.n for s in samples] == ns
        for n, s in zip(ns, samples):
            outcomes, latent = reference_sample_protocols(model, n, count, seed, stream)
            np.testing.assert_array_equal(s.latent, latent)
            np.testing.assert_array_equal(s.plus_counts(), (outcomes == 1).sum(axis=1))
            for i in sorted({0, count // 2, -1, -count} if count else ()):
                assert s.protocol(i) == tuple(int(x) for x in outcomes[i])
            np.testing.assert_array_equal(s.outcomes, outcomes)


class TestExactProbabilities:
    def test_frozen_values(self):
        m = reference_model()
        assert exact_protocol_probability(m, ()) == 1.0
        assert exact_protocol_probability(m, (1,)) == pytest.approx(0.5, rel=1e-12)
        assert exact_protocol_probability(m, (1, 1)) == pytest.approx(0.31, rel=1e-12)
        assert exact_protocol_probability(m, (-1,)) == pytest.approx(0.5, rel=1e-12)

    def test_normalization_over_all_words(self):
        m = reference_model()
        total = sum(exact_protocol_probability(m, tuple(word))
                    for word in np.ndindex(2, 2, 2)
                    for word in [tuple(1 if b else -1 for b in word)])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_against_per_hypothesis_product_oracle(self):
        m = reference_model()
        proto = (1, -1, -1, 1, -1)
        k = sum(1 for x in proto if x == 1)
        expected = sum(w * p ** k * (1 - p) ** (len(proto) - k)
                       for w, p in zip(m.weights, m.p_plus))
        assert exact_protocol_probability(m, proto) == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_exchangeability(self, word):
        # any permutation of the same multiset of clicks has the same mass
        m = reference_model()
        p1 = exact_protocol_probability(m, tuple(word))
        p2 = exact_protocol_probability(m, tuple(sorted(word)))
        assert p1 == pytest.approx(p2, rel=1e-12)

    def test_rejects_labels_other_than_signs(self):
        with pytest.raises(ValueError):
            exact_protocol_probability(reference_model(), (1, 0))

    @pytest.mark.parametrize("protocol", [np.array(["1", "-1"]), np.array(["+", "-"]),
                                          np.array([1, None, -1], dtype=object)])
    def test_rejects_string_and_object_arrays(self, protocol):
        for call in (lambda: exact_protocol_probability(reference_model(), protocol),
                     lambda: frequency(protocol, 1),
                     lambda: posterior(reference_model(), protocol),
                     lambda: classify(protocol, reference_model(),
                                      ClassificationBand(protocol.size, 0.1))):
            with pytest.raises(ValueError, match="must be \\+1 or -1"):
                call()

    def test_accepts_an_object_array_of_signs(self):
        m = reference_model()
        word = np.array([1, -1, 1.0], dtype=object)
        assert exact_protocol_probability(m, word) == exact_protocol_probability(m, (1, -1, 1))


class TestClassification:
    def test_clear_cases(self):
        m = reference_model()
        band = ClassificationBand(10, 0.1)
        assert classify((1,) * 8 + (-1,) * 2, m, band) == 0   # f=0.8
        assert classify((1,) * 3 + (-1,) * 7, m, band) == 1   # f=0.3
        assert classify((1,) * 6 + (-1,) * 4, m, band) is None

    def test_band_edges_are_exclusive(self):
        m = reference_model()
        band = ClassificationBand(10, 0.2)
        # f=0.5 sits exactly on the edge of the band around 0.3
        assert classify((1,) * 5 + (-1,) * 5, m, band) is None

    def test_vectorized_classification(self):
        m = reference_model()
        band = ClassificationBand(10, 0.1)
        out = classify_frequencies(np.array([0.8, 0.3, 0.55, 0.25]), m, band)
        np.testing.assert_array_equal(out, [0, 1, -1, 1])

    def test_wide_bands_warn_about_overlap(self):
        m = reference_model()
        with pytest.warns(UserWarning, match="overlap"):
            born_rule_experiment(m, 10, 0)

    def test_disjoint_bands_classify_at_most_one_way(self):
        gen = np.random.default_rng(14)
        for _ in range(25):
            H = int(gen.integers(2, 5))
            p = np.sort(gen.uniform(0.05, 0.95, H))
            if np.min(np.diff(p)) < 1e-3:
                continue
            w = gen.dirichlet(np.ones(H))
            m = DeFinettiModel(w, p)
            eps = 0.49 * m.kappa
            for f in np.linspace(0.0, 1.0, 101):
                assert np.sum(np.abs(f - p) < eps) <= 1

    def test_protocol_length_must_match_band(self):
        with pytest.raises(ValueError, match="length"):
            classify((1, -1), reference_model(), ClassificationBand(3, 0.1))


class TestBornExperiment:
    def test_exact_masses_approach_the_prior_weights(self):
        m = reference_model()
        exp = born_rule_experiment(m, 500, 0)
        assert exp.empirical is None and exp.coverage is None and exp.sample is None
        assert exp.exact_mass[0] == pytest.approx(0.4, abs=1e-8)
        assert exp.exact_mass[1] == pytest.approx(0.6, abs=1e-8)
        assert exp.exact_coverage == pytest.approx(1.0, abs=1e-8)
        assert exp.exact_ambiguous == 0.0

    def test_small_n_frozen_values(self):
        m = reference_model()
        with pytest.warns(UserWarning, match="overlap"):
            exp = born_rule_experiment(m, 10, 2000, seed=0)
        assert exp.exact_mass[0] == pytest.approx(0.2720740424, rel=1e-9)
        assert exp.exact_mass[1] == pytest.approx(0.3901121744, rel=1e-9)
        assert exp.exact_coverage == pytest.approx(0.6621862168, rel=1e-9)
        assert exp.exact_ambiguous == pytest.approx(0.3378137832, rel=1e-9)
        # sampled fractions sit near the exact ones
        assert exp.coverage == pytest.approx(exp.exact_coverage, abs=0.05)
        assert exp.ambiguous == pytest.approx(exp.exact_ambiguous, abs=0.05)
        # the experiment hands back the very sample its fractions came from
        again = sample_protocols(m, 10, 2000, seed=0)
        np.testing.assert_array_equal(exp.sample.outcomes, again.outcomes)
        np.testing.assert_array_equal(exp.sample.latent, again.latent)

    def test_sampled_masses_track_exact_masses(self):
        m = reference_model()
        with pytest.warns(UserWarning, match="overlap"):
            exp = born_rule_experiment(m, 50, 20000, seed=4)
        for nu in (0, 1):
            assert exp.empirical[nu] == pytest.approx(exp.exact_mass[nu], abs=0.02)
        assert exp.coverage == pytest.approx(exp.exact_coverage, abs=0.02)

    @pytest.mark.parametrize("count", [0, 700])
    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_several_bands_equal_one_band_each(self, count):
        m = DeFinettiModel(np.array([0.2, 0.5, 0.3]), np.array([0.15, 0.5, 0.9]))
        ns = [40, 7, 300, 40]
        bands = [ClassificationBand.from_schedule(n) for n in ns]
        exps = born_rule_experiments(m, bands, count, seed=9)
        assert [e.band for e in exps] == bands
        for n, exp in zip(ns, exps):
            alone = born_rule_experiment(m, n, count, seed=9)
            for field in ("count", "empirical", "coverage", "ambiguous",
                          "exact_mass", "exact_coverage", "exact_ambiguous"):
                assert getattr(exp, field) == getattr(alone, field), field
            if count:
                assert np.array_equal(exp.sample.plus, alone.sample.plus)
                assert np.array_equal(exp.sample.latent, alone.sample.latent)
            else:
                assert exp.sample is None and alone.sample is None

    def test_overlap_warnings_point_at_the_caller(self):
        m = reference_model()
        bands = [ClassificationBand.from_schedule(n) for n in (10, 12)]
        with pytest.warns(UserWarning, match="overlap") as caught:
            born_rule_experiment(m, 10, 5)
            born_rule_experiments(m, bands, 5)
        assert [w.filename for w in caught] == [__file__] * 3

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            born_rule_experiment(reference_model(), 500, -1)

    def test_coverage_improves_with_n(self):
        m = reference_model()
        with pytest.warns(UserWarning, match="overlap"):
            first = born_rule_experiment(m, 40, 0).exact_coverage
        cov = [first] + [born_rule_experiment(m, n, 0).exact_coverage for n in (100, 400)]
        assert cov[0] < cov[1] < cov[2]


class TestPosterior:
    def test_empty_protocol_returns_the_prior(self):
        m = reference_model()
        post = posterior(m, ())
        assert post.weights[0] == pytest.approx(0.4, rel=1e-12)
        assert post.weights[1] == pytest.approx(0.6, rel=1e-12)
        assert post.entropy_bits == pytest.approx(0.9709505944546688, rel=1e-12)

    def test_two_clicks_frozen_value(self):
        m = reference_model()
        post = posterior(m, (1, 1))
        assert post.weights[0] == pytest.approx(0.8258064516129032, rel=1e-12)
        assert post.weights[1] == pytest.approx(0.1741935483870967, rel=1e-9)
        assert post.entropy_bits == pytest.approx(0.667208517800601, rel=1e-9)

    def test_long_protocols_concentrate(self):
        m = reference_model()
        post = posterior(m, (1,) * 60 + (-1,) * 15)   # f=0.8 for 75 clicks
        assert post.weights[0] > 0.999999
        assert post.entropy_bits < 1e-4

    def test_zero_probability_protocol_rejected(self):
        deterministic = DeFinettiModel(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="zero-probability"):
            posterior(deterministic, (-1,))

    @given(seed=st.integers(0, 2 ** 32), hypotheses=st.integers(1, 5),
           n=st.integers(1, 1000), count=st.integers(1, 2000))
    @settings(max_examples=100, deadline=None)
    def test_entropies_per_distinct_count_equal_the_per_row_oracle(self, seed, hypotheses,
                                                                  n, count):
        gen = np.random.default_rng(seed)
        p_plus = np.where(gen.random(hypotheses) < 0.2, gen.integers(0, 2, hypotheses),
                          gen.random(hypotheses))
        model = DeFinettiModel(gen.dirichlet(np.ones(hypotheses)), p_plus)
        sample = sample_protocols(model, n, count, seed=seed)
        ents = posterior_entropies(model, sample)
        assert np.array_equal(ents, reference_posterior_entropies(model, sample))

    def test_ruled_out_hypotheses_raise_no_warning(self):
        # a count that rules out the p = 0 source gives it log-weight -inf and weight 0
        model = DeFinettiModel(np.array([0.5, 0.5]), np.array([0.0, 0.6]))
        sample = sample_protocols(model, 10, 50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ents = posterior_entropies(model, sample)
            post = posterior(model, [1, 1, -1])
        assert np.array_equal(ents, reference_posterior_entropies(model, sample))
        assert post.weights == {0: 0.0, 1: 1.0} and post.entropy_bits == 0.0

    def test_batch_entropies_match_single_calls(self):
        m = reference_model()
        sample = sample_protocols(m, 12, 50, seed=6)
        ents = posterior_entropies(m, sample)
        for i in (0, 17, 49):
            expected = posterior(m, sample.protocol(i)).entropy_bits
            assert ents[i] == pytest.approx(expected, rel=1e-10)

    def test_purification_mean_entropy_is_tiny_at_large_n(self):
        m = reference_model()
        sample = sample_protocols(m, 200, 500, seed=8)
        ents = posterior_entropies(m, sample)
        assert float(ents.mean()) < 0.01


class TestRelativeEntropy:
    def test_frozen_reference_values(self):
        m = reference_model()
        assert relative_entropy(m, 0, 1) == pytest.approx(0.7705590150115544, rel=1e-12)
        assert relative_entropy(m, 1, 0) == pytest.approx(0.8406371956566696, rel=1e-12)

    def test_half_versus_quarter(self):
        m = DeFinettiModel(np.array([0.5, 0.5]), np.array([0.5, 0.25]))
        assert relative_entropy(m, 0, 1) == pytest.approx(0.2075187496394219, rel=1e-12)

    def test_zero_on_the_diagonal(self):
        m = reference_model()
        assert relative_entropy(m, 0, 0) == 0.0

    def test_infinite_on_support_mismatch(self):
        m = DeFinettiModel(np.array([0.5, 0.5]), np.array([0.5, 1.0]))
        assert relative_entropy(m, 0, 1) == np.inf
        assert relative_entropy(m, 1, 0) < np.inf

    @given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_faithful(self, p, q_):
        m = DeFinettiModel(np.array([0.5, 0.5]), np.array([p, q_]))
        val = relative_entropy(m, 0, 1)
        assert val >= 0.0
        if abs(p - q_) > 1e-6:
            assert val > 0.0
        # oracle: direct two-point Kullback-Leibler sum in bits
        expected = p * np.log2(p / q_) + (1 - p) * np.log2((1 - p) / (1 - q_))
        assert val == pytest.approx(max(expected, 0.0), rel=1e-9, abs=1e-12)


class TestBandMass:
    def test_frozen_value(self):
        assert log_band_mass(10, 0.2, 0.8, 0.3) == pytest.approx(-4.547648878002189,
                                                                 rel=1e-12)

    def test_empty_band(self):
        assert log_band_mass(4, 0.01, 0.37, 0.5) == -np.inf

    def test_full_band_has_unit_mass(self):
        assert log_band_mass(12, 0.999, 0.5, 0.4) == pytest.approx(0.0, abs=1e-12)

    def test_log_mass_is_clamped_at_zero(self):
        # the full band's log-masses sum to 5.6e-16 before the clamp
        assert log_band_mass(3, 0.999, 0.5, 0.5) == 0.0

    def test_matches_direct_binomial_sum(self):
        n, eps, center, q_ = 30, 0.12, 0.8, 0.3
        ks = np.arange(n + 1)
        mask = np.abs(ks / n - center) < eps
        direct = float(binom.pmf(ks[mask], n, q_).sum())
        assert np.exp(log_band_mass(n, eps, center, q_)) == pytest.approx(direct, rel=1e-10)


def binomial_case(smallest_p=0.0):
    """(n, p) with n from 1 to 1e5 and p in [smallest_p, 1], with 0 and 1 included."""
    return st.tuples(st.integers(1, 100_000),
                     st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 0.5]),
                               st.floats(smallest_p, 1.0)))


class TestNumpyKernels:
    """The numpy replacements of the binomial and log-space helpers, against scipy."""

    @given(binomial_case())
    @settings(max_examples=40, deadline=None)
    def test_binom_logpmf(self, case):
        n, p = case
        ks = np.unique(np.linspace(0, n, 201).round())
        ours, ref = _binom_logpmf(ks, n, [p])[0], binom.logpmf(ks, n, p)
        np.testing.assert_array_equal(np.isneginf(ours), np.isneginf(ref))
        np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-13 * n)

    # scipy's pmf itself overflows for p below about 1e-300 (ibeta_derivative)
    @given(binomial_case(smallest_p=1e-300))
    @settings(max_examples=40, deadline=None)
    def test_binom_pmf(self, case):
        n, p = case
        ours = _binom_pmf(n, p)
        assert ours.shape == (n + 1,)
        np.testing.assert_allclose(ours, binom.pmf(np.arange(n + 1), n, p),
                                   rtol=1e-10, atol=1e-15)
        assert ours.sum() == pytest.approx(1.0, abs=1e-14)

    def test_binom_pmf_below_the_scipy_range(self):
        n, p = 1000, 1e-307
        pmf = _binom_pmf(n, p)
        assert pmf[0] == 1.0
        assert pmf[1] == pytest.approx(n * p, rel=1e-12)

    @given(st.lists(st.lists(st.one_of(st.just(-np.inf),
                                       st.floats(-800.0, 50.0)),
                             min_size=3, max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_logsumexp(self, rows):
        a = np.array(rows)
        np.testing.assert_allclose(_logsumexp(a), logsumexp(a, axis=1),
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(_logsumexp(a[0]), logsumexp(a[0]),
                                   rtol=1e-14, atol=1e-14)

    def test_logsumexp_of_all_minus_infinity(self):
        a = np.full((2, 4), -np.inf)
        a[1, 0] = 0.0
        np.testing.assert_array_equal(_logsumexp(a), [-np.inf, 0.0])
        assert _logsumexp(np.full(3, -np.inf)) == -np.inf

    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                              st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_xlogy(self, pairs):
        x, y = np.array(pairs).T
        np.testing.assert_allclose(_xlogy(x, y), xlogy(x, y), rtol=1e-15, atol=0.0)

    @given(binomial_case(), st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_log_band_mass(self, case, eps, center):
        n, q_ = case
        ks = np.arange(n + 1)
        mask = np.abs(ks / n - center) < eps
        ref = logsumexp(binom.logpmf(ks[mask], n, q_)) if mask.any() else -np.inf
        ours = log_band_mass(n, eps, center, q_)
        assert ours <= 0.0
        if ref == -np.inf:
            assert ours == -np.inf
        else:
            assert ours == pytest.approx(min(ref, 0.0), rel=1e-13, abs=1e-13 * n)


class TestBandMassKernel:
    """The shared log-pmf rows give the very floats of a log-pmf per band and q."""

    @given(n=st.integers(1, 2000), eps=st.floats(1e-3, 1.0),
           ps=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=1, max_size=4))
    @example(n=2000, eps=0.5, ps=[0.0, 1.0, 0.3])
    @example(n=1, eps=0.999, ps=[0.0, 1.0])
    @settings(max_examples=100, deadline=None)
    def test_cross_masses_equal_per_call_masses(self, n, eps, ps):
        # the CLI's cross masses and detection_time's scan read this table
        table = log_band_masses(n, eps, ps, ps)
        for i, center in enumerate(ps):
            assert log_band_mass(n, eps, center, ps[-1]) == \
                reference_log_band_mass(n, eps, center, ps[-1])
            for j, q_ in enumerate(ps):
                assert table[i][j] == reference_log_band_mass(n, eps, center, q_)

    @pytest.mark.parametrize("threshold", [np.exp(-1.0), 1e-3, 1e-9])
    def test_detection_scan_equals_per_call_masses(self, threshold):
        m = DeFinettiModel(np.array([0.2, 0.3, 0.5]), np.array([0.9, 0.55, 0.1]))
        dt = detection_time(m, threshold=threshold)
        ceiling = np.nextafter(m.kappa / 2.0, 0.0)
        ps = [float(p) for p in m.p_plus]
        for n in range(1, dt.n_star + 1):
            eps = min(float(n) ** (-mesoscopic.DECAY_EXPONENT), ceiling)
            worst = max(math.exp(reference_log_band_mass(n, eps, ps[i], ps[j]))
                        for i in range(3) for j in range(3) if i != j)
            assert (worst <= threshold) == (n == dt.n_star)
        assert (dt.n_star_epsilon, dt.n_star_mass) == (eps, worst)

    def test_sanov_rows_equal_per_call_masses(self):
        m = reference_model()
        rep = sanov_check(m, 1, 0, [22, 50, 400, 1999, 20_000])
        for r in rep.rows:
            assert r.log_mass == reference_log_band_mass(r.n, r.epsilon, 0.3, 0.8)


class TestSanov:
    def test_reference_report(self):
        m = reference_model()
        rep = sanov_check(m, 0, 1, [50, 100, 200, 400])
        assert rep.certified
        assert rep.sigma_bits == pytest.approx(0.7705590150115544, rel=1e-12)
        assert rep.sigma_nats == pytest.approx(0.5341108087103075, rel=1e-12)
        rates = {r.n: r for r in rep.rows}
        assert rates[50].empirical_rate == pytest.approx(0.2832764166851083, rel=1e-9)
        assert rates[400].empirical_rate == pytest.approx(0.4085437314902844, rel=1e-9)
        assert rates[400].band_kl_rate == pytest.approx(0.396630735197156, rel=1e-9)
        # the empirical decay rate approaches the large-deviation rate from above
        emp = [rates[n].empirical_rate for n in (50, 100, 200, 400)]
        assert emp == sorted(emp)
        for r in rep.rows:
            assert r.empirical_rate >= r.band_kl_rate - 1e-9
            assert r.mass == pytest.approx(np.exp(-r.n * r.empirical_rate), rel=1e-9)
            # the envelope: mass <= prefactor * exp(-n * sigma)
            assert r.mass <= rep.prefactor * np.exp(-r.n * r.sigma_rate) * (1 + 1e-9)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
    def test_certificate_is_the_chernoff_bound(self, pair):
        m = reference_model()
        rep = sanov_check(m, *pair, [50, 100, 200, 400, 800, 1600])
        assert rep.certified
        assert max(r.log_mass + r.n * r.band_kl_rate for r in rep.rows) < -2.0

    def test_a_mass_above_the_chernoff_bound_is_not_certified(self, monkeypatch):
        real = mesoscopic.log_band_mass
        monkeypatch.setattr(mesoscopic, "log_band_mass", lambda *args: real(*args) + 5.0)
        rep = sanov_check(reference_model(), 0, 1, [50, 100, 200, 400])
        assert not rep.certified
        # the envelope prefactor C is fitted to the masses, so it still bounds them
        for r in rep.rows:
            assert r.mass <= rep.prefactor * np.exp(-r.n * r.sigma_rate) * (1 + 1e-9)

    def test_exponent_ratio_tightens_with_n(self):
        m = reference_model()
        rep = sanov_check(m, 0, 1, [400])
        row = rep.rows[0]
        assert row.empirical_rate / row.band_kl_rate == pytest.approx(1.0, abs=0.1)

    def test_reversed_pair_uses_the_other_divergence(self):
        m = reference_model()
        rep = sanov_check(m, 1, 0, [100])
        assert rep.sigma_bits == pytest.approx(0.8406371956566696, rel=1e-12)

    def test_overlapping_bands_rejected(self):
        m = reference_model()
        with pytest.raises(ValueError, match="overlap"):
            sanov_check(m, 0, 1, [2])

    def test_prefactor_past_the_largest_float_is_infinite(self):
        # log C = log_mass(n) + n * sigma reaches about 5e4 at n = 1e5
        rep = sanov_check(reference_model(), 0, 1, [40, 100_000])
        assert rep.prefactor == np.inf
        assert rep.certified
        assert all(np.isfinite(r.log_mass) for r in rep.rows)


class TestDetectionTime:
    def test_reference_frozen_values(self):
        m = reference_model()
        dt = detection_time(m)
        assert dt.tau == 1.0
        assert dt.sigma_min_bits == pytest.approx(0.7705590150115544, rel=1e-12)
        assert dt.time_scale == pytest.approx(1.2977591339775645, rel=1e-12)
        assert dt.n_star == 1
        assert dt.n_star_epsilon == pytest.approx(0.25, rel=1e-9)
        assert dt.n_star_epsilon < 0.25
        assert dt.n_star_mass == pytest.approx(0.3, rel=1e-12)
        assert dt.threshold == pytest.approx(np.exp(-1.0), rel=1e-12)
        product = dt.n_star * dt.sigma_min_bits * LN2
        assert 0.5 <= product <= 3.0

    def test_pairs_table(self):
        dt = detection_time(reference_model())
        table = {(p.nu1, p.nu2): p.sigma_bits for p in dt.pairs}
        assert table[(0, 1)] == pytest.approx(0.7705590150115544, rel=1e-12)
        assert table[(1, 0)] == pytest.approx(0.8406371956566696, rel=1e-12)

    def test_time_scale_is_linear_in_tau(self):
        dt = detection_time(reference_model(tau=2.0))
        assert dt.time_scale == pytest.approx(2.595518267955129, rel=1e-12)
        assert dt.n_star == 1

    def test_stricter_threshold_needs_more_clicks(self):
        dt = detection_time(reference_model(), threshold=1e-3)
        assert dt.n_star == 28
        assert dt.n_star_mass == pytest.approx(7.317811e-04, rel=1e-5)
        assert dt.n_star_mass <= 1e-3

    def test_single_hypothesis_rejected(self):
        with pytest.raises(ValueError, match="two hypotheses"):
            detection_time(DeFinettiModel(np.array([1.0]), np.array([0.8])))

    def test_indistinguishable_hypotheses_rejected(self):
        m = DeFinettiModel(np.array([0.5, 0.5]), np.array([0.3, 0.3]))
        with pytest.raises(ValueError, match="indistinguishable"):
            detection_time(m)


class TestCommutingRealization:
    def test_dimension_and_cap(self):
        m = reference_model()
        frame, state = commuting_realization(m, 5)
        assert frame.dim == 2 * 2 ** 5
        assert frame.times == (1.0, 2.0, 3.0, 4.0, 5.0)
        with pytest.raises(ValueError, match="cap"):
            commuting_realization(m, 12)

    def test_history_measure_equals_the_mixture_exactly(self):
        m = reference_model()
        for n in (1, 2, 3, 4):
            frame, state = commuting_realization(m, n)
            worst = 0.0
            for word in np.ndindex(*(2,) * n):
                proto = tuple(1 if b else -1 for b in word)
                lhs = lsw_probability(frame, state,
                                      MeasurementProtocol(proto, frame.times[:n]))
                rhs = exact_protocol_probability(m, proto)
                worst = max(worst, abs(lhs - rhs))
            assert worst < 1e-12, f"n={n}: residual {worst}"

    def test_three_hypothesis_realization(self):
        m = DeFinettiModel(np.array([0.2, 0.3, 0.5]), np.array([0.9, 0.5, 0.1]))
        frame, state = commuting_realization(m, 3)
        assert frame.dim == 3 * 8
        for word in np.ndindex(2, 2, 2):
            proto = tuple(1 if b else -1 for b in word)
            lhs = lsw_probability(frame, state, MeasurementProtocol(proto, frame.times))
            rhs = exact_protocol_probability(m, proto)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_respects_the_time_step(self):
        m = reference_model(tau=0.5)
        frame, _ = commuting_realization(m, 3)
        assert frame.times == (0.5, 1.0, 1.5)
