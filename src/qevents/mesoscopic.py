"""Exchangeable click statistics for a finite mixture of i.i.d. sources.

A latent label nu in 0..N carries a prior weight pi(nu) and a per-click
probability p(+1|nu); a protocol of n clicks is drawn by sampling nu once
and then n outcomes i.i.d., so the protocol measure is an exchangeable
mixture of product measures.  The module samples protocols, classifies them
into frequency bands, recovers the prior from band statistics, tracks the
sharpening of the Bayesian posterior, certifies the exact large-deviation
decay of cross-band mass, derives the induced detection time scale, and
realizes the same statistics as a commuting diagonal model inside the
operator stack.

Sampling reads raw Philox words: a click is +1 when the word's top 53 bits
fall below an integer threshold per hypothesis, which reproduces numpy's
``random() < p`` exactly.  Protocols of every length n from one (seed,
stream) read prefixes of one click stream, so several lengths are counted
from a single chunked pass and only +1 counts are stored; the +1/-1 outcome
matrix is materialized only when ``ProtocolSample.outcomes`` is read.  Band
masses at one n share one table of lgamma terms and one log-pmf row per
click probability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .events import HeisenbergFrame
from .operators import DensityState, PartitionOfUnity
from .seeding import substream

__all__ = [
    "DeFinettiModel",
    "ClassificationBand",
    "ProtocolSample",
    "BornExperiment",
    "Posterior",
    "SanovRow",
    "SanovReport",
    "PairRate",
    "DetectionTime",
    "sample_protocols",
    "exact_protocol_probability",
    "frequency",
    "classify",
    "classify_frequencies",
    "born_rule_experiment",
    "born_rule_experiments",
    "posterior",
    "posterior_entropies",
    "relative_entropy",
    "sanov_check",
    "detection_time",
    "log_band_mass",
    "log_band_masses",
    "commuting_realization",
]

SIMPLEX_TOL = 1e-12
#: default frequency-band half-width schedule exponent for classification
CLASSIFICATION_EXPONENT = 1.0 / 3.0
#: sharper schedule used for decay-rate studies
DECAY_EXPONENT = 0.45

LN2 = math.log(2.0)


def _xlogy(x, y) -> np.ndarray:
    """x * log(y), taken as 0 wherever x is 0 (also where y is 0)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(y))


def _logsumexp(a) -> np.ndarray:
    """log(sum(exp(a))) over the last axis.

    With m entries equal to the maximum a_max and s the sum of exp(a - a_max)
    over the others, the result is log1p(s/m) + log(m) + a_max: the largest
    terms stay out of the sum, so no precision is lost near log 1.  A row
    that is all -inf gives -inf.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1, keepdims=True)
    top = a == a_max
    with np.errstate(invalid="ignore"):
        rest = np.where(top, 0.0, np.exp(a - a_max)).sum(axis=-1, keepdims=True)
    m = top.sum(axis=-1, keepdims=True)
    return (np.log1p(rest / m) + np.log(m) + a_max)[..., 0]


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)


def _binom_logpmf(ks, n: int, qs: Sequence[float]) -> np.ndarray:
    """log of the binomial(n, q) masses at the integers ``ks`` in 0..n, a row per q.

    lgamma(n+1) - (lgamma(k+1) + lgamma(n-k+1)) + k*log(q) + (n-k)*log1p(-q),
    each product taken as 0 where its count is 0, so q = 0 and q = 1 give
    exact point masses.  The lgamma terms depend on k alone, so one table
    serves every q; every step is elementwise, so an entry is the same float
    whatever other ks it is computed with.  The lgamma terms are of size
    n*log(n) and cancel, so the absolute error grows like n*log(n) ulps;
    ``_binom_pmf`` is the accurate choice when the masses themselves are
    wanted.
    """
    ks = np.asarray(ks, dtype=float)
    rest = n - ks
    log_comb = math.lgamma(n + 1) - (_lgamma(ks + 1) + _lgamma(rest + 1))
    rows = np.empty((len(qs), ks.size))
    for row, q in zip(rows, map(float, qs)):
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(rest == 0.0, 0.0, rest * np.log1p(-q))
        row[:] = log_comb + _xlogy(ks, q) + tail
    return rows


def log_band_masses(n: int, epsilon: float, centers: Sequence[float],
                    qs: Sequence[float]) -> list[list[float]]:
    """log of exact binomial band masses: ``[i][j]`` is
    ``log_band_mass(n, epsilon, centers[i], qs[j])``.

    The log-pmf rows are computed once per q, at the counts some band holds,
    and each band takes a masked ``_logsumexp`` of them.
    """
    freqs = np.arange(n + 1) / n
    masks = np.abs(freqs - np.asarray(centers, dtype=float)[:, None]) < epsilon
    held = masks.any(axis=0)
    rows = _binom_logpmf(np.flatnonzero(held), n, qs)
    out = []
    for mask in masks[:, held]:
        if not mask.any():
            out.append([-math.inf] * len(qs))
        else:
            # clamped at 0: rounding can push a band that holds all the mass above it
            band = np.ascontiguousarray(rows[:, mask])     # rows[:, mask] is F-ordered
            out.append([min(float(v), 0.0) for v in _logsumexp(band)])
    return out


def _binom_pmf(n: int, p: float) -> np.ndarray:
    """The binomial(n, p) masses at k = 0..n.

    Starts from 1 at the mode and walks outward with the ratio
    pmf(k+1)/pmf(k) = (n-k)/(k+1) * p/(1-p), then divides by the total.
    The walk only shrinks, so nothing overflows, and each mass is off by a
    few ulps per step from the mode.
    """
    if p == 0.0 or p == 1.0:
        pmf = np.zeros(n + 1)
        pmf[0 if p == 0.0 else n] = 1.0
        return pmf
    ks = np.arange(n)
    ratio = (n - ks) / (ks + 1) * (p / (1.0 - p))      # pmf(k+1) / pmf(k)
    mode = min(int((n + 1) * p), n)
    walk = np.empty(n + 1)
    walk[mode] = 1.0
    walk[mode + 1:] = np.cumprod(ratio[mode:])
    walk[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return walk / walk.sum()


@dataclass(frozen=True, eq=False)
class DeFinettiModel:
    """Mixture of i.i.d. two-outcome click sources with latent label nu.

    ``weights[nu]`` is the prior of source nu and ``p_plus[nu]`` its
    probability of the outcome +1 per click; outcomes are coded as the
    integers +1 and -1.  ``tau`` is the emission period, the physical time
    between successive clicks.
    """

    weights: np.ndarray
    p_plus: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        p = np.asarray(self.p_plus, dtype=float)
        if w.ndim != 1 or p.ndim != 1 or w.shape != p.shape or w.size == 0:
            raise ValueError("weights and p_plus must be equal-length 1-D arrays")
        if not (np.isfinite(w).all() and np.isfinite(p).all()):
            raise ValueError("prior weights and click probabilities must be finite")
        if w.min() < -SIMPLEX_TOL:
            raise ValueError(f"negative prior weight {w.min()!r}")
        if abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"prior weights sum to {w.sum()!r}, not 1")
        if p.min() < -SIMPLEX_TOL or p.max() > 1.0 + SIMPLEX_TOL:
            raise ValueError("click probabilities must lie in [0, 1]")
        tau = float(self.tau)
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"emission period must be positive, got {self.tau!r}")
        w = np.clip(w, 0.0, None)
        p = np.clip(p, 0.0, 1.0)
        w.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "p_plus", p)
        object.__setattr__(self, "tau", tau)

    @property
    def num_hypotheses(self) -> int:
        return self.weights.size

    @property
    def p_minus(self) -> np.ndarray:
        return 1.0 - self.p_plus

    @property
    def kappa(self) -> float:
        """Smallest separation between two click probabilities (inf if single)."""
        p = self.p_plus
        if p.size < 2:
            return math.inf
        return float(min(abs(p[i] - p[j])
                         for i in range(p.size) for j in range(i + 1, p.size)))


@dataclass(frozen=True)
class ClassificationBand:
    """Open frequency band of half-width epsilon used to classify length-n protocols."""

    n: int
    epsilon: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"band length must be a positive integer, got {self.n!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"band half-width must lie in (0, 1), got {self.epsilon!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @classmethod
    def from_schedule(cls, n: int, exponent: float = CLASSIFICATION_EXPONENT) -> "ClassificationBand":
        """Band with epsilon = n**(-exponent); shrinks while sqrt(n)*epsilon grows.

        The exponent must lie strictly between 0 and 1/2 so the band keeps
        capturing the typical frequency fluctuations.  n = 1 yields a
        half-width of 1 and is rejected; schedules start at n = 2.
        """
        if not 0.0 < exponent < 0.5:
            raise ValueError(f"schedule exponent must lie in (0, 1/2), got {exponent!r}")
        if int(n) != n or n < 2:
            raise ValueError(f"schedules start at n = 2, got {n!r}")
        return cls(int(n), float(n) ** (-exponent))


#: raw Philox words drawn at a time by the click pass; bounds its temporaries
_CHUNK_WORDS = 1 << 15


def _click_thresholds(model: DeFinettiModel) -> np.ndarray:
    """Per-hypothesis integer thresholds t: a click is +1 when (x >> 11) < t.

    numpy turns a raw Philox word x into the double (x >> 11) * 2**-53, so
    the float test ``u < p`` holds exactly when the 53-bit integer x >> 11
    is below ceil(p * 2**53); scaling by 2**53 is exact, and for p = 1 the
    threshold 2**53 passes every word.
    """
    return np.ceil(model.p_plus * 2.0 ** 53).astype(np.uint64)


def _click_chunks(rng: np.random.Generator, words: int):
    """``(start, x >> 11)`` for the next ``words`` raw words of ``rng``, in chunks."""
    for start in range(0, words, _CHUNK_WORDS):
        chunk = rng.bit_generator.random_raw(min(_CHUNK_WORDS, words - start))
        yield start, np.right_shift(chunk, np.uint64(11), out=chunk)


def _row_clicks(chunk: np.ndarray, start: int, n: int,
                row_thresholds: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The +1 clicks of a chunk of the click stream that starts at word ``start``.

    Row i of length n holds words i*n .. (i+1)*n - 1, and its clicks are
    tested against ``row_thresholds[i]``.  Returns the first row the chunk
    touches, the chunk offsets where its rows begin (0 for a row cut by the
    chunk edge) and the boolean clicks.
    """
    first, last = start // n, (start + chunk.size - 1) // n
    bounds = np.arange(first * n, (last + 2) * n, n) - start
    bounds[0], bounds[-1] = 0, chunk.size
    offsets = bounds[:-1]
    thresholds = np.repeat(row_thresholds[first:last + 1], bounds[1:] - offsets)
    return first, offsets, chunk < thresholds


@dataclass(frozen=True, eq=False)
class ProtocolSample:
    """Batch of sampled protocols: +1 counts and latent labels of length-n protocols.

    ``plus[i]`` counts the +1 clicks of protocol i and ``latent[i]`` is its
    hypothesis.  The (count, n) matrix of +1/-1 outcomes is not stored:
    ``outcomes`` replays the draw of ``sample_protocols`` from the kept
    model, seed and stream on first use and materializes count * n int8
    entries; ``protocol(i)`` replays row i alone, n words, unless the
    matrix is already cached.  Both apply the sampler's integer-threshold
    rule to the raw Philox words, so they agree with ``plus`` bit for bit.
    """

    plus: np.ndarray
    latent: np.ndarray
    n: int
    model: DeFinettiModel
    seed: int
    stream: int

    def __post_init__(self):
        k = np.array(self.plus)
        v = np.array(self.latent)
        if k.ndim != 1 or v.ndim != 1 or k.shape != v.shape:
            raise ValueError("plus counts and latent labels must be equal-length 1-D arrays")
        k.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "plus", k)
        object.__setattr__(self, "latent", v)
        object.__setattr__(self, "n", int(self.n))

    def __len__(self) -> int:
        return self.latent.shape[0]

    @property
    def count(self) -> int:
        return self.latent.shape[0]

    def _click_stream(self, skip: int) -> np.random.Generator:
        """The sample's generator, ``skip`` words into the click stream.

        The latent labels took ``count`` words.  Philox yields four words a
        counter step: ``advance`` skips whole steps and the remainder is
        drawn and dropped.
        """
        rng = substream(self.seed, self.stream)
        skip += self.count
        rng.bit_generator.advance(skip // 4)
        rng.bit_generator.random_raw(skip % 4)
        return rng

    @cached_property
    def outcomes(self) -> np.ndarray:
        """(count, n) int8 matrix of +1/-1 outcomes, replayed on first use."""
        out = np.empty(self.count * self.n, dtype=np.int8)
        thresholds = _click_thresholds(self.model)[self.latent]
        for start, chunk in _click_chunks(self._click_stream(0), out.size):
            _, _, clicks = _row_clicks(chunk, start, self.n, thresholds)
            out[start:start + chunk.size] = np.where(clicks, 1, -1)
        return out.reshape(self.count, self.n)

    def protocol(self, i: int) -> tuple[int, ...]:
        """The +1/-1 outcomes of protocol i (negative i counts from the end).

        Reads ``outcomes`` when it is cached; otherwise replays the n words
        of row i alone.
        """
        i = range(self.count)[i]                 # IndexError out of range
        if "outcomes" in self.__dict__:
            return tuple(int(x) for x in self.outcomes[i])
        words = self._click_stream(i * self.n).bit_generator.random_raw(self.n)
        clicks = (words >> np.uint64(11)) < _click_thresholds(self.model)[self.latent[i]]
        return tuple(1 if c else -1 for c in clicks.tolist())

    def plus_counts(self) -> np.ndarray:
        return self.plus

    def frequencies(self) -> np.ndarray:
        """Per-protocol frequency of the outcome +1."""
        if self.n == 0:
            raise ValueError("frequency of an empty protocol is undefined")
        return self.plus / self.n


def _sample_lengths(model: DeFinettiModel, ns: Sequence[int], count: int,
                    seed, stream) -> list[ProtocolSample]:
    """One ``ProtocolSample`` per length in ``ns``, all counted from one pass.

    The stream holds ``count`` words for the latent labels (``rng.choice``),
    then the click stream: protocol i of length n reads click words
    i*n .. (i+1)*n - 1.  Every length reads a prefix of the same click
    stream, so count * max(ns) words are drawn once, in chunks of
    ``_CHUNK_WORDS``, and each length counts the chunk's part of its prefix;
    a protocol cut by a chunk edge adds up its two partial counts.
    """
    rng = substream(seed, stream)
    w = model.weights / model.weights.sum()
    latent = rng.choice(model.num_hypotheses, size=count, p=w)
    thresholds = _click_thresholds(model)[latent]
    plus = [np.zeros(count, dtype=np.int64) for _ in ns]
    for start, chunk in _click_chunks(rng, count * max(ns, default=0)):
        for n, counts in zip(ns, plus):
            if start < count * n:
                first, offsets, clicks = _row_clicks(chunk[:count * n - start], start,
                                                     n, thresholds)
                counts[first:first + offsets.size] += np.add.reduceat(clicks, offsets,
                                                                      dtype=np.int64)
    latent = latent.astype(np.int64)
    return [ProtocolSample(k, latent, n, model, seed, stream) for n, k in zip(ns, plus)]


def sample_protocols(model: DeFinettiModel, n: int, count: int,
                     seed: int = 0, stream: int = 0) -> ProtocolSample:
    """Draw ``count`` protocols of length ``n``: latent nu ~ prior, clicks i.i.d.

    Exchangeability holds by construction, and output is deterministic per
    (seed, stream).  The draw is ``count`` latent labels, then the click
    stream, n words a protocol; click j of protocol i is +1 when raw word
    count + i*n + j, shifted right by 11, is below ceil(p * 2**53) for its
    hypothesis' p, which is exactly numpy's ``random() < p``.  A shorter n
    from the same (seed, stream) therefore reads a prefix of the same
    stream, and ``born_rule_experiments`` counts all its lengths from one
    pass.  Only the +1 counts are kept, with memory independent of n; the
    outcome matrix is replayed from (seed, stream) when
    ``ProtocolSample.outcomes`` is read.
    """
    n = int(n)
    count = int(count)
    if n < 0 or count < 0:
        raise ValueError("n and count must be nonnegative")
    return _sample_lengths(model, [n], count, seed, stream)[0]


def _as_outcome_array(protocol) -> np.ndarray:
    arr = np.asarray(protocol)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError("a protocol is a 1-D sequence of +1/-1 outcomes")
    if arr.size and not ((arr == 1) | (arr == -1)).all():
        raise ValueError("protocol outcomes must be +1 or -1")
    return arr.astype(np.int64)


def exact_protocol_probability(model: DeFinettiModel, protocol) -> float:
    """Mixture-of-products probability of one outcome sequence.

    Depends on the sequence only through its +1 count, which is what makes
    the measure exchangeable.  The empty protocol has probability 1.
    """
    arr = _as_outcome_array(protocol)
    if arr.size == 0:
        return 1.0
    k = int((arr == 1).sum())
    m = arr.size - k
    per = model.p_plus ** k * model.p_minus ** m
    return float(model.weights @ per)


def frequency(protocol, xi: int) -> float:
    """Fraction of clicks in the protocol equal to the outcome xi."""
    arr = _as_outcome_array(protocol)
    if arr.size == 0:
        raise ValueError("frequency of an empty protocol is undefined")
    if xi not in (-1, 1):
        raise ValueError(f"outcome must be +1 or -1, got {xi!r}")
    return float((arr == xi).mean())


def _overlap_message(model: DeFinettiModel, band: ClassificationBand) -> str | None:
    if band.epsilon >= model.kappa / 2.0:
        return (f"band half-width {band.epsilon:.4g} is not below half the "
                f"click-probability gap {model.kappa:.4g}; bands overlap and "
                "classification may be ambiguous")
    return None


def _band_matches(freqs: np.ndarray, model: DeFinettiModel,
                  band: ClassificationBand) -> np.ndarray:
    return np.abs(freqs[:, None] - model.p_plus[None, :]) < band.epsilon


def classify_frequencies(freqs, model: DeFinettiModel,
                         band: ClassificationBand) -> np.ndarray:
    """Classify +1 frequencies into hypothesis bands; -1 marks unclassified.

    A frequency is classified when it falls inside exactly one open band;
    frequencies in zero bands or (when bands overlap) in several count as
    unclassified.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    msg = _overlap_message(model, band)
    if msg:
        warnings.warn(msg, stacklevel=2)
    matches = _band_matches(freqs, model, band)
    hits = matches.sum(axis=1)
    return np.where(hits == 1, matches.argmax(axis=1), -1).astype(np.int64)


def classify(protocol, model: DeFinettiModel, band: ClassificationBand):
    """The unique hypothesis whose frequency band contains the protocol, else None.

    Checking the +1 band alone is exhaustive: with two outcomes the -1
    frequency deviates from its target by exactly the same amount.  When the
    half-width stays below half the click-probability gap the bands are
    disjoint, so at most one hypothesis can match.
    """
    arr = _as_outcome_array(protocol)
    if arr.size != band.n:
        raise ValueError(f"protocol length {arr.size} differs from band length {band.n}")
    got = int(classify_frequencies([frequency(arr, 1)], model, band)[0])
    return None if got < 0 else got


@dataclass(frozen=True, eq=False)
class BornExperiment:
    """Band statistics of sampled protocols next to their exact counterparts.

    ``empirical``/``coverage``/``ambiguous`` hold sampled fractions and
    ``sample`` the protocols they were computed from (all None in exact-only
    mode with count=0); the ``exact_*`` fields are full binomial computations
    of the same quantities under the model.
    """

    band: ClassificationBand
    count: int
    empirical: dict[int, float] | None
    coverage: float | None
    ambiguous: float | None
    exact_mass: dict[int, float]
    exact_coverage: float
    exact_ambiguous: float
    sample: ProtocolSample | None


def born_rule_experiment(model: DeFinettiModel, n: int, count: int,
                         seed: int = 0,
                         exponent: float = CLASSIFICATION_EXPONENT) -> BornExperiment:
    """Estimate per-hypothesis band masses and compare with exact values.

    As n grows the band mass of hypothesis nu converges to its prior weight
    and the classified fraction (coverage) converges to 1; at small n the
    exact columns quantify how far short the bands fall.  This is the
    one-band case of ``born_rule_experiments``, on the band of
    ``ClassificationBand.from_schedule(n, exponent)``.
    """
    band = ClassificationBand.from_schedule(int(n), exponent)
    return _born_experiments(model, [band], count, seed)[0]


def born_rule_experiments(model: DeFinettiModel, bands: Sequence[ClassificationBand],
                          count: int, seed: int = 0) -> list[BornExperiment]:
    """``born_rule_experiment`` for each band, all samples counted from one pass.

    Each band's ``count`` protocols of length ``band.n`` read a prefix of the
    same click stream of ``substream(seed, 0)``, so the experiment of a band
    equals the one it would get alone, its sample that of
    ``sample_protocols(model, band.n, count, seed)``, while count * max(n)
    click words are drawn once.  With count 0 only the exact columns are
    filled.
    """
    return _born_experiments(model, bands, count, seed)


def _born_experiments(model: DeFinettiModel, bands: Sequence[ClassificationBand],
                      count: int, seed) -> list[BornExperiment]:
    """``born_rule_experiments``; an overlap warning points at the line that
    called the public function."""
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    samples = (_sample_lengths(model, [band.n for band in bands], count, seed, 0) if count
               else [None] * len(bands))
    out = []
    for band, sample in zip(bands, samples):
        msg = _overlap_message(model, band)
        if msg:
            warnings.warn(msg, stacklevel=3)
        out.append(_born_experiment(model, band, sample))
    return out


def _born_experiment(model: DeFinettiModel, band: ClassificationBand,
                     sample: ProtocolSample | None) -> BornExperiment:
    """The experiment of one band on a drawn sample (None: exact columns only).

    A protocol's label depends only on its +1 count, so the n+1 grid points
    are classified once and the sampled fractions are read off the count
    table ``np.bincount(sample.plus)``.
    """
    n = band.n
    matches = _band_matches(np.arange(n + 1) / n, model, band)     # (n+1, H)
    hits = matches.sum(axis=1)
    labels = np.where(hits == 1, matches.argmax(axis=1), -1)
    pmf = np.stack([_binom_pmf(n, p) for p in model.p_plus])     # (H, n+1)
    mixture_pmf = model.weights @ pmf                             # (n+1,)
    H = model.num_hypotheses
    exact_mass = {nu: float(mixture_pmf @ (labels == nu)) for nu in range(H)}
    exact_coverage = float(mixture_pmf @ (labels >= 0))
    exact_ambiguous = float(mixture_pmf @ (hits > 1))
    if sample is None:
        return BornExperiment(band, 0, None, None, None,
                              exact_mass, exact_coverage, exact_ambiguous, None)

    count = sample.count
    at = np.bincount(sample.plus, minlength=n + 1)     # protocols per +1 count
    empirical = {nu: float(at[labels == nu].sum() / count) for nu in range(H)}
    coverage = float(at[labels >= 0].sum() / count)
    ambiguous = float(at[hits > 1].sum() / count)
    return BornExperiment(band, count, empirical, coverage, ambiguous,
                          exact_mass, exact_coverage, exact_ambiguous, sample)


class Posterior(NamedTuple):
    weights: dict[int, float]
    entropy_bits: float


def _log_posterior_rows(model: DeFinettiModel, plus_counts: np.ndarray,
                        n: int) -> np.ndarray:
    ks = np.asarray(plus_counts, dtype=float)[:, None]
    ms = n - ks
    with np.errstate(divide="ignore"):
        log_prior = np.log(model.weights)[None, :]
    return log_prior + _xlogy(ks, model.p_plus) + _xlogy(ms, model.p_minus)


def _xlog_weights(w: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """w * log_w, taken as 0 where w is 0 (where log_w may be -inf)."""
    return np.multiply(w, log_w, out=np.zeros_like(w), where=w > 0)


def posterior(model: DeFinettiModel, protocol) -> Posterior:
    """Bayes posterior over the latent label given a protocol, with entropy in bits.

    The empty protocol returns the prior.  A protocol every hypothesis gives
    probability zero is an error.
    """
    arr = _as_outcome_array(protocol)
    k = int((arr == 1).sum())
    lw = _log_posterior_rows(model, np.array([k]), arr.size)[0]
    total = _logsumexp(lw)
    if not np.isfinite(total):
        raise ValueError("zero-probability protocol has no posterior")
    norm = lw - total
    w = np.exp(norm)
    entropy = float(-_xlog_weights(w, norm).sum() / LN2)
    return Posterior({nu: float(w[nu]) for nu in range(w.size)}, entropy)


def posterior_entropies(model: DeFinettiModel, sample: ProtocolSample) -> np.ndarray:
    """Posterior entropy in bits for every protocol of a sample, vectorized.

    The posterior depends on a protocol only through its +1 count, so the
    entropies are computed once per distinct count, found by ``bincount``,
    and then read off a table indexed by count.
    """
    plus = sample.plus_counts()
    seen = np.bincount(plus)
    counts = np.flatnonzero(seen)
    lw = _log_posterior_rows(model, counts, sample.n)
    totals = _logsumexp(lw)
    if not np.isfinite(totals).all():
        raise ValueError("zero-probability protocol has no posterior")
    norm = lw - totals[:, None]
    w = np.exp(norm)
    table = np.zeros(seen.size)
    table[counts] = -_xlog_weights(w, norm).sum(axis=1) / LN2
    return table[plus]


def relative_entropy(model: DeFinettiModel, nu1: int, nu2: int) -> float:
    """Click-distribution divergence sigma(nu1 || nu2) in bits.

    Nonnegative, zero exactly when the two click distributions coincide, and
    +inf when nu1 puts weight where nu2 puts none.
    """
    H = model.num_hypotheses
    if not (0 <= nu1 < H and 0 <= nu2 < H):
        raise IndexError(f"hypothesis labels must lie in 0..{H - 1}")
    return _kl_bernoulli_bits(float(model.p_plus[nu1]), float(model.p_plus[nu2]))


def _kl_bernoulli_bits(p: float, q: float) -> float:
    """Divergence of the click distribution p(+1) = p from p(+1) = q, in bits."""
    total = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * (math.log2(a) - math.log2(b))
    return max(total, 0.0)


def log_band_mass(n: int, epsilon: float, center: float, q: float) -> float:
    """log of the exact binomial mass of {k : |k/n - center| < epsilon} under q.

    Clamped at 0: rounding can push a band that holds all the mass just above
    it.  The scalar case of ``log_band_masses``.
    """
    return log_band_masses(n, epsilon, [center], [q])[0][0]


@dataclass(frozen=True)
class SanovRow:
    n: int
    epsilon: float
    mass: float
    log_mass: float
    empirical_rate: float
    band_kl_rate: float
    sigma_rate: float


@dataclass(frozen=True, eq=False)
class SanovReport:
    """Exact cross-band masses against their large-deviation decay rates.

    Rates are in nats per click.  ``empirical_rate`` is -log(mass)/n,
    ``band_kl_rate`` the divergence minimized over the band (the tight
    decay constant), and ``sigma_rate`` the full divergence between the two
    hypotheses.  ``prefactor`` is the smallest C with
    mass <= C * exp(-n * sigma_rate) across all tabulated n, a descriptive
    number.  ``certified`` is the Chernoff bound: every row has
    log_mass <= -n * band_kl_rate (within 1e-9 nats).
    """

    nu1: int
    nu2: int
    sigma_bits: float
    sigma_nats: float
    rows: tuple[SanovRow, ...]
    prefactor: float
    certified: bool


def sanov_check(model: DeFinettiModel, nu1: int, nu2: int,
                ns: Sequence[int], exponent: float = DECAY_EXPONENT) -> SanovReport:
    """Tabulate the exact mass of nu1's band under nu2 and certify its decay.

    The band around p(+1|nu1) with half-width n**(-exponent) must stay below
    half the click-probability gap (otherwise it is rejected); the mass is
    an exact binomial sum carried in log space, so rates remain meaningful
    far below the smallest positive float.
    """
    sigma_bits = relative_entropy(model, nu1, nu2)
    sigma_nats = sigma_bits * LN2
    half_gap = model.kappa / 2.0
    p1 = float(model.p_plus[nu1])
    q = float(model.p_plus[nu2])

    rows = []
    for n in ns:
        n = int(n)
        if n < 1:
            raise ValueError(f"protocol length must be positive, got {n}")
        eps = float(n) ** (-exponent)
        if eps >= half_gap:
            raise ValueError(
                f"band half-width {eps:.4g} at n={n} reaches half the "
                f"click-probability gap {model.kappa:.4g}; bands would overlap")
        log_mass = log_band_mass(n, eps, p1, q)
        mass = math.exp(log_mass)
        empirical_rate = -log_mass / n
        f_star = min(max(q, p1 - eps), p1 + eps)
        f_star = min(max(f_star, 0.0), 1.0)
        band_kl = _kl_bernoulli_bits(f_star, q) * LN2
        rows.append(SanovRow(n, eps, mass, log_mass, empirical_rate,
                             band_kl, sigma_nats))

    if not rows:
        raise ValueError("need at least one protocol length")
    log_c = max(r.log_mass + r.n * r.sigma_rate for r in rows)
    try:
        prefactor = math.exp(log_c)
    except OverflowError:       # log_c > 709.78: C is past the largest float
        prefactor = math.inf
    certified = all(r.log_mass <= -r.n * r.band_kl_rate + 1e-9 for r in rows)
    return SanovReport(int(nu1), int(nu2), sigma_bits, sigma_nats,
                       tuple(rows), prefactor, certified)


class PairRate(NamedTuple):
    nu1: int
    nu2: int
    sigma_bits: float


@dataclass(frozen=True, eq=False)
class DetectionTime:
    """Detection time scale tau/sigma_min with its calibration scan.

    ``n_star`` is the smallest protocol length at which every cross-band
    mass drops to the calibration threshold, using the widest admissible
    band when the schedule would overflow half the gap; n_star clicks take
    n_star * tau time units, the quantity the scale estimates.
    """

    tau: float
    sigma_min_bits: float
    time_scale: float
    pairs: tuple[PairRate, ...]
    n_star: int
    n_star_epsilon: float
    n_star_mass: float
    threshold: float


def detection_time(model: DeFinettiModel, threshold: float = math.exp(-1.0),
                   exponent: float = DECAY_EXPONENT,
                   max_n: int = 100_000) -> DetectionTime:
    """Time scale for the click record to single out one hypothesis.

    sigma_min is the smallest divergence over ordered hypothesis pairs (in
    bits) and the scale is tau/sigma_min; identical click distributions are
    rejected as indistinguishable.  The companion n_star scan reports how
    many clicks push the worst misclassification mass below the threshold.
    """
    H = model.num_hypotheses
    if H < 2:
        raise ValueError("need at least two hypotheses to detect anything")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"calibration threshold must lie in (0, 1), got {threshold!r}")
    pairs = tuple(PairRate(i, j, relative_entropy(model, i, j))
                  for i in range(H) for j in range(H) if i != j)
    sigma_min = min(r.sigma_bits for r in pairs)
    if sigma_min == 0.0:
        raise ValueError("indistinguishable hypotheses: two click distributions coincide")
    time_scale = model.tau / sigma_min

    ceiling = np.nextafter(model.kappa / 2.0, 0.0)
    n_star = n_star_eps = n_star_mass = None
    for n in range(1, max_n + 1):
        eps = min(float(n) ** (-exponent), ceiling)
        log_masses = log_band_masses(n, eps, model.p_plus, model.p_plus)
        worst = max(math.exp(log_masses[i][j]) for i, j, _ in pairs)
        if worst <= threshold:
            n_star, n_star_eps, n_star_mass = n, eps, worst
            break
    if n_star is None:
        raise RuntimeError(f"no protocol length up to {max_n} reaches the threshold")
    return DetectionTime(model.tau, sigma_min, time_scale, pairs,
                         n_star, n_star_eps, n_star_mass, threshold)


def commuting_realization(model: DeFinettiModel, n: int,
                          max_dim: int = 4096) -> tuple[HeisenbergFrame, DensityState]:
    """Diagonal operator model whose ordered-product history measure is the mixture.

    Basis states are pairs (nu, s) of a latent label and a full click word
    s in {+1,-1}^n; the state is diagonal with entries pi(nu) times the
    word's product probability, and the step-k outcome partition reads off
    the k-th letter.  Everything commutes, so the sequential measure of any
    prefix equals the exchangeable mixture probability exactly.  Frame times
    are tau, 2*tau, ..., n*tau.

    The model is built and validated on diagonals, and its propagators are
    identities held as None, so no dim x dim array exists: memory is O(dim * n)
    and ``lsw_probability`` and ``consistency_check`` stay on the diagonals.
    The dense matrices (``state.matrix``, each partition's ``projections``,
    ``frame.propagators``) are materialized only when first read, as by
    detection, the trajectory sampler or conjugation.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one click")
    H = model.num_hypotheses
    dim = H * (1 << n)
    if dim > max_dim:
        raise ValueError(
            f"realization dimension {dim} exceeds the {max_dim} cap; "
            "lower n or raise max_dim")

    words = np.arange(1 << n)
    bits = (words[:, None] >> np.arange(n)[None, :]) & 1      # bit k = click k
    diag = np.empty(dim)
    for nu in range(H):
        probs = np.where(bits == 1, model.p_plus[nu], model.p_minus[nu]).prod(axis=1)
        diag[nu << n:(nu + 1) << n] = model.weights[nu] * probs
    state = DensityState(diag.astype(complex))

    partitions = []
    for k in range(n):
        plus_bit = np.tile(bits[:, k], H).astype(complex)
        partitions.append((PartitionOfUnity((1, -1), (plus_bit, 1.0 - plus_bit)),))

    times = tuple(model.tau * (k + 1) for k in range(n))
    frame = HeisenbergFrame(times, None, tuple(partitions), (None,) * n)
    return frame, state
