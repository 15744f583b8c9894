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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .events import HeisenbergFrame
from .operators import DensityState, PartitionOfUnity
from .seeding import substream

# scipy (logsumexp, xlogy, binom) is imported inside the functions that use
# it: loading it takes most of a second, which commands that never touch the
# mixture statistics should not pay.

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
    "posterior",
    "posterior_entropies",
    "relative_entropy",
    "sanov_check",
    "detection_time",
    "log_band_mass",
    "commuting_realization",
]

SIMPLEX_TOL = 1e-12
#: default frequency-band half-width schedule exponent for classification
CLASSIFICATION_EXPONENT = 1.0 / 3.0
#: sharper schedule used for decay-rate studies
DECAY_EXPONENT = 0.45

LN2 = math.log(2.0)


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
        return cls(int(n), float(n) ** (-exponent))


@dataclass(frozen=True, eq=False)
class ProtocolSample:
    """Batch of sampled protocols: outcome matrix (+1/-1) plus latent labels."""

    outcomes: np.ndarray
    latent: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.outcomes)
        v = np.asarray(self.latent)
        if o.ndim != 2 or v.ndim != 1 or o.shape[0] != v.shape[0]:
            raise ValueError("outcomes must be (count, n) with one latent label per row")
        object.__setattr__(self, "outcomes", o)
        object.__setattr__(self, "latent", v)

    def __len__(self) -> int:
        return self.outcomes.shape[0]

    @property
    def count(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n(self) -> int:
        return self.outcomes.shape[1]

    def protocol(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.outcomes[i])

    def plus_counts(self) -> np.ndarray:
        return (self.outcomes == 1).sum(axis=1)

    def frequencies(self) -> np.ndarray:
        """Per-protocol frequency of the outcome +1."""
        if self.n == 0:
            raise ValueError("frequency of an empty protocol is undefined")
        return self.plus_counts() / self.n


def sample_protocols(model: DeFinettiModel, n: int, count: int,
                     seed: int = 0, stream: int = 0) -> ProtocolSample:
    """Draw ``count`` protocols of length ``n``: latent nu ~ prior, clicks i.i.d.

    Exchangeability holds by construction, and output is deterministic per
    (seed, stream).  Sampling is chunked internally to bound the transient
    uniform-draw buffer, with a chunk layout that depends only on n.
    """
    n = int(n)
    count = int(count)
    if n < 0 or count < 0:
        raise ValueError("n and count must be nonnegative")
    rng = substream(seed, stream)
    w = model.weights / model.weights.sum()
    latent = rng.choice(model.num_hypotheses, size=count, p=w)
    outcomes = np.empty((count, n), dtype=np.int8)
    rows = max(1, int(4_000_000 // max(n, 1)))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        u = rng.random((stop - start, n))
        thresholds = model.p_plus[latent[start:stop]][:, None]
        outcomes[start:stop] = np.where(u < thresholds, 1, -1)
    return ProtocolSample(outcomes, latent.astype(np.int64))


def _as_outcome_array(protocol) -> np.ndarray:
    arr = np.asarray(protocol)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError("a protocol is a 1-D sequence of +1/-1 outcomes")
    if arr.size and not np.isin(arr, (-1, 1)).all():
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
    msg = _overlap_message(model, band)
    if msg:
        warnings.warn(msg, stacklevel=3)
    return np.abs(freqs[:, None] - model.p_plus[None, :]) < band.epsilon


def classify_frequencies(freqs, model: DeFinettiModel,
                         band: ClassificationBand) -> np.ndarray:
    """Classify +1 frequencies into hypothesis bands; -1 marks unclassified.

    A frequency is classified when it falls inside exactly one open band;
    frequencies in zero bands or (when bands overlap) in several count as
    unclassified.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
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
    exact columns quantify how far short the bands fall.
    """
    from scipy.stats import binom

    n = int(n)
    band = ClassificationBand.from_schedule(n, exponent)
    H = model.num_hypotheses
    msg = _overlap_message(model, band)
    if msg:
        warnings.warn(msg, stacklevel=2)

    ks = np.arange(n + 1)
    fgrid = ks / n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        matches = _band_matches(fgrid, model, band)        # (n+1, H)
    hits = matches.sum(axis=1)
    unique = hits == 1
    pmf = np.stack([binom.pmf(ks, n, p) for p in model.p_plus])  # (H, n+1)
    mixture_pmf = model.weights @ pmf                             # (n+1,)
    exact_mass = {nu: float(mixture_pmf @ (matches[:, nu] & unique))
                  for nu in range(H)}
    exact_coverage = float(mixture_pmf @ unique)
    exact_ambiguous = float(mixture_pmf @ (hits > 1))

    if count == 0:
        return BornExperiment(band, 0, None, None, None,
                              exact_mass, exact_coverage, exact_ambiguous, None)

    sample = sample_protocols(model, n, count, seed)
    freqs = sample.frequencies()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = _band_matches(freqs, model, band)
    h = m.sum(axis=1)
    labels = np.where(h == 1, m.argmax(axis=1), -1)
    empirical = {nu: float((labels == nu).mean()) for nu in range(H)}
    coverage = float((labels >= 0).mean())
    ambiguous = float((h > 1).mean())
    return BornExperiment(band, count, empirical, coverage, ambiguous,
                          exact_mass, exact_coverage, exact_ambiguous, sample)


class Posterior(NamedTuple):
    weights: dict[int, float]
    entropy_bits: float


def _log_posterior_rows(model: DeFinettiModel, plus_counts: np.ndarray,
                        n: int) -> np.ndarray:
    from scipy.special import xlogy

    ks = np.asarray(plus_counts, dtype=float)[:, None]
    ms = n - ks
    with np.errstate(divide="ignore"):
        log_prior = np.log(model.weights)[None, :]
    return log_prior + xlogy(ks, model.p_plus) + xlogy(ms, model.p_minus)


def posterior(model: DeFinettiModel, protocol) -> Posterior:
    """Bayes posterior over the latent label given a protocol, with entropy in bits.

    The empty protocol returns the prior.  A protocol every hypothesis gives
    probability zero is an error.
    """
    from scipy.special import logsumexp

    arr = _as_outcome_array(protocol)
    k = int((arr == 1).sum())
    lw = _log_posterior_rows(model, np.array([k]), arr.size)[0]
    total = logsumexp(lw)
    if not np.isfinite(total):
        raise ValueError("zero-probability protocol has no posterior")
    norm = lw - total
    w = np.exp(norm)
    entropy = float(-np.where(w > 0, w * norm, 0.0).sum() / LN2)
    return Posterior({nu: float(w[nu]) for nu in range(w.size)}, entropy)


def posterior_entropies(model: DeFinettiModel, sample: ProtocolSample) -> np.ndarray:
    """Posterior entropy in bits for every protocol of a sample, vectorized."""
    from scipy.special import logsumexp

    lw = _log_posterior_rows(model, sample.plus_counts(), sample.n)
    totals = logsumexp(lw, axis=1)
    if not np.isfinite(totals).all():
        raise ValueError("zero-probability protocol has no posterior")
    norm = lw - totals[:, None]
    w = np.exp(norm)
    return -np.where(w > 0, w * norm, 0.0).sum(axis=1) / LN2


def relative_entropy(model: DeFinettiModel, nu1: int, nu2: int) -> float:
    """Click-distribution divergence sigma(nu1 || nu2) in bits.

    Nonnegative, zero exactly when the two click distributions coincide, and
    +inf when nu1 puts weight where nu2 puts none.
    """
    H = model.num_hypotheses
    if not (0 <= nu1 < H and 0 <= nu2 < H):
        raise IndexError(f"hypothesis labels must lie in 0..{H - 1}")
    p, q = float(model.p_plus[nu1]), float(model.p_plus[nu2])
    total = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * (math.log2(a) - math.log2(b))
    return max(total, 0.0)


def log_band_mass(n: int, epsilon: float, center: float, q: float) -> float:
    """log of the exact binomial mass of {k : |k/n - center| < epsilon} under q."""
    from scipy.special import logsumexp
    from scipy.stats import binom

    ks = np.arange(n + 1)
    mask = np.abs(ks / n - center) < epsilon
    if not mask.any():
        return -math.inf
    return float(logsumexp(binom.logpmf(ks[mask], n, q)))


def _kl_bernoulli_nats(f: float, q: float) -> float:
    total = 0.0
    for a, b in ((f, q), (1.0 - f, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * math.log(a / b)
    return max(total, 0.0)


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
    mass <= C * exp(-n * sigma_rate) across all tabulated n.
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
        mass = math.exp(log_mass) if log_mass > -math.inf else 0.0
        empirical_rate = -log_mass / n
        f_star = min(max(q, p1 - eps), p1 + eps)
        f_star = min(max(f_star, 0.0), 1.0)
        band_kl = _kl_bernoulli_nats(f_star, q)
        rows.append(SanovRow(n, eps, mass, log_mass, empirical_rate,
                             band_kl, sigma_nats))

    if not rows:
        raise ValueError("need at least one protocol length")
    log_c = max(r.log_mass + r.n * r.sigma_rate for r in rows)
    prefactor = math.exp(log_c) if log_c > -math.inf else 0.0
    certified = all(r.log_mass <= log_c - r.n * r.sigma_rate + 1e-9 for r in rows)
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
        worst = max(math.exp(log_band_mass(n, eps, float(model.p_plus[i]),
                                            float(model.p_plus[j])))
                    for i, j, _ in pairs)
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
    state = DensityState(np.diag(diag.astype(complex)))

    partitions = []
    for k in range(n):
        plus_bit = np.tile(bits[:, k], H).astype(complex)
        P_plus = np.diag(plus_bit)
        P_minus = np.diag(1.0 - plus_bit)
        partitions.append((PartitionOfUnity((1, -1), (P_plus, P_minus)),))

    times = tuple(model.tau * (k + 1) for k in range(n))
    eye = np.eye(dim, dtype=complex)
    frame = HeisenbergFrame(times, tuple(eye for _ in range(n)),
                            tuple(partitions), (None,) * n)
    return frame, state
