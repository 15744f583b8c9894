"""Reference values computed by the benchmark itself, independently of qevents.

Each function here re-derives a quantity the package computes, from its
mathematical definition and with plain numpy, so a change to the package that
alters an answer shows up as a failed op:

* ``gated_trajectory`` replays ``run_trajectory(..., require_detection=True)``
  for the benchmark's frames.  Their ambients are the full matrix algebra or
  the diagonal algebra, where the minimal projections of the center of the
  state's centralizer are known in closed form: the clustered
  eigenprojections of the state (full access) or the diagonal matrix units
  (diagonal access).
* ``step_marginals`` gives the per-time outcome marginals of the
  unconditional history measure, the expected histogram of
  ``cli.cmd_trajectory`` with ``require_detection: false``.
* ``band_masses`` gives the exact band masses and coverage of
  ``mesoscopic.born_rule_experiment`` from exact binomial sums.
"""

from __future__ import annotations

import math

import numpy as np

# Constants of the contract being checked (qevents' documented defaults).
DEFAULT_TOL = 1e-9
DEGENERACY_TOL = 1e-8
SAFETY = 0.5
CLASSIFICATION_EXPONENT = 1.0 / 3.0


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """The package's documented stream: Philox keyed by (seed, stream)."""
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _eigen_atoms(Q: np.ndarray) -> list[np.ndarray]:
    vals, vecs = np.linalg.eigh((Q + Q.conj().T) / 2.0)
    clusters = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[clusters[-1][-1]] <= DEGENERACY_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return [vecs[:, idx] @ vecs[:, idx].conj().T for idx in clusters]


def _center_atoms(Q: np.ndarray, diagonal_access: bool) -> list[np.ndarray]:
    """Minimal projections of the center of the centralizer of Q's state."""
    d = Q.shape[0]
    if diagonal_access:
        out = []
        for i in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, i] = 1.0
            out.append(E)
        return out
    return _eigen_atoms(Q)


def _distance(rho: np.ndarray, atoms, P: np.ndarray) -> float:
    """|| E(P) - P || for the conditional expectation onto span(atoms)."""
    ce = np.zeros_like(P)
    for z in atoms:
        w = float(np.real(np.trace(rho @ z)))
        block = z @ P @ z
        if w > DEFAULT_TOL:
            c = complex(np.trace(rho @ block)) / w
        else:
            c = complex(np.trace(block)) / float(np.real(np.trace(z)))
        ce += c * z
    return float(np.linalg.norm(ce - P, 2))


def gated_trajectory(rho, times, stacks, diagonal, record, traj_seed: int) -> dict:
    """Expected branch log of one detection-gated trajectory.

    ``rho`` is the initial density matrix, ``stacks[k]`` the projections at
    ``times[k]`` (outcomes along axis 0), ``diagonal[k]`` whether access at
    that time is restricted to the diagonal algebra, and ``record(t)`` the
    record policy.
    """
    rng = philox(traj_seed)
    rho = rho.copy()
    fired, outcomes, probs, dists = [], [], [], []
    for t, stack, diag in zip(times, stacks, diagonal):
        Q = np.diag(np.diag(rho)).astype(complex) if diag else rho
        atoms = _center_atoms(Q, diag)
        # the ambient sees its representative Q, the functional is still rho
        distance = max(_distance(rho, atoms, P) for P in stack)
        w = [float(np.real(np.trace(rho @ P))) for P in stack]
        gap = min(abs(a - b) for i, a in enumerate(w) for b in w[i + 1:])
        happened = gap > DEFAULT_TOL and distance <= SAFETY * gap / len(stack)
        dists.append(distance)
        fired.append(happened)
        if not happened:
            outcomes.append(None)
            probs.append(None)
            continue
        weights = np.einsum("ab,nba->n", rho, stack).real
        np.clip(weights, 0.0, None, out=weights)
        cum = np.cumsum(weights)
        idx = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")),
                  len(cum) - 1)
        outcomes.append(idx)
        probs.append(float(weights[idx] / cum[-1]))
        if record(t):
            P = stack[idx]
            rho = P @ rho @ P / weights[idx]
        else:
            rho = sum(Pj @ rho @ Pj for Pj in stack)
    return {"fired": fired, "outcomes": outcomes, "probabilities": probs,
            "distances": dists}


def step_marginals(rho: np.ndarray, stacks) -> list[np.ndarray]:
    """Outcome marginals at each time of the unconditional history measure."""
    out = []
    sigma = rho
    for stack in stacks:
        out.append(np.einsum("ab,nba->n", sigma, stack).real)
        sigma = sum(P @ sigma @ P for P in stack)
    return out


def _binomial_pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def band_masses(weights, p_plus, n: int,
                exponent: float = CLASSIFICATION_EXPONENT) -> tuple[list[float], float]:
    """Exact per-hypothesis band masses and coverage at protocol length n."""
    eps = float(n) ** (-exponent)
    H = len(p_plus)
    pmfs = [_binomial_pmf(n, float(p)) for p in p_plus]
    mixture = [sum(weights[h] * pmfs[h][k] for h in range(H)) for k in range(n + 1)]
    mass = [0.0] * H
    coverage = 0.0
    for k in range(n + 1):
        inside = [h for h in range(H) if abs(k / n - p_plus[h]) < eps]
        if len(inside) == 1:
            mass[inside[0]] += mixture[k]
            coverage += mixture[k]
    return mass, coverage


def hoeffding(samples: int, delta: float = 1e-9) -> float:
    """Two-sided deviation bound of a [0, 1]-valued sample mean at level delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def tv_bound(leaves: int, samples: int, delta: float = 1e-9) -> float:
    """Bound on the TV distance of an empirical measure over ``leaves`` cells.

    The L1 deviation exceeds 2*eps with probability at most
    2**leaves * exp(-2 * samples * eps**2) (Bretagnolle-Huber-Carol).
    """
    return math.sqrt((leaves * math.log(2.0) + math.log(1.0 / delta)) / (2.0 * samples))
