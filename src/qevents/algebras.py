"""Finite-dimensional *-algebras of matrices, represented by spanning bases.

An algebra is stored as a Hilbert-Schmidt orthonormal basis of its linear
span.  Closure under products and adjoints is a property of the span, not of
the basis list, and is established by ``generate_algebra`` and preserved by
``commutant`` and ``center``.  Rank decisions (nullspaces, span intersections)
use a singular-value cutoff relative to the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .operators import (DEGENERACY_TOL, _checked_norm, adjoint, as_operator,
                        operator_to_json, operator_from_json, spectral_decompose)

# Relative singular-value cutoff for rank decisions.
RANK_RCOND = 1e-10

# Tolerance for span membership and span equality checks.
SPAN_TOL = 1e-8

__all__ = [
    "RANK_RCOND",
    "SPAN_TOL",
    "FiniteAlgebra",
    "SpanContainment",
    "full_matrix_algebra",
    "diagonal_algebra",
    "generate_algebra",
    "contains",
    "commutant",
    "center",
    "minimal_projections",
    "is_maximal_abelian",
    "equal_span",
    "algebra_to_json",
    "algebra_from_json",
]


def _vec(ops) -> np.ndarray:
    """Stack matrices as rows of a (k, dim^2) coefficient array."""
    return np.stack([np.asarray(A, dtype=complex).reshape(-1) for A in ops])


def _unvec(rows: np.ndarray, dim: int):
    return tuple(row.reshape(dim, dim).copy() for row in rows)


def _orthonormal_rows(rows: np.ndarray, rcond: float = RANK_RCOND) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span, via rank-revealing SVD."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return rows[:0]
    keep = s > rcond * s[0]
    return vh[keep]


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """Span of a Hilbert-Schmidt orthonormal family of dim x dim matrices.

    Structure that depends on the span alone is computed on first use and
    cached on the instance with ``functools.cached_property``; the basis is
    fixed at construction, so a cached value never goes stale.  Currently
    cached: ``minimal_central_projections``.
    """

    dim: int
    basis: tuple[np.ndarray, ...]
    contains_identity: bool

    def __post_init__(self):
        object.__setattr__(self, "basis",
                           tuple(as_operator(B, self.dim) for B in self.basis))
        if len(self.basis) == 0:
            raise ValueError("algebra needs at least one basis element")
        G = _vec(self.basis)
        gram = G @ G.conj().T
        r = np.abs(gram - np.eye(len(self.basis))).max()
        if r > 1e-8:
            raise InvariantViolation(f"basis is not HS-orthonormal: Gram residual {r:.3e}")

    @property
    def algebra_dim(self) -> int:
        """Linear dimension of the span."""
        return len(self.basis)

    @cached_property
    def minimal_central_projections(self) -> tuple[np.ndarray, ...]:
        """Minimal projections of the center, the z_i of A = (+)_i M_{n_i} (x) 1_{m_i}.

        The full matrix algebra is a factor: its only one is the identity.
        """
        if self.algebra_dim == self.dim * self.dim:
            return (np.eye(self.dim, dtype=complex),)
        return minimal_projections(center(self))

    @classmethod
    def from_span(cls, ops, dim: int | None = None, validate: bool = True,
                  tol: float = SPAN_TOL) -> "FiniteAlgebra":
        """Orthonormalize a spanning family and wrap it as an algebra.

        With ``validate`` the span is checked to be closed under adjoints and
        products, which a raw spanning list need not be.
        """
        ops = [as_operator(A, dim) for A in ops]
        if not ops:
            raise ValueError("empty spanning family")
        d = ops[0].shape[0]
        rows = _orthonormal_rows(_vec(ops))
        if rows.shape[0] == 0:
            raise ValueError("spanning family is numerically zero")
        basis = _unvec(rows, d)
        alg = cls(d, basis, _span_residual_single(rows, np.eye(d)) <= tol)
        if validate:
            _check_closure(alg, tol)
        return alg


def _span_residual_single(basis_rows: np.ndarray, X: np.ndarray) -> float:
    """HS norm of the component of X orthogonal to the row span."""
    v = np.asarray(X, dtype=complex).reshape(-1)
    coeff = basis_rows.conj() @ v
    resid = v - basis_rows.T @ coeff
    return float(np.linalg.norm(resid))


def _check_closure(alg: FiniteAlgebra, tol: float) -> None:
    rows = _vec(alg.basis)
    for k, B in enumerate(alg.basis):
        r = _span_residual_single(rows, adjoint(B))
        if r > tol:
            raise InvariantViolation(f"span not *-closed: adjoint of basis {k} exits by {r:.3e}")
    m = len(alg.basis)
    stacked = np.stack(alg.basis)
    prods = np.einsum("aij,bjk->abik", stacked, stacked).reshape(m * m, alg.dim * alg.dim)
    coeff = prods @ rows.conj().T
    resid = prods - coeff @ rows
    worst = float(np.linalg.norm(resid, axis=1).max())
    if worst > tol:
        raise InvariantViolation(f"span not multiplicatively closed: product exits by {worst:.3e}")


def full_matrix_algebra(dim: int) -> FiniteAlgebra:
    """All dim x dim matrices, with the matrix-unit orthonormal basis."""
    basis = []
    for i in range(dim):
        for j in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[i, j] = 1.0
            basis.append(E)
    return FiniteAlgebra(dim, tuple(basis), True)


def diagonal_algebra(dim: int) -> FiniteAlgebra:
    basis = []
    for i in range(dim):
        E = np.zeros((dim, dim), dtype=complex)
        E[i, i] = 1.0
        basis.append(E)
    return FiniteAlgebra(dim, tuple(basis), True)


def generate_algebra(generators, dim: int | None = None,
                     rcond: float = RANK_RCOND) -> FiniteAlgebra:
    """Smallest *-closed, identity-containing, multiplicatively closed span
    containing the generators.

    Iterates product/adjoint closure with re-orthonormalization until the
    span dimension stabilizes.  The dimension grows strictly every round, so
    at most dim^2 rounds can occur; exceeding that indicates a numerical
    degeneracy and raises.
    """
    gens = [as_operator(G, dim) for G in generators]
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].shape[0]
    seed = gens + [adjoint(G) for G in gens] + [np.eye(d, dtype=complex)]
    rows = _orthonormal_rows(_vec(seed), rcond)
    for _ in range(d * d + 1):
        m = rows.shape[0]
        mats = np.stack(_unvec(rows, d))
        prods = np.einsum("aij,bjk->abik", mats, mats).reshape(m * m, d * d)
        adjs = np.conjugate(mats).transpose(0, 2, 1).reshape(m, d * d)
        new_rows = _orthonormal_rows(np.vstack([rows, prods, adjs]), rcond)
        if new_rows.shape[0] == m:
            return FiniteAlgebra(d, _unvec(new_rows, d), True)
        rows = new_rows
    raise InvariantViolation("algebra closure did not stabilize within dim^2 rounds")


class SpanContainment(NamedTuple):
    inside: bool
    residual: float


def contains(algebra: FiniteAlgebra, X: np.ndarray, tol: float = SPAN_TOL) -> SpanContainment:
    """Whether X lies in the algebra's span, with the HS residual."""
    X = as_operator(X, algebra.dim)
    r = _span_residual_single(_vec(algebra.basis), X)
    return SpanContainment(r <= tol, r)


def commutant(algebra: FiniteAlgebra, rcond: float = RANK_RCOND) -> FiniteAlgebra:
    """Relative commutant in the full matrix algebra.

    Solves [B, X] = 0 for every basis element B as one stacked linear map on
    vectorized X; the nullspace rows come out HS-orthonormal.  The result is
    automatically an identity-containing *-algebra.
    """
    d = algebra.dim
    eye = np.eye(d)
    blocks = []
    for B in algebra.basis:
        # row-major vec: vec(BX - XB) = (B (x) 1 - 1 (x) B^T) vec(X)
        blocks.append(np.kron(B, eye) - np.kron(eye, B.T))
    M = np.vstack(blocks)
    # M has at least as many rows as columns, so the thin vh is still square
    # and spans all of C^(d^2); the full U would be (m d^2)^2 entries
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    # floor the reference scale at 1: the basis is HS-normalized, so an
    # all-noise constraint matrix (everything commutes) must have rank 0
    cutoff = rcond * max(s[0], 1.0) if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    null_rows = vh[rank:].conj()
    if null_rows.shape[0] == 0:
        raise InvariantViolation("commutant computation produced an empty span")
    return FiniteAlgebra(d, _unvec(null_rows, d), True)


def _intersection_rows(rows_a: np.ndarray, rows_b: np.ndarray,
                       rcond: float = RANK_RCOND) -> np.ndarray:
    """Orthonormal rows spanning the intersection of two row spans."""
    # Pairs (x, y) with A^T x = B^T y make up the nullspace of [A^T, -B^T].
    stacked = np.hstack([rows_a.T, -rows_b.T])
    _, s, vh = np.linalg.svd(stacked)
    cutoff = rcond * max(s[0], 1.0) if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    null = vh[rank:].conj()
    if null.shape[0] == 0:
        return rows_a[:0]
    vecs = null[:, : rows_a.shape[0]] @ rows_a
    return _orthonormal_rows(vecs, rcond)


def center(algebra: FiniteAlgebra, rcond: float = RANK_RCOND) -> FiniteAlgebra:
    """Intersection of the algebra with its commutant."""
    rows = _vec(algebra.basis)
    comm_rows = _vec(commutant(algebra, rcond).basis)
    inter = _intersection_rows(rows, comm_rows, rcond)
    if inter.shape[0] == 0:
        raise InvariantViolation("center computation produced an empty span")
    return FiniteAlgebra(algebra.dim, _unvec(inter, algebra.dim), True)


def minimal_projections(algebra: FiniteAlgebra,
                        degeneracy_tol: float = DEGENERACY_TOL,
                        tol: float = SPAN_TOL) -> tuple[np.ndarray, ...]:
    """Minimal projections of an abelian algebra containing the identity.

    A generic Hermitian element of the algebra separates the atoms; its
    clustered eigenprojections are exactly the minimal projections.  The
    draw is retried with fresh deterministic coefficients if an unlucky
    combination merges two atoms.
    """
    m = algebra.algebra_dim
    herms = []
    for B in algebra.basis:
        herms.append((B + adjoint(B)) / 2.0)
        herms.append((B - adjoint(B)) / 2.0j)
    for A in algebra.basis:
        for B in algebra.basis:
            if _checked_norm(A @ B - B @ A, tol) > tol:
                raise InvariantViolation("minimal projections need an abelian algebra")
    rows = _vec(algebra.basis)
    for attempt in range(8):
        rng = np.random.default_rng(attempt)
        G = np.zeros((algebra.dim, algebra.dim), dtype=complex)
        for c, H in zip(rng.standard_normal(len(herms)), herms):
            G += c * H
        dec = spectral_decompose(G, degeneracy_tol=degeneracy_tol)
        if len(dec.projections) != m:
            continue
        if all(_span_residual_single(rows, P) <= tol for P in dec.projections):
            return dec.projections
    raise InvariantViolation("could not resolve the minimal projections")


def equal_span(a: FiniteAlgebra, b: FiniteAlgebra, tol: float = SPAN_TOL) -> tuple[bool, float]:
    """Mutual-containment test of two spans; returns (equal, worst residual)."""
    if a.dim != b.dim:
        raise ValueError("algebras live on different dimensions")
    rows_a, rows_b = _vec(a.basis), _vec(b.basis)
    worst = 0.0
    for row in rows_a:
        worst = max(worst, _span_residual_single(rows_b, row.reshape(a.dim, a.dim)))
    for row in rows_b:
        worst = max(worst, _span_residual_single(rows_a, row.reshape(a.dim, a.dim)))
    return worst <= tol, worst


def is_maximal_abelian(algebra: FiniteAlgebra, ambient: FiniteAlgebra,
                       tol: float = SPAN_TOL) -> bool:
    """Whether ``algebra`` is abelian and equals its relative commutant in ``ambient``."""
    if algebra.dim != ambient.dim:
        raise ValueError("algebras live on different dimensions")
    for B in algebra.basis:
        ok, r = contains(ambient, B, tol)
        if not ok:
            raise InvariantViolation(f"algebra not inside ambient: residual {r:.3e}")
    for i, A in enumerate(algebra.basis):
        for B in algebra.basis[i + 1:]:
            if np.linalg.norm(A @ B - B @ A) > tol:
                return False
    rel_rows = _intersection_rows(_vec(commutant(algebra).basis), _vec(ambient.basis))
    if rel_rows.shape[0] != algebra.algebra_dim:
        return False
    relative = FiniteAlgebra(algebra.dim, _unvec(rel_rows, algebra.dim), True)
    equal, _ = equal_span(algebra, relative, tol)
    return equal


def algebra_to_json(algebra: FiniteAlgebra) -> dict:
    return {
        "dim": algebra.dim,
        "basis": [operator_to_json(B) for B in algebra.basis],
    }


def algebra_from_json(obj: dict) -> FiniteAlgebra:
    try:
        dim = int(obj["dim"])
        basis = [operator_from_json(b) for b in obj["basis"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra object: {exc}") from exc
    return FiniteAlgebra.from_span(basis, dim=dim, validate=False)
