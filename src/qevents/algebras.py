"""Finite-dimensional *-algebras of matrices, stored in Wedderburn form.

Every *-algebra of dim x dim matrices is A = V ((+)_i M_{n_i} (x) 1_{m_i}
(+) 0_z) V* for a unitary V; z > 0 exactly when A lacks the identity.
``FiniteAlgebra`` stores V and the (n_i, m_i), and the rest is closed form:
the Hilbert-Schmidt projection (per block, in V's frame, the partial trace
over the multiplicity factor divided by m_i), the minimal central
projections (block indicators), ``commutant`` (n_i and m_i swap) and
``center`` (one block (1, n_i m_i) per block).

``from_span`` and ``generate_algebra`` find (V, blocks) once by
random-element block diagonalization (Murota, Kanno, Kojima & Kojima, Japan
J. Indust. Appl. Math. 27 (2010) 125-160; Maehara & Murota, ibid. 27 (2010)
263-293) and accept a span only if it equals the algebra recovered from it.
Orthonormalizing the span there is the only rank decision, a singular-value
cutoff relative to the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .operators import (DEFAULT_TOL, DEGENERACY_TOL, _chained_clusters, _unitarity_defect,
                        adjoint, as_operator, operator_to_json, operator_from_json)

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


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """The *-algebra V ((+)_i M_{n_i} (x) 1_{m_i} (+) 0) V* on C^dim.

    ``unitary`` is V, ``blocks`` the (n_i, m_i).  Block i owns the next
    n_i m_i columns of V, column a * m_i + mu holding matrix index a and
    multiplicity index mu; the columns left over span the zero block.
    Derived structure is cached on first use with ``cached_property`` (V and
    the blocks never change): ``basis``, ``minimal_central_projections`` and
    the block layout by shape, ``_groups``.
    """

    dim: int
    unitary: np.ndarray
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        V = as_operator(self.unitary, self.dim)
        blocks = tuple((int(n), int(m)) for n, m in self.blocks)
        if not blocks or min(map(min, blocks)) < 1 or sum(n * m for n, m in blocks) > self.dim:
            raise ValueError(f"blocks {blocks} are not positive sizes fitting in dimension {self.dim}")
        r = _unitarity_defect(V, DEFAULT_TOL)
        if r > DEFAULT_TOL:
            raise InvariantViolation(f"algebra frame is not unitary: ||V*V - 1|| = {r:.3e}")
        object.__setattr__(self, "unitary", V)
        object.__setattr__(self, "blocks", blocks)

    @property
    def algebra_dim(self) -> int:
        """Linear dimension, sum_i n_i^2."""
        return sum(n * n for n, _ in self.blocks)

    @property
    def contains_identity(self) -> bool:
        """Whether there is no zero block."""
        return sum(n * m for n, m in self.blocks) == self.dim

    def _block_frames(self) -> list[np.ndarray]:
        """V's columns of each block, as (dim, n_i, m_i) arrays."""
        frames, at = [], 0
        for n, m in self.blocks:
            frames.append(self.unitary[:, at:at + n * m].reshape(self.dim, n, m))
            at += n * m
        return frames

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        """HS-orthonormal matrix units V (e_ab (x) 1_m / sqrt(m)) V*, block by block."""
        units = [np.einsum("xam,ybm->abxy", W, W.conj()).reshape(-1, self.dim, self.dim)
                 / np.sqrt(W.shape[2]) for W in self._block_frames()]
        return tuple(np.concatenate(units))

    @cached_property
    def minimal_central_projections(self) -> tuple[np.ndarray, ...]:
        """The block indicators z_i, minimal projections of the center (1 for a factor)."""
        frames = [W.reshape(self.dim, -1) for W in self._block_frames()]
        return tuple(W @ adjoint(W) for W in frames)

    @cached_property
    def _groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block shape (n, m), in order of first appearance: the (g, n, m) columns
        of V its g blocks own and the (g, n, n, m) flat positions in V's frame
        of the m entries of each e_ab (x) 1_m."""
        groups: dict[tuple[int, int], list[np.ndarray]] = {}
        at = 0
        for n, m in self.blocks:
            groups.setdefault((n, m), []).append(at + np.arange(n * m).reshape(n, m))
            at += n * m
        stacks = (np.stack(g) for g in groups.values())
        return tuple((c, c[:, :, None, :] * self.dim + c[:, None, :, :]) for c in stacks)

    def _block_means(self, Y: np.ndarray) -> list[np.ndarray]:
        """Each group's blocks of Y, in V's frame and flattened, averaged over
        multiplicity: one (..., g, n, n) stack per group of ``_groups``."""
        return [Y[..., flat].mean(axis=-1) for _, flat in self._groups]

    def project(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Hilbert-Schmidt projection onto the algebra and the HS norm it removes.

        ``X`` is a matrix or a stack of matrices (the last two axes).  The
        full matrix algebra returns X itself with residual 0.
        """
        X = np.asarray(X, dtype=complex)
        lead = X.shape[:-2]
        if self.blocks == ((self.dim, 1),):
            return X, np.zeros(lead)
        V = self.unitary
        Y = (adjoint(V) @ X @ V).reshape(*lead, -1)
        Z = np.zeros_like(Y)
        for (_, flat), q in zip(self._groups, self._block_means(Y)):
            Z[..., flat] = q[..., None]
        residual = np.linalg.norm(Y - Z, axis=-1)
        return V @ Z.reshape(X.shape) @ adjoint(V), residual

    @classmethod
    def from_span(cls, ops, dim: int | None = None, tol: float = SPAN_TOL) -> "FiniteAlgebra":
        """The algebra spanned by a family of matrices.

        Raises ``InvariantViolation`` unless the span is closed under adjoints
        and products, to within ``tol`` per HS-normalized element.
        """
        ops = [as_operator(A, dim) for A in ops]
        if not ops:
            raise ValueError("empty spanning family")
        d = ops[0].shape[0]
        rows = _orthonormal_rows(_vec(ops))
        if rows.shape[0] == 0:
            raise ValueError("spanning family is numerically zero")
        return _recover(rows, d, tol)


def _vec(ops) -> np.ndarray:
    """Stack matrices as rows of a (k, dim^2) coefficient array."""
    return np.stack([np.asarray(A, dtype=complex).reshape(-1) for A in ops])


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span, via rank-revealing SVD."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[s > RANK_RCOND * s[0]]


def _recover(rows: np.ndarray, d: int, tol: float) -> FiniteAlgebra:
    """Wedderburn form of the span of HS-orthonormal ``rows``, or ``InvariantViolation``.

    Accepted when the recovered *-algebra has the span's dimension and
    contains its rows, which a span not closed under adjoints or products
    cannot pass.  An unlucky draw (merged eigenvalue clusters, a coupling
    lost in rounding) fails the same check and is retried.
    """
    k = rows.shape[0]
    mats = rows.reshape(k, d, d)
    found = "no block structure"
    for attempt in range(8):
        gen = np.random.default_rng(attempt)
        # complex coefficients: with real ones, real rows give a real symmetric
        # Hermitian part, whose eigenvalues can pair up by symmetry
        c = gen.standard_normal((2, k)) + 1j * gen.standard_normal((2, k))
        X, Y = (c @ rows).reshape(2, d, d)
        form = _block_diagonalize((X + adjoint(X)) / 2.0, Y, tol)
        if form is None:
            continue
        alg = FiniteAlgebra(d, *form)
        r = float(alg.project(mats)[1].max())
        if alg.algebra_dim == k and r <= tol:
            return alg
        found = f"dimension {alg.algebra_dim}, residual {r:.3e}"
    raise InvariantViolation(f"span of dimension {k} is not closed under adjoints and "
                             f"products: recovered {found}")


def _block_diagonalize(H: np.ndarray, Y: np.ndarray, tol: float):
    """(V, blocks) from a random Hermitian H and a random Y of one algebra, or None.

    H's eigenvalue clusters U_a (chained within ``DEGENERACY_TOL``, as in
    ``spectral_decompose``) are the minimal projections.  A nonzero block
    G_ab of G = U* Y U puts a and b in one matrix block, and U_b G_ba,
    rescaled to an isometry, is b's multiplicity basis aligned with a's.  A
    cluster that Y does not even couple to itself is the zero block.
    """
    vals, vecs = np.linalg.eigh(H)
    starts = np.flatnonzero(_chained_clusters(vals, np.ones(len(vals)), DEGENERACY_TOL)[0])
    clusters = [slice(a, b) for a, b in zip(starts, [*starts[1:], len(vals)])]
    G = adjoint(vecs) @ Y @ vecs
    power = np.add.reduceat(np.add.reduceat(np.abs(G) ** 2, starts, axis=0), starts, axis=1)
    linked = np.sqrt(power) > tol * np.linalg.norm(G)
    zero = [c for a, c in enumerate(clusters) if not linked[a, a]]
    todo = [a for a in range(len(clusters)) if linked[a, a]]
    columns, blocks = [], []
    while todo:
        ref = clusters[todo[0]]
        members = [b for b in todo if linked[b, todo[0]]]
        m = ref.stop - ref.start
        if any(clusters[b].stop - clusters[b].start != m for b in members):
            return None
        for b in members:
            S = G[clusters[b], ref]
            columns.append(vecs[:, clusters[b]] @ (S * (np.sqrt(m) / np.linalg.norm(S))))
        blocks.append((len(members), m))
        todo = [b for b in todo if b not in members]
    columns.extend(vecs[:, c] for c in zero)
    # the nearest unitary, so that rounding in the alignment cannot fail the frame check
    u, _, vh = np.linalg.svd(np.hstack(columns))
    return (u @ vh, tuple(blocks)) if blocks else None


def full_matrix_algebra(dim: int) -> FiniteAlgebra:
    """All dim x dim matrices: V = 1 and one block (dim, 1)."""
    return FiniteAlgebra(dim, np.eye(dim, dtype=complex), ((dim, 1),))


def diagonal_algebra(dim: int) -> FiniteAlgebra:
    """The diagonal matrices: V = 1 and dim blocks (1, 1)."""
    return FiniteAlgebra(dim, np.eye(dim, dtype=complex), ((1, 1),) * dim)


def generate_algebra(generators, dim: int | None = None) -> FiniteAlgebra:
    """Smallest unital *-algebra containing the generators.

    The span of the words in the generators and their adjoints grows one
    letter per round, S -> S + sum_g g S, until its dimension stops growing;
    more than dim^2 rounds indicate a numerical degeneracy and raise.
    """
    gens = [as_operator(G, dim) for G in generators]
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].shape[0]
    letters = np.stack(gens + [adjoint(G) for G in gens])
    rows = _orthonormal_rows(_vec([np.eye(d, dtype=complex), *letters]))
    for _ in range(d * d + 1):
        words = (letters[:, None] @ rows.reshape(1, -1, d, d)).reshape(-1, d * d)
        grown = _orthonormal_rows(np.vstack([rows, words]))
        if grown.shape[0] == rows.shape[0]:
            return _recover(grown, d, SPAN_TOL)
        rows = grown
    raise InvariantViolation("algebra closure did not stabilize within dim^2 rounds")


class SpanContainment(NamedTuple):
    inside: bool
    residual: float


def contains(algebra: FiniteAlgebra, X: np.ndarray, tol: float = SPAN_TOL) -> SpanContainment:
    """Whether X lies in the algebra, with the HS norm of its component outside."""
    _, r = algebra.project(as_operator(X, algebra.dim))
    return SpanContainment(bool(r <= tol), float(r))


def _inclusion_residual(sub: FiniteAlgebra, sup: FiniteAlgebra) -> float:
    """Largest HS residual in ``sup`` of an element of ``sub``'s orthonormal basis."""
    return float(sup.project(np.stack(sub.basis))[1].max())


def commutant(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Relative commutant in the full matrix algebra.

    M_n (x) 1_m becomes 1_n (x) M_m, a block (m, n) once the block's columns
    are reordered multiplicity-major; a zero block of size z becomes (z, 1).
    """
    cols, blocks, at = [], [], 0
    for n, m in algebra.blocks:
        cols.append(at + np.arange(n * m).reshape(n, m).T.ravel())
        blocks.append((m, n))
        at += n * m
    if at < algebra.dim:
        cols.append(np.arange(at, algebra.dim))
        blocks.append((algebra.dim - at, 1))
    return FiniteAlgebra(algebra.dim, algebra.unitary[:, np.concatenate(cols)], tuple(blocks))


def center(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Intersection of the algebra with its commutant: the span of the block indicators."""
    return FiniteAlgebra(algebra.dim, algebra.unitary,
                         tuple((1, n * m) for n, m in algebra.blocks))


def minimal_projections(algebra: FiniteAlgebra) -> tuple[np.ndarray, ...]:
    """Minimal projections of an abelian algebra: its block indicators."""
    if any(n > 1 for n, _ in algebra.blocks):
        raise InvariantViolation("minimal projections need an abelian algebra")
    return algebra.minimal_central_projections


def equal_span(a: FiniteAlgebra, b: FiniteAlgebra, tol: float = SPAN_TOL) -> tuple[bool, float]:
    """Mutual-containment test of two spans; returns (equal, worst residual)."""
    if a.dim != b.dim:
        raise ValueError("algebras live on different dimensions")
    worst = max(_inclusion_residual(a, b), _inclusion_residual(b, a))
    return worst <= tol, worst


def is_maximal_abelian(algebra: FiniteAlgebra, ambient: FiniteAlgebra,
                       tol: float = SPAN_TOL) -> bool:
    """Whether ``algebra`` is abelian and equals its relative commutant in ``ambient``.

    An algebra is abelian when all n_i = 1, so its dimension is its number of
    blocks; abelian subalgebras of (+)_j M_{n_j} (x) 1_{m_j} have dimension
    at most sum_j n_j, and the maximal ones reach it.
    """
    if algebra.dim != ambient.dim:
        raise ValueError("algebras live on different dimensions")
    r = _inclusion_residual(algebra, ambient)
    if r > tol:
        raise InvariantViolation(f"algebra not inside ambient: residual {r:.3e}")
    return algebra.algebra_dim == len(algebra.blocks) == sum(n for n, _ in ambient.blocks)


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
    return FiniteAlgebra.from_span(basis, dim=dim)
