"""Complex-matrix primitives: spectral data, states, partitions of unity.

Operators are plain ``numpy.ndarray`` matrices of complex dtype.  The helpers
here supply the predicates, decompositions and (de)serialization that the rest
of the package builds on, exact up to the module tolerances.

Diagonal operators need not be dense.  A state or a partition of unity can
be built from diagonals (1-D arrays), is validated on them, and keeps them;
its d x d matrices are materialized only when a dense consumer (detection,
the trajectory sampler, conjugation) first reads them.  So a commuting model
costs O(d) memory per operator, which is what lets the commuting
constructions reach a few thousand dimensions.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvariantViolation

# Default absolute tolerance for invariant checks (Hermiticity, unitarity,
# trace normalization, projector algebra).
DEFAULT_TOL = 1e-9

# Eigenvalues closer than this are treated as one degenerate cluster.
DEGENERACY_TOL = 1e-8

__all__ = [
    "DEFAULT_TOL",
    "DEGENERACY_TOL",
    "SpectralDecomposition",
    "DensityState",
    "PartitionOfUnity",
    "adjoint",
    "antihermitian_defect",
    "is_hermitian",
    "is_projection",
    "is_unitary",
    "operator_norm",
    "conjugate",
    "spectral_decompose",
    "operator_to_json",
    "operator_from_json",
]


def as_operator(A, dim: int | None = None) -> np.ndarray:
    """Coerce ``A`` to a square complex matrix, checking shape."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {M.shape}")
    if dim is not None and M.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {M.shape[0]}")
    return M


def adjoint(A: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(A)).T


def antihermitian_defect(A: np.ndarray) -> float:
    """Operator norm of the anti-Hermitian part (A - A*)/2."""
    A = as_operator(A)
    return operator_norm((A - adjoint(A)) / 2.0)


def is_hermitian(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    A = as_operator(A)
    return _checked_norm((A - adjoint(A)) / 2.0, tol) <= tol


def is_unitary(U: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return _unitarity_defect(as_operator(U), tol) <= tol


def is_projection(P: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    P = as_operator(P)
    return is_hermitian(P, tol) and _checked_norm(P @ P - P, tol) <= tol


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def _diagonal(A: np.ndarray) -> np.ndarray | None:
    """The diagonal of A if every off-diagonal entry is exactly zero and the
    diagonal is finite, else None.

    Non-finite input never counts as diagonal (NaN is nonzero), so it takes
    the dense path and is rejected there (see ``_checked_norm``).
    """
    d = np.diagonal(A)
    if np.count_nonzero(A) != np.count_nonzero(d) or not np.isfinite(d).all():
        return None
    return d.copy()


def _operand(A) -> np.ndarray:
    """A square complex matrix, or a finite 1-D array standing for the diagonal
    matrix it spells.

    A 1-D array with a non-finite entry is spelled out as its matrix, so that
    it meets the dense checks and is rejected exactly as that matrix would be.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim == 1 and np.isfinite(A).all():
        return A
    return as_operator(np.diag(A) if A.ndim == 1 else A)


def _operands(family) -> list[np.ndarray]:
    """``_operand`` of each member: all diagonals of one length, or all matrices.

    Diagonals are kept only when every member is one and they share their
    length; otherwise they are spelled out, as in ``_operand``.
    """
    family = [_operand(A) for A in family]
    if any(A.ndim == 1 for A in family) and any(A.shape != family[0].shape for A in family):
        family = [as_operator(np.diag(A)) if A.ndim == 1 else A for A in family]
    return family


def _checked_norm(X: np.ndarray, tol: float) -> float:
    """A norm of X that exceeds ``tol`` exactly when ``operator_norm(X)`` does.

    ``X`` is a matrix, a stack of matrices (the worst member counts), or a
    1-D array standing for the diagonal matrix it spells.  A finite
    diagonal has spectral norm max |d_i|, read off exactly.  A matrix or a
    stack passes on its Frobenius norm, an upper bound of the spectral
    norm, when that is at most ``tol``; otherwise the SVD decides.  So
    whenever the check fails the value is the spectral norm itself.
    Non-finite input reaches the SVD, which rejects NaN; where it returns
    NaN instead (infinite entries), the norm counts as infinite and fails.
    """
    if X.ndim >= 2:
        fro = math.sqrt(np.vdot(X, X).real)
        if fro <= tol:
            return fro
        if X.ndim == 3:
            return max(_checked_norm(M, tol) for M in X)
        d = _diagonal(X)
        if d is not None:
            X = d
    if X.ndim == 1 and np.isfinite(X).all():
        return float(np.abs(X).max(initial=0.0))
    r = operator_norm(X if X.ndim == 2 else np.diag(X))
    return math.inf if math.isnan(r) else r


def _unitarity_defect(U: np.ndarray, tol: float) -> float:
    """``_checked_norm`` of U*U - 1, elementwise when U is diagonal."""
    u = _diagonal(U)
    if u is not None:
        return _checked_norm(u.conj() * u - 1.0, tol)
    return _checked_norm(adjoint(U) @ U - np.eye(U.shape[0]), tol)


def conjugate(A: np.ndarray, U: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Frame change U* A U.  Rejects non-unitary U."""
    A = as_operator(A)
    U = as_operator(U, A.shape[0])
    defect = _unitarity_defect(U, tol)
    if defect > tol:
        raise InvariantViolation(f"conjugation frame is not unitary: ||U*U - 1|| = {defect:.3e}")
    return adjoint(U) @ A @ U


class SpectralDecomposition:
    """Eigenvalue clusters of a Hermitian operator with their eigenprojections.

    ``eigenvalues`` is strictly increasing; ``projections[j]`` is the
    orthogonal projection onto the eigenspace of ``eigenvalues[j]``.  A
    decomposition is checked once, in one of two ways:

    - ``spectral_decompose`` (and ``CentralizerReport.state_spectral``) keeps
      eigh's orthonormal columns ``vectors``, checked by ``_checked_eigh``,
      cluster j owning columns ``starts[j]`` up to the next start, and builds
      ``projections[j] = V_j V_j*`` on first read (a ``cached_property``).
    - ``SpectralDecomposition(eigenvalues, projections)`` takes a
      user-supplied family and checks it with ``validate_projection_family``
      (Hermiticity, idempotence, pairwise orthogonality, completeness).  It
      has no ``vectors`` or ``starts`` (both None) and no reconstruction
      check, since no operator is supplied.
    """

    def __init__(self, eigenvalues, projections):
        eigenvalues, projections = tuple(eigenvalues), tuple(projections)
        if len(eigenvalues) != len(projections):
            raise ValueError("eigenvalues and projections must have equal length")
        if len(projections) == 0:
            raise ValueError("empty spectral decomposition")
        self.eigenvalues = _increasing(eigenvalues)
        self.projections = tuple(as_operator(P) for P in projections)
        validate_projection_family(self.projections, complete=True)
        self.dim = self.projections[0].shape[0]
        self.vectors = self.starts = None

    @classmethod
    def _from_eigh(cls, eigenvalues, vectors: np.ndarray,
                   starts: np.ndarray) -> "SpectralDecomposition":
        """The decomposition ``spectral_decompose`` has checked, in eigenvector form."""
        self = cls.__new__(cls)
        self.eigenvalues = _increasing(eigenvalues)
        self.dim = vectors.shape[0]
        self.vectors, self.starts = vectors, starts
        return self

    @cached_property
    def projections(self) -> tuple[np.ndarray, ...]:
        """V_j V_j* for each cluster's columns V_j, built on first read."""
        ends = [*self.starts[1:], self.dim]
        blocks = (np.ascontiguousarray(self.vectors[:, a:b]) for a, b in zip(self.starts, ends))
        return tuple(V @ adjoint(V) for V in blocks)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lam, P in zip(self.eigenvalues, self.projections):
            out += lam * P
        return out


def _increasing(eigenvalues) -> tuple[float, ...]:
    vals = np.asarray(eigenvalues, dtype=float)
    if np.any(np.diff(vals) <= 0):
        raise InvariantViolation("eigenvalues must be strictly increasing")
    return tuple(float(v) for v in vals)


def validate_projection_family(projections, complete: bool = True,
                               tol: float = DEFAULT_TOL) -> None:
    """Check idempotence, Hermiticity, pairwise orthogonality, completeness.

    Each check compares a spectral norm with ``tol``.  A projection is a
    matrix or its diagonal (see ``_operands``).  When every projection is
    diagonal (given as a diagonal, or exactly zero off the diagonal and
    finite on it) the checks run on the diagonals alone, with no matrix
    product.
    """
    projections = _operands(projections)
    dim = projections[0].shape[0]
    family, mul, identity = projections, np.matmul, np.eye
    if all(P.shape[0] == dim for P in projections):
        diags = [P if P.ndim == 1 else _diagonal(P) for P in projections]
        if all(d is not None for d in diags):
            family, mul, identity = diags, np.multiply, np.ones
    for k, P in enumerate(family):
        if projections[k].shape[0] != dim:
            raise ValueError("projections must share one dimension")
        h = _checked_norm((P - adjoint(P)) / 2.0, tol)
        if h > tol:
            raise InvariantViolation(f"projection {k} not Hermitian: defect {h:.3e}")
        r = _checked_norm(mul(P, P) - P, tol)
        if r > tol:
            raise InvariantViolation(f"projection {k} not idempotent: ||P^2 - P|| = {r:.3e}")
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            r = _checked_norm(mul(family[i], family[j]), tol)
            if r > tol:
                raise InvariantViolation(
                    f"projections {i},{j} not orthogonal: ||P_i P_j|| = {r:.3e}")
    if complete:
        r = _checked_norm(sum(family) - identity(dim), tol)
        if r > tol:
            raise InvariantViolation(f"projections do not sum to identity: residual {r:.3e}")


def _checked_eigh(X: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """eigh of each matrix of a Hermitian stack, checked on the whole stack.

    Rejects anti-Hermitian parts above ``tol``, then checks eigh's ascending
    eigenvalues w and columns U of each Hermitian part H by the Gram
    residual ||U*U - 1|| <= ``DEFAULT_TOL`` (which bounds every defect of a
    projection family by DEFAULT_TOL (1 + DEFAULT_TOL)) and the
    reconstruction residual ||U diag(w) U* - H|| <= tol max(1, max |w|).
    """
    Xh = np.conjugate(X).swapaxes(-1, -2)
    defect = _checked_norm((X - Xh) / 2.0, tol)
    if defect > tol:
        raise InvariantViolation(
            f"spectral_decompose requires Hermitian input: anti-Hermitian part norm {defect:.3e}")
    H = (X + Xh) / 2.0
    vals, vecs = np.linalg.eigh(H)
    vh = np.conjugate(vecs).swapaxes(-1, -2)
    gram = _checked_norm(vh @ vecs - np.eye(vals.shape[-1]), DEFAULT_TOL)
    if gram > DEFAULT_TOL:
        raise InvariantViolation(f"eigenvectors not orthonormal: ||V*V - 1|| = {gram:.3e}")
    scale = tol * max(1.0, float(np.abs(vals).max(initial=0.0)))
    r = _checked_norm((vecs * vals[..., None, :]) @ vh - H, scale)
    if r > scale:
        raise InvariantViolation(f"eigenvectors do not reconstruct the operator: residual {r:.3e}")
    return vals, vecs


def _chained_clusters(vals: np.ndarray, weights: np.ndarray, degeneracy_tol: float):
    """Mask of the ascending ``vals`` that open a cluster, and the
    ``weights``-weighted mean of each; a gap above ``degeneracy_tol`` opens one."""
    opens = np.concatenate(([True], vals[1:] - vals[:-1] > degeneracy_tol))
    starts = np.flatnonzero(opens)
    means = vals[starts]
    ends = [*starts[1:].tolist(), len(vals)] if len(starts) < len(vals) else ()
    for j, (a, b) in enumerate(zip(starts.tolist(), ends)):
        if b - a > 1:
            means[j] = (vals[a:b] * weights[a:b]).sum() / weights[a:b].sum()
    return opens, means


def spectral_decompose(X: np.ndarray,
                       degeneracy_tol: float = DEGENERACY_TOL,
                       tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian X with eigenvalue clustering.

    Eigenvalues within ``degeneracy_tol`` of each other (chained) are merged
    into a single cluster carrying one projection.  Non-Hermitian input is
    rejected with the norm of its anti-Hermitian part as diagnostic.
    """
    (vals,), (vecs,) = _checked_eigh(as_operator(X)[None], tol)
    opens, eigenvalues = _chained_clusters(vals, np.ones(len(vals)), degeneracy_tol)
    return SpectralDecomposition._from_eigh(eigenvalues, vecs, np.flatnonzero(opens))


def _frozen(A: np.ndarray) -> np.ndarray:
    """A itself, made read-only; pass only an array nobody else holds."""
    A.flags.writeable = False
    return A


class DensityState:
    """A density matrix acting as the state functional A -> tr(rho A).

    ``matrix`` may be a d x d matrix or a 1-D array, the diagonal of a
    diagonal state (see ``_operand``).  A diagonal state is validated on its
    diagonal: its eigenvalues are the diagonal entries themselves.

    Two views are cached on the instance with ``functools.cached_property``:
    ``diagonal``, the diagonal of a diagonal state and None otherwise, which
    a state built from a matrix computes on first read; and ``matrix``, which
    a state built from its diagonal materializes on first read.  Both are
    read-only, so writing into them raises ``ValueError`` instead of
    changing the state under what was computed from it; an array the caller
    passes with ``validate=False`` is held through a read-only view and
    keeps its own flags.

    The centralizer reports computed for the state are cached in
    ``_reports``, a dict keyed by (id(ambient), tol, degeneracy_tol) that
    only ``centralizers.centralizer`` reads and fills; a full matrix algebra
    is keyed by ("full", dim) in place of its id, as every one of a
    dimension has the same report.  Each report holds its ambient, so a
    keyed id cannot be reused while its entry lives; the dict lives and
    dies with the state, one entry per ambient and tolerance pair the state
    was asked about, all full matrix algebras counting as one ambient.
    """

    def __init__(self, matrix, tol: float = DEFAULT_TOL, validate: bool = True):
        M = _operand(matrix)
        if validate:
            d = M if M.ndim == 1 else _diagonal(M)
            X = M if d is None else d
            h = _checked_norm((X - adjoint(X)) / 2.0, tol)
            if h > tol:
                raise InvariantViolation(f"density matrix not Hermitian: defect {h:.3e}")
            M = (M + adjoint(M)) / 2.0
            w = np.linalg.eigvalsh(M) if d is None else d.real
            if w.min() < -tol:
                raise InvariantViolation(f"density matrix has negative weight {w.min():.3e}")
            tr = float(np.real(np.trace(M) if M.ndim == 2 else np.sum(M)))
            if abs(tr - 1.0) > tol:
                raise InvariantViolation(f"density matrix trace {tr!r} differs from 1")
        else:
            M = M.view()    # the caller's array keeps its own flags
        _frozen(M)
        self.dim = M.shape[0]
        self._reports = {}
        if M.ndim == 1:
            self.diagonal = M
        else:
            self.matrix = M

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The diagonal if the state is diagonal (see ``_diagonal``), else None."""
        d = _diagonal(self.matrix)
        return None if d is None else _frozen(d)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d x d density matrix, materialized from ``diagonal`` on first read."""
        return _frozen(np.diag(self.diagonal))

    def expect(self, A: np.ndarray) -> complex:
        """Value of the functional on A, tr(rho A)."""
        return complex(np.trace(self.matrix @ np.asarray(A, dtype=complex)))

    def expect_real(self, A: np.ndarray, tol: float = 1e-9) -> float:
        v = self.expect(A)
        if abs(v.imag) > tol * max(1.0, abs(v.real)):
            raise InvariantViolation(f"expected real value, got {v!r}")
        return float(v.real)

    def spectral(self, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
        return spectral_decompose(self.matrix, degeneracy_tol=degeneracy_tol)

    def __repr__(self):
        return f"DensityState(dim={self.dim})"


class PartitionOfUnity:
    """Labeled family of orthogonal projections summing to the identity.

    Each projection may be given as a d x d matrix or, for a diagonal
    partition, as its diagonal, a 1-D array (see ``_operands``).  The family
    is validated on construction by ``validate_projection_family``.

    Derived data is cached on the instance with ``functools.cached_property``:
    ``projections``, which a partition built from diagonals materializes on
    first read; ``diagonals``, which a partition built from matrices
    computes on first read; and ``stack``.
    """

    def __init__(self, labels, projections):
        labels, projections = tuple(labels), tuple(projections)
        if len(labels) != len(projections):
            raise ValueError("labels and projections must have equal length")
        if len(labels) == 0:
            raise ValueError("empty partition")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.labels = labels
        family = _operands(projections)
        validate_projection_family(family, complete=True)
        self.dim = family[0].shape[0]
        if family[0].ndim == 1:
            self.diagonals = np.stack(family)
        else:
            self.projections = tuple(family)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def projections(self) -> tuple[np.ndarray, ...]:
        """The d x d projections, materialized from ``diagonals`` on first read."""
        return tuple(np.diag(d) for d in self.diagonals)

    @cached_property
    def stack(self) -> np.ndarray:
        """The projections as one (size, dim, dim) array, built once."""
        return np.stack(self.projections)

    @cached_property
    def diagonals(self) -> np.ndarray | None:
        """The projections' diagonals as one (size, dim) array, built once.

        None unless every projection is exactly diagonal with a finite
        diagonal, so that the diagonals alone determine the partition.
        """
        diags = [_diagonal(P) for P in self.projections]
        if any(d is None for d in diags):
            return None
        return np.stack(diags)

    def index_for(self, label) -> int:
        """Position of ``label`` in ``labels``; KeyError if it is not there."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None

    def projection_for(self, label) -> np.ndarray:
        return self.projections[self.index_for(label)]

    def conjugated(self, U: np.ndarray, tol: float = DEFAULT_TOL) -> "PartitionOfUnity":
        """Partition with every projection replaced by U* P U (labels kept)."""
        return PartitionOfUnity(self.labels,
                                tuple(conjugate(P, U, tol=tol) for P in self.projections))

    @classmethod
    def from_observable(cls, X: np.ndarray,
                        degeneracy_tol: float = DEGENERACY_TOL) -> "PartitionOfUnity":
        """Partition labeled by the clustered eigenvalues of a Hermitian X."""
        dec = spectral_decompose(X, degeneracy_tol=degeneracy_tol)
        return cls(dec.eigenvalues, dec.projections)

    def __repr__(self):
        return f"PartitionOfUnity(labels={self.labels!r}, dim={self.dim})"


# --- JSON round-tripping ---------------------------------------------------
#
# The wire form of an operator is {"dim": n, "re": [[...]], "im": [[...]]}.
# Python floats survive json round trips exactly, so re-reading reproduces
# the matrix bit for bit.

def operator_to_json(A: np.ndarray) -> dict:
    A = as_operator(A)
    return {
        "dim": int(A.shape[0]),
        "re": np.real(A).tolist(),
        "im": np.imag(A).tolist(),
    }


def operator_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"operator entries have shape {re.shape}/{im.shape}, expected {(dim, dim)}")
    return re + 1j * im
