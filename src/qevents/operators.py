"""Dense complex-matrix primitives: spectral data, states, partitions of unity.

Operators are plain ``numpy.ndarray`` matrices of complex dtype.  The helpers
here supply the predicates, decompositions and (de)serialization that the rest
of the package builds on.  All dimensions are desk scale, so everything is
dense and exact up to the module tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    return antihermitian_defect(A) <= tol


def is_unitary(U: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    U = as_operator(U)
    eye = np.eye(U.shape[0])
    return operator_norm(adjoint(U) @ U - eye) <= tol


def is_projection(P: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    P = as_operator(P)
    return is_hermitian(P, tol) and operator_norm(P @ P - P) <= tol


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def conjugate(A: np.ndarray, U: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Frame change U* A U.  Rejects non-unitary U."""
    A = as_operator(A)
    U = as_operator(U, A.shape[0])
    defect = operator_norm(adjoint(U) @ U - np.eye(U.shape[0]))
    if defect > tol:
        raise InvariantViolation(f"conjugation frame is not unitary: ||U*U - 1|| = {defect:.3e}")
    return adjoint(U) @ A @ U


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalue clusters of a Hermitian operator with their eigenprojections.

    ``eigenvalues`` is strictly increasing; ``projections[j]`` is the
    orthogonal projection onto the eigenspace of ``eigenvalues[j]``.  The
    family is validated to be idempotent, mutually orthogonal and complete,
    and to reconstruct the operator it came from when one is supplied.
    """

    eigenvalues: tuple[float, ...]
    projections: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.projections):
            raise ValueError("eigenvalues and projections must have equal length")
        if len(self.projections) == 0:
            raise ValueError("empty spectral decomposition")
        object.__setattr__(self, "projections",
                           tuple(as_operator(P) for P in self.projections))
        vals = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(vals) <= 0):
            raise InvariantViolation("eigenvalues must be strictly increasing")
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in vals))
        validate_projection_family(self.projections, complete=True)

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for lam, P in zip(self.eigenvalues, self.projections):
            out += lam * P
        return out


def validate_projection_family(projections, complete: bool = True,
                               tol: float = DEFAULT_TOL) -> None:
    """Check idempotence, Hermiticity, pairwise orthogonality, completeness."""
    projections = [as_operator(P) for P in projections]
    dim = projections[0].shape[0]
    for k, P in enumerate(projections):
        if P.shape[0] != dim:
            raise ValueError("projections must share one dimension")
        h = antihermitian_defect(P)
        if h > tol:
            raise InvariantViolation(f"projection {k} not Hermitian: defect {h:.3e}")
        r = operator_norm(P @ P - P)
        if r > tol:
            raise InvariantViolation(f"projection {k} not idempotent: ||P^2 - P|| = {r:.3e}")
    for i in range(len(projections)):
        for j in range(i + 1, len(projections)):
            r = operator_norm(projections[i] @ projections[j])
            if r > tol:
                raise InvariantViolation(
                    f"projections {i},{j} not orthogonal: ||P_i P_j|| = {r:.3e}")
    if complete:
        r = operator_norm(sum(projections) - np.eye(dim))
        if r > tol:
            raise InvariantViolation(f"projections do not sum to identity: residual {r:.3e}")


def spectral_decompose(X: np.ndarray,
                       degeneracy_tol: float = DEGENERACY_TOL,
                       tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian X with eigenvalue clustering.

    Eigenvalues within ``degeneracy_tol`` of each other (chained) are merged
    into a single cluster carrying one projection.  Non-Hermitian input is
    rejected with the norm of its anti-Hermitian part as diagnostic.
    """
    X = as_operator(X)
    defect = antihermitian_defect(X)
    if defect > tol:
        raise InvariantViolation(
            f"spectral_decompose requires Hermitian input: anti-Hermitian part norm {defect:.3e}")
    # eigh returns ascending eigenvalues and orthonormal columns
    vals, vecs = np.linalg.eigh((X + adjoint(X)) / 2.0)
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[clusters[-1][-1]] <= degeneracy_tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    eigenvalues = []
    projections = []
    for idx in clusters:
        V = vecs[:, idx]
        eigenvalues.append(float(np.mean(vals[idx])))
        projections.append(V @ adjoint(V))
    return SpectralDecomposition(tuple(eigenvalues), tuple(projections))


class DensityState:
    """A density matrix acting as the state functional A -> tr(rho A)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: float = DEFAULT_TOL, validate: bool = True):
        M = as_operator(matrix)
        if validate:
            h = antihermitian_defect(M)
            if h > tol:
                raise InvariantViolation(f"density matrix not Hermitian: defect {h:.3e}")
            M = (M + adjoint(M)) / 2.0
            w = np.linalg.eigvalsh(M)
            if w.min() < -tol:
                raise InvariantViolation(f"density matrix has negative weight {w.min():.3e}")
            tr = float(np.real(np.trace(M)))
            if abs(tr - 1.0) > tol:
                raise InvariantViolation(f"density matrix trace {tr!r} differs from 1")
        self.matrix = M

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Labeled family of orthogonal projections summing to the identity.

    Derived data is cached on the instance with ``functools.cached_property``:
    currently ``stack``.
    """

    labels: tuple
    projections: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.projections):
            raise ValueError("labels and projections must have equal length")
        if len(self.labels) == 0:
            raise ValueError("empty partition")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "projections",
                           tuple(as_operator(P) for P in self.projections))
        validate_projection_family(self.projections, complete=True)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    @cached_property
    def stack(self) -> np.ndarray:
        """The projections as one (size, dim, dim) array, built once."""
        return np.stack(self.projections)

    def projection_for(self, label) -> np.ndarray:
        try:
            return self.projections[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None

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
