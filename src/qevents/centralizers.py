"""State-dependent structure of an algebra: centralizer, center, pinchings.

Given a state on an ambient algebra, the centralizer is the set of elements
the state cannot distinguish order on (the functional kills every commutator
against them).  In terms of the state's in-span representative Q it is the
relative commutant of Q in the ambient, which is known in closed form.
Write the ambient as A = (+)_i M_{n_i} (x) 1_{m_i} with minimal central
projections z_i, and let E_l be the clustered eigenprojections of Q.  Then
the centralizer is the pinching of A, sum_l E_l A E_l, and the minimal
projections of its center are the nonzero products z_i E_l.  Detection
therefore costs one eigendecomposition of Q per state plus the z_i, which
depend on the ambient alone and are cached on it.  Both conditional
expectations (onto the centralizer by pinching, onto the center by weighted
block averages) stay inside the ambient span by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .algebras import FiniteAlgebra, SPAN_TOL, contains, minimal_projections
from .operators import (DEFAULT_TOL, DEGENERACY_TOL, DensityState,
                        PartitionOfUnity, SpectralDecomposition, adjoint,
                        as_operator, operator_norm, spectral_decompose,
                        validate_projection_family)

__all__ = [
    "CentralizerReport",
    "ambient_representative",
    "centralizer",
    "minimal_projections",
    "expect_onto_centralizer",
    "expect_onto_center",
    "incoherence_defect",
    "IncoherenceDefect",
]


@dataclass(frozen=True, eq=False)
class CentralizerReport:
    """Centralizer and center of a state on an ambient algebra.

    ``state_spectral`` is the clustered spectral decomposition of the
    density matrix restricted to the ambient algebra (its in-span
    representative).  ``central_projections`` are the minimal projections of
    the center, the atoms used by ``expect_onto_center``.  The
    ``centralizer`` and ``center`` algebras are built on first use and
    cached, since detection needs only the atoms.
    """

    ambient: FiniteAlgebra
    state_spectral: SpectralDecomposition
    central_projections: tuple[np.ndarray, ...]

    @cached_property
    def centralizer(self) -> FiniteAlgebra:
        """The pinched ambient, spanned by sum_l E_l B E_l over its basis B."""
        basis = np.stack(self.ambient.basis)
        pinched = sum(E @ basis @ E for E in self.state_spectral.projections)
        return FiniteAlgebra.from_span(pinched, dim=self.ambient.dim)

    @cached_property
    def center(self) -> FiniteAlgebra:
        """The span of the atoms."""
        return FiniteAlgebra.from_span(self.central_projections, dim=self.ambient.dim)


def ambient_representative(ambient: FiniteAlgebra, state: DensityState) -> np.ndarray:
    """Density matrix of the state as seen by the ambient algebra.

    The unique element Q of the span with tr(Q X) = tr(rho X) for every X in
    the span: the Hilbert-Schmidt projection of the density matrix.  For the
    full matrix algebra this is the density matrix itself.
    """
    P = state.matrix
    if state.dim != ambient.dim:
        raise ValueError("state and algebra dimensions differ")
    if ambient.algebra_dim == ambient.dim * ambient.dim:
        return P
    Q, _ = ambient.project(P)
    # *-algebra, Hermitian input: the projection is Hermitian up to rounding
    return (Q + adjoint(Q)) / 2.0


def centralizer(ambient: FiniteAlgebra, state: DensityState,
                tol: float = DEFAULT_TOL,
                degeneracy_tol: float = DEGENERACY_TOL) -> CentralizerReport:
    """Centralizer report of a state on an ambient algebra.

    The atoms of the center are the nonzero products z_i E_l of the
    ambient's minimal central projections with the clustered
    eigenprojections of the state's in-span representative Q; eigenvalues
    of Q within ``degeneracy_tol`` share one atom.
    """
    if not ambient.contains_identity:
        raise InvariantViolation("ambient algebra must contain the identity")
    Q = ambient_representative(ambient, state)
    spectral = spectral_decompose(Q, degeneracy_tol=degeneracy_tol, tol=max(tol, 1e-8))
    zs = ambient.minimal_central_projections
    if len(zs) == 1:
        # a factor: z = 1 and the eigenprojections are the atoms
        atoms = spectral.projections
    else:
        products = (z @ E for z in zs for E in spectral.projections)
        atoms = tuple(P for P in products if np.trace(P).real > 0.5)
        validate_projection_family(atoms, complete=True)
    return CentralizerReport(ambient, spectral, atoms)


class PinchInfo(NamedTuple):
    ambient_residual: float


def expect_onto_centralizer(ambient: FiniteAlgebra, state: DensityState,
                            A: np.ndarray, tol: float = SPAN_TOL,
                            report: CentralizerReport | None = None,
                            check_ambient: bool = True,
                            return_info: bool = False):
    """Pinching conditional expectation onto the centralizer of the state.

    Sums P_j A P_j over the clustered eigenprojections of the state's
    in-span representative.  The result lies in the ambient span; it is
    re-projected onto the span if rounding pushed it out, with the residual
    reported via ``return_info``.
    """
    A = as_operator(A, ambient.dim)
    if check_ambient:
        ok, r = contains(ambient, A, tol)
        if not ok:
            raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    if report is None:
        report = centralizer(ambient, state)
    out = np.zeros_like(A)
    for P in report.state_spectral.projections:
        out += P @ A @ P
    projected, residual = ambient.project(out)
    if residual > 1e-14:
        out = projected
    if return_info:
        return out, PinchInfo(float(residual))
    return out


class CenterExpectationInfo(NamedTuple):
    coefficients: tuple[complex, ...]
    weights: tuple[float, ...]
    fallback_atoms: tuple[int, ...]


def expect_onto_center(ambient: FiniteAlgebra, state: DensityState,
                       A: np.ndarray, tol: float = DEFAULT_TOL,
                       report: CentralizerReport | None = None,
                       check_ambient: bool = True,
                       return_info: bool = False):
    """Conditional expectation onto the center of the centralizer.

    Writes the output as sum_j c_j z_j over the minimal central projections,
    with c_j the state average of z_j A z_j on the block.  Blocks the state
    gives no weight to (phi(z_j) <= tol) fall back to the normalized trace;
    which atoms that happened on is reported via ``return_info``.
    """
    A = as_operator(A, ambient.dim)
    if check_ambient:
        ok, r = contains(ambient, A, SPAN_TOL)
        if not ok:
            raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    if report is None:
        report = centralizer(ambient, state)
    out = np.zeros_like(A)
    coeffs = []
    weights = []
    fallback = []
    for j, z in enumerate(report.central_projections):
        w = float(np.real(state.expect(z)))
        block = z @ A @ z
        if w > tol:
            c = complex(state.expect(block)) / w
        else:
            fallback.append(j)
            c = complex(np.trace(block)) / float(np.real(np.trace(z)))
        out += c * z
        coeffs.append(c)
        weights.append(w)
    if return_info:
        return out, CenterExpectationInfo(tuple(coeffs), tuple(weights), tuple(fallback))
    return out


class IncoherenceDefect(NamedTuple):
    lhs: float
    bound: float
    delta_prime: float


def incoherence_defect(ambient: FiniteAlgebra, state: DensityState,
                       partition: PartitionOfUnity, A: np.ndarray,
                       use_center: bool = True,
                       tol: float = DEFAULT_TOL) -> IncoherenceDefect:
    """Defect of evaluating the state incoherently along a partition.

    Returns (lhs, bound, delta_prime) with
    lhs    = |phi(A) - sum_j phi(P_j A P_j)|,
    delta' = max_j || CE(P_j) - P_j || for the chosen conditional
             expectation (center by default, centralizer otherwise),
    bound  = 4 N delta' ||A||.
    The inequality lhs <= bound holds identically; it is asserted here up to
    an absolute rounding allowance and violations raise.
    """
    A = as_operator(A, ambient.dim)
    report = centralizer(ambient, state)
    ok, r = contains(ambient, A, SPAN_TOL)
    if not ok:
        raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    phi_A = state.expect(A)
    pinched = 0.0 + 0.0j
    delta_prime = 0.0
    for P in partition.projections:
        ok, r = contains(ambient, P, SPAN_TOL)
        if not ok:
            raise InvariantViolation(f"partition leaves the ambient algebra: residual {r:.3e}")
        pinched += state.expect(P @ A @ P)
        if use_center:
            ce = expect_onto_center(ambient, state, P, report=report, check_ambient=False)
        else:
            ce = expect_onto_centralizer(ambient, state, P, report=report, check_ambient=False)
        delta_prime = max(delta_prime, operator_norm(ce - P))
    lhs = abs(phi_A - pinched)
    n_outcomes = partition.size
    bound = 4.0 * n_outcomes * delta_prime * operator_norm(A)
    slack = 1e-12 * n_outcomes * max(1.0, operator_norm(A))
    if lhs > bound + slack:
        raise InvariantViolation(
            f"incoherence bound violated: lhs {lhs:.6e} > bound {bound:.6e}")
    return IncoherenceDefect(float(lhs), float(bound), float(delta_prime))
