import tracemalloc

import numpy as np
import pytest

from qevents import (FiniteAlgebra, InvariantViolation, algebra_from_json,
                     algebra_to_json, center, commutant, contains,
                     diagonal_algebra, equal_span, full_matrix_algebra,
                     generate_algebra, is_maximal_abelian, minimal_projections)

from _helpers import block_algebra, random_hermitian, random_unitary, rng

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def conj_algebra(algebra, U):
    return FiniteAlgebra.from_span([U.conj().T @ B @ U for B in algebra.basis])


class TestConstructors:
    def test_diagonal_algebra(self):
        D = diagonal_algebra(3)
        assert D.dim == 3 and D.algebra_dim == 3
        assert D.contains_identity
        ok, r = contains(D, np.diag([1.0, -2.0, 0.5]).astype(complex))
        assert ok and r < 1e-10

    def test_full_matrix_algebra(self):
        M = full_matrix_algebra(2)
        assert M.algebra_dim == 4
        gen = rng(5)
        ok, _ = contains(M, random_hermitian(gen, 2) + 1j * random_hermitian(gen, 2))
        assert ok

    def test_from_span_rejects_sets_not_closed_under_multiplication(self):
        # span{I, E12} is closed under * but not under adjoint
        with pytest.raises(InvariantViolation):
            FiniteAlgebra.from_span([np.eye(2, dtype=complex), E12])

    def test_generate_closes_the_span(self):
        # one nilpotent generator forces in its adjoint and both diagonal units
        A = generate_algebra([E12])
        assert A.algebra_dim == 4
        assert equal_span(A, full_matrix_algebra(2))[0]

    def test_generate_from_commuting_projections(self):
        P = np.diag([1.0, 1.0, 0.0]).astype(complex)
        A = generate_algebra([P])
        assert A.algebra_dim == 2
        ok, _ = contains(A, np.eye(3, dtype=complex))
        assert ok


class TestCommutantAndCenter:
    def test_commutant_of_diagonal_is_diagonal(self):
        D = diagonal_algebra(3)
        C = commutant(D)
        assert C.algebra_dim == 3
        assert equal_span(C, D)[0]

    def test_commutant_of_full_is_scalars(self):
        C = commutant(full_matrix_algebra(2))
        assert C.algebra_dim == 1
        ok, r = contains(C, np.eye(2, dtype=complex))
        assert ok and r < 1e-10

    def test_center_of_full_is_trivial(self):
        assert center(full_matrix_algebra(3)).algebra_dim == 1

    def test_center_of_abelian_algebra_is_itself(self):
        D = diagonal_algebra(4)
        assert equal_span(center(D), D)[0]

    def test_center_of_block_algebra(self):
        # M2 (+) M1 embedded in dim 3: center is spanned by the two block units
        blocks = [np.zeros((3, 3), dtype=complex) for _ in range(5)]
        for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            blocks[k][i, j] = 1.0
        blocks[4][2, 2] = 1.0
        A = FiniteAlgebra.from_span(blocks)
        Z = center(A)
        assert Z.algebra_dim == 2
        ok, _ = contains(Z, np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert ok

    def test_bicommutant_reproduces_generated_algebras(self):
        gen = rng(31)
        for dim, n_gens in ((2, 1), (3, 2), (4, 2)):
            A = generate_algebra([random_hermitian(gen, dim) for _ in range(n_gens)])
            ok, r = equal_span(commutant(commutant(A)), A)
            assert ok, f"dim={dim}: residual {r}"

    def test_commutant_respects_unitary_conjugation(self):
        gen = rng(37)
        U = random_unitary(gen, 3)
        rotated = conj_algebra(diagonal_algebra(3), U)
        C = commutant(rotated)
        assert C.algebra_dim == 3
        assert equal_span(C, rotated)[0]


class TestPredicates:
    def test_is_maximal_abelian(self):
        M3 = full_matrix_algebra(3)
        assert is_maximal_abelian(diagonal_algebra(3), M3)
        assert not is_maximal_abelian(M3, M3)
        # a strictly smaller abelian algebra is not maximal
        small = generate_algebra([np.diag([1.0, 1.0, 0.0]).astype(complex)])
        assert not is_maximal_abelian(small, M3)

    def test_contains_reports_the_orthogonal_residual(self):
        ok, r = contains(diagonal_algebra(2), SX)
        assert not ok
        # SX is orthogonal to the diagonal span, so the residual is its full norm
        assert r == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_equal_span_is_basis_independent(self):
        A = diagonal_algebra(2)
        B = FiniteAlgebra.from_span([np.eye(2, dtype=complex),
                                     np.diag([1.0, -1.0]).astype(complex)])
        ok, r = equal_span(A, B)
        assert ok and r < 1e-10

    def test_equal_span_detects_difference(self):
        assert not equal_span(diagonal_algebra(2), full_matrix_algebra(2))[0]


class TestMinimalProjections:
    def test_diagonal_atoms(self):
        atoms = minimal_projections(diagonal_algebra(2))
        assert len(atoms) == 2
        total = sum(atoms)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
        for P in atoms:
            assert np.trace(P).real == pytest.approx(1.0)

    def test_block_center_atoms(self):
        blocks = [np.zeros((3, 3), dtype=complex) for _ in range(5)]
        for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            blocks[k][i, j] = 1.0
        blocks[4][2, 2] = 1.0
        Z = center(FiniteAlgebra.from_span(blocks))
        atoms = minimal_projections(Z)
        traces = sorted(np.trace(P).real for P in atoms)
        np.testing.assert_allclose(traces, [1.0, 2.0], atol=1e-9)


class TestMinimalCentralProjections:
    def test_full_algebra_is_a_factor(self):
        zs = full_matrix_algebra(3).minimal_central_projections
        assert len(zs) == 1
        np.testing.assert_array_equal(zs[0], np.eye(3))

    def test_block_algebra_atoms_are_cached(self):
        A = block_algebra()
        zs = A.minimal_central_projections
        assert A.minimal_central_projections is zs
        traces = sorted(np.trace(P).real for P in zs)
        np.testing.assert_allclose(traces, [1.0, 2.0], atol=1e-9)


class TestCommutantMemory:
    def test_center_of_full_8_fits_in_32_mb(self):
        A = full_matrix_algebra(8)
        tracemalloc.start()
        try:
            Z = center(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Z.algebra_dim == 1
        assert peak < 32 * 2**20


class TestJsonRoundTrip:
    def test_round_trip_preserves_span(self):
        gen = rng(43)
        U = random_unitary(gen, 3)
        A = conj_algebra(diagonal_algebra(3), U)
        back = algebra_from_json(algebra_to_json(A))
        ok, r = equal_span(back, A)
        assert ok and r < 1e-10
        assert back.dim == 3 and back.algebra_dim == 3
