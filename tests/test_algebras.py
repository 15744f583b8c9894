import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevents import (FiniteAlgebra, InvariantViolation, algebra_from_json,
                     algebra_to_json, ambient_representative, center, commutant,
                     contains, diagonal_algebra, equal_span, full_matrix_algebra,
                     generate_algebra, is_maximal_abelian, minimal_projections,
                     operator_norm, operator_to_json)

from _helpers import (block_algebra, random_complex, random_density, random_hermitian,
                      random_unitary, reference_center, reference_check_closure,
                      reference_commutant, reference_equal_span,
                      reference_is_maximal_abelian, reference_minimal_projections,
                      reference_project, reference_residual, rng, run_capped, span_rows)

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

    def test_generate_from_a_cyclic_shift(self):
        # the circulants: abelian, six (1, 1) blocks in the Fourier basis, all
        # of them real matrices whose symmetric parts have paired eigenvalues
        S = np.roll(np.eye(6), 1, axis=0)
        A = generate_algebra([S])
        assert A.blocks == ((1, 1),) * 6
        assert contains(A, S).inside and contains(A, S @ S.T).inside

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
    def test_full_64_commutant_and_center_stay_quadratic(self):
        # O(d^2): sixteen 64 x 64 complex matrices, where a span basis has d^4 entries
        tracemalloc.start()
        try:
            A = full_matrix_algebra(64)
            C, Z = commutant(A), center(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (A.algebra_dim, C.algebra_dim, Z.algebra_dim) == (4096, 1, 1)
        assert peak < 16 * 64 * 64 * 16

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

    def test_a_span_that_is_not_an_algebra_is_rejected(self):
        # span{1, E12} is not closed under the adjoint
        obj = {"dim": 2, "basis": [operator_to_json(np.eye(2)), operator_to_json(E12)]}
        with pytest.raises(InvariantViolation):
            algebra_from_json(obj)


@st.composite
def wedderburn_algebras(draw):
    """V ((+) M_n (x) 1_m (+) 0_z) V* on at most 9 dimensions.

    V is Haar, or real orthogonal (real spans, whose real combinations have
    symmetric spectra).  Block lists may repeat a (n, m) pair and may leave
    a zero block.
    """
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=1, max_size=3)
                  .filter(lambda b: sum(n * m for n, m in b) <= 7))
    if draw(st.booleans()) and 2 * shapes[0][0] * shapes[0][1] + sum(
            n * m for n, m in shapes[1:]) <= 9:
        shapes.insert(1, shapes[0])
    zero = draw(st.integers(0, 2))
    dim = sum(n * m for n, m in shapes) + zero
    if dim < 2:
        zero, dim = zero + 1, dim + 1
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    V = np.linalg.qr(gen.standard_normal((dim, dim)))[0] if draw(st.booleans()) \
        else random_unitary(gen, dim)
    return FiniteAlgebra(dim, V, tuple(shapes))


def maximal_abelian_part(A):
    """The diagonal subalgebra: each block (n, m) split into n blocks (1, m)."""
    return FiniteAlgebra(A.dim, A.unitary, tuple((1, m) for n, m in A.blocks for _ in range(n)))


def matched_norms(fast, slow):
    """Operator-norm distances of two projection families paired up to order."""
    assert len(fast) == len(slow)
    pairs = [min(range(len(slow)), key=lambda j: operator_norm(P - slow[j])) for P in fast]
    assert sorted(pairs) == list(range(len(slow)))
    return [operator_norm(P - slow[j]) for P, j in zip(fast, pairs)]


class TestWedderburnAgainstSpanOracles:
    """Closed forms on (V, blocks) against generic linear algebra on the span."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(A=wedderburn_algebras(), seed=st.integers(0, 2**32 - 1))
    def test_closed_forms_match_the_oracles(self, A, seed):
        gen = rng(seed)
        d = A.dim
        rows = span_rows(A)

        recovered = FiniteAlgebra.from_span(A.basis)
        assert sorted(recovered.blocks) == sorted(A.blocks)
        assert recovered.contains_identity == A.contains_identity

        inside = sum(c * B for c, B in zip(gen.standard_normal(A.algebra_dim), A.basis))
        for X in (random_complex(gen, d), inside):
            assert abs(contains(A, X).residual - reference_residual(rows, X)) <= 1e-10

        state = random_density(gen, d)
        Q = reference_project(rows, state.matrix)
        assert operator_norm(ambient_representative(A, state) - (Q + Q.conj().T) / 2) <= 1e-10

        for fast, slow in ((commutant(A), reference_commutant(rows, d)),
                           (center(A), reference_center(rows, d))):
            assert fast.algebra_dim == slow.shape[0]
            assert reference_equal_span(span_rows(fast), slow, d)[1] <= 1e-10

        if A.contains_identity:
            atoms = reference_minimal_projections(reference_center(rows, d), d)
            assert max(matched_norms(A.minimal_central_projections, atoms)) <= 1e-10

        for sub in (maximal_abelian_part(A), center(A)):
            assert is_maximal_abelian(sub, A) == reference_is_maximal_abelian(
                span_rows(sub), rows, d)
        assert is_maximal_abelian(maximal_abelian_part(A), A)

        for other in (recovered, maximal_abelian_part(A)):
            ok, r = equal_span(A, other)
            ref_ok, ref_r = reference_equal_span(rows, span_rows(other), d)
            assert ok == ref_ok and abs(r - ref_r) <= 1e-10

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_both_paths_reject_spans_that_are_not_algebras(self, dim, seed):
        gen = rng(seed)
        U = random_unitary(gen, dim)
        nilpotent = U @ np.eye(dim, k=1) @ U.conj().T
        hermitian = [random_hermitian(gen, dim) for _ in range(2)]
        for span in ([np.eye(dim), nilpotent],           # not closed under the adjoint
                     [np.eye(dim)] + hermitian):         # not closed under products
            with pytest.raises(InvariantViolation):
                FiniteAlgebra.from_span(span)
            rows = np.stack([np.asarray(B, dtype=complex).reshape(-1) for B in span])
            with pytest.raises(InvariantViolation):
                reference_check_closure(np.linalg.svd(rows, full_matrices=False)[2], dim)

    def test_structured_algebras_need_no_svd(self, monkeypatch):
        A = FiniteAlgebra(7, random_unitary(rng(3), 7), ((2, 2), (1, 2)))
        X = random_complex(rng(4), 7)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        assert commutant(A).blocks == ((2, 2), (2, 1), (1, 1))
        assert center(A).algebra_dim == 2
        assert not contains(A, X).inside
        assert len(A.minimal_central_projections) == 2


class TestScaleUnderAddressCap:
    """Builds that needed d^4 entries, run in a child capped at 1 GiB."""

    def test_generated_m8_tensor_1_4_plus_c_and_its_central_projections(self):
        script = (
            "import numpy as np\n"
            "from qevents import FiniteAlgebra\n"
            "gen = np.random.default_rng(3)\n"
            "Z = gen.standard_normal((33, 33)) + 1j * gen.standard_normal((33, 33))\n"
            "U = np.linalg.qr(Z)[0]\n"
            "span = []\n"
            "for a in range(8):\n"
            "    for b in range(8):\n"
            "        E = np.zeros((33, 33), dtype=complex)\n"
            "        E[:32, :32] = np.kron(np.outer(np.eye(8)[a], np.eye(8)[b]), np.eye(4))\n"
            "        span.append(U @ E @ U.conj().T)\n"
            "span.append(np.outer(U[:, 32], U[:, 32].conj()))\n"
            "A = FiniteAlgebra.from_span(span)\n"
            "ranks = sorted(round(np.trace(z).real) for z in A.minimal_central_projections)\n"
            "print(sorted(A.blocks), ranks)\n"
        )
        proc = run_capped(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split("\n")[0] == "[(1, 1), (8, 4)] [1, 32]"
