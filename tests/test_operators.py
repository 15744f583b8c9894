import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevents import (DEFAULT_TOL, DensityState, HeisenbergFrame, InvariantViolation,
                     PartitionOfUnity, SpectralDecomposition, adjoint, antihermitian_defect, conjugate,
                     is_hermitian, is_projection, is_unitary, operator_from_json,
                     operator_norm, operator_to_json, spectral_decompose)
from qevents.operators import _checked_norm, _unitarity_defect, validate_projection_family

from _helpers import (outcome, random_blocks, random_density, random_hermitian,
                      random_unitary, reference_unitarity_defect,
                      reference_validate_density, reference_validate_projection_family,
                      rng)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


class TestSpectralDecompose:
    def test_pauli_x(self):
        sd = spectral_decompose(SX)
        np.testing.assert_allclose(sd.eigenvalues, (-1.0, 1.0), atol=1e-12)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(sd.projections[0], minus, atol=1e-12)
        np.testing.assert_allclose(sd.projections[1], plus, atol=1e-12)

    def test_reconstruction(self):
        gen = rng(101)
        for dim in (2, 3, 5):
            A = random_hermitian(gen, dim)
            sd = spectral_decompose(A)
            rebuilt = sum(lam * P for lam, P in zip(sd.eigenvalues, sd.projections))
            np.testing.assert_allclose(rebuilt, A, atol=1e-10)

    def test_projections_resolve_identity(self):
        sd = spectral_decompose(random_hermitian(rng(7), 4))
        total = sum(sd.projections)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-10)
        for P in sd.projections:
            assert is_projection(P, tol=1e-8)

    def test_near_degenerate_eigenvalues_cluster(self):
        A = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
        sd = spectral_decompose(A)
        assert len(sd.eigenvalues) == 2
        assert np.trace(sd.projections[0]).real == pytest.approx(2.0)

    def test_distinct_eigenvalues_stay_separate(self):
        sd = spectral_decompose(np.diag([0.0, 0.5, 1.0]).astype(complex))
        assert sd.eigenvalues == (0.0, 0.5, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation, match="[Hh]ermitian"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestSpectralChecks:
    """Which checks run: Gram and reconstruction residuals for eigh-built
    families, the pairwise family check for user-supplied ones."""

    def test_eigh_built_projections_are_lazy_and_pass_the_pairwise_check(self):
        A = np.diag([1.0, 1.0 + 1e-12, 2.0, 3.0]).astype(complex)
        U = random_unitary(rng(11), 4)
        sd = spectral_decompose(U @ A @ U.conj().T)
        assert "projections" not in vars(sd)
        assert list(sd.starts) == [0, 2, 3] and sd.vectors.shape == (4, 4)
        reference_validate_projection_family(sd.projections)
        assert sd.projections is sd.projections

    def test_projections_are_the_outer_products_of_eigh_columns(self):
        X = random_hermitian(rng(13), 5)
        vals, vecs = np.linalg.eigh((X + X.conj().T) / 2.0)
        sd = spectral_decompose(X)
        for j, P in enumerate(sd.projections):
            V = vecs[:, [j]]
            np.testing.assert_array_equal(P, V @ V.conj().T)

    def test_user_supplied_family_keeps_the_pairwise_check(self):
        P = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation, match="not orthogonal"):
            SpectralDecomposition((0.0, 1.0), (P, P))
        sd = SpectralDecomposition((0.0, 1.0), (P, np.eye(2) - P))
        assert sd.vectors is None and sd.starts is None and sd.dim == 2

    @pytest.mark.parametrize("fault, message", [
        (lambda w, V: (w, V * 1.001), "not orthonormal"),
        (lambda w, V: (w + 1e-6, V), "do not reconstruct"),
    ])
    def test_eigh_output_is_checked(self, monkeypatch, fault, message):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda X: fault(*eigh(X)))
        with pytest.raises(InvariantViolation, match=message):
            spectral_decompose(random_hermitian(rng(17), 3))

    def test_reconstruction_tolerance_scales_with_the_operator(self):
        X = 1e6 * random_hermitian(rng(19), 6)
        sd = spectral_decompose(X)
        np.testing.assert_allclose(sd.reconstruct(), X, atol=1e-6)


class TestConjugate:
    def test_hadamard_moves_diagonal_projection(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        out = conjugate(e11, HAD)
        np.testing.assert_allclose(out, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(InvariantViolation, match="unitary"):
            conjugate(SX, np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_is_invariant(self, seed, dim):
        gen = rng(seed)
        A = random_hermitian(gen, dim)
        U = random_unitary(gen, dim)
        before = np.sort(np.linalg.eigvalsh(A))
        after = np.sort(np.linalg.eigvalsh(conjugate(A, U)))
        np.testing.assert_allclose(after, before, atol=1e-9)


class TestNormsAndPredicates:
    def test_operator_norm_matches_largest_singular_value(self):
        gen = rng(3)
        for dim in (2, 4):
            A = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
            assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_operator_norm_submultiplicative(self, seed):
        gen = rng(seed)
        A = random_hermitian(gen, 3)
        B = random_hermitian(gen, 3)
        assert operator_norm(A @ B) <= operator_norm(A) * operator_norm(B) + 1e-9

    def test_predicates_on_literal_cases(self):
        assert is_hermitian(SX) and is_hermitian(SZ)
        assert not is_hermitian(1j * SX)
        assert is_unitary(HAD) and not is_unitary(2 * HAD)
        assert is_projection(np.diag([1.0, 0.0]).astype(complex))
        assert not is_projection(0.5 * np.eye(2))
        assert adjoint(1j * SX)[0, 1] == pytest.approx(-1j)

    def test_antihermitian_defect(self):
        assert antihermitian_defect(SZ) == 0.0
        assert antihermitian_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) > 0.4


class TestDensityState:
    def test_expectation_values(self):
        plus = DensityState(np.full((2, 2), 0.5, dtype=complex))
        assert plus.expect_real(SX) == pytest.approx(1.0)
        assert plus.expect_real(SZ) == pytest.approx(0.0)
        raise_op = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert plus.expect(raise_op) == pytest.approx(0.5 + 0.0j)

    def test_requires_unit_trace(self):
        with pytest.raises(InvariantViolation, match="trace"):
            DensityState(np.diag([0.3, 0.3]).astype(complex))

    def test_requires_positivity(self):
        with pytest.raises(InvariantViolation):
            DensityState(np.diag([1.5, -0.5]).astype(complex))

    def test_requires_hermiticity(self):
        M = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation):
            DensityState(M)

    def test_random_states_are_valid(self):
        gen = rng(17)
        for dim in (2, 3, 6):
            state = random_density(gen, dim)
            w = np.linalg.eigvalsh(state.matrix)
            assert w.min() >= -1e-12
            assert w.sum() == pytest.approx(1.0)

    def test_views_are_read_only_and_the_callers_array_stays_writable(self):
        M = np.diag([0.25, 0.75]).astype(complex)
        state = DensityState(M, validate=False)
        assert np.shares_memory(state.matrix, M)
        for view in (state.matrix, state.diagonal):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.5
        assert M.flags.writeable
        M[0, 0] = 0.25
        diag = np.array([0.25, 0.75], dtype=complex)
        for state in (DensityState(diag, validate=False), DensityState(diag), DensityState(M)):
            for view in (state.diagonal, state.matrix):
                with pytest.raises(ValueError, match="read-only"):
                    view[0] = 0.5
        assert diag.flags.writeable and M.flags.writeable


class TestPartitionOfUnity:
    def test_must_sum_to_identity(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation, match="identity"):
            PartitionOfUnity(("a",), (e11,))

    def test_projections_must_be_mutually_orthogonal(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation, match="orthogonal"):
            PartitionOfUnity(("a", "b"), (e11, e11))

    def test_labels_must_be_distinct(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="distinct"):
            PartitionOfUnity(("a", "a"), (e11, np.eye(2) - e11))

    def test_projections_must_be_orthogonal_projections(self):
        half = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(InvariantViolation):
            PartitionOfUnity(("a", "b"), (half, half))

    def test_from_observable_uses_clustered_eigenvalues_as_labels(self):
        part = PartitionOfUnity.from_observable(SX)
        assert part.labels == (-1.0, 1.0)
        np.testing.assert_allclose(part.projection_for(1.0),
                                   np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_projection_for_unknown_label(self):
        part = PartitionOfUnity.from_observable(SZ)
        with pytest.raises(KeyError):
            part.projection_for("missing")

    def test_conjugated(self):
        part = PartitionOfUnity.from_observable(SZ)
        moved = part.conjugated(HAD)
        np.testing.assert_allclose(moved.projection_for(1.0),
                                   np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)
        assert moved.labels == part.labels


class TestJsonRoundTrip:
    def test_operator_round_trip_is_exact(self):
        gen = rng(23)
        A = random_hermitian(gen, 3) + 1j * 0.25 * (SZ[0, 0]) * np.eye(3)
        back = operator_from_json(operator_to_json(A))
        np.testing.assert_array_equal(back, A)

    def test_payload_shape(self):
        obj = operator_to_json(np.eye(2, dtype=complex))
        assert obj["dim"] == 2
        assert obj["re"] == [[1.0, 0.0], [0.0, 1.0]]
        assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


# Perturbations of spectral norm ``eps`` at entry (i, i) or (i, j), i != j.
PERTURBATIONS = ("diag-real", "diag-imag", "offdiag-hermitian", "offdiag-antihermitian")
# Multiples of DEFAULT_TOL on both sides of every check.
SCALES = (0.5, 0.99, 1.01, 2.0)


def perturbation(kind: str, dim: int, i: int, eps: float) -> np.ndarray:
    E = np.zeros((dim, dim), dtype=complex)
    j = (i + 1) % dim
    if kind == "diag-real":
        E[i, i] = eps
    elif kind == "diag-imag":
        E[i, i] = 1j * eps
    elif kind == "offdiag-hermitian":
        E[i, j] = E[j, i] = eps
    else:
        E[i, j], E[j, i] = eps, -eps
    return E


def frame_with(propagators):
    one = PartitionOfUnity((0,), (np.eye(propagators[0].shape[0], dtype=complex),))
    return HeisenbergFrame(tuple(float(k) for k in range(len(propagators))),
                           tuple(propagators), tuple((one,) for _ in propagators),
                           (None,) * len(propagators))


class TestExactValidation:
    """Frobenius-first and diagonal checks against the SVD-based originals."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(2, 6), blocks=st.integers(1, 4),
           rotate=st.booleans(), kind=st.sampled_from(PERTURBATIONS),
           scale=st.sampled_from(SCALES))
    def test_projection_family_matches_the_svd_oracle(self, seed, dim, blocks, rotate,
                                                      kind, scale):
        gen = rng(seed)
        projs = random_blocks(gen, dim, min(blocks, dim))
        k = int(gen.integers(len(projs)))
        projs[k] = projs[k] + perturbation(kind, dim, int(gen.integers(dim)),
                                           scale * DEFAULT_TOL)
        if rotate:
            U = random_unitary(gen, dim)
            projs = [adjoint(U) @ P @ U for P in projs]
        expected = outcome(reference_validate_projection_family, projs)
        assert outcome(validate_projection_family, projs) == expected
        if expected[0] is None:
            PartitionOfUnity(tuple(range(len(projs))), tuple(projs))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(2, 6), rotate=st.booleans(),
           kind=st.sampled_from(("diag-imag", "offdiag-antihermitian", "negative", "trace")),
           scale=st.sampled_from(SCALES))
    def test_density_state_matches_the_oracle(self, seed, dim, rotate, kind, scale):
        gen = rng(seed)
        eps = scale * DEFAULT_TOL
        p = gen.dirichlet(np.ones(dim))
        if kind == "negative":
            p[0] = -eps
            p[1:] *= (1.0 + eps) / p[1:].sum()
        M = np.diag(p).astype(complex)
        if kind == "trace":
            M = M * (1.0 + eps)
        elif kind != "negative":
            M = M + perturbation(kind, dim, int(gen.integers(dim)), eps)
        if rotate:
            U = random_unitary(gen, dim)
            M = adjoint(U) @ M @ U
        assert outcome(DensityState, M) == outcome(reference_validate_density, M)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(2, 6), rotate=st.booleans(),
           kind=st.sampled_from(("stretch", "initial-phase")), scale=st.sampled_from(SCALES))
    def test_unitarity_checks_match_the_oracle(self, seed, dim, rotate, kind, scale):
        gen = rng(seed)
        eps = scale * DEFAULT_TOL
        i = int(gen.integers(dim))
        U = np.diag(np.exp(2j * np.pi * gen.random(dim)))
        if kind == "stretch":
            U[i, i] *= np.sqrt(1.0 + eps)        # ||U*U - 1|| = eps
        else:
            U[i, i] = np.exp(2j * np.arcsin(eps / 2.0))  # unitary, ||U - 1|| = eps
        if rotate:
            U = random_unitary(gen, dim) @ U
        tol = DEFAULT_TOL
        ref = reference_unitarity_defect(U)
        got = _unitarity_defect(U, tol)
        assert (got > tol) == (ref > tol)
        if ref > tol:
            assert got == pytest.approx(ref, rel=1e-12)
        assert is_unitary(U) == (ref <= tol)
        expected = (None, None) if ref <= tol else (
            InvariantViolation, f"conjugation frame is not unitary: ||U*U - 1|| = {ref:.3e}")
        assert outcome(conjugate, np.eye(dim), U) == expected

        props = (U, U) if kind == "initial-phase" else (np.eye(dim, dtype=complex), U)
        if ref > tol:
            expected = (InvariantViolation, f"propagator at time 1.0 not unitary: {ref:.3e}")
        else:
            r0 = operator_norm(props[0] - np.eye(dim))
            expected = (None, None) if r0 <= tol else (
                InvariantViolation,
                f"propagator at the initial time must be the identity: {r0:.3e}")
        assert outcome(frame_with, props) == expected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(1, 6), diagonal=st.booleans(),
           rank=st.integers(1, 6), scale=st.sampled_from(SCALES))
    def test_checked_norm_decides_like_the_svd(self, seed, dim, diagonal, rank, scale):
        gen = rng(seed)
        if diagonal:
            X = np.diag(gen.standard_normal(dim) + 1j * gen.standard_normal(dim))
        else:
            G = gen.standard_normal((dim, min(rank, dim))) + 1j * gen.standard_normal(
                (dim, min(rank, dim)))
            X = G @ adjoint(G)
        X = X * (scale * DEFAULT_TOL / operator_norm(X))
        ref = operator_norm(X)
        for arg in ((X, np.diagonal(X)) if diagonal else (X,)):
            got = _checked_norm(arg, DEFAULT_TOL)
            assert (got > DEFAULT_TOL) == (ref > DEFAULT_TOL)
            if ref > DEFAULT_TOL:
                assert got == pytest.approx(ref, rel=1e-12)

    def test_diagonal_bound_passes_where_frobenius_fails(self):
        X = np.diag(np.full(512, 0.5 * DEFAULT_TOL))   # Frobenius norm 11 x tol
        assert _checked_norm(X, DEFAULT_TOL) == 0.5 * DEFAULT_TOL


class TestNonFiniteInput:
    """NaN or inf entries never take the diagonal path.

    Every such partition, state and propagator is rejected: by the SVD with
    ``LinAlgError``, as the SVD-only checks did, or, where the SVD returns a
    NaN norm for infinite entries, as failing its check.
    """

    ENTRIES = [(np.nan, (1, 1)), (np.nan, (0, 1)), (np.inf, (1, 1)), (np.inf, (0, 1))]

    @staticmethod
    def with_entry(M, value, where):
        M = np.array(M, dtype=complex)
        M[where] = value
        return M

    @pytest.mark.parametrize("value,where", ENTRIES)
    def test_partition(self, value, where):
        P = self.with_entry(np.diag([1.0, 0.0]), value, where)
        projs = (P, np.eye(2) - P)
        with np.errstate(invalid="ignore"):
            got = outcome(PartitionOfUnity, (1, -1), projs)
            expected = outcome(reference_validate_projection_family, projs)
        if value == np.inf and where == (0, 1):
            # the SVD's NaN norm let the Hermiticity check pass, and the
            # next check raised LinAlgError; now Hermiticity fails first
            assert got == (InvariantViolation, "projection 0 not Hermitian: defect inf")
        else:
            assert got == expected
            assert got[0] is np.linalg.LinAlgError

    @pytest.mark.parametrize("value,where", ENTRIES)
    def test_state(self, value, where):
        M = self.with_entry(np.diag([0.5, 0.5]), value, where)
        with np.errstate(invalid="ignore"):
            got = outcome(DensityState, M)
            expected = outcome(reference_validate_density, M)
        if value == np.inf and where == (0, 1):
            assert expected == (None, None)        # the SVD-only check accepted it
            assert got == (InvariantViolation, "density matrix not Hermitian: defect inf")
        else:
            assert got == expected
            assert got[0] is np.linalg.LinAlgError

    @pytest.mark.parametrize("value,where", ENTRIES)
    @pytest.mark.parametrize("initial", [True, False])
    def test_propagator(self, value, where, initial):
        U = self.with_entry(np.eye(2), value, where)
        props = (U, np.eye(2, dtype=complex)) if initial else (np.eye(2, dtype=complex), U)
        with np.errstate(invalid="ignore"):
            assert outcome(frame_with, props)[0] is np.linalg.LinAlgError
            assert outcome(reference_unitarity_defect, U)[0] is np.linalg.LinAlgError


NAN, INF = float("nan"), float("inf")


def built_both_ways(build, diagonals):
    """``outcome`` of ``build`` on the diagonals and on the same diagonal matrices."""
    diags = [np.asarray(d, dtype=complex) for d in diagonals]
    with np.errstate(invalid="ignore"):
        return (outcome(build, diags), outcome(build, [np.diag(d) for d in diags]))


def partition(projections):
    return PartitionOfUnity(tuple(range(len(projections))), projections)


def state(diagonals):
    (d,) = diagonals
    return DensityState(d)


class TestDiagonalConstruction:
    """Operators built from diagonals against the same diagonal matrices.

    Both must reach the same verdict with the same message, and valid input
    must give the same diagonals and the same dense matrices.
    """

    PARTITIONS = {
        "valid": ([1, 0, 1, 0], [0, 1, 0, 1]),
        "three outcomes": ([1, 0, 0], [0, 1, 0], [0, 0, 1]),
        "an entry of 0.5": ([1, 0.5, 0, 0], [0, 0.5, 1, 1]),
        "overlapping": ([1, 1, 0, 0], [0, 1, 1, 1]),
        "incomplete": ([1, 0, 0, 0], [0, 1, 0, 0]),
        "complex entry": ([1, 1e-6j, 0], [0, 1 - 1e-6j, 1]),
        "complex entry below tol": ([1, 0.5e-9j, 0], [0, 1 - 0.5e-9j, 1]),
        "nan": ([1, NAN, 0], [0, 1, 1]),
        "inf": ([1, 0, INF], [0, 1, 1]),
        "lengths differ": ([1, 0, 1], [0, 1, 0, 1]),
    }

    STATES = {
        "valid": [0.2, 0.3, 0.5],
        "nan": [0.5, NAN],
        "inf": [INF, 0.5],
        "complex entry": [0.3 + 1e-6j, 0.7],
        "complex entry below tol": [0.3 + 0.5e-9j, 0.7],
        "negative weight": [-0.1, 1.1],
        "trace 1 + 1e-6": [0.3, 0.7 + 1e-6],
    }

    @pytest.mark.parametrize("case", PARTITIONS)
    def test_partition_verdicts(self, case):
        from_diagonals, from_matrices = built_both_ways(partition, self.PARTITIONS[case])
        assert from_diagonals == from_matrices
        assert (from_diagonals[0] is None) == case.startswith(("valid", "three", "complex entry below"))

    @pytest.mark.parametrize("case", STATES)
    def test_state_verdicts(self, case):
        from_diagonal, from_matrix = built_both_ways(state, [self.STATES[case]])
        assert from_diagonal == from_matrix
        assert (from_diagonal[0] is None) == case.startswith(("valid", "complex entry below"))

    @pytest.mark.parametrize("case", ["valid", "three outcomes", "complex entry below tol"])
    def test_valid_partitions_agree(self, case):
        diags = [np.asarray(d, dtype=complex) for d in self.PARTITIONS[case]]
        lazy, dense = partition(diags), partition([np.diag(d) for d in diags])
        assert "projections" not in vars(lazy) and lazy.dim == dense.dim
        np.testing.assert_array_equal(lazy.diagonals, dense.diagonals)
        np.testing.assert_array_equal(lazy.stack, dense.stack)
        for P, Q in zip(lazy.projections, dense.projections):
            np.testing.assert_array_equal(P, Q)

    @pytest.mark.parametrize("case", ["valid", "complex entry below tol"])
    def test_valid_states_agree(self, case):
        d = np.asarray(self.STATES[case], dtype=complex)
        lazy, dense = DensityState(d), DensityState(np.diag(d))
        assert "matrix" not in vars(lazy) and lazy.dim == dense.dim
        np.testing.assert_array_equal(lazy.diagonal, dense.diagonal)
        np.testing.assert_array_equal(lazy.matrix, dense.matrix)
        assert DensityState(dense.matrix, validate=False).diagonal is not None
        assert random_density(rng(3), 3).diagonal is None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(1, 6), blocks=st.integers(1, 4),
           kind=st.sampled_from(("real", "imag", "nan", "inf")), scale=st.sampled_from(SCALES))
    def test_perturbed_partitions_match(self, seed, dim, blocks, kind, scale):
        gen = rng(seed)
        diags = [np.diagonal(P).copy() for P in random_blocks(gen, dim, min(blocks, dim))]
        i, k = int(gen.integers(dim)), int(gen.integers(len(diags)))
        diags[k][i] += {"real": scale * DEFAULT_TOL, "imag": 1j * scale * DEFAULT_TOL,
                        "nan": NAN, "inf": INF}[kind]
        from_diagonals, from_matrices = built_both_ways(partition, diags)
        assert from_diagonals == from_matrices
