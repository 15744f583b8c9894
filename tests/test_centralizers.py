import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qevents.algebras
import qevents.centralizers
from qevents import (DEGENERACY_TOL, DensityState, HeisenbergFrame,
                     InvariantViolation, PartitionOfUnity,
                     ambient_representative, centralizer, contains, detect_event,
                     diagonal_algebra, equal_span, expect_onto_center, expect_onto_centralizer,
                     full_matrix_algebra, generate_algebra, incoherence_defect,
                     operator_norm, run_trajectory)

from _helpers import (block_algebra, in_tensor_block, random_density, random_hermitian,
                      random_partition, random_unitary, reference_centralizer,
                      reference_expect_onto_center, reference_expect_onto_centralizer,
                      reference_pinched_centralizer,
                      reference_validate_projection_family, rng, run_capped, tensor_ambient,
                      tensor_state)

M2 = full_matrix_algebra(2)
E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PLUS = DensityState(np.full((2, 2), 0.5, dtype=complex))
RHO_37 = DensityState(np.diag([0.3, 0.7]).astype(complex))


class TestAmbientRepresentative:
    def test_full_ambient_returns_the_state_itself(self):
        Q = ambient_representative(M2, RHO_37)
        np.testing.assert_allclose(Q, RHO_37.matrix, atol=1e-12)

    def test_diagonal_ambient_keeps_only_the_diagonal(self):
        Q = ambient_representative(diagonal_algebra(2), PLUS)
        np.testing.assert_allclose(Q, 0.5 * np.eye(2), atol=1e-12)

    def test_representative_reproduces_the_state_on_the_algebra(self):
        gen = rng(19)
        for dim in (2, 4):
            state = random_density(gen, dim)
            D = diagonal_algebra(dim)
            Q = ambient_representative(D, state)
            for B in D.basis:
                lhs = np.trace(Q @ B)
                assert lhs == pytest.approx(state.expect(B), abs=1e-10)


class TestCentralizerStructure:
    def test_nondegenerate_diagonal_state(self):
        rep = centralizer(M2, RHO_37)
        assert rep.centralizer.algebra_dim == 2
        assert rep.center.algebra_dim == 2
        assert len(rep.central_projections) == 2
        assert equal_span(rep.centralizer, diagonal_algebra(2))[0]

    def test_maximally_mixed_state_has_full_centralizer(self):
        mixed = DensityState(np.eye(2, dtype=complex) / 2)
        rep = centralizer(M2, mixed)
        assert rep.centralizer.algebra_dim == 4
        assert rep.center.algebra_dim == 1

    def test_pure_superposition(self):
        rep = centralizer(M2, PLUS)
        # commutant of a rank-one projection: span{P, 1-P}
        assert rep.centralizer.algebra_dim == 2
        assert rep.center.algebra_dim == 2
        P = PLUS.matrix
        for A in rep.centralizer.basis:
            assert operator_norm(A @ P - P @ A) < 1e-9

    def test_generic_state_centralizer_is_maximal_abelian(self):
        gen = rng(29)
        for dim in (3, 5):
            state = random_density(gen, dim)
            rep = centralizer(full_matrix_algebra(dim), state)
            assert rep.centralizer.algebra_dim == dim
            assert rep.center.algebra_dim == dim

    def test_atoms_are_orthogonal_projections_resolving_identity(self):
        gen = rng(41)
        state = random_density(gen, 4)
        rep = centralizer(full_matrix_algebra(4), state)
        total = sum(rep.central_projections)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-8)
        for i, P in enumerate(rep.central_projections):
            np.testing.assert_allclose(P @ P, P, atol=1e-8)
            for Qp in rep.central_projections[i + 1:]:
                assert operator_norm(P @ Qp) < 1e-8


class TestConditionalExpectations:
    def test_pinching_formula_for_full_ambient(self):
        # E on the centralizer of a faithful state = pinching by its eigenprojections
        gen = rng(53)
        state = random_density(gen, 3)
        A = random_hermitian(gen, 3)
        E = expect_onto_centralizer(full_matrix_algebra(3), state, A)
        pinched = sum(P @ A @ P for P in state.spectral().projections)
        np.testing.assert_allclose(E, pinched, atol=1e-9)

    def test_center_valued_weights_on_superposition(self):
        # phi concentrates on one atom; the projection is averaged to a scalar
        out = expect_onto_center(M2, PLUS, E11)
        np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-12)
        out2 = expect_onto_centralizer(M2, PLUS, E11)
        np.testing.assert_allclose(out2, 0.5 * np.eye(2), atol=1e-12)

    def test_diagonal_state_fixes_diagonal_operators(self):
        A = np.diag([2.0, -1.0]).astype(complex)
        np.testing.assert_allclose(expect_onto_centralizer(M2, RHO_37, A), A, atol=1e-10)
        np.testing.assert_allclose(expect_onto_center(M2, RHO_37, A), A, atol=1e-10)

    def test_axioms_on_random_instances(self):
        gen = rng(61)
        for _ in range(20):
            dim = int(gen.integers(2, 5))
            ambient = full_matrix_algebra(dim)
            state = random_density(gen, dim)
            rep = centralizer(ambient, state)
            A = random_hermitian(gen, dim)
            E = expect_onto_centralizer(ambient, state, A)
            # fixes the target algebra
            for B in rep.centralizer.basis:
                np.testing.assert_allclose(
                    expect_onto_centralizer(ambient, state, B), B, atol=1e-8)
            # preserves the state
            assert state.expect(E) == pytest.approx(state.expect(A), abs=1e-9)
            # Schwarz positivity: E(A)^* E(A) <= E(A^* A)
            gap = expect_onto_centralizer(ambient, state, A.conj().T @ A) \
                - E.conj().T @ E
            assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() > -1e-8

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["full", "diagonal", "tensor"]), n=st.integers(1, 4),
           m=st.integers(1, 3), levels=st.integers(1, 3), jitter=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_pinching_in_the_eigenbasis_matches_the_dense_sum(self, kind, n, m, levels,
                                                              jitter, seed):
        # Q's eigenvalues come from a few levels, so clusters merge inside a
        # block and across blocks; with jitter they merge within
        # DEGENERACY_TOL instead of up to rounding
        gen = rng(seed)
        if kind == "full":
            ambient, size, rest = full_matrix_algebra(n * m), n * m, 0
        elif kind == "diagonal":
            ambient, size, rest = diagonal_algebra(n * m), 1, n * m - 1
        else:
            ambient, size, rest = tensor_ambient(gen, n, m, scalars=1), n, 1
        pool = 0.1 + gen.random(levels)
        values = gen.choice(pool, size + rest) + jitter * 1e-10 * gen.random(size + rest)
        U = random_unitary(gen, size)
        q = U @ np.diag(values[:size]) @ U.conj().T
        state = tensor_state(gen, ambient, q, values[size:])
        d = ambient.dim
        X = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        A = ambient.project(X)[0]
        A = A / operator_norm(A)
        fast, info = expect_onto_centralizer(ambient, state, A, return_info=True)
        assert operator_norm(fast - reference_expect_onto_centralizer(ambient, state, A)) <= 1e-12
        assert info.ambient_residual <= 1e-12
        X = X / operator_norm(X)
        if contains(ambient, X).inside:     # the full algebra holds every matrix
            fast = expect_onto_centralizer(ambient, state, X)
            assert operator_norm(fast - reference_expect_onto_centralizer(ambient, state, X)) \
                <= 1e-12
        else:
            with pytest.raises(InvariantViolation, match="outside the ambient"):
                expect_onto_centralizer(ambient, state, X)

    def test_rounding_outside_the_ambient_is_projected_back(self):
        # inside within SPAN_TOL but not exactly; the maximally mixed state
        # pinches nothing away, so the pinching leaves the span and is projected
        D = diagonal_algebra(2)
        Y = np.diag([2.0, -1.0]).astype(complex) + 1e-10 * SX
        out, info = expect_onto_centralizer(D, DensityState(0.5 * np.eye(2)), Y,
                                            return_info=True)
        assert info.ambient_residual == pytest.approx(np.sqrt(2) * 1e-10, rel=1e-6)
        assert out[0, 1] == out[1, 0] == 0.0
        np.testing.assert_allclose(out, np.diag([2.0, -1.0]), atol=1e-15)

    def test_operator_outside_ambient_rejected(self):
        with pytest.raises(InvariantViolation, match="ambient"):
            expect_onto_centralizer(diagonal_algebra(2), RHO_37, SX)

    def test_rank_deficient_state_still_averages_to_unit_weights(self):
        # states with a zero-weight atom: the map must still send 1 to 1
        pure = DensityState(np.diag([1.0, 0.0]).astype(complex))
        out = expect_onto_center(M2, pure, np.eye(2, dtype=complex))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-10)


class TestIncoherenceDefect:
    def test_frozen_two_level_example(self):
        part = PartitionOfUnity(("+", "-"), (E11, E22))
        d = incoherence_defect(M2, PLUS, part, SX)
        assert d.lhs == pytest.approx(1.0, abs=1e-12)
        assert d.bound == pytest.approx(4.0, rel=1e-12)
        assert d.delta_prime == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_when_the_state_is_already_incoherent(self):
        part = PartitionOfUnity(("+", "-"), (E11, E22))
        d = incoherence_defect(M2, RHO_37, part, SX)
        assert d.lhs == pytest.approx(0.0, abs=1e-12)
        assert d.delta_prime == pytest.approx(0.0, abs=1e-10)

    def test_bound_holds_on_random_instances(self):
        gen = rng(67)
        from _helpers import random_partition
        for _ in range(40):
            dim = int(gen.integers(2, 6))
            state = random_density(gen, dim)
            part = random_partition(gen, dim, int(gen.integers(2, dim + 1)))
            A = random_hermitian(gen, dim)
            d = incoherence_defect(full_matrix_algebra(dim), state, part, A)
            assert d.lhs <= d.bound + 1e-9

    def test_centralizer_variant_also_bounds(self):
        part = PartitionOfUnity(("+", "-"), (E11, E22))
        d = incoherence_defect(M2, PLUS, part, SX, use_center=False)
        assert d.lhs <= d.bound + 1e-12


class TestUnitaryCovariance:
    def test_centralizer_transforms_with_the_state(self):
        gen = rng(71)
        state = random_density(gen, 3)
        U = random_unitary(gen, 3)
        moved = DensityState(U @ state.matrix @ U.conj().T)
        rep = centralizer(full_matrix_algebra(3), state)
        rep_moved = centralizer(full_matrix_algebra(3), moved)
        rotated = [U @ P @ U.conj().T for P in rep.central_projections]
        # same atom set up to ordering
        for P in rotated:
            best = min(operator_norm(P - Qp) for Qp in rep_moved.central_projections)
            assert best < 1e-7


def _block_generated_algebra(gen, dim):
    """Conjugated algebra (+)_b M_{n_b} (x) 1_{m_b} generated by two random elements."""
    sizes, remaining = [], dim
    while remaining:
        m = 2 if remaining >= 2 and gen.random() < 0.3 else 1
        n = int(gen.integers(1, remaining // m + 1))
        sizes.append((n, m))
        remaining -= n * m
    U = random_unitary(gen, dim)
    gens = []
    for _ in range(2):
        G = np.zeros((dim, dim), dtype=complex)
        at = 0
        for n, m in sizes:
            G[at:at + n * m, at:at + n * m] = np.kron(random_hermitian(gen, n), np.eye(m))
            at += n * m
        gens.append(U.conj().T @ G @ U)
    return generate_algebra(gens)


def _random_ambient(gen, kind, dim):
    if kind == "full":
        return full_matrix_algebra(dim)
    if kind == "diagonal":
        return diagonal_algebra(dim)
    return _block_generated_algebra(gen, dim)


class TestClosedFormAgainstGenericOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 6), kind=st.sampled_from(["full", "diagonal", "generated"]),
           seed=st.integers(0, 2**32 - 1), deficient=st.booleans())
    def test_report_matches_the_svd_nullspace_path(self, dim, kind, seed, deficient):
        gen = rng(seed)
        ambient = _random_ambient(gen, kind, dim)
        state = random_density(gen, dim, rank=int(gen.integers(1, dim)) if deficient else None)
        rep = centralizer(ambient, state)
        ref = reference_centralizer(ambient, state)

        assert len(rep.central_projections) == len(ref.central_projections)
        matched = [int(np.argmin([operator_norm(P - R) for R in ref.central_projections]))
                   for P in rep.central_projections]
        assert sorted(matched) == list(range(len(matched)))
        for P, j in zip(rep.central_projections, matched):
            assert operator_norm(P - ref.central_projections[j]) <= 1e-9

        coeff = gen.standard_normal(ambient.algebra_dim)
        A = sum(c * B for c, B in zip(coeff, ambient.basis))
        for X in (A, A.conj().T @ A, np.eye(dim, dtype=complex)):
            fast = expect_onto_center(ambient, state, X)
            slow = reference_expect_onto_center(state, X, ref.central_projections)[0]
            assert operator_norm(fast - slow) <= 1e-9

        assert equal_span(rep.centralizer, ref.centralizer)[0]
        assert equal_span(rep.center, ref.center)[0]


def _near_degenerate_state(seed, gap):
    U = random_unitary(rng(seed), 3)
    return DensityState(U @ np.diag([0.3 - gap / 2, 0.3 + gap / 2, 0.4]) @ U.conj().T)


class TestNearDegenerateStates:
    # Eigenvalues closer than DEGENERACY_TOL (1e-8) share one atom, so the
    # atoms must not depend on a separate rank cutoff near that gap.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gap, atoms, cent_dim", [(1e-7, 3, 3), (1e-9, 2, 5), (1e-10, 2, 5)])
    def test_atoms_follow_degeneracy_clustering(self, seed, gap, atoms, cent_dim):
        rep = centralizer(full_matrix_algebra(3), _near_degenerate_state(seed, gap))
        assert len(rep.central_projections) == atoms
        assert rep.centralizer.algebra_dim == cent_dim
        assert rep.center.algebra_dim == atoms

    @pytest.mark.parametrize("gap", [1e-7, 1e-9, 1e-10])
    def test_detection_gated_trajectory_completes(self, gap):
        gen = rng(83)
        frame = HeisenbergFrame.build(times=(1.0, 2.0, 3.0),
                                      partitions=random_partition(gen, 3, 2),
                                      step_propagator=random_unitary(gen, 3))
        result = run_trajectory(frame, _near_degenerate_state(0, gap),
                                rng_seed=5, require_detection=True)
        assert len(result.branch_log) == 3


class TestClosedFormCost:
    def test_detection_skips_the_generic_path(self, monkeypatch):
        gen = rng(89)
        cases = []
        for ambient in (block_algebra(), full_matrix_algebra(3), diagonal_algebra(3),
                        tensor_ambient(gen, 2, 2, scalars=1)):
            ambient.minimal_central_projections   # once per ambient, not per state
            (n, m), d = ambient.blocks[0], ambient.dim
            P = in_tensor_block(ambient, np.diag(np.arange(n) == 0), np.zeros(d - n * m))
            part = PartitionOfUnity((0, 1), (P, np.eye(d) - P))
            frame = HeisenbergFrame((1.0,), None, ((part,),), (ambient,))
            cases.append((ambient, frame, part, random_density(gen, ambient.dim)))

        def forbidden(*args, **kwargs):
            raise AssertionError("generic commutant/center path used")

        for name in ("commutant", "center", "minimal_projections"):
            monkeypatch.setattr(qevents.algebras, name, forbidden)
        monkeypatch.setattr(qevents.centralizers, "minimal_projections", forbidden)
        # the pairwise family check and the dense eigh of Q
        for module in (qevents.operators, qevents.centralizers):
            for name in ("validate_projection_family", "spectral_decompose"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        for ambient, frame, part, state in cases:
            assert len(centralizer(ambient, state).central_projections) == 3
            assert detect_event(frame, state, 1.0, part).admissible

    def test_dimension_16_stays_small(self):
        ambient = full_matrix_algebra(16)
        state = random_density(rng(97), 16)
        tracemalloc.start()
        try:
            rep = centralizer(ambient, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.central_projections) == 16
        assert peak < 16 * 2**20


class TestClosedFormCentralizer:
    """``CentralizerReport.centralizer``/``.center`` from the per-block eigenvectors of Q."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(n, m) for n in range(1, 5) for m in range(1, 4) if n * m <= 8]),
           scalar=st.booleans(), levels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_svd_nullspace_path(self, shape, scalar, levels, seed):
        # Q's eigenvalues come from a few levels, so clusters merge inside
        # the tensor block and, with the scalar block, across blocks
        gen = rng(seed)
        n, m = shape
        ambient = tensor_ambient(gen, n, m, scalars=int(scalar))
        pool = 0.1 + gen.random(levels)
        U = random_unitary(gen, n)
        q = U @ np.diag(gen.choice(pool, n)) @ U.conj().T
        state = tensor_state(gen, ambient, q, gen.choice(pool, int(scalar)))
        rep = centralizer(ambient, state)
        ref = reference_centralizer(ambient, state)

        assert rep.centralizer.algebra_dim == ref.centralizer.algebra_dim
        assert equal_span(rep.centralizer, ref.centralizer)[0]
        assert equal_span(rep.center, ref.center)[0]
        # the center's block indicators are the report's atoms
        atoms = rep.center.minimal_central_projections
        assert len(atoms) == len(rep.central_projections)
        for z in atoms:
            assert min(operator_norm(z - P) for P in rep.central_projections) <= 1e-9

    @pytest.mark.parametrize("gap, scalar, cent_dim, atoms",
                             [(3e-9, 0.2 + 1.5e-9, 6, 3), (1e-7, 0.35, 4, 4)])
    def test_clusters_merged_within_degeneracy_tol(self, gap, scalar, cent_dim, atoms):
        # eigenvalues 0.2, 0.2 + gap, 0.5 in M_3 (x) 1_2 and ``scalar`` on C:
        # below DEGENERACY_TOL those near 0.2 chain into one cluster, which
        # commutes with the clustered representative Qbar, not with Q itself
        for seed in range(100, 140):
            gen = rng(seed)
            ambient = tensor_ambient(gen, 3, 2, scalars=1)
            U = random_unitary(gen, 3)
            q = U @ np.diag([0.2, 0.2 + gap, 0.5]) @ U.conj().T
            Q = in_tensor_block(ambient, q, [scalar])
            state = DensityState(Q / np.trace(Q).real)
            rep = centralizer(ambient, state)
            assert rep.centralizer.algebra_dim == cent_dim
            assert len(rep.central_projections) == rep.center.algebra_dim == atoms
            Q = ambient_representative(ambient, state)
            Qbar = rep.state_spectral.reconstruct()
            spread = operator_norm(Q - Qbar)
            for B in rep.centralizer.basis:
                assert contains(ambient, B)[0]
                assert operator_norm(Qbar @ B - B @ Qbar) <= 1e-9
                # [Q, B] = [Q - Qbar, B]
                assert operator_norm(Q @ B - B @ Q) <= 2 * spread * operator_norm(B) + 1e-15
            if gap < DEGENERACY_TOL:
                # reference_centralizer's rank cutoff (1e-10) keeps merged eigenvalues apart
                pinched = reference_pinched_centralizer(ambient, state)
                assert equal_span(rep.centralizer, pinched)[0]

    def test_near_degeneracy_across_blocks(self):
        # 0.2 + 5e-8 on C lies between two eigenvalues of the M_3 (x) 1_2 block,
        # 5e-8 from each: four clusters, and no eigenvector mixes the blocks
        # (one eigh of Q mixed them by about eps / gap, and the atoms it formed
        # failed the family check: "projection 0 not Hermitian: defect 1.077e-09")
        gen = rng(113)
        ambient = tensor_ambient(gen, 3, 2, scalars=1)
        U = random_unitary(gen, 3)
        Q = in_tensor_block(ambient, U @ np.diag([0.2, 0.2 + 1e-7, 0.5]) @ U.conj().T,
                            [0.2 + 5e-8])
        state = DensityState(Q / np.trace(Q).real)
        rep = centralizer(ambient, state)
        assert rep.centralizer.blocks == ((1, 2), (1, 2), (1, 2), (1, 1))
        reference_validate_projection_family(rep.central_projections)
        Q = ambient_representative(ambient, state)
        for z in rep.central_projections:
            assert contains(ambient, z)[0]
            assert operator_norm(Q @ z - z @ Q) <= 1e-13

    def test_full_access_at_dimension_64_takes_milliseconds(self):
        # the pinched-span construction grew like d^6 (0.21 s at d = 24)
        script = (
            "import time\n"
            "import numpy as np\n"
            "from qevents import DensityState, centralizer, full_matrix_algebra\n"
            "g = np.random.default_rng(5)\n"
            "G = g.standard_normal((64, 64)) + 1j * g.standard_normal((64, 64))\n"
            "M = G @ G.conj().T\n"
            "rep = centralizer(full_matrix_algebra(64), DensityState(M / np.trace(M).real))\n"
            "t = time.perf_counter()\n"
            "c = rep.centralizer\n"
            "z = rep.center\n"
            "print(time.perf_counter() - t, c.algebra_dim, z.algebra_dim)\n"
        )
        proc = run_capped(script, timeout=20)
        assert proc.returncode == 0, proc.stderr[-2000:]
        elapsed, cent_dim, center_dim = proc.stdout.split()
        assert (int(cent_dim), int(center_dim)) == (64, 64)
        assert float(elapsed) < 1.0
