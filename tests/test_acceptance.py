"""End-to-end acceptance checks with pinned tolerances.

Each test prints one PASS/FAIL line on the terminal (bypassing capture) so a
full run yields an eleven-line scoreboard next to the pytest result.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qevents import (DeFinettiModel, DensityState, HeisenbergFrame,
                     PartitionOfUnity, born_rule_experiment, center,
                     commutant, commuting_realization, consistency_check,
                     detect_event, detection_time, diagonal_algebra,
                     equal_span, exact_protocol_probability,
                     expect_onto_center, expect_onto_centralizer,
                     full_matrix_algebra, generate_algebra, incoherence_defect,
                     is_maximal_abelian, lsw_probability, centralizer,
                     posterior_entropies, sample_protocols, sampler_vs_measure,
                     sanov_check, substream)
from qevents.histories import MeasurementProtocol

from _helpers import (basis, random_blocks, random_density, random_hermitian,
                      random_partition, random_unitary, rng)

LN2 = float(np.log(2.0))
E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
PART = PartitionOfUnity(("+", "-"), (E11, E22))
HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    assert ok, f"acceptance {num}: {detail}"


def reference_model():
    return DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]))


def random_ambient(gen, dim):
    kind = int(gen.integers(0, 4))
    if kind == 0:
        return full_matrix_algebra(dim)
    if kind == 1:
        return diagonal_algebra(dim)
    if kind == 2:
        U = random_unitary(gen, dim)
        from qevents import FiniteAlgebra
        return FiniteAlgebra.from_span(
            [U.conj().T @ B @ U for B in basis(diagonal_algebra(dim))])
    return generate_algebra([random_hermitian(gen, dim)])


def random_in_span(gen, algebra):
    units = basis(algebra)
    coeff = gen.standard_normal(len(units))
    A = sum(c * B for c, B in zip(coeff, units))
    return (A + A.conj().T) / 2.0


def test_acceptance_01_conditional_expectation_axioms(capsys):
    """Both conditional expectations satisfy the three axioms on 200 cases."""
    gen = rng(1001)
    t0 = time.perf_counter()
    worst_fix = worst_state = worst_schwarz = 0.0
    for _ in range(200):
        dim = int(gen.integers(2, 7))
        ambient = random_ambient(gen, dim)
        state = random_density(gen, dim,
                               rank=None if gen.random() < 0.7
                               else int(gen.integers(1, dim + 1)))
        rep = centralizer(ambient, state)
        A = random_in_span(gen, ambient)
        for mapper, target in ((expect_onto_centralizer, rep.centralizer),
                               (expect_onto_center, rep.center)):
            E_A = mapper(ambient, state, A)
            # (i) the target algebra is fixed pointwise
            for B in basis(target):
                E_B = mapper(ambient, state, B)
                worst_fix = max(worst_fix, float(np.linalg.norm(E_B - B, 2)))
            # (ii) the state is preserved
            worst_state = max(worst_state,
                              abs(state.expect(E_A) - state.expect(A)))
            # (iii) Schwarz positivity
            E_AA = mapper(ambient, state, A.conj().T @ A)
            gap = E_AA - E_A.conj().T @ E_A
            low = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2).min())
            worst_schwarz = max(worst_schwarz, max(0.0, -low))
    elapsed = time.perf_counter() - t0
    worst = max(worst_fix, worst_state, worst_schwarz)
    ok = worst <= 1e-9 and elapsed < 10.0
    report(capsys, 1, ok,
           f"200 instances dims<=6: fix {worst_fix:.2e}, state {worst_state:.2e}, "
           f"schwarz {worst_schwarz:.2e} (tol 1e-9), {elapsed:.1f}s (<10s)")


def test_acceptance_02_incoherence_bound(capsys):
    """The pinching defect never exceeds 4 N delta' ||A|| on 500 cases."""
    gen = rng(1002)
    t0 = time.perf_counter()
    violations = 0
    worst_margin = -np.inf
    for _ in range(500):
        dim = int(gen.integers(2, 9))
        blocks = int(gen.integers(2, min(dim, 4) + 1))
        if gen.random() < 0.8:
            ambient = full_matrix_algebra(dim)
            part = random_partition(gen, dim, blocks, rotate=gen.random() < 0.5)
        else:
            ambient = diagonal_algebra(dim)
            projs = random_blocks(gen, dim, blocks)
            part = PartitionOfUnity(tuple(range(blocks)), tuple(projs))
        state = random_density(gen, dim)
        A = random_in_span(gen, ambient)
        d = incoherence_defect(ambient, state, part, A)
        margin = d.lhs - d.bound
        worst_margin = max(worst_margin, margin)
        if margin > 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(capsys, 2, ok,
           f"500 instances dims<=8 outcomes<=4: {violations} violations, "
           f"worst lhs-bound {worst_margin:.2e}, {elapsed:.1f}s (<30s)")


def test_acceptance_03_bicommutant_and_center(capsys):
    """Double commutants reproduce the algebra; centers behave structurally."""
    gen = rng(1003)
    cases = []
    for dim in range(2, 9):
        cases.append(diagonal_algebra(dim))
    for dim in (2, 3, 4):
        cases.append(full_matrix_algebra(dim))
        cases.append(generate_algebra([random_hermitian(gen, dim)]))
        cases.append(generate_algebra([random_hermitian(gen, dim),
                                       random_hermitian(gen, dim)]))
    for dim in (4, 6, 8):
        from qevents import FiniteAlgebra
        U = random_unitary(gen, dim)
        cases.append(FiniteAlgebra.from_span(
            [U.conj().T @ B @ U for B in basis(diagonal_algebra(dim))]))
    worst = 0.0
    ok_struct = True
    for A in cases:
        ok, r = equal_span(commutant(commutant(A)), A, tol=1e-8)
        worst = max(worst, r)
        ok_struct &= ok
        Z = center(A)
        okc, rc = equal_span(Z, center(commutant(A)), tol=1e-8)
        worst = max(worst, rc)
        ok_struct &= okc
        # the center is commutative
        units = basis(Z)
        for i, X in enumerate(units):
            for Y in units[i + 1:]:
                worst = max(worst, float(np.linalg.norm(X @ Y - Y @ X, 2)))
    ok_struct &= center(full_matrix_algebra(4)).algebra_dim == 1
    ok_struct &= equal_span(center(diagonal_algebra(5)), diagonal_algebra(5))[0]
    ok_struct &= is_maximal_abelian(diagonal_algebra(6), full_matrix_algebra(6))
    ok = ok_struct and worst <= 1e-8
    report(capsys, 3, ok,
           f"{len(cases)} algebras dims<=8: worst span/commutator residual "
           f"{worst:.2e} (tol 1e-8)")


def test_acceptance_04_history_measure_and_sampler(capsys):
    """Prefix additivity exactly; a million-sample trajectory histogram
    agrees with the history measure in total variation."""
    gen = rng(1004)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(12):
        dim = int(gen.integers(2, 5))
        outcomes = int(gen.integers(2, min(dim, 4) + 1))
        spec_vals = np.arange(dim, dtype=float)
        spec_vals[outcomes:] = np.arange(outcomes, dim) % outcomes
        gen.shuffle(spec_vals)
        base = PartitionOfUnity.from_observable(np.diag(spec_vals).astype(complex))
        U = random_unitary(gen, dim)
        fr = HeisenbergFrame.build((1.0, 2.0, 3.0), base, step_propagator=U)
        state = random_density(gen, dim)
        rep = consistency_check(fr, state, 3)
        worst = max(worst, rep.max_marginal_residual, rep.normalization_residual)
    fr3 = HeisenbergFrame.build((1.0, 2.0, 3.0), PART, step_propagator=HAD)
    plus = DensityState(np.full((2, 2), 0.5, dtype=complex))
    tv = sampler_vs_measure(fr3, plus, 3, 10 ** 6, seed=0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and tv <= 0.01 and elapsed < 120.0
    report(capsys, 4, ok,
           f"12 random frames exact to {worst:.2e} (tol 1e-12); "
           f"TV@1e6 {tv:.2e} (tol 1e-2); {elapsed:.1f}s (<120s)")


def test_acceptance_05_event_criterion_examples(capsys):
    """An incoherent two-level state fires at distance 0; the balanced
    superposition sits at distance 1/2 with no admissible threshold."""
    fr = HeisenbergFrame((1.0,), (np.eye(2, dtype=complex),), ((PART,),), (None,))
    rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
    plus = DensityState(np.full((2, 2), 0.5, dtype=complex))
    v1 = detect_event(fr, rho, 1.0, PART)
    v2 = detect_event(fr, plus, 1.0, PART)
    ok = (v1.happened and abs(v1.distance) <= 1e-12
          and abs(v1.threshold - 0.1) <= 1e-12
          and (not v2.happened) and (not v2.admissible)
          and abs(v2.distance - 0.5) <= 1e-9 and np.isnan(v2.threshold))
    report(capsys, 5, ok,
           f"diagonal: fired={v1.happened} dist={v1.distance:.1e} thr={v1.threshold}; "
           f"superposition: fired={v2.happened} dist={v2.distance:.3f} "
           f"admissible={v2.admissible}")


def test_acceptance_06_born_from_band_masses(capsys):
    """At n=500 the sampled band mass of the first hypothesis matches its
    weight to 0.015 and almost every protocol is classified."""
    t0 = time.perf_counter()
    exp = born_rule_experiment(reference_model(), 500, 20000, seed=0)
    elapsed = time.perf_counter() - t0
    dev = abs(exp.empirical[0] - 0.4)
    ok = dev <= 0.015 and exp.coverage >= 0.99 and elapsed < 60.0
    report(capsys, 6, ok,
           f"n=500, 2e4 protocols: |mass(0)-0.4|={dev:.4f} (tol 0.015), "
           f"coverage={exp.coverage:.4f} (>=0.99), {elapsed:.1f}s (<60s)")


def test_acceptance_07_posterior_purification(capsys):
    """Long protocols make the latent posterior essentially deterministic."""
    model = reference_model()
    sample = sample_protocols(model, 200, 10_000, seed=0)
    mean_bits = float(posterior_entropies(model, sample).mean())
    ok = mean_bits <= 0.01
    report(capsys, 7, ok,
           f"1e4 protocols of length 200: mean posterior entropy "
           f"{mean_bits:.2e} bits (tol 0.01)")


def test_acceptance_08_large_deviation_rates(capsys):
    """Cross-band masses decay at the binary divergence rate."""
    t0 = time.perf_counter()
    rep = sanov_check(reference_model(), 0, 1, [50, 100, 200, 400])
    elapsed = time.perf_counter() - t0
    row = {r.n: r for r in rep.rows}[400]
    ratio = row.empirical_rate / row.band_kl_rate
    ok = abs(ratio - 1.0) <= 0.10 and rep.certified and elapsed < 10.0
    report(capsys, 8, ok,
           f"n=400 rate ratio {ratio:.4f} (within 10%); Chernoff bound over "
           f"n in {{50,100,200,400}}: {rep.certified}; {elapsed:.1f}s (<10s)")


def test_acceptance_09_detection_time_scale(capsys):
    """The two-hypothesis reference model pins the click-resolution scale."""
    dt = detection_time(reference_model())
    product = dt.n_star * dt.sigma_min_bits * LN2
    ok = (abs(dt.sigma_min_bits - 0.7705590150115544) <= 1e-4
          and abs(dt.time_scale - 1.2977591339775645) <= 1.3e-3
          and 0.5 <= product <= 3.0)
    report(capsys, 9, ok,
           f"sigma_min={dt.sigma_min_bits:.6f} bits, T={dt.time_scale:.6f}, "
           f"n*={dt.n_star}, n*.sigma.ln2={product:.4f} in [0.5, 3]")


def test_acceptance_10_commuting_bridge(capsys):
    """The sequential history measure of the diagonal realization equals the
    exchangeable mixture for every protocol up to length 6."""
    model = reference_model()
    worst = 0.0
    total = 0
    for n in range(1, 7):
        frame, state = commuting_realization(model, n)
        for word in np.ndindex(*(2,) * n):
            proto = tuple(1 if b else -1 for b in word)
            lhs = lsw_probability(frame, state,
                                  MeasurementProtocol(proto, frame.times[:n]))
            rhs = exact_protocol_probability(model, proto)
            worst = max(worst, abs(lhs - rhs))
            total += 1
    ok = worst <= 1e-12
    report(capsys, 10, ok,
           f"{total} protocols, lengths 1..6: worst |lsw - mixture| = "
           f"{worst:.2e} (tol 1e-12)")


def test_acceptance_11_cli_determinism(capsys, tmp_path):
    """Each subcommand writes byte-identical output on reruns."""
    schema = "qevents-config/1"
    c = 0.7071067811865476
    frame_model = {
        "kind": "frame", "times": [1.0, 2.0, 3.0],
        "initial_state": {"diag": [0.3, 0.7]},
        "step_propagator": {"re": [[c, c], [c, -c]]},
        "base_partitions": {"diagonal_labels": ["+", "-"]},
    }
    configs = {
        "detect": {"schema": schema, "model": frame_model},
        "trajectory": {"schema": schema, "model": frame_model,
                       "run": {"samples": 200, "seed": 3}},
        "lsw": {"schema": schema, "model": frame_model,
                "run": {"protocol": ["+", "-"]}},
        "mesoscopic": {"schema": schema,
                       "model": {"kind": "mixture", "weights": [0.4, 0.6],
                                 "p_plus": [0.8, 0.3]},
                       "run": {"n_values": [70], "count": 500}},
    }
    stable = True
    details = []
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}.{attempt}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "qevents.cli", command,
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode in (0, 3), proc.stderr
            outs.append(out.read_bytes())
        same = outs[0] == outs[1]
        stable &= same
        details.append(f"{command}:{'=' if same else '!='}")
    report(capsys, 11, stable, "byte-identical reruns " + " ".join(details))
