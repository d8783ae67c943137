"""Acceptance gate: one test per certificate, tolerances pinned.

Budgets and thresholds mirror the package contract: exact dense algebra at
desk scale, every closed form certified against an independent matrix-action
or diagonalization oracle, and deterministic reports.
"""
import time
from itertools import combinations

import numpy as np
import pytest

from spintorus.chain import default_spec
from spintorus.cli import load_config, run
from spintorus.eigenstate import (Reconstructor, homogeneous_limit_study,
                                  normalize_gauge, scalar_F)
from spintorus.monodromy import (apply_entry_bra, conjugate_vacuum_bra,
                                 exchange_relation_residuals,
                                 product_identity_residual, scalar_a,
                                 vacuum_bra)
from spintorus.rmatrix import (crossing_residual, fusion_rank,
                               initial_condition_residual, qybe_residual,
                               twist_invariance_residual, unitarity_residual)
from spintorus.sov_basis import (OP_ENTRY, BasisIndex, act_on_bra,
                                 basis_states, decomposition_residual,
                                 identity_resolution_residual,
                                 verify_orthogonality)
from spintorus.spectrum import (OMEGA, bae_residuals, brute_force_spectrum,
                                tq_lambda)

from oracles import left_state, monodromy_blocks, right_state


def _points(rng, count):
    return [complex(a, b) for a, b in
            zip(rng.uniform(-1, 1, count), rng.uniform(-1, 1, count))]


def test_criterion_1_rmatrix_certificate():
    started = time.monotonic()
    eta = 0.5
    for n in (2, 3, 4):
        rng = np.random.default_rng((20240229, n))
        assert initial_condition_residual(n, eta) < 1e-11
        assert fusion_rank(n, eta) == n * (n - 1) // 2
        for _ in range(20):
            u1, u2, u3 = _points(rng, 3)
            assert qybe_residual(n, eta, u1, u2, u3) < 1e-11
            assert unitarity_residual(u1, n, eta) < 1e-11
            assert crossing_residual(u1, n, eta) < 1e-11
            assert twist_invariance_residual(u1, n, eta) < 1e-11
    assert time.monotonic() - started < 10.0


def test_criterion_2_algebra_certificate(spec2, spec3):
    started = time.monotonic()
    rng = np.random.default_rng((20240229, 2))
    for spec in (spec2, spec3):
        for _ in range(5):
            u, v = _points(rng, 2)
            residuals = exchange_relation_residuals(u, v, spec)
            assert len(residuals) == 11
            worst = max(residuals.values())
            assert worst < 1e-11, f"N={spec.N}: worst family residual {worst}"
    for N in (1, 2, 3, 4):
        assert product_identity_residual(default_spec(N=N)) < 1e-10
    assert time.monotonic() - started < 60.0


def test_criterion_3_basis_certificate():
    started = time.monotonic()
    for N in (2, 3, 4):
        spec = default_spec(N=N)
        report = verify_orthogonality(spec)
        assert report["diag_rel_err"] < 1e-9, f"N={N}"
        assert report["offdiag_resid"] < 1e-9, f"N={N}"
        assert identity_resolution_residual(spec) < 1e-9, f"N={N}"
    assert time.monotonic() - started < 120.0


def test_criterion_4_decomposition_certificate(spec2, spec3):
    ops = ("D33", "D23", "D32", "B3", "C3")
    for spec in (spec2, spec3):
        rng = np.random.default_rng((20240229, 4, spec.N))
        basis, bra_rows, _ = basis_states(spec)
        assert len(basis) == 3 ** spec.N
        bras = dict(zip(basis, bra_rows))
        for idx in basis:
            for u in _points(rng, 3):
                for op in ops:
                    assert decomposition_residual(op, u, idx, bras, spec) < 1e-9, \
                        f"N={spec.N} {op} {idx}"
        # vanishing relations, exact at the excluded inhomogeneity points
        sites = tuple(range(1, spec.N + 1))
        op_scale = max(np.abs(monodromy_blocks(0.1, spec)[2][2]).max(), 1.0)
        blocks_at = {q: monodromy_blocks(spec.theta[q - 1], spec)
                     for q in sites}
        for idx in basis:
            rv = right_state(idx, spec)
            for q in sites:
                if q in idx.sites:
                    continue
                u = spec.theta[q - 1]
                for op in ("D33", "B3"):
                    assert act_on_bra(op, u, idx, spec) == []
                    dense = apply_entry_bra(u, *OP_ENTRY[op], bras[idx], spec)
                    assert np.abs(dense).max() < 1e-11 * op_scale
                blocks = blocks_at[q]
                scale = max(np.abs(blocks[2][2]).max(), 1.0) \
                    * max(np.abs(rv).max(), 1.0)
                for i in (1, 2):
                    assert np.abs(blocks[i][0] @ rv).max() < 1e-11 * scale
                    for j in (1, 2):
                        assert np.abs(blocks[i][j] @ rv).max() < 1e-11 * scale


def test_criterion_5_spectrum_certificate(spec1, spec2, spec3,
                                          records1, records2, records3):
    spec4 = default_spec(N=4)
    cases = [(spec1, records1), (spec2, records2), (spec3, records3),
             (spec4, brute_force_spectrum(spec4))]
    for spec, records in cases:
        assert len(records) == 3 ** spec.N
        a_all = np.prod([scalar_a(t, spec) for t in spec.theta])
        for rec in records:
            assert rec.residual < 1e-9
            ratio = np.prod(rec.lambda_theta) / a_all
            assert abs(ratio - OMEGA ** rec.z_charge) < 1e-7


def test_criterion_6_root_system_certificate(spec1, spec2, records1, records2,
                                             bae1, bae2, eigenvalue_at):
    sh = complex(np.sinh(0.5))
    for spec, records, result in ((spec1, records1, bae1),
                                  (spec2, records2, bae2)):
        rng = np.random.default_rng((20240229, 6, spec.N))
        for sol in result.solutions:
            assert np.abs(bae_residuals(sol, spec)).max() < 1e-10
        for sol_idx, rec_idx, _ in result.matches:
            sol = result.solutions[sol_idx]
            rec = records[rec_idx]
            for u in _points(rng, 10):
                lam_bf = eigenvalue_at(rec, u, spec)
                lam_tq = tq_lambda(u, sol, spec)
                scale = max(abs(lam_bf), 1.0)
                assert abs(lam_tq - lam_bf) < 1e-6 * scale
    # the single-site search must land every symmetry sector exactly
    assert bae1.coverage == 1.0
    matched_z = {records1[r].z_charge for r in bae1.matched_records}
    assert matched_z == {0, 1, 2}
    for sol_idx, rec_idx, _ in bae1.matches:
        sol = bae1.solutions[sol_idx]
        z = records1[rec_idx].z_charge
        assert abs(tq_lambda(spec1.theta[0], sol, spec1) - OMEGA ** z * sh) < 1e-8
    # larger chains are best effort: report the achieved coverage
    z2 = sorted({records2[r].z_charge for r in bae2.matched_records})
    print(f"\ntwo-site root-search coverage: {bae2.coverage:.3f} "
          f"({len(bae2.matched_records)}/{len(records2)} records, "
          f"Z sectors {z2})")


def test_criterion_7_eigenstate_certificate(spec1, spec2, spec3,
                                            records1, records2, records3):
    for spec, records in ((spec1, records1), (spec2, records2),
                          (spec3, records3)):
        bar_bra = conjugate_vacuum_bra(spec)
        rebuild = Reconstructor(spec)
        for rec in records:
            psi_bar0 = complex(bar_bra @ rec.vector)
            if abs(psi_bar0) < 1e-12 * float(np.abs(rec.vector).max()):
                psi_bar0 = 1.0
            lam = {j + 1: rec.lambda_theta[j] for j in range(spec.N)}
            state = rebuild.state(lam, psi_bar0)
            cos = abs(np.vdot(rec.vector, state)) \
                / (np.linalg.norm(rec.vector) * np.linalg.norm(state))
            assert cos > 1 - 1e-8, f"N={spec.N} z={rec.z_charge}"
    for rec in records2:
        psi_bar0 = complex(conjugate_vacuum_bra(spec2) @ rec.vector)
        lam = {j + 1: rec.lambda_theta[j] for j in range(2)}
        for m in range(3):
            for pset in combinations((1, 2), m):
                bra = left_state(BasisIndex(pset, ()), spec2)
                direct = complex(bra @ rec.vector)
                value = scalar_F(pset, lam, psi_bar0, spec2)
                assert abs(value - direct) < 1e-7 * max(abs(direct), 1.0)


def test_criterion_8_homogeneous_limit_evidence(spec2):
    # convergence here is a conjecture under test: the run must complete and
    # be well formed, and its outcome is reported as evidence either way
    study = homogeneous_limit_study(spec2.theta, spec2.eta)
    assert len(study.families) == 9
    lines = []
    for fam in study.families:
        assert fam.degenerate or len(fam.distances) == 3
        lines.append(
            f"family {fam.hom_index} (Z={fam.z_charge}): "
            f"monotone={fam.monotone} "
            f"distances={[f'{d:.3e}' for d in fam.distances]} "
            f"angle_closed_form={fam.angle_closed_form:.3e} "
            f"angle_eigenvector={fam.angle_eigenvector:.3e}")
    n_small_angle = sum(1 for f in study.families
                        if f.angle_closed_form < 1e-4)
    print("\nhomogeneous-limit evidence:")
    for line in lines:
        print(line)
    print(f"verdict: {study.n_converged}/9 families monotone, "
          f"{n_small_angle}/9 within 1e-4 rad of the closed form "
          f"({'supports' if study.n_converged == 9 and n_small_angle == 9 else 'challenges'} "
          "the uniform-limit conjecture)")


def test_criterion_9_byte_deterministic_reports(tmp_path):
    configs = {
        "verify": {},
        "spectrum": {},
        "bae": {"N": 1, "theta": [0.2]},
        "reconstruct": {},
        "homog": {},
    }
    for command, mapping in configs.items():
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{command}_{tag}"
            code = run(command, load_config(mapping), csv=True,
                       out_dir=str(out))
            assert code == 0
            blobs.append((out / f"{command}_report.json").read_bytes()
                         + (out / f"{command}_report.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{command} report not reproducible"
