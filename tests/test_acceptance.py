"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live) and asserts at the criterion's stated tolerance.  Derived
reference values come from the independent oracles in oracles.py, never
from the code path under test.
"""

import math
import time

import numpy as np

from catport.algebra import (CoherentSuperposition, fidelity, gram_matrix,
                             overlap)
from catport.bell import (FREQUENCY_TABLE, LABELS, DisplacementQuantum,
                          combined_op, eigen_residual,
                          generate_from_dynamics, gram_closed_form,
                          make_quasi_bell, predicted_eigenvalue)
from catport.checks import check_backend_equivalence
from catport.cli import main as cli_main
from catport.fock import (DynamicsParams, coherent_column, evolve,
                          fock_displacement, quadrature_x, to_fock,
                          truncation_rule)
from catport.protocol import (TargetState, classical_baseline,
                              misclassification_probability,
                              run_teleport_homodyne, run_teleport_ideal,
                              three_mode_state)
from catport.reports import loglog_slope

from oracles import gaussian_negative_mass


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_frequency_table_reproduction():
    t0 = time.monotonic()
    worst_exact, worst_fock = 1.0, 1.0
    dims = truncation_rule(1.0)
    for (wa, wb), label in FREQUENCY_TABLE.items():
        state, got = generate_from_dynamics(wa, wb, 1.0, 1.0)
        assert got is label
        worst_exact = min(worst_exact,
                          fidelity(state, make_quasi_bell(label, 1.0, 1.0)))
        vec = evolve(to_fock(CoherentSuperposition.coherent([1.0, 1.0]),
                             dims),
                     DynamicsParams(wa, wb, 1.0, math.pi))
        worst_fock = min(worst_fock,
                         vec.fidelity(to_fock(make_quasi_bell(label, 1.0,
                                                              1.0), dims)))
    elapsed = time.monotonic() - t0
    ok = worst_exact >= 1 - 1e-10 and worst_fock >= 1 - 1e-8 and elapsed < 5.0
    report("1 frequency-table", ok,
           f"exact {worst_exact:.3e}, fock {worst_fock:.3e}, "
           f"{elapsed:.2f}s (<5s)")


def test_criterion_02_backend_equivalence():
    t0 = time.monotonic()
    result = check_backend_equivalence(seed=20260808)
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 30.0
    report("2 backend-equivalence", ok, f"{result.detail}, {elapsed:.1f}s (<30s)")


def test_criterion_03_gram_closed_forms():
    worst = 0.0
    for alpha in (1.0, 2.0, 4.0):
        for beta in (1.0, 2.0, 4.0):
            g = gram_matrix([make_quasi_bell(lab, alpha, beta)
                             for lab in LABELS])
            worst = max(worst,
                        float(np.max(np.abs(g - gram_closed_form(alpha,
                                                                 beta)))))
    ok = worst <= 1e-12
    report("3 gram-closed-forms", ok,
           f"worst |G - closed form| = {worst:.3e} (<=1e-12)")


def test_criterion_04_eigenvalue_equations():
    q = DisplacementQuantum(0, 0)
    grid = [4.0, 8.0, 16.0, 32.0]
    worst_slope_err = 0.0
    for which in ("PbDa", "PaDb"):
        res = [eigen_residual(which, q, a, a) for a in grid]
        slope = loglog_slope(grid, res)
        worst_slope_err = max(worst_slope_err, abs(slope + 2.0))
    signs_ok = True
    for a in (8.0, 16.0, 32.0):
        for which, want in (("PbDa", [1j, 1j, -1j, -1j]),
                            ("PaDb", [1j, -1j, 1j, -1j])):
            got = []
            for lab in LABELS:
                s = make_quasi_bell(lab, a, a)
                amp = overlap(s, combined_op(s, which, q, a, a))
                got.append(1j if amp.imag > 0 else -1j)
                assert predicted_eigenvalue(lab, which, q) == want[len(got) - 1]
            signs_ok = signs_ok and got == want
    ok = worst_slope_err <= 0.1 and signs_ok
    report("4 eigenvalue-equations", ok,
           f"max |slope+2| = {worst_slope_err:.3f} (<=0.1), "
           f"sign sets {'recovered' if signs_ok else 'WRONG'}")


def test_criterion_05_protocol_correctness():
    t0 = time.monotonic()
    target = TargetState(1.0, 0.0, 3.0)
    run = run_teleport_ideal(target, 3.0, 3.0)
    phi_err = max(abs(1.0 - run.branches[0].branch_fidelity),
                  abs(1.0 - run.branches[1].branch_fidelity))
    closed = math.exp(-(math.pi / 6) ** 2 / 2)
    psi_err = max(abs(math.sqrt(run.branches[2].branch_fidelity) - closed),
                  abs(math.sqrt(run.branches[3].branch_fidelity) - closed))
    sum_err = abs(1.0 - float(run.probabilities().sum()))
    sampled = run_teleport_ideal(target, 3.0, 3.0, mode="sample", seed=404,
                                 trials=100000)
    p = sampled.probabilities()
    emp = np.array(sampled.counts) / sum(sampled.counts)
    sigma = np.sqrt(p * (1 - p) / 100000)
    three_sigma_ok = bool(np.all(np.abs(emp - p) <= 3 * sigma + 1e-12))
    elapsed = time.monotonic() - t0
    ok = (phi_err <= 1e-10 and psi_err <= 1e-6 and sum_err <= 1e-10
          and three_sigma_ok and elapsed < 60.0)
    report("5 protocol-correctness", ok,
           f"Phi err {phi_err:.2e} (<=1e-10), Psi overlap err {psi_err:.2e} "
           f"(<=1e-6 vs {closed:.6f}), prob sum err {sum_err:.2e}, "
           f"3-sigma {'ok' if three_sigma_ok else 'FAIL'}, "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_06_asymptotics():
    betas = [2.0, 4.0, 8.0, 16.0]
    fids = []
    for b in betas:
        run = run_teleport_ideal(TargetState(1.0, 0.0, b), b, b)
        fids.append(run.average_fidelity)
    increasing = all(x < y for x, y in zip(fids, fids[1:]))
    slope = loglog_slope(betas, [1.0 - f for f in fids])
    balanced = TargetState(1 / math.sqrt(2), 1 / math.sqrt(2), 4.0)
    p = run_teleport_ideal(balanced, 4.0, 4.0).probabilities()
    prob_err = float(np.max(np.abs(p - 0.25)))
    ok = increasing and abs(slope + 2.0) <= 0.2 and prob_err <= 1e-6
    report("6 asymptotics", ok,
           f"avg fidelity {'increasing' if increasing else 'NOT increasing'} "
           f"{[round(f, 6) for f in fids]}, slope {slope:.3f} (within -2+-0.2), "
           f"max |p-1/4| = {prob_err:.2e} (<=1e-6)")


def test_criterion_07_homodyne_path():
    # reference four-term structure, exact backend
    gamma = alpha = beta = 2.0
    ca, cb = 0.6, 0.8
    got = three_mode_state(TargetState(ca, cb, gamma), alpha, beta)
    reference = CoherentSuperposition(3, (
        (0.5 * ca, (gamma, alpha, beta)), (0.5 * cb, (gamma, alpha, -beta)),
        (0.5 * ca, (gamma, -alpha, beta)), (-0.5 * cb, (gamma, -alpha, -beta)),
        (0.5 * ca, (-gamma, alpha, -beta)), (0.5 * cb, (-gamma, alpha, beta)),
        (-0.5 * ca, (-gamma, -alpha, -beta)),
        (0.5 * cb, (-gamma, -alpha, beta))))
    structure_fid = fidelity(got, reference)
    sign_err = abs(misclassification_probability(1.0)
                   - gaussian_negative_mass(2.0))
    hom = run_teleport_homodyne(TargetState(1.0, 0.0, 4.0), 4.0, 4.0)
    ideal = run_teleport_ideal(TargetState(1.0, 0.0, 4.0), 4.0, 4.0)
    path_gap = abs(hom.average_fidelity - ideal.average_fidelity)
    ok = (structure_fid >= 1 - 1e-10 and sign_err <= 1e-6
          and path_gap < 1e-6)
    report("7 homodyne-path", ok,
           f"structure fidelity 1-{1 - structure_fid:.2e} (>=1-1e-10), "
           f"sign-error vs quadrature {sign_err:.2e} (<=1e-6), "
           f"path gap {path_gap:.2e} (<1e-6)")


def test_criterion_08_classical_baseline():
    guess, fid = classical_baseline(TargetState(1.0, 0.0, 3.0), 3.0, 3.0,
                                    trials=10000, seed=2026)
    ok = abs(guess - 0.25) <= 0.01
    report("8 classical-baseline", ok,
           f"guess rate {guess:.4f} (0.25 +- 0.01), "
           f"random-correction fidelity {fid:.4f}")


def test_criterion_09_displacement_linearization():
    eps = 0.01j
    dim = 40
    d = np.asarray(fock_displacement(dim, eps))
    x = np.asarray(quadrature_x(dim))
    ok = True
    worst = 0.0
    for mag in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        for phase in (1.0, 1j, (1 + 1j) / math.sqrt(2)):
            alpha = mag * phase
            col = coherent_column(dim, alpha)
            lhs = float(np.linalg.norm(
                d @ col - col - 1j * abs(eps) * (x @ col)))
            bound = abs(eps) ** 2 * (2 * abs(alpha) + 1) ** 2 / 2
            ok = ok and lhs <= bound
            worst = max(worst, lhs / bound)
    report("9 displacement-linearization", ok,
           f"max remainder/bound {worst:.3f} over |alpha| in [0.25, 2] "
           "(bound violated below |alpha| ~ 0.21, outside the "
           "small-displacement regime)")


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alpha": 3.0, "beta": 3.0, "gamma": 3.0, '
                   '"mode": "sample", "trials": 100000}')
    payloads = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli_main(["teleport", "--config", str(cfg), "--seed", "31337",
                         "--out", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    report("10 reproducibility", ok,
           f"two seeded runs produced {'identical' if ok else 'DIFFERENT'} "
           f"bytes ({len(payloads[0])} bytes)")
