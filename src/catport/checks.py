"""Self-contained validation checks for the CLI `validate` command.

Each check re-derives a contract of the library from scratch and returns
a pass/fail record; together they cover backend equivalence, the
operator identities, the entangling frequency table, the Gram closed
forms, the joint-eigenvalue structure, measurement completeness and the
first-order displacement bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .algebra import (CoherentSuperposition, fidelity, gram_matrix,
                      normalize, overlap)
from .bell import (LABELS, DisplacementQuantum, FREQUENCY_TABLE,
                   combined_op, eigen_residual, generate_from_dynamics,
                   gram_closed_form, make_quasi_bell, predicted_eigenvalue)
from .protocol import TargetState, run_teleport_ideal
from .reports import loglog_slope

__all__ = ["CheckResult", "run_checks"]

DEFAULT_CHECK_SEED = 20111103


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_state(rng) -> CoherentSuperposition:
    """A normalized two-mode state of 1-4 terms, amplitudes in [-2, 2]^2."""
    while True:
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            amps = [complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(2)]
            coeff = complex(*rng.normal(size=2))
            terms.append((coeff, tuple(amps)))
        s = CoherentSuperposition(2, tuple(terms))
        if s.terms and overlap(s, s).real > 1e-6:
            return normalize(s)


def check_frequency_table() -> CheckResult:
    """All four frequency rows produce their tabulated state, both backends."""
    worst_exact = 1.0
    worst_fock = 1.0
    lines = []
    for (wa, wb), label in FREQUENCY_TABLE.items():
        for alpha, beta in ((1.0, 1.0), (2.0, 1.5)):
            state, got = generate_from_dynamics(wa, wb, alpha, beta)
            f = fidelity(state, make_quasi_bell(label, alpha, beta))
            worst_exact = min(worst_exact, f)
        alpha = beta = 1.0
        dims = fock.truncation_rule(1.0)
        vec = fock.evolve(
            fock.to_fock(CoherentSuperposition.coherent([alpha, beta]),
                         dims),
            fock.DynamicsParams(omega_a=wa, omega_b=wb, chi=1.0, t=math.pi))
        ref = fock.to_fock(make_quasi_bell(label, alpha, beta), dims)
        worst_fock = min(worst_fock, vec.fidelity(ref))
        lines.append(f"({wa},{wb})->{label}")
    ok = worst_exact >= 1 - 1e-10 and worst_fock >= 1 - 1e-8
    return CheckResult(
        "frequency-table", ok,
        f"{' '.join(lines)}; exact>={worst_exact:.3e} fock>={worst_fock:.3e}")


def check_backend_equivalence(seed=DEFAULT_CHECK_SEED) -> CheckResult:
    """50 random operator pipelines agree between the two backends."""
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(50):
        s = _random_state(rng)
        bound = s.max_abs_amplitude()
        ops = []
        for _ in range(int(rng.integers(1, 5))):
            ops.append(rng.choice(["disp", "parity", "rot", "kerr"]))
        eps_budget = 0.0
        steps = []
        for op in ops:
            if op == "disp":
                eps = complex(*rng.uniform(-0.4, 0.4, 2))
                eps_budget += abs(eps)
                steps.append(("disp", int(rng.integers(0, 2)), eps))
            elif op == "parity":
                steps.append(("parity", int(rng.integers(0, 2)), None))
            elif op == "rot":
                steps.append(("rot", int(rng.integers(0, 2)),
                              float(rng.uniform(0, 2 * math.pi))))
            else:
                steps.append(("kerr", None, None))
        dim = fock.truncation_rule(bound + eps_budget)
        exact = s
        vec = fock.to_fock(s, dim)
        for kind, mode, arg in steps:
            if kind == "disp":
                exact = exact.displace(mode, arg)
                vec = fock.apply_single_mode(
                    vec, np.asarray(fock.fock_displacement(dim, arg)), mode)
            elif kind == "parity":
                exact = exact.parity(mode)
                vec = fock.apply_single_mode(
                    vec, np.asarray(fock.fock_parity(dim)), mode)
            elif kind == "rot":
                exact = exact.rotate(mode, arg)
                vec = fock.apply_single_mode(
                    vec, fock.fock_rotation(dim, arg), mode)
            else:
                exact = exact.cross_kerr_pi(0, 1)
                vec = fock.apply_cross_kerr_pi(vec, 0, 1)
        worst = min(worst, vec.fidelity(fock.to_fock(exact, dim)))
    ok = worst >= 1 - 1e-8
    return CheckResult("backend-equivalence", ok,
                       f"50 pipelines, worst fidelity {worst:.12f}")


def check_operator_identities() -> CheckResult:
    """Composition law, parity conjugation, involutions, at 1e-12."""
    rng = np.random.default_rng(DEFAULT_CHECK_SEED)
    worst = 0.0
    for _ in range(20):
        s = _random_state(rng)
        e1 = complex(*rng.uniform(-0.5, 0.5, 2))
        e2 = complex(*rng.uniform(-0.5, 0.5, 2))
        mode = int(rng.integers(0, 2))
        # D(e1) D(e2) = exp(i Im(e1 conj(e2))) D(e1+e2)
        lhs = s.displace(mode, e2).displace(mode, e1)
        rhs = s.displace(mode, e1 + e2).scaled(
            np.exp(1j * (e1 * e2.conjugate()).imag))
        worst = max(worst, _map_deviation(lhs, rhs))
        # P D(e) P = D(-e)
        lhs = s.parity(mode).displace(mode, e1).parity(mode)
        worst = max(worst, _map_deviation(lhs, s.displace(mode, -e1)))
        # involutions and the 2 pi rotation
        worst = max(worst, _map_deviation(s.parity(mode).parity(mode), s))
        worst = max(worst,
                    _map_deviation(s.cross_kerr_pi(0, 1).cross_kerr_pi(0, 1), s))
        worst = max(worst,
                    _map_deviation(s.rotate(mode, 2 * math.pi), s))
        # unitarity
        worst = max(worst, abs(overlap(lhs, lhs).real - 1.0))
    ok = worst <= 1e-12
    return CheckResult("operator-identities", ok,
                       f"20 random states, worst deviation {worst:.3e}")


def _map_deviation(s1: CoherentSuperposition,
                   s2: CoherentSuperposition) -> float:
    """|<s1|s2> - 1| for unit-norm states: phase-sensitive equality.

    Half the squared state distance, so it is quadratic in any amplitude
    rounding and can actually reach 1e-12 (a Euclidean distance bottoms
    out at the square root of machine epsilon).
    """
    return abs(overlap(s1, s2) - 1.0)


def check_gram_closed_forms() -> CheckResult:
    """Quadruple Gram matrices match their closed forms at 1e-12."""
    worst = 0.0
    for alpha in (1.0, 2.0, 4.0):
        for beta in (1.0, 2.0, 4.0):
            got = gram_matrix([make_quasi_bell(lab, alpha, beta)
                               for lab in LABELS])
            want = gram_closed_form(alpha, beta)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    return CheckResult("gram-closed-forms", ok,
                       f"alpha,beta in {{1,2,4}}, worst |error| {worst:.3e}")


def check_eigen_structure() -> CheckResult:
    """<s|Op|s> = lambda (1 - residual) at 1e-12, residual slope near -2."""
    worst = 0.0
    for n, m in ((0, 0), (1, 2)):
        q = DisplacementQuantum(n, m)
        for a in (0.5, 1.0, 2.0, 8.0):
            for lab in LABELS:
                s = make_quasi_bell(lab, a, a)
                for which in ("PbDa", "PaDb"):
                    amp = overlap(s, combined_op(s, which, q, a, a))
                    want = (predicted_eigenvalue(lab, which, q)
                            * (1.0 - eigen_residual(which, q, a, a)))
                    worst = max(worst, abs(amp - want))
    q = DisplacementQuantum(0, 0)
    grid = [4.0, 8.0, 16.0, 32.0]
    slope = loglog_slope(grid, [eigen_residual("PbDa", q, a, a)
                                for a in grid])
    ok = worst <= 1e-12 and abs(slope + 2.0) <= 0.1
    return CheckResult("eigen-structure", ok,
                       f"|<s|Op|s> - lambda (1 - residual)| {worst:.3e}, "
                       f"residual slope {slope:.4f}")


def check_measurement_completeness() -> CheckResult:
    """Enumerated outcome probabilities sum to one; parity branches exact."""
    worst_sum = 0.0
    worst_phi = 0.0
    for ca, cb in ((1.0, 0.0), (1 / math.sqrt(2), 1 / math.sqrt(2)),
                   (0.8, 0.6j)):
        run = run_teleport_ideal(TargetState(ca, cb, 3.0), 3.0, 3.0)
        worst_sum = max(worst_sum,
                        abs(1.0 - float(run.probabilities().sum())))
        for br in run.branches[:2]:
            worst_phi = max(worst_phi, abs(1.0 - br.branch_fidelity))
    ok = worst_sum <= 1e-10 and worst_phi <= 1e-10
    return CheckResult("measurement-completeness", ok,
                       f"sum defect {worst_sum:.3e}, "
                       f"Phi-branch infidelity {worst_phi:.3e}")


def check_displacement_linearization() -> CheckResult:
    """First-order quadrature form of a small displacement, with its bound."""
    eps = 0.01j
    dim = 40
    d = np.asarray(fock.fock_displacement(dim, eps))
    x = np.asarray(fock.quadrature_x(dim))
    ok = True
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        col = fock.coherent_column(dim, alpha)
        lhs = float(np.linalg.norm(d @ col - col - 1j * abs(eps) * (x @ col)))
        bound = abs(eps) ** 2 * (2 * alpha + 1) ** 2 / 2
        ok = ok and lhs <= bound
        worst = max(worst, lhs / bound)
    return CheckResult("displacement-linearization", ok,
                       f"max remainder/bound {worst:.3f} over alpha in [0.25,2]")


def check_corrupted_truncation() -> CheckResult:
    """Negative control: a deliberately broken truncation must leak."""
    vec = fock.to_fock(CoherentSuperposition.coherent([2.0]), 3)
    leak = vec.leakage()
    ok = leak < 1e-10
    return CheckResult("corrupted-truncation", ok,
                       f"leakage {leak:.3e} at dims=3 for amplitude 2 "
                       "(expected to fail)")


def run_checks(self_test: bool = False):
    """Run the full suite; with self_test, append the negative control."""
    results = [
        check_frequency_table(),
        check_backend_equivalence(),
        check_operator_identities(),
        check_gram_closed_forms(),
        check_eigen_structure(),
        check_measurement_completeness(),
        check_displacement_linearization(),
    ]
    if self_test:
        results.append(check_corrupted_truncation())
    return results
