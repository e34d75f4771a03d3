"""Independent oracle implementations used only by the tests.

Nothing here imports the package's Fock backend or exact algebra: the
coherent coefficients, operator exponentials (Taylor series, not an
eigendecomposition), Gaussian integrals (trapezoid or mpmath quadrature,
not erfc) and the whole measurement pipeline are re-derived
independently, so that every dual-route assertion really has two routes.
The one exception is ``term_pair_sign_statistics``: it checks the frame
reduction of the exact homodyne collapse, not the kernels, so it reuses
the algebra's kernels on the full symbolic three-mode state.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def coherent_vec(dim: int, amp: complex) -> np.ndarray:
    """e^{-|a|^2/2} a^n / sqrt(n!) via logarithms (no recurrence)."""
    n = np.arange(dim)
    if amp == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    logmag = (-0.5 * abs(amp) ** 2 + n * math.log(abs(amp))
              - 0.5 * np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, dim))])))
    phase = np.exp(1j * n * math.atan2(amp.imag, amp.real))
    return np.exp(logmag) * phase


def coherent_tail_mass(amp: float, dim: int) -> float:
    """Probability weight of |amp> above the truncation, by direct tail sum."""
    lam = amp * amp
    if lam == 0:
        return 0.0
    # Poisson(lam) upper tail, summed in log space until negligible
    log_term = -lam + dim * math.log(lam) - math.lgamma(dim + 1)
    total = 0.0
    k = dim
    while True:
        total += math.exp(log_term)
        k += 1
        log_term += math.log(lam) - math.log(k)
        if log_term < math.log(max(total, 1e-300)) - 40:
            break
    return total


def taylor_expm(mat: np.ndarray, max_terms: int = 400) -> np.ndarray:
    """Matrix exponential by plain Taylor summation with scaling-squaring."""
    nrm = np.linalg.norm(mat, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(max(nrm, 1e-30)))) + 1)
    m = mat / (2 ** squarings)
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, max_terms):
        term = term @ m / k
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def displacement_mat(dim: int, eps: complex) -> np.ndarray:
    ad = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), -1)
    return taylor_expm(eps * ad - np.conj(eps) * ad.T)


def parity_mat(dim: int) -> np.ndarray:
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def gaussian_negative_mass(mean: float, var: float = 1.0,
                           points: int = 400001, span: float = 14.0) -> float:
    """P(x < 0) for a normal distribution, by dense trapezoid quadrature."""
    sd = math.sqrt(var)
    lo = mean - span * sd
    xs = np.linspace(min(lo, -span * sd), 0.0, points)
    pdf = np.exp(-((xs - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
    return float(np.trapezoid(pdf, xs))


def half_line_element_quad(u: complex, v: complex, sign: int) -> complex:
    """<u|Theta(sign X)|v> by mpmath quadrature of the X-wavefunctions.

    With X = a + a+, a coherent ket has the wavefunction
    (2 pi)^(-1/4) exp(-x^2/4 + v x - v^2/2 - |v|^2/2): mean 2 Re v,
    unit variance.
    """
    with mpmath.workdps(30):
        u, v = mpmath.mpc(u), mpmath.mpc(v)

        def psi(a, x):
            return (2 * mpmath.pi) ** -0.25 * mpmath.exp(
                -x * x / 4 + a * x - a * a / 2 - abs(a) ** 2 / 2)

        def integrand(x):
            return mpmath.conj(psi(u, x)) * psi(v, x)

        # split at the Gaussian's centre so quad resolves the peak
        centre = float((mpmath.conj(u) + v).real)
        edge = sign * centre
        if edge > 0:
            points = [0, edge, mpmath.inf]
        else:
            points = [0, mpmath.inf]
        half = mpmath.quad(lambda y: integrand(sign * y), points)
        return complex(half)


def cat_vec(dim: int, lam: complex, sign: int) -> np.ndarray:
    return 0.5 * (coherent_vec(dim, lam) + sign * coherent_vec(dim, -lam))


def quasi_bell_vec(label: str, alpha: float, beta: float,
                   dim: int) -> np.ndarray:
    """Normalized quadruple member as a (dim, dim) array, modes (first, second)."""
    plus = cat_vec(dim, beta, +1)
    minus = cat_vec(dim, beta, -1)
    ca = coherent_vec(dim, alpha)
    cma = coherent_vec(dim, -alpha)
    combos = {
        "Phi+": np.outer(ca, plus) + np.outer(cma, minus),
        "Phi-": np.outer(ca, plus) - np.outer(cma, minus),
        "Psi+": np.outer(ca, minus) + np.outer(cma, plus),
        "Psi-": np.outer(ca, minus) - np.outer(cma, plus),
    }
    v = combos[label]
    return v / np.linalg.norm(v)


LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")


def protocol_pipeline(c_a: complex, c_b: complex, gamma: float, alpha: float,
                      beta: float, dim: int):
    """Full ideal-path reference: orthogonalized Bell readout in Fock space.

    Returns (probabilities, branch fidelities, average fidelity), modes
    ordered (T, a, b) with the measurement on (a, T).
    """
    w = math.sqrt(abs(c_a) ** 2 + abs(c_b) ** 2)
    c_a, c_b = c_a / w, c_b / w
    psi_t = c_a * coherent_vec(dim, gamma) + c_b * coherent_vec(dim, -gamma)
    psi_t = psi_t / np.linalg.norm(psi_t)
    channel = quasi_bell_vec("Phi+", alpha, beta, dim)  # (a, b)
    total = np.einsum("t,ab->tab", psi_t, channel)

    bells = [quasi_bell_vec(lab, alpha, gamma, dim) for lab in LABELS]  # (a, T)
    gram = np.array([[np.vdot(x, y) for y in bells] for x in bells])
    w_eig, u = np.linalg.eigh(gram)
    inv_sqrt = (u * w_eig ** -0.5) @ u.conj().T
    lowdin = [sum(inv_sqrt[j, k] * bells[j] for j in range(4))
              for k in range(4)]

    ideal = c_a * coherent_vec(dim, beta) + c_b * coherent_vec(dim, -beta)
    ideal = ideal / np.linalg.norm(ideal)
    mu = 1j * math.pi / (2 * beta)
    corrections = [
        np.eye(dim, dtype=complex),
        parity_mat(dim),
        1j * displacement_mat(dim, mu),
        1j * parity_mat(dim) @ displacement_mat(dim, mu),
    ]
    probs, fids = [], []
    for k in range(4):
        bob = np.einsum("at,tab->b", lowdin[k].conj(), total)
        p = float(np.vdot(bob, bob).real)
        probs.append(p)
        if p > 0:
            after = corrections[k] @ (bob / math.sqrt(p))
            fids.append(abs(np.vdot(ideal, after)) ** 2)
        else:
            fids.append(0.0)
    avg = float(sum(p * f for p, f in zip(probs, fids)))
    return np.array(probs), np.array(fids), avg


_SIGN_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def term_pair_sign_statistics(state, mapping, ideal, beta):
    """Exact homodyne sign statistics as double sums over term pairs.

    With terms c_i |t_i, a_i, b_i> and W_ji the product of the half-line
    overlaps <t_j|Theta(+-X)|t_i> <a_j|Theta(+-X)|a_i> for a sign pair,
    the pair's probability is p = sum_ij conj(c_j) c_i W_ji <b_j|b_i>.
    The receiver's conditional state is a mixture over quadrature
    readings; its corrected fidelity against the ideal phi is
    sum_ij conj(c_j g_j) c_i g_i W_ji / p with g_i = <phi|U|b_i>.
    ``mapping`` takes a sign pair to its correction; both returned lists
    are in (++, +-, -+, --) order.
    """
    from catport.algebra import (CoherentSuperposition, gram_matrix,
                                 half_line_overlap, overlap)
    from catport.protocol import apply_correction

    terms = state.terms
    c = np.array([t.coeff for t in terms])
    bobs = [CoherentSuperposition.coherent([t.amps[2]]) for t in terms]
    bob_gram = gram_matrix(bobs)
    half = {(m, s): np.array([[half_line_overlap(tj.amps[m], ti.amps[m], s)
                               for ti in terms] for tj in terms])
            for m in (0, 1) for s in (+1, -1)}
    probs, fids = [], []
    for pair in _SIGN_PAIRS:
        w = half[0, pair[0]] * half[1, pair[1]]
        p = float(np.vdot(c, (w * bob_gram) @ c).real)
        g = np.array([overlap(ideal, apply_correction(b, mapping[pair], beta))
                      for b in bobs])
        f = float(np.vdot(c * g, w @ (c * g)).real)
        probs.append(p)
        fids.append(f / p if p > 0 else 0.0)
    return probs, fids
