"""Entangled coherent-state quadruple and its parity-displacement observables.

The four two-mode states built from {|+-alpha>, |+-beta>},

    Phi+- = |alpha>|beta_+> +- |-alpha>|beta_->
    Psi+- = |alpha>|beta_-> +- |-alpha>|beta_+>,
    with the cats  |lam_+-> = (|lam> +- |-lam>)/2,

play the role of a Bell basis for cat qubits.  They are produced by the
pi-point cross-Kerr interaction from a product of two coherent states,
with the free-evolution frequencies selecting which of the four comes
out.  On the product frame {|+-alpha>} (x) {|+-beta>} every coefficient
is +-1/2; that sign table, FRAME_COEFFS, is the quadruple's one
definition: make_quasi_bell builds the states from it, and the protocol
contracts it with 2x2 frame Gram matrices instead.  For real alpha,
beta the two-term combinations above are exactly normalized; their Gram
matrix has the closed-form off-diagonals

    <Phi+|Phi-> = e^{-2 beta^2}        <Psi+|Psi-> = -e^{-2 beta^2}
    <Phi+|Psi+> = e^{-2 alpha^2}       <Phi-|Psi-> = -e^{-2 alpha^2}
    <Phi+|Psi-> = -e^{-2(a^2+b^2)}     <Phi-|Psi+> = +e^{-2(a^2+b^2)}

so the quadruple is orthonormal only in the large-amplitude limit.

The joint observables are the combined operators P_b D_a(eps) and
P_a D_b(lam).  A displacement D(eps) acting on |+-alpha> accumulates the
phase exp(+-2i Im(eps conj(alpha))): half of it is the explicit Weyl
prefactor and half hides in the overlap <alpha|alpha+eps>.  The
displacement quanta are therefore fixed by the round-trip phase

    2 eps alpha = (n + 1/2) pi,    2 lam beta = (m + 1/2) pi,

which makes all four states joint eigenvectors in the large-amplitude
limit, with eigenvalue sets {i, i, -i, -i} for P_b D_a and
{i, -i, i, -i} for P_a D_b (order Phi+, Phi-, Psi+, Psi-) at n = m = 0.
The residual at finite amplitude is 1 - e^{-|eps|^2/2} = O(alpha^-2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .algebra import (CoherentSuperposition, fidelity, gram_matrix, normalize,
                      overlap)

__all__ = [
    "BellLabel",
    "UnsupportedConfigurationError",
    "make_cat",
    "make_quasi_bell",
    "FRAME_COEFFS",
    "QuasiBellSet",
    "DisplacementQuantum",
    "FREQUENCY_TABLE",
    "generate_from_dynamics",
    "parity_action_table",
    "combined_op",
    "predicted_eigenvalue",
    "eigen_residual",
    "measurement_bits",
    "gram_closed_form",
    "LABELS",
]


class BellLabel(enum.Enum):
    """The four quasi-Bell states, in canonical order."""

    PHI_PLUS = "Phi+"
    PHI_MINUS = "Phi-"
    PSI_PLUS = "Psi+"
    PSI_MINUS = "Psi-"

    def __str__(self):
        return self.value


LABELS = (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS,
          BellLabel.PSI_PLUS, BellLabel.PSI_MINUS)


class UnsupportedConfigurationError(ValueError):
    """Raised for frequency pairs outside the entangling table."""


def make_cat(lam: complex, sign: int) -> CoherentSuperposition:
    """Unnormalized cat (|lam> + sign |-lam>)/2 on a single mode.

    The /2 convention keeps |lam> = cat(+) + cat(-) an exact identity; the
    squared norm is (1 +- e^{-2|lam|^2})/2, so the odd cat collapses to
    the zero state as lam -> 0 (normalize() then raises).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return (CoherentSuperposition.coherent([lam], 0.5)
            + CoherentSuperposition.coherent([-lam], 0.5 * sign))


#: each state's coefficients on the frame {|+-alpha>} (x) {|+-beta>}, in
#: LABELS order: FRAME_COEFFS[k, i, j] weighs |s_i alpha>|s_j beta> with
#: (s_0, s_1) = (+1, -1); the cats' 1/2 is folded in
FRAME_COEFFS = 0.5 * np.array([
    [[1, 1], [1, -1]],      # Phi+ = |alpha>|beta_+> + |-alpha>|beta_->
    [[1, 1], [-1, 1]],      # Phi- = |alpha>|beta_+> - |-alpha>|beta_->
    [[1, -1], [1, 1]],      # Psi+ = |alpha>|beta_-> + |-alpha>|beta_+>
    [[1, -1], [-1, -1]],    # Psi- = |alpha>|beta_-> - |-alpha>|beta_+>
])
FRAME_COEFFS.setflags(write=False)


def make_quasi_bell(label: BellLabel, alpha: float, beta: float,
                    normalized: bool = True) -> CoherentSuperposition:
    """Build one of the four entangled states on modes (a, b).

    Mode 0 carries the coherent pair |+-alpha>, mode 1 the beta cats; the
    terms are the label's row of FRAME_COEFFS.  The raw combination is
    returned normalized (a no-op for real amplitudes, where its norm is
    exactly 1).
    """
    coeffs = FRAME_COEFFS[LABELS.index(BellLabel(label))]
    s = CoherentSuperposition(2, tuple(
        (coeffs[i, j], (sa * alpha, sb * beta))
        for i, sa in enumerate((1, -1)) for j, sb in enumerate((1, -1))))
    return normalize(s) if normalized else s


def gram_closed_form(alpha: float, beta: float) -> np.ndarray:
    """Analytic Gram matrix of the normalized quadruple (real amplitudes)."""
    eb = math.exp(-2.0 * beta * beta)
    ea = math.exp(-2.0 * alpha * alpha)
    eab = ea * eb
    return np.array([
        [1.0, eb, ea, -eab],
        [eb, 1.0, eab, -ea],
        [ea, eab, 1.0, -eb],
        [-eab, -ea, -eb, 1.0],
    ], dtype=complex)


@dataclass(frozen=True)
class QuasiBellSet:
    """The four states at fixed (alpha, beta) plus their Gram matrix."""

    alpha: float
    beta: float
    states: dict = field(repr=False)
    gram: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, alpha: float, beta: float) -> "QuasiBellSet":
        if not (alpha > 0 and beta > 0):
            raise ValueError("alpha and beta must be positive")
        states = {lab: make_quasi_bell(lab, alpha, beta) for lab in LABELS}
        gram = gram_matrix([states[lab] for lab in LABELS])
        gram.setflags(write=False)
        return cls(alpha, beta, MappingProxyType(states), gram)

    def ordered_states(self) -> list[CoherentSuperposition]:
        return [self.states[lab] for lab in LABELS]


@dataclass(frozen=True)
class DisplacementQuantum:
    """Integer pair selecting the discrete displacement sizes.

    eps = i (n + 1/2) pi / (2 alpha) and lam = i (m + 1/2) pi / (2 beta):
    pure imaginary against real positive amplitudes, sized so the
    round-trip phase 2 Im(eps conj(alpha)) hits (n + 1/2) pi exactly.
    """

    n: int = 0
    m: int = 0

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be nonnegative")

    def epsilon(self, alpha: float) -> complex:
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        return 1j * (self.n + 0.5) * math.pi / (2.0 * alpha)

    def lam(self, beta: float) -> complex:
        if not beta > 0:
            raise ValueError("beta must be positive")
        return 1j * (self.m + 0.5) * math.pi / (2.0 * beta)


#: (omega_a, omega_b) in units of chi -> state produced at t = pi/chi
FREQUENCY_TABLE = {
    (2, 2): BellLabel.PHI_PLUS,
    (2, 1): BellLabel.PHI_MINUS,
    (1, 2): BellLabel.PSI_PLUS,
    (1, 1): BellLabel.PSI_MINUS,
}


def generate_from_dynamics(omega_a: int, omega_b: int, alpha: float,
                           beta: float):
    """Run the pi-point interaction on |alpha>|beta> and label the output.

    Frequencies are integer multiples of the coupling (only 1 and 2 are
    meaningful); the free rotations exp(-i pi omega/chi) and the
    cross-Kerr rewrite commute, so order is immaterial.  The output is
    matched against the direct construction and the pair (state, label)
    is returned; a mismatch beyond 1e-10 infidelity raises.

    Raises:
        UnsupportedConfigurationError: frequency pair outside the table.
    """
    key = (int(omega_a), int(omega_b))
    if key != (omega_a, omega_b) or key not in FREQUENCY_TABLE:
        raise UnsupportedConfigurationError(
            f"no entangled output tabulated for frequencies {omega_a!r}, "
            f"{omega_b!r} (supported: 1 or 2 units of the coupling)")
    state = (CoherentSuperposition.coherent([alpha, beta])
             .rotate(0, math.pi * key[0])
             .rotate(1, math.pi * key[1])
             .cross_kerr_pi(0, 1))
    label = FREQUENCY_TABLE[key]
    state = normalize(state)
    f = fidelity(state, make_quasi_bell(label, alpha, beta))
    if f < 1.0 - 1e-10:
        raise AssertionError(
            f"dynamics output does not match {label} (fidelity {f})")
    return state, label


#: exact parity actions: (operator mode, input label) -> (output label, sign)
_PARITY_TABLE = {
    ("a", BellLabel.PHI_PLUS): (BellLabel.PSI_PLUS, +1),
    ("a", BellLabel.PHI_MINUS): (BellLabel.PSI_MINUS, -1),
    ("a", BellLabel.PSI_PLUS): (BellLabel.PHI_PLUS, +1),
    ("a", BellLabel.PSI_MINUS): (BellLabel.PHI_MINUS, -1),
    ("b", BellLabel.PHI_PLUS): (BellLabel.PHI_MINUS, +1),
    ("b", BellLabel.PHI_MINUS): (BellLabel.PHI_PLUS, +1),
    ("b", BellLabel.PSI_PLUS): (BellLabel.PSI_MINUS, -1),
    ("b", BellLabel.PSI_MINUS): (BellLabel.PSI_PLUS, -1),
}


def parity_action_table(label: BellLabel, mode: str):
    """Image of a single-mode parity flip: (new label, relative sign).

    Exact at every amplitude (parity only permutes coherent amplitudes),
    e.g. P_a Phi+ = +Psi+ and P_b Psi+ = -Psi-.
    """
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")
    return _PARITY_TABLE[(mode, BellLabel(label))]


def combined_op(state: CoherentSuperposition, which: str,
                q: DisplacementQuantum, alpha: float,
                beta: float) -> CoherentSuperposition:
    """Apply one of the two joint observables to a two-mode state.

    ``which`` is "PbDa" (displace mode a, parity mode b) or "PaDb"
    (displace mode b, parity mode a); the displacement acts first, as the
    operator product is written.  Exact application, no small-displacement
    approximation.
    """
    if state.num_modes != 2:
        raise ValueError("combined operators act on two-mode states")
    if which == "PbDa":
        return state.displace(0, q.epsilon(alpha)).parity(1)
    if which == "PaDb":
        return state.displace(1, q.lam(beta)).parity(0)
    raise ValueError("which must be 'PbDa' or 'PaDb'")


def predicted_eigenvalue(label: BellLabel, which: str,
                         q: DisplacementQuantum) -> complex:
    """Large-amplitude eigenvalue of a combined operator on one state.

    P_b D_a: +i(-1)^n on the Phi pair, -i(-1)^n on the Psi pair.
    P_a D_b: +-i(-1)^m following the +- of the state label.
    """
    label = BellLabel(label)
    if which == "PbDa":
        s = +1 if label in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS) else -1
        return s * 1j * (-1) ** q.n
    if which == "PaDb":
        s = +1 if label in (BellLabel.PHI_PLUS, BellLabel.PSI_PLUS) else -1
        return s * 1j * (-1) ** q.m
    raise ValueError("which must be 'PbDa' or 'PaDb'")


def eigen_residual(label: BellLabel, which: str, q: DisplacementQuantum,
                   alpha: float, beta: float) -> float:
    """1 - |<s| conj(eig) Op |s>| for the predicted eigenvalue.

    Nonnegative; decays like |eps|^2/2 = (n+1/2)^2 pi^2 / (8 alpha^2) as
    the amplitudes grow (for PbDa; m, beta likewise for PaDb).
    """
    s = make_quasi_bell(label, alpha, beta)
    amp = overlap(s, combined_op(s, which, q, alpha, beta))
    return 1.0 - abs(predicted_eigenvalue(label, which, q).conjugate() * amp)


def measurement_bits(label: BellLabel) -> tuple[int, int]:
    """Two-bit encoding of a Bell outcome at n = m = 0.

    Bit 0: 0 when P_b D_a reads +i (a Phi state), 1 when -i (a Psi state).
    Bit 1: 0 when P_a D_b reads +i (a '+' state), 1 when -i (a '-' state).
    """
    label = BellLabel(label)
    q0 = DisplacementQuantum(0, 0)
    bit0 = 0 if predicted_eigenvalue(label, "PbDa", q0).imag > 0 else 1
    bit1 = 0 if predicted_eigenvalue(label, "PaDb", q0).imag > 0 else 1
    return bit0, bit1
