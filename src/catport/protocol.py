"""The teleportation protocol over an entangled coherent-state channel.

Mode layout throughout: 0 = T (the state being sent), 1 = a (sender's
half of the channel), 2 = b (receiver's half).  The logical payload is a
two-component superposition c_a|gamma> + c_b|-gamma>; after a successful
run it reappears on mode b re-encoded at amplitude beta.

Ideal path: the channel is the Phi+ member of the quadruple at
(alpha, beta); the joint state decomposes exactly over the quadruple of
modes (a, T) at (alpha, gamma) with the four receiver-side components

    Phi+ : c_a|beta> + c_b|-beta>        -> identity
    Phi- : c_a|-beta> + c_b|beta>        -> parity flip (exact)
    Psi+ : c_a|beta> - c_b|-beta>        -> i D(mu)
    Psi- : c_a|-beta> - c_b|beta>        -> i P D(mu),   mu beta = pi/2.

The Bell measurement is realized as the symmetric orthogonalization of
the non-orthogonal quadruple (the closest orthonormal set), plus an
explicit inconclusive remainder whose weight is reported, never silently
renormalized.  The parity corrections are exact at every amplitude; the
displacement corrections restore the component magnitudes up to a
e^{-|mu|^2/2} overlap factor; they do not repair the relative phase of
a two-component payload, so the canonical probe for fidelity scaling
is c_a=1, c_b=0.

Homodyne path: entangling T with a by a second pi-point interaction
turns the Bell measurement into two sign-of-quadrature readings; the
sign pair selects the same four corrections.  Collapse is computed
either per coherent branch (error bounded by the reported Gaussian
sign-error 1/2 erfc(sqrt(2) amp)) or exactly, at every amplitude, from
the closed-form half-line overlaps <u|Theta(+-X)|v> of coherent states.

Both paths are payload-linear: outcome k leaves the receiver M_k c in
the frame {|beta>, |-beta>}, with c = (c_a, c_b)/N the realized payload
on {|gamma>, |-gamma>}; weights and every correction's fidelity are 2x2
forms in c, and the baseline reuses the maps for all its payloads.  The
maps come from frame coefficients, not from symbolic states: the ideal
path contracts the quadruple's sign table (bell.FRAME_COEFFS) with the
2x2 frame Gram matrices, and the homodyne path reads one three-mode
probe into a (2, 2, 2) frame tensor (the |-gamma> probe is its T-parity
flip), whose sign groups are slices and whose exact collapse is a 2x2
half-line form per measured mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (CoherentSuperposition, DegenerateStateError,
                      gram_matrix, half_line_overlap, norm, normalize,
                      overlap, partial_overlap, tensor)
from .bell import (FRAME_COEFFS, LABELS, BellLabel, QuasiBellSet,
                   generate_from_dynamics, make_quasi_bell,
                   measurement_bits)

__all__ = [
    "DegenerateBasisError",
    "TargetState",
    "CorrectionLabel",
    "correction_for_label",
    "apply_correction",
    "LowdinMeasurement",
    "expand_initial",
    "MeasurementOutcome",
    "ProtocolResult",
    "ProtocolRun",
    "run_teleport_ideal",
    "run_teleport_homodyne",
    "classical_baseline",
    "misclassification_probability",
    "GRAM_CONDITION_LIMIT",
]

GRAM_CONDITION_LIMIT = 1e12

#: default frequency rows (units of the coupling) for the two entangling
#: steps of the homodyne path: channel a-b, then T-a
DEFAULT_FREQS = ((2, 2), (2, 2))


class DegenerateBasisError(ValueError):
    """Raised when the measurement Gram matrix is numerically singular."""


@dataclass(frozen=True)
class TargetState:
    """Logical payload c_a|gamma> + c_b|-gamma> with |c_a|^2+|c_b|^2 = 1.

    Coefficients are normalized on construction (they are logical
    weights; the physical norm of the realized state is recomputed
    exactly, since |gamma> and |-gamma> are not orthogonal).
    """

    c_a: complex
    c_b: complex
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        ca, cb = complex(self.c_a), complex(self.c_b)
        w = math.sqrt(abs(ca) ** 2 + abs(cb) ** 2)
        if w <= 0.0:
            raise DegenerateStateError("both logical coefficients are zero")
        object.__setattr__(self, "c_a", ca / w)
        object.__setattr__(self, "c_b", cb / w)

    def realized(self) -> CoherentSuperposition:
        """The physical single-mode state, normalized exactly."""
        return normalize(
            CoherentSuperposition.coherent([self.gamma], self.c_a)
            + CoherentSuperposition.coherent([-self.gamma], self.c_b))

    def ideal_bob(self, beta: float) -> CoherentSuperposition:
        """The payload re-encoded at the receiver amplitude."""
        return normalize(
            CoherentSuperposition.coherent([beta], self.c_a)
            + CoherentSuperposition.coherent([-beta], self.c_b))


class CorrectionLabel(enum.Enum):
    IDENTITY = "identity"
    PARITY = "parity"
    DISP = "disp"
    PARITY_DISP = "parity_disp"

    def __str__(self):
        return self.value


_CORRECTION_FOR_LABEL = {
    BellLabel.PHI_PLUS: CorrectionLabel.IDENTITY,
    BellLabel.PHI_MINUS: CorrectionLabel.PARITY,
    BellLabel.PSI_PLUS: CorrectionLabel.DISP,
    BellLabel.PSI_MINUS: CorrectionLabel.PARITY_DISP,
}

CORRECTIONS = (CorrectionLabel.IDENTITY, CorrectionLabel.PARITY,
               CorrectionLabel.DISP, CorrectionLabel.PARITY_DISP)


def correction_for_label(label: BellLabel) -> CorrectionLabel:
    """Correction selected by the two measurement bits of a Bell outcome."""
    return _CORRECTION_FOR_LABEL[BellLabel(label)]


def correction_mu(beta: float) -> complex:
    """The discrete correction displacement, mu = i pi / (2 beta)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    return 1j * math.pi / (2.0 * beta)


def apply_correction(bob: CoherentSuperposition, label: CorrectionLabel,
                     beta: float) -> CoherentSuperposition:
    """Apply the labeled receiver unitary to a single-mode state.

    The displacement corrections carry their conventional global factor i;
    it never affects a fidelity but keeps state-level identities checkable.
    """
    if bob.num_modes != 1:
        raise ValueError("corrections act on the receiver's single mode")
    label = CorrectionLabel(label)
    if label is CorrectionLabel.IDENTITY:
        return bob
    if label is CorrectionLabel.PARITY:
        return bob.parity(0)
    mu = correction_mu(beta)
    if label is CorrectionLabel.DISP:
        return bob.displace(0, mu).scaled(1j)
    return bob.displace(0, mu).parity(0).scaled(1j)


# ---------------------------------------------------------------------------
# Bell measurement as a POVM
# ---------------------------------------------------------------------------

def _lowdin(gram: np.ndarray, cond_limit: float = GRAM_CONDITION_LIMIT):
    """G^{-1/2} and the condition number of the quadruple's Gram matrix.

    Raises:
        DegenerateBasisError: G is not positive definite, or its condition
            number exceeds ``cond_limit``.
    """
    w, u = np.linalg.eigh(gram)
    if w[0] <= 0.0:
        raise DegenerateBasisError(
            "Gram matrix is not positive definite (amplitudes too small)")
    cond = float(w[-1] / w[0])
    if cond > cond_limit:
        raise DegenerateBasisError(
            f"Gram condition number {cond:.3g} exceeds {cond_limit:.0e}")
    return (u * (w ** -0.5)) @ u.conj().T, cond


@dataclass(frozen=True)
class LowdinMeasurement:
    """Symmetric orthogonalization of the quadruple, plus a remainder effect.

    ``vectors[k]`` is the orthonormalized partner of the k-th state (in
    canonical label order): w_k = sum_j (G^{-1/2})_{jk} B_j.  The five
    effects |w_k><w_k| and I - sum_k |w_k><w_k| are complete by
    construction; the remainder weight on a measured state is the
    inconclusive probability.
    """

    alpha: float
    beta: float
    vectors: tuple = field(repr=False)
    condition_number: float = 0.0

    @classmethod
    def from_set(cls, qset: QuasiBellSet,
                 cond_limit: float = GRAM_CONDITION_LIMIT) -> "LowdinMeasurement":
        inv_sqrt, cond = _lowdin(qset.gram, cond_limit)
        basis = qset.ordered_states()
        vectors = []
        for k in range(4):
            acc = basis[0].scaled(inv_sqrt[0, k])
            for j in range(1, 4):
                acc = acc + basis[j].scaled(inv_sqrt[j, k])
            vectors.append(acc)
        return cls(qset.alpha, qset.beta, tuple(vectors), cond)

    def probabilities(self, state: CoherentSuperposition) -> tuple[np.ndarray, float]:
        """Outcome probabilities (4,) plus the inconclusive weight."""
        p = np.array([abs(overlap(v, state)) ** 2 for v in self.vectors])
        return p, max(0.0, 1.0 - float(p.sum()))

    def collapse(self, state: CoherentSuperposition, ket_modes):
        """Unnormalized post-measurement remote states, one per outcome."""
        return [partial_overlap(v, state, ket_modes) for v in self.vectors]


def initial_state(target: TargetState, alpha: float,
                  beta: float) -> CoherentSuperposition:
    """Payload (x) channel on modes (T, a, b); exactly normalized."""
    return tensor(target.realized(),
                  make_quasi_bell(BellLabel.PHI_PLUS, alpha, beta))


def _frame_tensor(state: CoherentSuperposition, frame) -> np.ndarray:
    """Coefficients of a state on the product frame {|+-frame[m]>}.

    Shape (2,) * num_modes; index 0 of mode m is |frame[m]>, index 1 is
    |-frame[m]>.  An amplitude off the frame raises.
    """
    out = np.zeros((2,) * state.num_modes, dtype=complex)
    for t in state.terms:
        idx = tuple(0 if a.real > 0 else 1 for a in t.amps)
        for a, i, x in zip(t.amps, idx, frame):
            if abs(a - (x if i == 0 else -x)) > 1e-9 * max(1.0, x):
                raise ValueError(f"amplitude {a} is not +-{x}")
        out[idx] += t.coeff
    return out


def _quadruple_reading(alpha: float, beta: float, gamma: float):
    """The quadruple's Gram G on (a, T) at (alpha, gamma), and R.

    R[j, x, r] is the |s_r beta> coordinate of <B_j|_{aT} |s_x gamma>_T
    |Phi+>_{ab}, the channel at (alpha, beta), with s = (+1, -1).  Both
    contract the real sign table FRAME_COEFFS with the frame kernels
    K[i, j] = <s_i x|s_j x> of x = alpha and gamma.
    """
    k_a, k_g = (gram_matrix([CoherentSuperposition.coherent([x]),
                             CoherentSuperposition.coherent([-x])])
                for x in (alpha, gamma))
    gram = np.einsum("jst,su,tv,kuv->jk", FRAME_COEFFS, k_a, k_g,
                     FRAME_COEFFS)
    reading = np.einsum("jst,su,tx,ur->jxr", FRAME_COEFFS, k_a, k_g,
                        FRAME_COEFFS[0])
    return gram, reading


def expand_initial(target: TargetState, alpha: float, beta: float):
    """Exact quadruple decomposition of the joint initial state.

    Returns a list of (label, receiver_component, coefficient) with the
    component normalized (the zero state when a branch vanishes), such
    that sum_k coeff_k |B_k>_{aT} (x) |component_k>_b reconstructs the
    joint state; the reconstruction residual is checked below 1e-10.

    Raises:
        DegenerateBasisError: measurement Gram too ill-conditioned.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    gram, reading = _quadruple_reading(alpha, beta, target.gamma)
    _lowdin(gram)  # the measurement's degeneracy checks
    chat = _frame_tensor(target.realized(), (target.gamma,))
    coords = np.linalg.solve(gram, np.einsum("jxr,x->jr", reading, chat))
    out = []
    diff = initial_state(target, alpha, beta)
    for lab, (cb, cmb) in zip(LABELS, coords):
        comp = CoherentSuperposition(1, ((cb, (beta,)), (cmb, (-beta,))))
        c = norm(comp)
        out.append((lab, comp.scaled(1.0 / c) if c > 0 else comp, c))
        diff = diff - tensor(make_quasi_bell(lab, alpha, target.gamma),
                             comp).permute_modes((1, 0, 2))
    resid = norm(diff)  # consolidation has cancelled the coefficients
    if resid > 1e-10:
        raise AssertionError("quadruple expansion failed to reconstruct "
                             f"the joint state (residual {resid})")
    return out


# ---------------------------------------------------------------------------
# Payload-linear branch maps
# ---------------------------------------------------------------------------

def _ideal_maps(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Bell outcome -> 2x2 map, from the orthogonalized measurement.

    <w_k| = sum_j conj(G^{-1/2})_{jk} <B_j|, so maps[k][r, x] is that sum
    over the quadruple reading R[j, x, r].
    """
    gram, reading = _quadruple_reading(alpha, beta, gamma)
    inv_sqrt, _ = _lowdin(gram)
    return np.einsum("jk,jxr->krx", inv_sqrt.conj(), reading)


def _correction_grams(beta: float) -> np.ndarray:
    """C[c, i, j] = <e_i|U_c|e_j> over the frame e = (|beta>, |-beta>).

    U_c runs over CORRECTIONS, so C[0] is the frame Gram.
    """
    frame = (CoherentSuperposition.coherent([beta]),
             CoherentSuperposition.coherent([-beta]))
    moved = [[apply_correction(e, c, beta) for e in frame]
             for c in CORRECTIONS]
    return np.array([[[overlap(ei, mj) for mj in m] for ei in frame]
                     for m in moved])


def _branch_statistics(maps: np.ndarray, target: TargetState,
                       grams: np.ndarray):
    """Receiver components b_k, branch weights and fidelities (k, correction).

    With chat the realized payload's coefficients on {|gamma>, |-gamma>},
    b_k = maps[k] chat weighs b_k^H G b_k (G = grams[0]) and correction j
    leaves the fidelity |chat^H C_j b_k|^2 / (chat^H G chat  b_k^H G b_k):
    the ideal receiver state's frame coordinates are proportional to chat.
    """
    chat = _frame_tensor(target.realized(), (target.gamma,))
    comps = maps @ chat
    weights = np.einsum("ki,ij,kj->k", comps.conj(), grams[0], comps).real
    amps = np.einsum("i,cij,kj->kc", chat.conj(), grams, comps)
    scale = np.vdot(chat, grams[0] @ chat).real * weights[:, None]
    fids = np.divide(np.abs(amps) ** 2, scale, out=np.zeros(amps.shape),
                     where=scale > 0)
    return comps, weights, fids


# ---------------------------------------------------------------------------
# Protocol records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementOutcome:
    """One Bell (or sign-pair) outcome and its collapsed remote state."""

    label: str
    eigen_bits: tuple | None
    probability: float
    collapsed_bob: CoherentSuperposition


@dataclass(frozen=True)
class ProtocolResult:
    """Per-branch record: outcome, applied correction, final state, fidelity."""

    outcome: MeasurementOutcome
    correction: CorrectionLabel
    bob_after: CoherentSuperposition
    branch_fidelity: float


@dataclass(frozen=True)
class ProtocolRun:
    """A full enumerate/sample run over the complete outcome set."""

    path: str
    alpha: float
    beta: float
    gamma: float
    c_a: complex
    c_b: complex
    branches: tuple
    inconclusive_rate: float
    average_fidelity: float
    mode: str = "enumerate"
    seed: int | None = None
    trials: int | None = None
    counts: tuple | None = None
    misclassification: dict | None = None
    collapse: str | None = None
    freqs: tuple | None = None

    def probabilities(self) -> np.ndarray:
        return np.array([b.outcome.probability for b in self.branches])

    def empirical_frequencies(self) -> np.ndarray | None:
        if self.counts is None:
            return None
        c = np.array(self.counts, dtype=float)
        return c / c.sum()


def _check_mode(mode: str, trials: int, alpha: float, beta: float):
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    if mode == "sample" and trials < 1:
        raise ValueError("trials must be >= 1")


def _build_run(path: str, target: TargetState, alpha: float, beta: float,
               outcomes, corrections, comps, probs, fids, mode: str,
               seed: int | None, trials: int, **extra) -> ProtocolRun:
    """A run from per-branch (label, eigen_bits) outcomes, corrections,
    receiver frame coordinates, probabilities and fidelities."""
    probs, fids = [float(p) for p in probs], [float(f) for f in fids]
    branches = []
    for (label, bits), corr, v, p, f in zip(outcomes, corrections, comps,
                                            probs, fids):
        raw = CoherentSuperposition(1, ((v[0], (beta,)), (v[1], (-beta,))))
        nonzero = norm(raw) > 0
        bob = normalize(raw) if nonzero else raw
        after = apply_correction(bob, corr, beta) if nonzero else bob
        outcome = MeasurementOutcome(label, bits, p, bob)
        branches.append(ProtocolResult(outcome, corr, after, f))
    counts = None
    if mode == "sample":
        p = np.array(probs)
        rng = np.random.default_rng(seed)
        counts = tuple(int(c) for c in rng.multinomial(trials, p / p.sum()))
    return ProtocolRun(
        path=path, alpha=alpha, beta=beta, gamma=target.gamma,
        c_a=target.c_a, c_b=target.c_b, branches=tuple(branches),
        inconclusive_rate=max(0.0, 1.0 - sum(probs)),
        average_fidelity=sum(p * f for p, f in zip(probs, fids)),
        mode=mode, seed=seed, trials=trials if mode == "sample" else None,
        counts=counts, **extra)


def run_teleport_ideal(target: TargetState, alpha: float, beta: float,
                       mode: str = "enumerate", seed: int | None = None,
                       trials: int = 1) -> ProtocolRun:
    """Run the ideal-measurement path.

    enumerate: all four branches with exact outcome probabilities under
    the orthogonalized measurement, collapsed receiver states, the
    bit-decoded corrections, per-branch fidelities and their
    probability-weighted average.  sample: identical per-branch data plus
    multinomial counts drawn with the seeded generator.
    """
    _check_mode(mode, trials, alpha, beta)
    comps, weights, fids = _branch_statistics(
        _ideal_maps(alpha, beta, target.gamma), target,
        _correction_grams(beta))
    # CORRECTIONS lists each Bell outcome's correction in LABELS order
    return _build_run(
        "ideal", target, alpha, beta,
        [(lab.value, measurement_bits(lab)) for lab in LABELS], CORRECTIONS,
        comps, weights, fids.diagonal(), mode, seed, trials)


# ---------------------------------------------------------------------------
# Homodyne path
# ---------------------------------------------------------------------------

def misclassification_probability(amplitude: float) -> float:
    """Chance a sign-of-X reading mislabels |+-amp|: 1/2 erfc(sqrt(2) amp).

    The X distribution of a coherent state is Gaussian with mean twice
    the amplitude and unit variance, so the opposite-sign tail mass is
    the erfc above.
    """
    return 0.5 * math.erfc(math.sqrt(2.0) * abs(amplitude))


_SIGN_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

#: receiver-component patterns in the frame {|beta>, |-beta>}, as 2x2
#: maps acting on (c_a, c_b); each pattern is undone by its correction
_COMPONENT_PATTERNS = {
    CorrectionLabel.IDENTITY: np.array([[1, 0], [0, 1]], dtype=complex),
    CorrectionLabel.PARITY: np.array([[0, 1], [1, 0]], dtype=complex),
    CorrectionLabel.DISP: np.array([[1, 0], [0, -1]], dtype=complex),
    CorrectionLabel.PARITY_DISP: np.array([[0, -1], [1, 0]], dtype=complex),
}


def _sign_pair_label(pair) -> str:
    return f"T{'+' if pair[0] > 0 else '-'}A{'+' if pair[1] > 0 else '-'}"


def three_mode_state(target: TargetState, alpha: float, beta: float,
                     freqs=DEFAULT_FREQS) -> CoherentSuperposition:
    """Entangle the channel, then the payload with the sender mode.

    Both steps run the pi-point interaction with their configured
    frequency row; mode order stays (T, a, b).
    """
    row_ab, row_ta = (tuple(freqs[0]), tuple(freqs[1]))
    channel, _ = generate_from_dynamics(row_ab[0], row_ab[1], alpha, beta)
    joint = tensor(target.realized(), channel)
    if row_ta not in ((1, 1), (1, 2), (2, 1), (2, 2)):
        raise ValueError(f"unsupported frequency row {row_ta}")
    return (joint.rotate(0, math.pi * row_ta[0])
            .rotate(1, math.pi * row_ta[1])
            .cross_kerr_pi(0, 1))


def _derive_sign_corrections(alpha: float, beta: float, gamma: float,
                             freqs):
    """Each sign pair's correction, the 2x2 maps and the basis probes.

    probes[x, t, a, b] is basis payload |s_x gamma>'s three-mode state on
    the frames of (T, a, b).  P_T commutes with the T rotation and the
    cross-Kerr step, and |-gamma> = P|gamma>, so the second probe is the
    first with its T index flipped.  Sign group (t, a) is the slice
    probes[:, t, a], so maps[2t + a][b, x] (_SIGN_PAIRS order) must be
    proportional to exactly one of the four undoable patterns.
    """
    probe = _frame_tensor(
        three_mode_state(TargetState(1.0, 0.0, gamma), alpha, beta, freqs),
        (gamma, alpha, beta))
    probes = np.stack([probe, probe[::-1]])
    maps = probes.transpose(1, 2, 3, 0).reshape(4, 2, 2)
    corrections = []
    for pair, mat in zip(_SIGN_PAIRS, maps):
        best = None
        for corr, pat in _COMPONENT_PATTERNS.items():
            lam = np.vdot(pat, mat) / np.vdot(pat, pat)
            resid = np.linalg.norm(mat - lam * pat) / np.linalg.norm(mat)
            if resid < 1e-9:
                if best is not None:
                    raise AssertionError(f"ambiguous component pattern {mat}")
                best = corr
        if best is None:
            raise AssertionError(
                f"sign group {pair} component matches no correction: {mat}")
        corrections.append(best)
    return corrections, maps, probes


def run_teleport_homodyne(target: TargetState, alpha: float, beta: float,
                          freqs=DEFAULT_FREQS, collapse: str = "exact",
                          mode: str = "enumerate", seed: int | None = None,
                          trials: int = 1) -> ProtocolRun:
    """Run the sign-of-quadrature path.

    collapse="branch" selects coherent branches by the sign of their mean
    (valid once the sign separation is a few vacuum widths; the per-mode
    error bound is reported), collapse="exact" computes sign
    probabilities and fidelities from closed-form half-line overlaps, at
    every amplitude.
    """
    _check_mode(mode, trials, alpha, beta)
    if collapse not in ("exact", "branch"):
        raise ValueError("collapse must be exact or branch")
    corrections, maps, probes = _derive_sign_corrections(
        alpha, beta, target.gamma, freqs)
    grams = _correction_grams(beta)
    comps, weights, fids = _branch_statistics(maps, target, grams)
    if collapse == "branch":
        probs = weights / weights.sum()
        fids = [fids[k, CORRECTIONS.index(c)]
                for k, c in enumerate(corrections)]
    else:
        chat = _frame_tensor(target.realized(), (target.gamma,))
        probs, fids = _closed_form_sign_statistics(
            np.tensordot(chat, probes, axes=1), corrections, chat, grams,
            (target.gamma, alpha))
    return _build_run(
        "homodyne", target, alpha, beta,
        [(_sign_pair_label(pair), None) for pair in _SIGN_PAIRS],
        corrections, comps, probs, fids, mode, seed, trials,
        misclassification={"T": misclassification_probability(target.gamma),
                           "A": misclassification_probability(alpha)},
        collapse=collapse, freqs=tuple(tuple(r) for r in freqs))


def _closed_form_sign_statistics(state, corrections, chat, grams, measured):
    """Joint sign probabilities and corrected fidelities, exactly.

    ``state`` is the frame tensor c[t, a, b], ``measured`` the frame
    amplitudes (x) of T and a, H^s[i, j] = <s_i x|Theta(s X)|s_j x> and
    K = grams[0].  A sign pair's probability is c^H (H_T (x) H_a (x) K) c.
    The receiver's conditional state is a mixture over quadrature
    readings; its corrected fidelity against the ideal state (frame
    coordinates chat) is u^H (H_T (x) H_a) u / (p chat^H K chat) with
    u = c <chat|U|.>, U the pair's correction.
    """
    half = {(m, s): np.array([[half_line_overlap(u, v, s) for v in (x, -x)]
                              for u in (x, -x)])
            for m, x in enumerate(measured) for s in (+1, -1)}
    phi_norm2 = np.vdot(chat, grams[0] @ chat).real
    probs, fids = [], []
    for (s_t, s_a), corr in zip(_SIGN_PAIRS, corrections):
        h_t, h_a = half[0, s_t], half[1, s_a]
        p = float(np.einsum("tab,tu,av,bc,uvc->", state.conj(), h_t, h_a,
                            grams[0], state).real)
        u = state @ (chat.conj() @ grams[CORRECTIONS.index(corr)])
        f = float(np.einsum("ta,tu,av,uv->", u.conj(), h_t, h_a, u).real)
        probs.append(p)
        fids.append(f / (p * phi_norm2) if p > 0 else 0.0)
    return probs, fids  # both in _SIGN_PAIRS order


# ---------------------------------------------------------------------------
# No-channel baseline
# ---------------------------------------------------------------------------

def _uniform_logical(rng) -> tuple[complex, complex]:
    """Uniform draw on the logical coefficient sphere."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half = math.acos(z) / 2.0
    return math.cos(half), math.sin(half) * complex(math.cos(phi),
                                                    math.sin(phi))


def classical_baseline(target: TargetState, alpha: float, beta: float,
                       trials: int, seed: int | None = None,
                       sample_targets: bool = False) -> tuple[float, float]:
    """Receiver guesses the correction with no classical channel.

    A branch is drawn from the exact outcome distribution, the receiver
    applies a uniformly random correction, and two numbers come back:
    the rate at which the guess matched the branch's correct correction
    (-> 1/4) and the mean resulting fidelity.  Deterministic for a fixed
    seed; optionally averages over uniformly drawn payloads.  For a
    fixed payload the trials are one multinomial draw over the 16
    (branch, guess) cells, so memory does not grow with ``trials``.
    """
    _check_mode("sample", trials, alpha, beta)
    rng = np.random.default_rng(seed)
    maps = _ideal_maps(alpha, beta, target.gamma)
    grams = _correction_grams(beta)

    def draw(t: TargetState, n: int) -> tuple[int, float]:
        _, p, fmat = _branch_statistics(maps, t, grams)
        cells = rng.multinomial(n, np.repeat(p / (4.0 * p.sum()), 4))
        cells = cells.reshape(fmat.shape)
        # CORRECTIONS is in LABELS order: right guesses sit on the diagonal
        return int(np.trace(cells)), float(np.sum(cells * fmat))

    if sample_targets:
        hits, fid_sum = 0, 0.0
        for _ in range(trials):
            h, f = draw(TargetState(*_uniform_logical(rng), target.gamma), 1)
            hits += h
            fid_sum += f
    else:
        hits, fid_sum = draw(target, trials)
    return hits / trials, fid_sum / trials
