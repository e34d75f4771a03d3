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
on {|gamma>, |-gamma>}, and the baseline reuses the maps for all its
payloads.  The maps come from frame tables, not from symbolic states:
the ideal path contracts the quadruple's sign table (bell.FRAME_COEFFS)
with the 2x2 frame Gram matrices [[1, e^{-2x^2}], [e^{-2x^2}, 1]], and
the homodyne path composes two pi-point steps, each a fixed +-1/2 table
on the frames, into the probe table of both basis payloads.  One kernel
turns the receiver components into weights and every correction's
fidelity as 2x2 forms in c, given each outcome's effect on the measured
frames: for the exact collapse, the Kronecker product of the measured
modes' half-line matrices <s_i x|Theta(s X)|s_j x>; for the branch
readout and the ideal path, its large-amplitude limit, the projector on
one frame index.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (CoherentSuperposition, DegenerateStateError,
                      half_line_overlap, norm, normalize, overlap,
                      partial_overlap, tensor)
from .bell import (FRAME_COEFFS, LABELS, BellLabel, QuasiBellSet,
                   frequency_row, generate_from_dynamics, make_quasi_bell,
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
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        ca, cb = complex(self.c_a), complex(self.c_b)
        if not (cmath.isfinite(ca) and cmath.isfinite(cb)):
            raise ValueError("logical coefficients must be finite")
        w = math.hypot(abs(ca), abs(cb))
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


#: each Bell outcome's correction, in LABELS order
CORRECTIONS = (CorrectionLabel.IDENTITY, CorrectionLabel.PARITY,
               CorrectionLabel.DISP, CorrectionLabel.PARITY_DISP)


def correction_for_label(label: BellLabel) -> CorrectionLabel:
    """Correction selected by the two measurement bits of a Bell outcome."""
    return CORRECTIONS[LABELS.index(BellLabel(label))]


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

def _lowdin(gram: np.ndarray):
    """G^{-1/2} and the condition number of the quadruple's Gram matrix.

    Raises:
        DegenerateBasisError: G is not positive definite, or its condition
            number exceeds GRAM_CONDITION_LIMIT.
    """
    w, u = np.linalg.eigh(gram)
    if w[0] <= 0.0:
        raise DegenerateBasisError(
            "Gram matrix is not positive definite (amplitudes too small)")
    cond = float(w[-1] / w[0])
    if cond > GRAM_CONDITION_LIMIT:
        raise DegenerateBasisError(f"Gram condition number {cond:.3g} "
                                   f"exceeds {GRAM_CONDITION_LIMIT:.0e}")
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
    def from_set(cls, qset: QuasiBellSet) -> "LowdinMeasurement":
        inv_sqrt, cond = _lowdin(qset.gram)
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


def _frame_gram(x: float) -> np.ndarray:
    """K[i, j] = <s_i x|s_j x> on the frame {|x>, |-x>}, s = (+1, -1)."""
    e = math.exp(-2.0 * x * x)
    return np.array([[1.0, e], [e, 1.0]])


def _payload_frame(target: TargetState) -> np.ndarray:
    """c / sqrt(c^H K_gamma c), c = (c_a, c_b): the realized payload on the
    frame {|gamma>, |-gamma>}."""
    c = np.array([target.c_a, target.c_b])
    norm2 = np.vdot(c, _frame_gram(target.gamma) @ c).real
    if not norm2 > 0.0:
        raise DegenerateStateError("cannot normalize a zero-norm state")
    return c / math.sqrt(norm2)


def _quadruple_reading(alpha: float, beta: float, gamma: float):
    """The quadruple's Gram G on (a, T) at (alpha, gamma), and R.

    R[j, x, r] is the |s_r beta> coordinate of <B_j|_{aT} |s_x gamma>_T
    |Phi+>_{ab}, the channel at (alpha, beta), with s = (+1, -1).  Both
    contract the real sign table FRAME_COEFFS with the frame kernels
    K[i, j] = <s_i x|s_j x> of x = alpha and gamma.
    """
    k_a, k_g = _frame_gram(alpha), _frame_gram(gamma)
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
    _check_inputs(alpha, beta)
    gram, reading = _quadruple_reading(alpha, beta, target.gamma)
    _lowdin(gram)  # the measurement's degeneracy checks
    chat = _payload_frame(target)
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


#: the branch readout: outcome k keeps measured frame index k alone
_BRANCH_EFFECTS = np.einsum("km,kn->kmn", np.eye(4), np.eye(4))


def _statistics(comps: np.ndarray, effects: np.ndarray, chat: np.ndarray,
                grams: np.ndarray):
    """Outcome probabilities p[k] and fidelities f[k, c] under correction c.

    comps[m] is the receiver's frame coordinates on measured frame index
    m, effects[k, m, n] outcome k's effect on the measured frames and
    G = grams[0], so p_k = sum_mn comps[m]^H effects[k, m, n] G comps[n].
    The receiver's conditional state is a mixture over the readings; its
    fidelity after correction c against the ideal state (frame coordinates
    proportional to chat) is u^H effects[k] u / (p_k chat^H G chat) with
    u[m] = chat^H C_c comps[m], C_c = grams[c] (see _correction_grams).
    """
    probs = np.einsum("mi,kmn,ij,nj->k", comps.conj(), effects, grams[0],
                      comps).real
    u = np.einsum("i,cij,mj->cm", chat.conj(), grams, comps)
    num = np.einsum("cm,kmn,cn->kc", u.conj(), effects, u).real
    scale = np.vdot(chat, grams[0] @ chat).real * probs[:, None]
    fids = np.divide(num, scale, out=np.zeros(num.shape), where=scale > 0)
    return probs, fids


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


def _check_inputs(alpha: float, beta: float, mode: str = "enumerate",
                  trials: int = 1):
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("alpha and beta must be positive and finite")
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    if mode == "sample" and trials < 1:
        raise ValueError("trials must be >= 1")


def _build_run(path: str, target: TargetState, alpha: float, beta: float,
               maps, effects, outcomes, corrections, mode: str,
               seed: int | None, trials: int, renormalize: bool = False,
               **extra) -> ProtocolRun:
    """A run from the 2x2 maps, the outcome effects (see _statistics), the
    per-branch (label, eigen_bits) outcomes and corrections; renormalize
    rescales the probabilities to sum to 1."""
    chat = _payload_frame(target)
    comps = maps @ chat
    probs, fids = _statistics(comps, effects, chat, _correction_grams(beta))
    if renormalize:
        probs = probs / probs.sum()
    probs = [float(p) for p in probs]
    fids = [float(fids[k, CORRECTIONS.index(c)])
            for k, c in enumerate(corrections)]
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
    _check_inputs(alpha, beta, mode, trials)
    return _build_run(
        "ideal", target, alpha, beta,
        _ideal_maps(alpha, beta, target.gamma), _BRANCH_EFFECTS,
        [(lab.value, measurement_bits(lab)) for lab in LABELS], CORRECTIONS,
        mode, seed, trials)


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
    row_ab, row_ta = frequency_row(freqs[0]), frequency_row(freqs[1])
    channel, _ = generate_from_dynamics(*row_ab, alpha, beta)
    joint = tensor(target.realized(), channel)
    return (joint.rotate(0, math.pi * row_ta[0])
            .rotate(1, math.pi * row_ta[1])
            .cross_kerr_pi(0, 1))


def _pi_point(row) -> np.ndarray:
    """Frame form of one pi-point step on two modes, at every amplitude.

    |s_x X>|s_u Y> goes to sum_ij out[i, j, x, u] |s_i X>|s_j Y>: a free
    rotation by pi w flips a frame index when w is odd, and the cross-Kerr
    step weighs flips p, q by 1/2 (-1)^(pq), the algebra's four-term rule.
    """
    w1, w2 = (w % 2 for w in frequency_row(row))
    out = np.zeros((2, 2, 2, 2))
    for x, u, p, q in itertools.product((0, 1), repeat=4):
        out[x ^ w1 ^ p, u ^ w2 ^ q, x, u] = 0.5 * (-1) ** (p * q)
    return out


def _derive_sign_corrections(freqs):
    """Each sign pair's correction and the 2x2 maps.

    The probe table probes[x, t, a, b] is basis payload |s_x gamma>'s
    three-mode state on the frames of (T, a, b): the channel step on
    |alpha>|beta>, then the T-a step.  Sign group (t, a) is the slice
    probes[:, t, a], so maps[2t + a][b, x] (_SIGN_PAIRS order) must be
    proportional to exactly one of the four undoable patterns; maps @ c
    is the payload's frame tensor c[t, a, b] with (t, a) flattened.
    """
    probes = np.einsum("taxu,ub->xtab", _pi_point(freqs[1]),
                       _pi_point(freqs[0])[:, :, 0, 0])
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
    return corrections, maps


def _sign_effects(gamma: float, alpha: float) -> np.ndarray:
    """effects[2t + a] = H_T^{s_t} (x) H_a^{s_a} (_SIGN_PAIRS order), with
    H^s[i, j] = <s_i x|Theta(s X)|s_j x> at the amplitude x of T (gamma)
    and of a (alpha): the exact effect of a sign pair on the frames."""
    half = [[np.array([[half_line_overlap(u, v, s) for v in (x, -x)]
                       for u in (x, -x)]) for s in (+1, -1)]
            for x in (gamma, alpha)]
    return np.array([np.kron(half[0][t], half[1][a])
                     for t in (0, 1) for a in (0, 1)])


def run_teleport_homodyne(target: TargetState, alpha: float, beta: float,
                          freqs=DEFAULT_FREQS, collapse: str = "exact",
                          mode: str = "enumerate", seed: int | None = None,
                          trials: int = 1) -> ProtocolRun:
    """Run the sign-of-quadrature path.

    collapse="exact" computes sign probabilities and fidelities from
    closed-form half-line overlaps, at every amplitude.  collapse="branch"
    takes their large-amplitude limit, selecting coherent branches by the
    sign of their mean (valid once the sign separation is a few vacuum
    widths; the per-mode error bound is reported), and rescales the
    probabilities to sum to 1.
    """
    _check_inputs(alpha, beta, mode, trials)
    if collapse not in ("exact", "branch"):
        raise ValueError("collapse must be exact or branch")
    corrections, maps = _derive_sign_corrections(freqs)
    branch = collapse == "branch"
    return _build_run(
        "homodyne", target, alpha, beta, maps,
        _BRANCH_EFFECTS if branch else _sign_effects(target.gamma, alpha),
        [(_sign_pair_label(pair), None) for pair in _SIGN_PAIRS],
        corrections, mode, seed, trials, renormalize=branch,
        misclassification={"T": misclassification_probability(target.gamma),
                           "A": misclassification_probability(alpha)},
        collapse=collapse, freqs=tuple(tuple(r) for r in freqs))


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
    _check_inputs(alpha, beta, "sample", trials)
    rng = np.random.default_rng(seed)
    maps = _ideal_maps(alpha, beta, target.gamma)
    grams = _correction_grams(beta)

    def draw(t: TargetState, n: int) -> tuple[int, float]:
        chat = _payload_frame(t)
        p, fmat = _statistics(maps @ chat, _BRANCH_EFFECTS, chat, grams)
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
