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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (CoherentSuperposition, DegenerateStateError,
                      fidelity, gram_matrix, half_line_overlap, norm,
                      normalize, overlap, partial_overlap, tensor)
from .bell import (LABELS, BellLabel, QuasiBellSet,
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
        g = qset.gram
        w, u = np.linalg.eigh(g)
        if w[0] <= 0.0:
            raise DegenerateBasisError(
                "Gram matrix is not positive definite (amplitudes too small)")
        cond = float(w[-1] / w[0])
        if cond > cond_limit:
            raise DegenerateBasisError(
                f"Gram condition number {cond:.3g} exceeds {cond_limit:.0e}")
        inv_sqrt = (u * (w ** -0.5)) @ u.conj().T
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


def _channel_phi_plus(alpha: float, beta: float) -> CoherentSuperposition:
    return make_quasi_bell(BellLabel.PHI_PLUS, alpha, beta)


def initial_state(target: TargetState, alpha: float,
                  beta: float) -> CoherentSuperposition:
    """Payload (x) channel on modes (T, a, b); exactly normalized."""
    return tensor(target.realized(), _channel_phi_plus(alpha, beta))


def _frame_coords(s: CoherentSuperposition, beta: float) -> np.ndarray:
    """Coefficients of a single-mode state in the frame {|beta>, |-beta>}."""
    out = np.zeros(2, dtype=complex)
    for t in s.terms:
        a = t.amps[0]
        if abs(a - beta) <= 1e-6:
            out[0] += t.coeff
        elif abs(a + beta) <= 1e-6:
            out[1] += t.coeff
        else:
            raise ValueError(f"amplitude {a} is not +-{beta}")
    return out


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
    qset = QuasiBellSet.build(alpha, target.gamma)
    g = qset.gram
    w = np.linalg.eigvalsh(g)
    if w[0] <= 0.0 or w[-1] / w[0] > GRAM_CONDITION_LIMIT:
        raise DegenerateBasisError(
            "quadruple basis is numerically degenerate at these amplitudes")
    total = initial_state(target, alpha, beta)
    basis = qset.ordered_states()
    # <B_j|total> over (a, T): bra mode 0 pairs with ket mode 1 (a),
    # bra mode 1 with ket mode 0 (T); the remainder lives on mode b.
    projected = [partial_overlap(b, total, (1, 0)) for b in basis]
    rhs = np.stack([_frame_coords(r, beta) for r in projected])
    coords = np.linalg.solve(g, rhs)
    ket_b = CoherentSuperposition.coherent([beta])
    ket_mb = CoherentSuperposition.coherent([-beta])
    out = []
    recon = None
    for k, lab in enumerate(LABELS):
        comp = ket_b.scaled(coords[k, 0]) + ket_mb.scaled(coords[k, 1])
        c = norm(comp)
        comp_n = comp.scaled(1.0 / c) if c > 0 else comp
        out.append((lab, comp_n, c))
        piece = tensor(basis[k], comp).permute_modes((1, 0, 2))
        recon = piece if recon is None else recon + piece
    resid2 = (overlap(total, total) + overlap(recon, recon)
              - 2.0 * overlap(total, recon).real).real
    if math.sqrt(max(resid2, 0.0)) > 1e-10:
        raise AssertionError("quadruple expansion failed to reconstruct "
                             f"the joint state (residual {resid2})")
    return out


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


def _sample_counts(probabilities: np.ndarray, trials: int,
                   seed: int | None) -> tuple:
    p = np.asarray(probabilities, dtype=float)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    return tuple(int(c) for c in rng.multinomial(trials, p))


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
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    qset = QuasiBellSet.build(alpha, target.gamma)
    meas = LowdinMeasurement.from_set(qset)
    total = initial_state(target, alpha, beta)
    collapsed = meas.collapse(total, (1, 0))
    ideal = target.ideal_bob(beta)
    branches = []
    p_sum = 0.0
    avg = 0.0
    for lab, raw in zip(LABELS, collapsed):
        p = norm(raw) ** 2
        p_sum += p
        bob = normalize(raw) if p > 0 else raw
        corr = correction_for_label(lab)
        after = apply_correction(bob, corr, beta) if p > 0 else bob
        f = fidelity(after, ideal) if p > 0 else 0.0
        avg += p * f
        outcome = MeasurementOutcome(lab.value, measurement_bits(lab), p, bob)
        branches.append(ProtocolResult(outcome, corr, after, f))
    counts = None
    if mode == "sample":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        counts = _sample_counts(np.array([b.outcome.probability
                                          for b in branches]), trials, seed)
    return ProtocolRun(
        path="ideal", alpha=alpha, beta=beta, gamma=target.gamma,
        c_a=target.c_a, c_b=target.c_b, branches=tuple(branches),
        inconclusive_rate=max(0.0, 1.0 - p_sum), average_fidelity=avg,
        mode=mode, seed=seed, trials=trials if mode == "sample" else None,
        counts=counts)


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


def _group_by_signs(state: CoherentSuperposition) -> dict:
    """Split terms by the sign of Re(amp) on modes T and a."""
    groups = {pair: [] for pair in _SIGN_PAIRS}
    for t in state.terms:
        key = []
        for m in (0, 1):
            re = t.amps[m].real
            if abs(re) <= 1e-9 * max(1.0, abs(t.amps[m])):
                raise ValueError(
                    "amplitude on a measured mode has no definite sign; "
                    "choose a tabulated frequency row")
            key.append(+1 if re > 0 else -1)
        groups[tuple(key)].append(t)
    return groups


def _bob_component(terms) -> CoherentSuperposition:
    return CoherentSuperposition(
        1, tuple((t.coeff, (t.amps[2],)) for t in terms))


def _derive_sign_corrections(alpha: float, beta: float, gamma: float,
                             freqs) -> dict:
    """Sign pair -> correction, derived from two basis-probe expansions.

    The receiver component of each sign group is linear in (c_a, c_b);
    probing with (1,0) and (0,1) yields its 2x2 matrix in the frame
    {|beta>, |-beta>}, which must be proportional to exactly one of the
    four undoable patterns.
    """
    probes = [TargetState(1.0, 0.0, gamma), TargetState(0.0, 1.0, gamma)]
    columns = {pair: np.zeros((2, 2), dtype=complex) for pair in _SIGN_PAIRS}
    for col, probe in enumerate(probes):
        grouped = _group_by_signs(three_mode_state(probe, alpha, beta, freqs))
        for pair in _SIGN_PAIRS:
            comp = _bob_component(grouped[pair])
            columns[pair][:, col] = _frame_coords(comp, beta)
    mapping = {}
    for pair, mat in columns.items():
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
        mapping[pair] = best
    return mapping


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
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    if collapse not in ("exact", "branch"):
        raise ValueError("collapse must be exact or branch")
    state = three_mode_state(target, alpha, beta, freqs)
    mapping = _derive_sign_corrections(alpha, beta, target.gamma, freqs)
    grouped = _group_by_signs(state)
    ideal = target.ideal_bob(beta)
    miscls = {"T": misclassification_probability(target.gamma),
              "A": misclassification_probability(alpha)}

    raw_components = {pair: _bob_component(grouped[pair])
                      for pair in _SIGN_PAIRS}
    if collapse == "branch":
        weights = {pair: norm(c) ** 2 for pair, c in raw_components.items()}
        total_w = sum(weights.values())
        probs = {pair: w / total_w for pair, w in weights.items()}
        fids = {}
        for pair in _SIGN_PAIRS:
            comp = raw_components[pair]
            if probs[pair] > 0:
                after = apply_correction(normalize(comp), mapping[pair], beta)
                fids[pair] = fidelity(after, ideal)
            else:
                fids[pair] = 0.0
    else:
        probs, fids = _closed_form_sign_statistics(state, mapping, ideal, beta)

    branches = []
    avg = 0.0
    p_sum = 0.0
    for pair in _SIGN_PAIRS:
        p = probs[pair]
        p_sum += p
        comp = raw_components[pair]
        bob = normalize(comp) if norm(comp) > 0 else comp
        corr = mapping[pair]
        after = apply_correction(bob, corr, beta) if norm(comp) > 0 else bob
        outcome = MeasurementOutcome(_sign_pair_label(pair), None, p, bob)
        branches.append(ProtocolResult(outcome, corr, after, fids[pair]))
        avg += p * fids[pair]
    counts = None
    if mode == "sample":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        counts = _sample_counts(np.array([probs[p] for p in _SIGN_PAIRS]),
                                trials, seed)
    return ProtocolRun(
        path="homodyne", alpha=alpha, beta=beta, gamma=target.gamma,
        c_a=target.c_a, c_b=target.c_b, branches=tuple(branches),
        inconclusive_rate=max(0.0, 1.0 - p_sum), average_fidelity=avg,
        mode=mode, seed=seed, trials=trials if mode == "sample" else None,
        counts=counts, misclassification=miscls, collapse=collapse,
        freqs=tuple(tuple(r) for r in freqs))


def _closed_form_sign_statistics(state, mapping, ideal, beta):
    """Joint sign probabilities and corrected fidelities, exactly.

    With terms c_i |t_i, a_i, b_i> and W_ji the product of the half-line
    overlaps <t_j|Theta(+-X)|t_i> <a_j|Theta(+-X)|a_i> for a sign pair,
    the pair's probability is p = sum_ij conj(c_j) c_i W_ji <b_j|b_i>.
    The receiver's conditional state is a mixture over quadrature
    readings; its corrected fidelity against the ideal phi is
    sum_ij conj(c_j g_j) c_i g_i W_ji / p with g_i = <phi|U|b_i>.
    """
    terms = state.terms
    c = np.array([t.coeff for t in terms])
    bobs = [CoherentSuperposition.coherent([t.amps[2]]) for t in terms]
    bob_gram = gram_matrix(bobs)
    half = {(m, s): np.array([[half_line_overlap(tj.amps[m], ti.amps[m], s)
                               for ti in terms] for tj in terms])
            for m in (0, 1) for s in (+1, -1)}
    probs, fids = {}, {}
    for pair in _SIGN_PAIRS:
        w = half[0, pair[0]] * half[1, pair[1]]
        p = float(np.vdot(c, (w * bob_gram) @ c).real)
        g = np.array([overlap(ideal, apply_correction(b, mapping[pair], beta))
                      for b in bobs])
        f = float(np.vdot(c * g, w @ (c * g)).real)
        probs[pair] = p
        fids[pair] = f / p if p > 0 else 0.0
    return probs, fids


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
    seed; optionally averages over uniformly drawn payloads.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    def branch_tables(t: TargetState):
        run = run_teleport_ideal(t, alpha, beta)
        p = run.probabilities()
        ideal = t.ideal_bob(beta)
        fmat = np.zeros((4, 4))
        for k, br in enumerate(run.branches):
            for c, corr in enumerate(CORRECTIONS):
                after = apply_correction(br.outcome.collapsed_bob, corr, beta)
                fmat[k, c] = fidelity(after, ideal)
        correct = np.array([CORRECTIONS.index(br.correction)
                            for br in run.branches])
        return p / p.sum(), fmat, correct

    hits = 0
    fid_sum = 0.0
    if sample_targets:
        for _ in range(trials):
            ca, cb = _uniform_logical(rng)
            p, fmat, correct = branch_tables(
                TargetState(ca, cb, target.gamma))
            k = int(rng.choice(4, p=p))
            c = int(rng.integers(0, 4))
            hits += int(c == correct[k])
            fid_sum += fmat[k, c]
    else:
        p, fmat, correct = branch_tables(target)
        ks = rng.choice(4, size=trials, p=p)
        cs = rng.integers(0, 4, size=trials)
        hits = int(np.sum(cs == correct[ks]))
        fid_sum = float(np.sum(fmat[ks, cs]))
    return hits / trials, fid_sum / trials
