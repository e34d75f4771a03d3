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

The Bell measurement is the symmetric orthogonalization of the
quadruple (the closest orthonormal set).  The parity corrections are
exact at every amplitude; the displacement corrections restore the
component magnitudes up to a e^{-|mu|^2/2} overlap factor; they do not
repair the relative phase of a two-component payload, so the canonical
probe for fidelity scaling is c_a=1, c_b=0.

Homodyne path: entangling T with a by a second pi-point interaction
turns the Bell measurement into two sign-of-quadrature readings; the
sign pair selects the same four corrections.  Collapse is computed
exactly, at every amplitude, or per coherent branch, its limit e = m = 0
(error bounded by the reported Gaussian sign error m = 1/2 erfc(sqrt(2)
amp)).

Runs work on bell.make_cat's cats |x_+-> = (|x> +- |-x>)/2, orthogonal
with Gram matrix diag(1 + e, 1 - e)/2, e = e^{-2x^2}; the frame
{|x>, |-x>} maps to them by S = [[1, 1], [1, -1]].  There the protocol
is a two-qubit sign circuit at every amplitude: the channel is S, the
orthogonalized quadruple is the fixed orthonormal set S FRAME_COEFFS S/2
on the normalized cats, a pi-point step with row (w1, w2) is
Z^w1 (x) Z^w2 CZ, and parity is Z.  Each outcome leaves the receiver a
2x2 map of the payload; one kernel turns the maps into weights and every
correction's fidelity, given each outcome's effect on the measured
modes: the projector on one outcome index for the Bell measurement, and
for a sign pair the Kronecker product of the half-line matrices
<x_i|Theta(s X)|x_j> on the measured modes' cats, [[1 + e, s q],
[s q, 1 - e]]/4 with q = erf(sqrt(2) x) = 1 - 2m.  The kernel is plain
complex arithmetic (numpy only draws seeded counts), reading the weight
and every fidelity off one 2x2 Hermitian matrix per outcome.  The frame
enters only in the records, which keep the receiver's frame 2-vector
as plain numbers: no run builds a symbolic state, and the JSON writer
(reports.run_to_json_doc) prints each branch's vector normalized.
The Bell measurement and the exact collapse are both complete on the
payload's span, so a run's inconclusive_rate is the rounding defect
max(0, 1 - sum p).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import (CoherentSuperposition, DegenerateStateError, _kernel,
                      normalize, partial_overlap, tensor)
# not called here: perfbench/selftest.py checks that the benchmark's tracer
# rebinds algebra.overlap in this module too (ROADMAP item 1)
from .algebra import overlap  # noqa: F401
from .bell import (FRAME_COEFFS, LABELS, QuasiBellSet, _pi_point,
                   frequency_row, generate_from_dynamics, measurement_bits)

__all__ = [
    "DegenerateBasisError",
    "TargetState",
    "CorrectionLabel",
    "apply_correction",
    "LowdinMeasurement",
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

#: numpy's multinomial takes counts up to 2**63 - 1
MAX_TRIALS = 2 ** 63 - 1


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


class CorrectionLabel(enum.Enum):
    IDENTITY = "identity"
    PARITY = "parity"
    DISP = "disp"
    PARITY_DISP = "parity_disp"


#: per Bell outcome, in LABELS order: its correction and (label, eigen_bits)
CORRECTIONS = (CorrectionLabel.IDENTITY, CorrectionLabel.PARITY,
               CorrectionLabel.DISP, CorrectionLabel.PARITY_DISP)
_BELL_OUTCOMES = tuple((lab.value, measurement_bits(lab)) for lab in LABELS)


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
    def from_set(cls, qset: QuasiBellSet) -> "LowdinMeasurement":
        """G^{-1/2} from the eigendecomposition of the quadruple's Gram G.

        Raises:
            DegenerateBasisError: G is not positive definite, or its
                condition number exceeds GRAM_CONDITION_LIMIT.
        """
        w, u = np.linalg.eigh(qset.gram)
        if w[0] <= 0.0:
            raise DegenerateBasisError(
                "Gram matrix is not positive definite (amplitudes too small)")
        cond = float(w[-1] / w[0])
        if cond > GRAM_CONDITION_LIMIT:
            raise DegenerateBasisError(f"Gram condition number {cond:.3g} "
                                       f"exceeds {GRAM_CONDITION_LIMIT:.0e}")
        inv_sqrt = (u * (w ** -0.5)) @ u.conj().T
        basis = qset.ordered_states()
        vectors = []
        for k in range(4):
            acc = basis[0].scaled(inv_sqrt[0, k])
            for j in range(1, 4):
                acc = acc + basis[j].scaled(inv_sqrt[j, k])
            vectors.append(acc)
        return cls(qset.alpha, qset.beta, tuple(vectors), cond)

    def collapse(self, state: CoherentSuperposition, ket_modes):
        """Unnormalized post-measurement remote states, one per outcome."""
        return [partial_overlap(v, state, ket_modes) for v in self.vectors]


# ---------------------------------------------------------------------------
# Cat coordinates
# ---------------------------------------------------------------------------

#: the frame-to-cat map: c_a|x> + c_b|-x> = sum_i (S c)_i |x_i>, with
#: |x_0> and |x_1> the even and odd cats; S^2 = 2, so S/2 maps back
_S = ((1.0, 1.0), (1.0, -1.0))

#: the Lowdin-orthogonalized quadruple on the normalized cats of (a, T):
#: W_k = S FRAME_COEFFS[k] S / 2, orthonormal and the same at every
#: amplitude, because the cats diagonalize both frame Gram matrices
_BELL_CATS = (np.array(_S) @ FRAME_COEFFS @ _S / 2).tolist()


def _cat_norms2(x: float) -> tuple[float, float]:
    """<x_+|x_+>, <x_-|x_->: (1 + e, 1 - e)/2 with e = e^{-2x^2}.

    Below the normal floats (x < 1.1e-154) 1 - e keeps no digits, so the
    odd cat counts as the zero state.
    """
    odd = -math.expm1(-2.0 * x * x) / 2.0
    return ((1.0 + math.exp(-2.0 * x * x)) / 2.0,
            odd if odd >= sys.float_info.min else 0.0)


def _payload(target: TargetState) -> tuple[complex, complex]:
    """The realized payload's cat coordinates: S c, normalized."""
    even, odd = target.c_a + target.c_b, target.c_a - target.c_b
    n_even, n_odd = _cat_norms2(target.gamma)
    norm = math.sqrt(n_even * abs(even) ** 2 + n_odd * abs(odd) ** 2)
    if not norm > 0.0:
        raise DegenerateStateError("cannot normalize a zero-norm state")
    return even / norm, odd / norm


# ---------------------------------------------------------------------------
# Payload-linear branch maps
# ---------------------------------------------------------------------------

def _ideal_maps(alpha: float, gamma: float):
    """maps[k][b][t]: receiver cat b per payload cat t under Bell outcome k.

    <w_k| reads the normalized cats of (a, T), which the unnormalized
    cats of the channel (S on (a, b)) and payload meet with their norms
    n = sqrt(diag G): einsum("kat,a,t,ab->kbt", W, n_a, n_g, S).
    """
    (a0, a1), (g0, g1) = ([math.sqrt(v) for v in _cat_norms2(x)]
                          for x in (alpha, gamma))
    return [((w00 * a0 * g0 + w10 * a1 * g0, w01 * a0 * g1 + w11 * a1 * g1),
             (w00 * a0 * g0 - w10 * a1 * g0, w01 * a0 * g1 - w11 * a1 * g1))
            for (w00, w01), (w10, w11) in _BELL_CATS]


def _correction_grams(beta: float):
    """C[c][i][j] = <beta_i|U_c|beta_j> on the cats, U_c over CORRECTIONS.

    Parity is Z on the cats, so C = [G, ZG, D', ZD'] with G the cats'
    Gram matrix and D' = (i/4) S F S, where F[i, j] = <s_i beta|D(mu)|
    s_j beta> is the Weyl phase times a coherent overlap on the frame.
    """
    mu = correction_mu(beta)
    frame = (complex(beta), complex(-beta))
    f = [[cmath.exp(1j * (mu * v).imag) * _kernel(u, v + mu) for v in frame]
         for u in frame]
    disp = [[0.25j * (f[0][0] + s * f[1][0] + t * (f[0][1] + s * f[1][1]))
             for t in (1, -1)] for s in (1, -1)]
    even, odd = _cat_norms2(beta)
    return ([[even, 0.0], [0.0, odd]], [[even, 0.0], [0.0, -odd]], disp,
            [disp[0], [-d for d in disp[1]]])


#: the Bell measurement: outcome 2s + t projects on measured index 2s + t
_BRANCH_EFFECTS = ((((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0))),) * 2


def _statistics(maps, effects, chat, grams, renormalize=False):
    """Cat coordinates comps[m] = maps[m] chat on measured index 2x + i,
    outcome probabilities p[k] and fidelities f[k][c] under correction c.

    Outcome 2s + t has the effect E = A[s] (x) B[t], effects = (A, B);
    with G = grams[0] and the 2x2 Hermitian M = comps^H E comps, p = tr(G M).
    The receiver's conditional state is a mixture over the readings; its
    fidelity after correction c against the ideal state (cat coordinates
    proportional to chat) is r^H M r / (p chat^H G chat), r = chat^H C_c,
    C_c = grams[c] (see _correction_grams).  renormalize makes p sum to 1.
    """
    h0, h1 = chat[0].conjugate(), chat[1].conjugate()
    comps = [(m00 * chat[0] + m01 * chat[1], m10 * chat[0] + m11 * chat[1])
             for (m00, m01), (m10, m11) in maps]
    if renormalize:
        # relative weights: an exact power of two keeps the squares finite
        scale = 2.0 ** -math.frexp(max(abs(x) for c in comps for x in c))[1]
        comps = [(x0 * scale, x1 * scale) for x0, x1 in comps]
    cols = tuple(zip(*comps))
    ws = []
    for v0, v1, v2, v3 in cols:
        # E v one factor at a time (einsum "tij,xj->txi", "sxy,tyi->stxi")
        # before any product of two components: cancellations are exact
        half = [(v0 * b00 + v1 * b01, v0 * b10 + v1 * b11,
                 v2 * b00 + v3 * b01, v2 * b10 + v3 * b11)
                for (b00, b01), (b10, b11) in effects[1]]
        ws.append([(u0 * a00 + u2 * a01, u1 * a00 + u3 * a01,
                    u0 * a10 + u2 * a11, u1 * a10 + u3 * a11)
                   for (a00, a01), (a10, a11) in effects[0]
                   for u0, u1, u2, u3 in half])
    # M_k: einsum("mi,kmj->kij", comps^*, E comps); M_k[1, 0] = M_k[0, 1]^*
    (a0, a1, a2, a3), (b0, b1, b2, b3) = ([x.conjugate() for x in col]
                                          for col in cols)
    ms = [((a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3).real,
           (b0 * o0 + b1 * o1 + b2 * o2 + b3 * o3).real,
           a0 * o0 + a1 * o1 + a2 * o2 + a3 * o3)
          for (e0, e1, e2, e3), (o0, o1, o2, o3) in zip(*ws)]
    (g0, _), (_, g1) = grams[0]
    probs = [g0 * m00 + g1 * m11 for m00, m11, _ in ms]
    # r^H M r = |r0|^2 M00 + |r1|^2 M11 + 2 Re(r0^* r1 M01), never below 0
    forms = [(abs(r0) ** 2, abs(r1) ** 2, 2 * r0.conjugate() * r1)
             for r0, r1 in ((h0 * c00 + h1 * c10, h0 * c01 + h1 * c11)
                            for (c00, c01), (c10, c11) in grams)]
    norm2 = (h0 * (g0 * chat[0]) + h1 * (g1 * chat[1])).real
    fids = [[max(s0 * m00 + s1 * m11 + (z * m01).real, 0.0) / (norm2 * p)
             for s0, s1, z in forms] if norm2 * p > 0 else [0.0] * 4
            for p, (m00, m11, m01) in zip(probs, ms)]
    if renormalize:
        total = sum(probs)
        probs = [p / total for p in probs]
    return comps, probs, fids


def _multinomial(rng, n: int, weights) -> np.ndarray:
    """rng.multinomial(n, weights / sum) with the weights first put on a
    2^-40 grid, so that cells equal up to rounding stay exactly equal and
    a last-bit change in the weights does not re-draw the sample."""
    grid = np.ldexp(np.rint(np.ldexp(np.asarray(weights, dtype=float), 40)),
                    -40)
    return rng.multinomial(n, grid / grid.sum())


# ---------------------------------------------------------------------------
# Protocol records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementOutcome:
    """One Bell (or sign-pair) outcome and the receiver's frame 2-vector."""

    label: str
    eigen_bits: tuple | None
    probability: float
    frame: tuple


@dataclass(frozen=True)
class ProtocolResult:
    """Per-branch record: outcome, applied correction, fidelity."""

    outcome: MeasurementOutcome
    correction: CorrectionLabel
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
    mode: str
    seed: int | None
    trials: int | None
    counts: tuple | None
    misclassification: dict | None = None
    collapse: str | None = None
    freqs: tuple | None = None

    def probabilities(self) -> np.ndarray:
        return np.array([b.outcome.probability for b in self.branches])


def _check_inputs(alpha: float, beta: float, mode: str, trials: int):
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("alpha and beta must be positive and finite")
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    if mode == "sample" and not 1 <= trials <= MAX_TRIALS:
        raise ValueError("trials must be in [1, 2**63)")


def _build_run(path: str, target: TargetState, alpha: float, beta: float,
               maps, effects, rows, outcomes, corrections, mode: str,
               seed: int | None, trials: int, renormalize: bool = False,
               **extra) -> ProtocolRun:
    """A run from the 2x2 maps and outcome effects (see _statistics), the
    rows taking the measured index to each record's outcome (None: the
    same index), and the per-branch (label, eigen_bits) and corrections."""
    comps, probs, fids = _statistics(maps, effects, _payload(target),
                                     _correction_grams(beta), renormalize)
    fids = [row[CORRECTIONS.index(c)] for row, c in zip(fids, corrections)]
    if rows is not None:
        comps = [[sum(x[b] * r for r, x in zip(row, comps)) for b in (0, 1)]
                 for row in rows]
    # the records hold the receiver's frame coordinates S v / 2
    branches = [
        ProtocolResult(MeasurementOutcome(
            label, bits, p, ((x0 + x1) / 2, (x0 - x1) / 2)), corr, f)
        for (label, bits), corr, (x0, x1), p, f in zip(
            outcomes, corrections, comps, probs, fids)]
    counts = None
    if mode == "sample":
        rng = np.random.default_rng(seed)
        counts = tuple(int(c) for c in _multinomial(rng, trials, probs))
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
        "ideal", target, alpha, beta, _ideal_maps(alpha, target.gamma),
        _BRANCH_EFFECTS, None, _BELL_OUTCOMES, CORRECTIONS, mode, seed, trials)


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


#: each sign pair 2t + a's (label, eigen_bits), bit 1 for a minus sign
_SIGN_OUTCOMES = tuple((s, None) for s in ("T+A+", "T+A-", "T-A+", "T-A-"))


def three_mode_state(target: TargetState, alpha: float, beta: float,
                     freqs=DEFAULT_FREQS) -> CoherentSuperposition:
    """Entangle the channel, then the payload with the sender mode.

    Both steps run the pi-point interaction with their configured
    frequency row; mode order stays (T, a, b).
    """
    row_ab, row_ta = frequency_row(freqs[0]), frequency_row(freqs[1])
    channel, _ = generate_from_dynamics(*row_ab, alpha, beta)
    return _pi_point(tensor(target.realized(), channel), (0, 1), row_ta)


def _homodyne_maps(freqs):
    """Each sign pair's correction and maps[2x + i][b, y], receiver cat b
    per payload cat y on measured cats x of T and i of a.

    |alpha>|beta> is all ones on the cats.  With w the channel row and v
    the T-a row mod 2, sign pair (t, a), bit 1 for a minus sign, leaves
    Z^p X^d on the payload, with p = t^v1^w2 and d = a^w1^v2: parity
    undoes Z, the displacement X.
    """
    (w1, w2), (v1, v2) = ([w % 2 for w in frequency_row(row)]
                          for row in freqs)
    # einsum("xi,ib,xy->xiby", entangler, channel, eye) with the signs
    # (-1)^(x v1 + i v2 + x i) and (-1)^(i w1 + b w2 + i b)
    maps = [[[(-1.0) ** (x * v1 + i * v2 + x * i + i * w1 + b * w2 + i * b)
              if x == y else 0.0 for y in (0, 1)] for b in (0, 1)]
            for x in (0, 1) for i in (0, 1)]
    corrections = [CORRECTIONS[(t ^ v1 ^ w2) + 2 * (a ^ w1 ^ v2)]
                   for t in (0, 1) for a in (0, 1)]
    return corrections, maps


def _sign_effects(gamma: float, alpha: float):
    """(H_T, H_a): sign pair 2t + a (_SIGN_OUTCOMES order) has the exact
    effect H_T[t] (x) H_a[a] on the cats of T (at gamma) and a (at alpha),
    H[0], H[1] = [[1 + e, +-q], [+-q, 1 - e]]/4 with e = e^{-2x^2} and
    q = erf(sqrt(2) x) = 1 - 2m, m the sign-error probability."""
    halves = []
    for x in (gamma, alpha):
        even, odd = _cat_norms2(x)
        # |q| <= sqrt((1 + e)(1 - e)): a zero odd cat has no coherences
        q = math.erf(math.sqrt(2.0) * x) / 4 if odd > 0 else 0.0
        halves.append((((even / 2, q), (q, odd / 2)),
                       ((even / 2, -q), (-q, odd / 2))))
    return tuple(halves)


#: the branch readout: the exact effects' limit e = m = 0, each sign
#: reading the projector on one frame sign
_BRANCH_SIGN_EFFECTS = _sign_effects(math.inf, math.inf)

#: a record's outcome 2t + a from the measured cats 2x + i: the frame row
#: (S/2)[t, x] (S/2)[a, i] of each sign reading
_SIGN_ROWS = (np.kron(_S, _S) / 4).tolist()


def run_teleport_homodyne(target: TargetState, alpha: float, beta: float,
                          freqs=DEFAULT_FREQS, collapse: str = "exact",
                          mode: str = "enumerate", seed: int | None = None,
                          trials: int = 1) -> ProtocolRun:
    """Run the sign-of-quadrature path.

    collapse="exact" computes sign probabilities and fidelities from the
    closed-form half-line effects, at every amplitude.  collapse="branch"
    takes their large-amplitude limit, selecting coherent branches by the
    sign of their mean (valid once the sign separation is a few vacuum
    widths; the per-mode error bound is reported), and rescales the
    probabilities to sum to 1.
    """
    _check_inputs(alpha, beta, mode, trials)
    if collapse not in ("exact", "branch"):
        raise ValueError("collapse must be exact or branch")
    corrections, maps = _homodyne_maps(freqs)
    branch = collapse == "branch"
    return _build_run(
        "homodyne", target, alpha, beta, maps,
        _BRANCH_SIGN_EFFECTS if branch
        else _sign_effects(target.gamma, alpha), _SIGN_ROWS,
        _SIGN_OUTCOMES, corrections, mode, seed, trials, renormalize=branch,
        misclassification={"T": misclassification_probability(target.gamma),
                           "A": misclassification_probability(alpha)},
        collapse=collapse, freqs=tuple(tuple(r) for r in freqs))


# ---------------------------------------------------------------------------
# No-channel baseline
# ---------------------------------------------------------------------------

def classical_baseline(target: TargetState, alpha: float, beta: float,
                       trials: int, seed: int | None = None
                       ) -> tuple[float, float]:
    """Receiver guesses the correction with no classical channel.

    A branch is drawn from the exact outcome distribution, the receiver
    applies a uniformly random correction, and two numbers come back:
    the rate at which the guess matched the branch's correct correction
    (-> 1/4) and the mean resulting fidelity.  Deterministic for a fixed
    seed.  The trials are one multinomial draw over the 16 (branch,
    guess) cells, so memory does not grow with ``trials``.
    """
    _check_inputs(alpha, beta, "sample", trials)
    _, p, fmat = _statistics(_ideal_maps(alpha, target.gamma), _BRANCH_EFFECTS,
                             _payload(target), _correction_grams(beta))
    cells = _multinomial(np.random.default_rng(seed), trials,
                         [w for w in p for _ in range(4)]).tolist()
    fids = [f for row in fmat for f in row]
    # CORRECTIONS is in LABELS order: right guesses sit on the diagonal
    return (sum(cells[::5]) / trials,
            sum(n * f for n, f in zip(cells, fids)) / trials)
