"""Independent oracle implementations used only by the tests.

Nothing here imports the package's Fock backend or exact algebra: the
coherent coefficients, operator exponentials (Taylor series, not an
eigendecomposition), Gaussian integrals (trapezoid or mpmath quadrature,
not erfc) and the whole measurement pipeline are re-derived
independently, so that every dual-route assertion really has two routes.
The exceptions check frame reductions, not the kernels, so they work
on the algebra's symbolic states: ``frame_tensor`` reads a state back
into frame coefficients, ``ideal_bob`` builds the reference receiver
state, ``receiver_states`` builds a branch's receiver state from its
frame 2-vector and corrects it, ``initial_state`` and ``expand_initial``
build the ideal path's joint state and its bracketed-form decomposition
over the quadruple,
``term_pair_sign_statistics`` reuses the algebra's kernels on the
full symbolic three-mode state, and the frame route below rebuilds the
protocol's tables on the coherent frames {|x>, |-x>} the way the package
did before it moved to cat coordinates: an eigendecomposition Lowdin
map, pi-point tables read by a pattern match, and correction Grams from
symbolic states.  ``einsum_statistics`` redoes the protocol's scalar
kernel in numpy einsums on the package's own tables.  The last two
routes redo the ideal path and the exact collapse on the frames in
100-digit mpmath arithmetic, for amplitudes where double-precision frame
Grams are singular.
"""

from __future__ import annotations

import cmath
import itertools
import math

import mpmath
import numpy as np

#: the receiver's correction displacement in units of pi/beta:
#: mu beta = i pi MU_BETA_OVER_PI, read by every oracle that corrects
MU_BETA_OVER_PI = 0.5


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


def half_line_overlap(u, v, sign: int) -> complex:
    """<u|Theta(sign X)|v> between single-mode coherent kets, X = a + a+.

    The product of the two X-wavefunctions is <u|v> times a unit-variance
    Gaussian centred on conj(u) + v, so the half-line integral is
    <u|v> erfc(-sign (conj(u) + v) / sqrt 2) / 2.  The stdlib erfc is
    real, so conj(u) + v must be real; anything else raises rather than
    being silently approximated.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    u, v = complex(u), complex(v)
    centre = u.conjugate() + v
    if abs(centre.imag) > 1e-12 * max(1.0, abs(u) + abs(v)):
        raise ValueError(
            f"conj(u) + v = {centre} is not real; the half-line element "
            "needs a complex erfc")
    kernel = cmath.exp(-abs(u) ** 2 / 2 - abs(v) ** 2 / 2 + u.conjugate() * v)
    return kernel * 0.5 * math.erfc(-sign * centre.real / math.sqrt(2))


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
    mu = 1j * math.pi * MU_BETA_OVER_PI / beta
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


def frame_tensor(state, frame) -> np.ndarray:
    """Coefficients of a symbolic state on the product frame {|+-frame[m]>}.

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


def ideal_bob(target, beta: float):
    """The payload re-encoded at the receiver amplitude, normalized."""
    from catport.algebra import CoherentSuperposition, normalize

    return normalize(CoherentSuperposition.coherent([beta], target.c_a)
                     + CoherentSuperposition.coherent([-beta], target.c_b))


def receiver_states(frame, correction, beta: float):
    """(v0|beta> + v1|-beta> normalized, that state corrected) for a
    branch's frame (v0, v1); the zero state twice if the branch vanished.
    The symbolic reference for a JSON branch record's frame."""
    from catport.algebra import CoherentSuperposition, norm, normalize
    from catport.protocol import apply_correction

    v0, v1 = frame
    bob = CoherentSuperposition(1, ((v0, (beta,)), (v1, (-beta,))))
    if not norm(bob) > 0:
        return bob, bob
    bob = normalize(bob)
    return bob, apply_correction(bob, correction, beta)


def initial_state(target, alpha: float, beta: float):
    """Payload (x) Phi+ channel on modes (T, a, b); exactly normalized."""
    from catport.algebra import tensor
    from catport.bell import BellLabel, make_quasi_bell

    return tensor(target.realized(),
                  make_quasi_bell(BellLabel.PHI_PLUS, alpha, beta))


def expand_initial(target, alpha: float, beta: float, signs=None):
    """The bracketed-form identity: the joint initial state equals
    sum_k coeff_k |B_k>_{aT} (x) |component_k>_b over the quadruple.

    Returns (label, component, coeff) per quadruple member, the component
    normalized (the zero state when a branch vanishes).  The joint state's
    (a, T) frame coefficients are projected on the sign tables ``signs``
    (bell.FRAME_COEFFS by default, orthonormal), and the symbolic sum is
    checked to reconstruct the joint state below 1e-10.
    """
    from catport import bell
    from catport.algebra import CoherentSuperposition, norm, tensor

    signs = bell.FRAME_COEFFS if signs is None else signs
    joint = initial_state(target, alpha, beta)
    coords = np.einsum("kat,tab->kb", signs,
                       frame_tensor(joint, (target.gamma, alpha, beta)))
    out, diff = [], joint
    for lab, (cb, cmb) in zip(bell.LABELS, coords):
        comp = CoherentSuperposition(1, ((cb, (beta,)), (cmb, (-beta,))))
        c = norm(comp)
        out.append((lab, comp.scaled(1.0 / c) if c > 0 else comp, c))
        diff = diff - tensor(bell.make_quasi_bell(lab, alpha, target.gamma),
                             comp).permute_modes((1, 0, 2))
    resid = norm(diff)  # consolidation has cancelled the coefficients
    if resid > 1e-10:
        raise AssertionError("quadruple expansion failed to reconstruct "
                             f"the joint state (residual {resid})")
    return out


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
    from catport.algebra import CoherentSuperposition, gram_matrix, overlap
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


# -- the frame route ---------------------------------------------------------
# Everything below works on the frame {|x>, |-x>} of each mode.  A map
# M_frame relates to the package's cat-coordinate map M_cat by
# M_frame = (S/2) M_cat S, and a correction Gram by C_cat = (S/2) C S/2,
# with S = [[1, 1], [1, -1]].

FRAME_TO_CAT = np.array([[1.0, 1.0], [1.0, -1.0]])


def frame_gram(x: float) -> np.ndarray:
    """K[i, j] = <s_i x|s_j x> on the frame, s = (+1, -1)."""
    e = math.exp(-2.0 * x * x)
    return np.array([[1.0, e], [e, 1.0]])


def frame_ideal_maps(alpha: float, beta: float, gamma: float):
    """The ideal path on the frames: (maps, Gram condition number).

    The quadruple's Gram G and reading R contract the sign table with the
    frame Grams; the Lowdin map is G^{-1/2} by eigendecomposition, and
    maps[k][r, x] = sum_j conj(G^{-1/2})_{jk} R[j, x, r].
    """
    from catport.bell import FRAME_COEFFS

    k_a, k_g = frame_gram(alpha), frame_gram(gamma)
    gram = np.einsum("jst,su,tv,kuv->jk", FRAME_COEFFS, k_a, k_g,
                     FRAME_COEFFS)
    reading = np.einsum("jst,su,tx,ur->jxr", FRAME_COEFFS, k_a, k_g,
                        FRAME_COEFFS[0])
    w, u = np.linalg.eigh(gram)
    inv_sqrt = (u * w ** -0.5) @ u.conj().T
    return (np.einsum("jk,jxr->krx", inv_sqrt.conj(), reading),
            float(w[-1] / w[0]))


def pi_point(row) -> np.ndarray:
    """One pi-point step on the frames of two modes.

    |s_x X>|s_u Y> goes to sum_ij out[i, j, x, u] |s_i X>|s_j Y>: a free
    rotation by pi w flips a frame index when w is odd, and the cross-Kerr
    step weighs flips p, q by 1/2 (-1)^(pq), the algebra's four-term rule.
    """
    from catport.bell import frequency_row

    w1, w2 = (w % 2 for w in frequency_row(row))
    out = np.zeros((2, 2, 2, 2))
    for x, u, p, q in itertools.product((0, 1), repeat=4):
        out[x ^ w1 ^ p, u ^ w2 ^ q, x, u] = 0.5 * (-1) ** (p * q)
    return out


def frame_sign_corrections(freqs):
    """Each sign pair's correction and its frame map, by pattern match.

    The probe table probes[x, t, a, b] is basis payload |s_x gamma>'s
    three-mode state on the frames of (T, a, b).  Sign group (t, a) is
    the slice probes[:, t, a], so maps[2t + a][b, x] must be proportional
    to exactly one of the four patterns its correction undoes.
    """
    from catport.protocol import CorrectionLabel

    patterns = {
        CorrectionLabel.IDENTITY: np.array([[1, 0], [0, 1]], dtype=complex),
        CorrectionLabel.PARITY: np.array([[0, 1], [1, 0]], dtype=complex),
        CorrectionLabel.DISP: np.array([[1, 0], [0, -1]], dtype=complex),
        CorrectionLabel.PARITY_DISP: np.array([[0, -1], [1, 0]],
                                              dtype=complex),
    }
    probes = np.einsum("taxu,ub->xtab", pi_point(freqs[1]),
                       pi_point(freqs[0])[:, :, 0, 0])
    maps = probes.transpose(1, 2, 3, 0).reshape(4, 2, 2)
    corrections = []
    for mat in maps:
        found = []
        for corr, pat in patterns.items():
            lam = np.vdot(pat, mat) / np.vdot(pat, pat)
            if np.linalg.norm(mat - lam * pat) < 1e-9 * np.linalg.norm(mat):
                found.append(corr)
        if len(found) != 1:
            raise AssertionError(f"sign group {mat} matches {found}")
        corrections.append(found[0])
    return corrections, maps


def frame_correction_grams(beta: float) -> np.ndarray:
    """C[c, i, j] = <e_i|U_c|e_j> from symbolic states on the frame
    e = (|beta>, |-beta>), U_c over the package's CORRECTIONS."""
    from catport.algebra import CoherentSuperposition, overlap
    from catport.protocol import CORRECTIONS, apply_correction

    frame = (CoherentSuperposition.coherent([beta]),
             CoherentSuperposition.coherent([-beta]))
    moved = [[apply_correction(e, c, beta) for e in frame]
             for c in CORRECTIONS]
    return np.array([[[overlap(ei, mj) for mj in m] for ei in frame]
                     for m in moved])


def frame_sign_effects(gamma: float, alpha: float) -> np.ndarray:
    """effects[2t + a] = H_T^{s_t} (x) H_a^{s_a}, with the half-line
    matrices H^s[i, j] = <s_i x|Theta(s X)|s_j x> element by element."""
    half = [[np.array([[half_line_overlap(u, v, s) for v in (x, -x)]
                       for u in (x, -x)]) for s in (+1, -1)]
            for x in (gamma, alpha)]
    return np.array([np.kron(half[0][t], half[1][a])
                     for t in (0, 1) for a in (0, 1)])


# -- the einsum route ---------------------------------------------------------
# The package's scalar kernel (protocol._statistics) in numpy einsums, on the
# same cat-coordinate tables: effects applied to u, not reduced to a 2x2 form.

def _einsum_effects(effects, v: np.ndarray) -> np.ndarray:
    """w[k, m] = sum_n E_k[m, n] v[n], with E_{2s+t} = A[s] (x) B[t] for
    effects = (A, B) on measured index 2x + i, one factor at a time."""
    a, b = effects
    w = np.einsum("tij,xjr->txir", b, v.reshape(2, 2, -1))
    return np.einsum("sxy,tyir->stxir", a, w).reshape(4, 4, -1)


def einsum_statistics(comps, effects, chat, grams):
    """Outcome probabilities p[k] and fidelities f[k, c] under correction c.

    comps[m] is the receiver's cat coordinates on measured index m, and
    G = grams[0], so p_k = sum_mn comps[m]^H E_k[m, n] G comps[n]; the
    fidelity after correction c is u^H E_k u / (p_k chat^H G chat) with
    u[m] = chat^H C_c comps[m], C_c = grams[c].
    """
    comps, chat, grams = (np.asarray(x, dtype=complex)
                          for x in (comps, chat, grams))
    effects = tuple(np.asarray(e, dtype=float) for e in effects)
    probs = np.einsum("mi,ij,kmj->k", comps.conj(), grams[0],
                      _einsum_effects(effects, comps)).real
    u = np.einsum("i,cij,mj->cm", chat.conj(), grams, comps)
    num = np.einsum("cm,kmc->kc", u.conj(),
                    _einsum_effects(effects, u.T)).real
    scale = np.vdot(chat, grams[0] @ chat).real * probs[:, None]
    fids = np.divide(num, scale, out=np.zeros(num.shape), where=scale > 0)
    return probs, fids


# -- 100-digit routes at small amplitude ---------------------------------------
# Both routes work on the frames {|x>, |-x>} in mpmath.  An odd payload
# at amplitude x is normalized by 1/x, so a fidelity's double sums cancel
# about 4 log10(1/x) digits: 100 digits leave more than 50 at x = 1e-12.

_DPS = 100


def _mp_overlap(u, v):
    """<u|v> between coherent kets."""
    return mpmath.exp(-abs(u) ** 2 / 2 - abs(v) ** 2 / 2 + mpmath.conj(u) * v)


def _mp_half_line(u, v, sign):
    """<u|Theta(sign X)|v> for real u, v: e^{-(u-v)^2/2} erfc(-s(u+v)/sqrt 2)/2."""
    return (mpmath.exp(-(u - v) ** 2 / 2)
            * mpmath.erfc(-sign * (u + v) / mpmath.sqrt(2)) / 2)


def _mp_corrected(v, correction: str, beta):
    """U_c|v> = phase |w> for a correction named by its value: (phase, w)."""
    if correction == "identity":
        return 1, v
    if correction == "parity":
        return 1, -v
    mu = mpmath.mpc(0, mpmath.pi * MU_BETA_OVER_PI / beta)
    phase = 1j * mpmath.expj((mu * mpmath.conj(v)).imag)
    return phase, (v + mu if correction == "disp" else -(v + mu))


def _mp_payload(c_a, c_b, gamma):
    """Frame coefficients of c_a|gamma> + c_b|-gamma>, normalized."""
    c = [mpmath.mpc(c_a), mpmath.mpc(c_b)]
    e = mpmath.exp(-2 * gamma ** 2)
    n2 = (abs(c[0]) ** 2 + abs(c[1]) ** 2
          + 2 * e * (mpmath.conj(c[0]) * c[1]).real)
    return [x / mpmath.sqrt(n2) for x in c]


def _mp_statistics(outcomes, corrections, c_a, c_b, beta):
    """p_k and f_k from each outcome's receiver terms [(c_i, b_i)] and
    weights W[j][i] on its term pairs: p = sum_ij conj(c_j) c_i W_ji
    <b_j|b_i>, and the corrected fidelity against the ideal phi is
    sum_ij conj(c_j g_j) c_i g_i W_ji / (p <phi|phi>), g_i = <phi|U|b_i>."""
    phi = list(zip(_mp_payload(c_a, c_b, beta), (beta, -beta)))
    probs, fids = [], []
    for (terms, weights), corr in zip(outcomes, corrections):
        p = f = 0
        g = []
        for c, b in terms:
            phase, w = _mp_corrected(b, corr, beta)
            g.append(phase * sum(mpmath.conj(cp) * _mp_overlap(bp, w)
                                 for cp, bp in phi))
        for j, (cj, bj) in enumerate(terms):
            for i, (ci, bi) in enumerate(terms):
                w = weights[j][i]
                p += mpmath.conj(cj) * ci * w * _mp_overlap(bj, bi)
                f += mpmath.conj(cj * g[j]) * ci * g[i] * w
        p = p.real
        probs.append(float(p))
        fids.append(float(f.real / p) if p > 0 else 0.0)
    return np.array(probs), np.array(fids)


def mp_ideal_statistics(c_a, c_b, gamma: float, alpha: float, beta: float):
    """Ideal-path probabilities and fidelities (CORRECTIONS order) in 100
    digits: the quadruple's frame Gram G on (a, T) orthogonalized with
    mpmath.eigsy, and outcome k's receiver frame coefficients
    sum_j (G^{-1/2})_{jk} <B_j|joint>."""
    from catport.bell import FRAME_COEFFS

    with mpmath.workdps(_DPS):
        a, b, g = (mpmath.mpf(x) for x in (alpha, beta, gamma))
        coeffs = [[[mpmath.mpf(FRAME_COEFFS[k, i, j]) for j in (0, 1)]
                   for i in (0, 1)] for k in range(4)]
        k_a, k_g = ([[1, mpmath.exp(-2 * x ** 2)], [mpmath.exp(-2 * x ** 2), 1]]
                    for x in (a, g))
        pairs = list(itertools.product((0, 1), repeat=2))
        gram = mpmath.matrix(4, 4)
        for j, k in itertools.product(range(4), repeat=2):
            gram[j, k] = sum(coeffs[j][s][t] * k_a[s][u] * k_g[t][v]
                             * coeffs[k][u][v]
                             for (s, t), (u, v) in itertools.product(pairs,
                                                                     pairs))
        evals, evecs = mpmath.eigsy(gram)
        inv_sqrt = [[sum(evecs[j, m] * evecs[k, m] / mpmath.sqrt(evals[m])
                         for m in range(4)) for k in range(4)]
                    for j in range(4)]
        payload = _mp_payload(c_a, c_b, g)
        # <B_j| on (a, T) against payload (x) Phi+ on (T, a, b)
        reading = [[sum(coeffs[j][s][t] * k_a[s][u] * k_g[t][x] * payload[x]
                        * coeffs[0][u][r]
                        for s, t, u, x in itertools.product((0, 1), repeat=4))
                    for r in (0, 1)] for j in range(4)]
        outcomes = []
        for k in range(4):
            terms = [(sum(inv_sqrt[j][k] * reading[j][r] for j in range(4)),
                      sb * b) for r, sb in enumerate((1, -1))]
            outcomes.append((terms, [[1, 1], [1, 1]]))
        return _mp_statistics(outcomes, ("identity", "parity", "disp",
                                         "parity_disp"), c_a, c_b, b)


def mp_homodyne_statistics(c_a, c_b, gamma: float, alpha: float, beta: float,
                           freqs, corrections):
    """Exact-collapse probabilities and fidelities in 100 digits.

    The three-mode state's terms come from the pi-point rule on the
    frames: a free rotation by pi w flips a sign when w is odd, and the
    cross-Kerr step takes |x>|y> to (|x>|y> + |-x>|y> + |x>|-y>
    - |-x>|-y>)/2.  Sign pair (s_T, s_a), in (++, +-, -+, --) order, weighs
    each term pair by the half-line elements of T and a, and takes its
    correction from ``corrections`` (values, in the same order).
    """
    from catport.bell import frequency_row

    def pi_point(state, m1, m2, row):
        w1, w2 = (w % 2 for w in frequency_row(row))
        out = {}
        for signs, c in state.items():
            signs = list(signs)
            signs[m1] *= (-1) ** w1
            signs[m2] *= (-1) ** w2
            for p, q in itertools.product((1, -1), repeat=2):
                new = list(signs)
                new[m1] *= p
                new[m2] *= q
                key = tuple(new)
                out[key] = out.get(key, 0) + c * (-1 if p == q == -1 else 1) / 2
        return out

    with mpmath.workdps(_DPS):
        amps = [mpmath.mpf(x) for x in (gamma, alpha, beta)]
        payload = _mp_payload(c_a, c_b, amps[0])
        state = {(s, 1, 1): c for s, c in zip((1, -1), payload)}
        state = pi_point(pi_point(state, 1, 2, freqs[0]), 0, 1, freqs[1])
        terms = list(state.items())
        outcomes = []
        for s_t, s_a in _SIGN_PAIRS:
            weights = [[_mp_half_line(sj[0] * amps[0], si[0] * amps[0], s_t)
                        * _mp_half_line(sj[1] * amps[1], si[1] * amps[1], s_a)
                        for si, _ in terms] for sj, _ in terms]
            outcomes.append(([(c, s[2] * amps[2]) for s, c in terms], weights))
        return _mp_statistics(outcomes, corrections, c_a, c_b, amps[2])


def _mp_quasi_bell_coeffs(label: str):
    """c[i][j] weighing |s_i alpha>|s_j beta>, s = (+1, -1), from the
    two-term forms Phi+- = |alpha>|beta_+> +- |-alpha>|beta_->, Psi+- =
    |alpha>|beta_-> +- |-alpha>|beta_+> with cats (|b> +- |-b>)/2."""
    cat = {"+": (1, 1), "-": (1, -1)}
    first, second = ("+", "-") if label.startswith("Phi") else ("-", "+")
    rel = 1 if label.endswith("+") else -1
    return [[mpmath.mpf(cat[first][j]) / 2 for j in (0, 1)],
            [rel * mpmath.mpf(cat[second][j]) / 2 for j in (0, 1)]]


def mp_combined_expectation(label: str, which: str, quantum: int,
                            alpha: float, beta: float):
    """<s|Op|s> for a normalized quadruple member, in 60 digits.

    The 16-term frame sum: P_b D_a(eps) takes |x>|y> to
    e^{i Im(eps conj(x))} |x + eps>|-y>, eps = i (n + 1/2) pi / (2 alpha)
    with n = ``quantum`` (P_a D_b likewise with the modes swapped, m and
    beta), and each term pair meets the coherent overlaps
    <u|v> = exp(-|u|^2/2 - |v|^2/2 + conj(u) v) of both modes.  The norm
    is summed the same way, not assumed.
    """
    with mpmath.workdps(60):
        c = _mp_quasi_bell_coeffs(label)
        x, y = mpmath.mpf(alpha), mpmath.mpf(beta)
        if which == "PaDb":
            c = [[c[j][i] for j in (0, 1)] for i in (0, 1)]
            x, y = y, x
        eps = 1j * (quantum + mpmath.mpf(1) / 2) * mpmath.pi / (2 * x)

        def ov(u, v):
            return mpmath.exp(-abs(u) ** 2 / 2 - abs(v) ** 2 / 2
                              + mpmath.conj(u) * v)

        xs, ys = (x, -x), (y, -y)
        # per-mode factors [bra index][ket index], then the 16-term sum
        gx = [[ov(u, v) for v in xs] for u in xs]
        gy = [[ov(u, v) for v in ys] for u in ys]
        dx = [[mpmath.expj(mpmath.im(eps * v)) * ov(u, v + eps) for v in xs]
              for u in xs]
        py = [[ov(u, -v) for v in ys] for u in ys]
        pairs = list(itertools.product((0, 1), repeat=2))
        norm2 = sum(c[i][j] * c[k][l] * gx[i][k] * gy[j][l]
                    for (i, j), (k, l) in itertools.product(pairs, pairs))
        amp = sum(c[i][j] * c[k][l] * dx[i][k] * py[j][l]
                  for (i, j), (k, l) in itertools.product(pairs, pairs))
        return amp / norm2
