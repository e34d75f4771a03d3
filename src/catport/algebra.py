"""Exact algebra of finite coherent-state superpositions.

A state is a finite weighted sum of multi-mode coherent product terms,

    |s> = sum_j c_j |a_j0> (x) |a_j1> (x) ... (x) |a_j,M-1>,

and every inner product reduces to the single-mode Gaussian kernel

    <u|v> = exp(-|u|^2/2 - |v|^2/2 + conj(u) v),

so norms, overlaps and a closed family of unitaries are evaluated with
no truncation error at any amplitude.  The unitaries that keep the
representation finite are:

    displacement    D(e)|a> = exp(i Im(e conj(a))) |a+e>
    parity          P|a>    = |-a>
    phase rotation  R(t)|a> = |a exp(-i t)>       (free evolution)
    cross-Kerr pi   exp(-i pi n_A n_B), which splits each product term
                    into the four-term even/odd rewrite
                    |x>|y> -> (|x>+|-x>)|y>/2 + (|x>-|-x>)|-y>/2.

Values are immutable; every operation returns a new state, so states are
safe to share across threads or process pools.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "DegenerateStateError",
    "CoherentTerm",
    "CoherentSuperposition",
    "overlap",
    "norm",
    "normalize",
    "fidelity",
    "gram_matrix",
    "tensor",
    "partial_overlap",
]

#: amplitude-tuple merge tolerance; far below the overlap-kernel
#: conditioning for |amp| <= 30
DEFAULT_MERGE_TOL = 1e-9

# relative coefficient threshold below which a term is numerical dust
_COEFF_DUST = 1e-16


class DimensionMismatchError(ValueError):
    """Raised when two states (or a mode index) disagree on mode count."""


class DegenerateStateError(ValueError):
    """Raised when an operation needs a nonzero-norm state and got none."""


def _as_complex(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite value {z!r}")
    return z


def _kernel(u: complex, v: complex) -> complex:
    """Single-mode coherent overlap <u|v> = exp(-|u-v|^2/2 + i Im(conj(u) v)).

    Both parts of the exponent are written on the distance d = v - u
    (Im(conj(u) v) = Im(conj(u) d)), so nearby amplitudes give a finite
    exponent at any finite size; far-separated amplitudes underflow
    cleanly to 0, whatever the phase.
    """
    d = v - u
    return cmath.exp(complex(-0.5 * (d.real * d.real + d.imag * d.imag),
                             (u.conjugate() * d).imag))


@dataclass(frozen=True)
class CoherentTerm:
    """One product term: a complex weight times one coherent ket per mode."""

    coeff: complex
    amps: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_complex(self.coeff))
        object.__setattr__(self, "amps", tuple(_as_complex(a) for a in self.amps))


def _amp_distance(a: tuple[complex, ...], b: tuple[complex, ...]) -> float:
    return math.hypot(*(abs(x - y) for x, y in zip(a, b)))


def _consolidate(terms) -> tuple[CoherentTerm, ...]:
    """Merge terms with coinciding amplitude tuples; drop zero weights.

    Order-stable and idempotent: re-consolidating a consolidated list
    returns it unchanged.
    """
    merged: list[list] = []
    for t in terms:
        for m in merged:
            if _amp_distance(m[1], t.amps) <= DEFAULT_MERGE_TOL:
                m[0] += t.coeff
                break
        else:
            merged.append([t.coeff, t.amps])
    if not merged:
        return ()
    top = max(abs(c) for c, _ in merged)
    if top == 0.0:
        return ()
    return tuple(CoherentTerm(c, a) for c, a in merged if abs(c) > _COEFF_DUST * top)


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite superposition of multi-mode coherent product terms.

    Terms are consolidated on construction: no two surviving terms have
    amplitude tuples within DEFAULT_MERGE_TOL of each other, and
    exactly-cancelled terms disappear (a fully cancelled state has an empty
    term list and norm zero).
    """

    num_modes: int
    terms: tuple[CoherentTerm, ...]

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be positive")
        terms = tuple(t if isinstance(t, CoherentTerm) else CoherentTerm(*t)
                      for t in self.terms)
        for t in terms:
            if len(t.amps) != self.num_modes:
                raise DimensionMismatchError(
                    f"term has {len(t.amps)} amplitudes, state has "
                    f"{self.num_modes} modes")
        object.__setattr__(self, "terms", _consolidate(terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def coherent(cls, amps, coeff=1.0) -> "CoherentSuperposition":
        """Single product term ``coeff |amps[0]> (x) |amps[1]> ...``."""
        amps = tuple(_as_complex(a) for a in amps)
        return cls(len(amps), (CoherentTerm(coeff, amps),))

    # -- linear structure --------------------------------------------------

    def scaled(self, factor) -> "CoherentSuperposition":
        factor = _as_complex(factor)
        return CoherentSuperposition(
            self.num_modes,
            tuple(CoherentTerm(factor * t.coeff, t.amps) for t in self.terms))

    def __add__(self, other: "CoherentSuperposition") -> "CoherentSuperposition":
        if self.num_modes != other.num_modes:
            raise DimensionMismatchError("mode counts differ")
        return CoherentSuperposition(self.num_modes, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    # -- unitaries ---------------------------------------------------------

    def _check_mode(self, mode: int):
        if not 0 <= mode < self.num_modes:
            raise DimensionMismatchError(
                f"mode {mode} out of range for {self.num_modes}-mode state")

    def displace(self, mode: int, eps) -> "CoherentSuperposition":
        """Apply D(eps) = exp(eps a+ - conj(eps) a) on one mode.

        Each amplitude shifts by eps and the term picks up the Weyl phase
        exp(i Im(eps conj(a))); the map is exactly norm-preserving.
        """
        self._check_mode(mode)
        eps = _as_complex(eps)
        new = []
        for t in self.terms:
            a = t.amps[mode]
            phase = cmath.exp(1j * (eps * a.conjugate()).imag)
            amps = t.amps[:mode] + (a + eps,) + t.amps[mode + 1:]
            new.append(CoherentTerm(t.coeff * phase, amps))
        return CoherentSuperposition(self.num_modes, tuple(new))

    def parity(self, mode: int) -> "CoherentSuperposition":
        """Apply exp(i pi n) on one mode: every amplitude flips sign."""
        self._check_mode(mode)
        new = tuple(
            CoherentTerm(t.coeff,
                         t.amps[:mode] + (-t.amps[mode],) + t.amps[mode + 1:])
            for t in self.terms)
        return CoherentSuperposition(self.num_modes, new)

    def rotate(self, mode: int, theta: float) -> "CoherentSuperposition":
        """Free-evolution phase: amplitude -> amplitude * exp(-i theta)."""
        self._check_mode(mode)
        ph = cmath.exp(-1j * theta)
        new = tuple(
            CoherentTerm(t.coeff,
                         t.amps[:mode] + (t.amps[mode] * ph,) + t.amps[mode + 1:])
            for t in self.terms)
        return CoherentSuperposition(self.num_modes, new)

    def cross_kerr_pi(self, mode_a: int, mode_b: int) -> "CoherentSuperposition":
        """Apply exp(-i pi n_A n_B) between two distinct modes.

        Splits each term into the four-term even/odd rewrite; applying the
        map twice is the identity.
        """
        self._check_mode(mode_a)
        self._check_mode(mode_b)
        if mode_a == mode_b:
            raise ValueError("cross-Kerr needs two distinct modes")
        new = []
        for t in self.terms:
            x, y = t.amps[mode_a], t.amps[mode_b]
            half = 0.5 * t.coeff
            for cx, sx, sy in ((half, 1, 1), (half, -1, 1),
                               (half, 1, -1), (-half, -1, -1)):
                amps = list(t.amps)
                amps[mode_a] = sx * x
                amps[mode_b] = sy * y
                new.append(CoherentTerm(cx, tuple(amps)))
        return CoherentSuperposition(self.num_modes, tuple(new))

    # -- mode bookkeeping ---------------------------------------------------

    def permute_modes(self, perm) -> "CoherentSuperposition":
        """Reorder modes: new mode i holds what was mode perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.num_modes)):
            raise ValueError(f"{perm} is not a permutation of the modes")
        new = tuple(CoherentTerm(t.coeff, tuple(t.amps[p] for p in perm))
                    for t in self.terms)
        return CoherentSuperposition(self.num_modes, new)

    def max_abs_amplitude(self) -> float:
        """Largest |amplitude| over all terms and modes (0 for the zero state)."""
        return max((abs(a) for t in self.terms for a in t.amps), default=0.0)


# -- inner products ----------------------------------------------------------

def overlap(s1: CoherentSuperposition, s2: CoherentSuperposition) -> complex:
    """Exact inner product <s1|s2>; conjugate-symmetric in its arguments."""
    if s1.num_modes != s2.num_modes:
        raise DimensionMismatchError(
            f"mode counts differ: {s1.num_modes} vs {s2.num_modes}")
    total = 0j
    for t1 in s1.terms:
        for t2 in s2.terms:
            k = t1.coeff.conjugate() * t2.coeff
            for u, v in zip(t1.amps, t2.amps):
                k *= _kernel(u, v)
            total += k
    return total


def norm(s: CoherentSuperposition) -> float:
    """sqrt of the (real, nonnegative) squared norm <s|s>."""
    return math.sqrt(max(overlap(s, s).real, 0.0))


def normalize(s: CoherentSuperposition) -> CoherentSuperposition:
    n = norm(s)
    if n <= 0.0:
        raise DegenerateStateError("cannot normalize a zero-norm state")
    return s.scaled(1.0 / n)


def fidelity(s1: CoherentSuperposition, s2: CoherentSuperposition) -> float:
    """|<s1|s2>|^2 after normalizing both sides; global-phase invariant."""
    return abs(overlap(normalize(s1), normalize(s2))) ** 2


def gram_matrix(states) -> np.ndarray:
    """Hermitian matrix of pairwise overlaps G[j,k] = <s_j|s_k>."""
    states = list(states)
    n = len(states)
    g = np.zeros((n, n), dtype=complex)
    for j in range(n):
        # the diagonal is a squared norm: real by construction
        g[j, j] = overlap(states[j], states[j]).real
        for k in range(j + 1, n):
            v = overlap(states[j], states[k])
            g[j, k] = v
            g[k, j] = v.conjugate()
    return g


def tensor(s1: CoherentSuperposition,
           s2: CoherentSuperposition) -> CoherentSuperposition:
    """Product state on the concatenated mode list (s1 modes first)."""
    new = tuple(CoherentTerm(t1.coeff * t2.coeff, t1.amps + t2.amps)
                for t1 in s1.terms for t2 in s2.terms)
    return CoherentSuperposition(s1.num_modes + s2.num_modes, new)


def partial_overlap(bra: CoherentSuperposition, ket: CoherentSuperposition,
                    ket_modes) -> CoherentSuperposition:
    """Contract <bra| against a subset of ket's modes.

    ``ket_modes[i]`` names the ket mode paired with bra mode ``i``. The
    result is an (unnormalized) state on the remaining ket modes, in
    ascending original order.

    Args:
        bra: state whose conjugate is contracted (all of its modes used).
        ket: larger state.
        ket_modes: sequence of distinct ket mode indices, one per bra mode.
    """
    ket_modes = tuple(ket_modes)
    if len(ket_modes) != bra.num_modes:
        raise DimensionMismatchError("one ket mode needed per bra mode")
    if len(set(ket_modes)) != len(ket_modes):
        raise ValueError("ket modes must be distinct")
    for m in ket_modes:
        if not 0 <= m < ket.num_modes:
            raise DimensionMismatchError(f"ket mode {m} out of range")
    keep = [m for m in range(ket.num_modes) if m not in ket_modes]
    if not keep:
        raise ValueError("contraction would leave no modes; use overlap()")
    new = []
    for tb in bra.terms:
        for tk in ket.terms:
            c = tb.coeff.conjugate() * tk.coeff
            for i, m in enumerate(ket_modes):
                c *= _kernel(tb.amps[i], tk.amps[m])
            new.append(CoherentTerm(c, tuple(tk.amps[m] for m in keep)))
    return CoherentSuperposition(len(keep), tuple(new))

