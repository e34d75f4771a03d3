"""Truncated number-basis backend: the brute-force oracle.

Everything here is a dense numpy computation in a finite Fock space.  It
exists to cross-validate the exact coherent algebra, to evolve states at
arbitrary interaction times (where no finite coherent superposition
exists), and to build quadrature half-line projectors that check the
closed-form homodyne collapse in the tests.

Conventions:
    quadrature      X = a + a+   (vacuum variance <X^2> = 1, coherent
                    mean <X> = 2 Re alpha)
    number phases   evolve() multiplies |m,n> by
                    exp(-i (w_a m + w_b n + chi m n) t)
    displacement    built by exponentiating the truncated generator
                    eps a+ - conj(eps) a; exactly unitary as a matrix,
                    and accurate against the infinite-dimensional
                    operator on the low-occupation subspace only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import CoherentSuperposition, DimensionMismatchError

__all__ = [
    "truncation_rule",
    "FockVector",
    "DynamicsParams",
    "coherent_column",
    "to_fock",
    "evolve",
    "fock_destroy",
    "fock_displacement",
    "fock_parity",
    "fock_rotation",
    "quadrature_x",
    "half_line_projector",
    "apply_single_mode",
    "apply_cross_kerr_pi",
]


def truncation_rule(max_abs_amplitude: float) -> int:
    """Truncation dimension for a given largest coherent amplitude.

    dim = ceil(|a|^2 + 6|a| + 10), rounded up to the next even integer.
    Keeps coherent-state leakage below 1e-10 for |a| <= 8 (verified in
    tests by tail sums).  Even dimensions keep the truncated quadrature
    spectrum symmetric around zero, so half-line projectors never have to
    break a tie on a zero eigenvalue.
    """
    a = float(max_abs_amplitude)
    if a < 0:
        raise ValueError("amplitude must be nonnegative")
    dim = math.ceil(a * a + 6.0 * a + 10.0)
    return dim + (dim % 2)


@dataclass(frozen=True)
class FockVector:
    """Dense state vector over a tensor product of truncated Fock spaces.

    ``data`` is shaped ``dims`` (C order); it is stored read-only so
    vectors can be shared freely.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError("each mode dimension must be >= 1")
        data = np.asarray(self.data, dtype=complex)
        if data.size != math.prod(dims):
            raise DimensionMismatchError(
                f"data size {data.size} != prod(dims) {math.prod(dims)}")
        data = data.reshape(dims).copy()
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @property
    def num_modes(self) -> int:
        return len(self.dims)

    def inner(self, other: "FockVector") -> complex:
        if self.dims != other.dims:
            raise DimensionMismatchError("dims differ")
        return complex(np.vdot(self.data, other.data))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def leakage(self) -> float:
        """|1 - <v|v>|: truncation loss for vectors built from normalized sources."""
        return abs(1.0 - self.norm() ** 2)

    def fidelity(self, other: "FockVector") -> float:
        return abs(self.inner(other)) ** 2 / (self.norm() ** 2 * other.norm() ** 2)


@dataclass(frozen=True)
class DynamicsParams:
    """Two-mode number-conserving dynamics parameters.

    Frequencies are in units of the coupling constant ``chi``; ``chi``
    itself sets the time unit (the entangling point is t = pi/chi).
    """

    omega_a: float
    omega_b: float
    chi: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        if not self.chi > 0:
            raise ValueError("chi must be positive")


def coherent_column(dim: int, amp: complex) -> np.ndarray:
    """Coefficients e^{-|a|^2/2} a^n / sqrt(n!) of |amp> in a truncated ladder."""
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-0.5 * abs(amp) ** 2)
    for n in range(1, dim):
        v[n] = v[n - 1] * amp / math.sqrt(n)
    return v


def to_fock(state: CoherentSuperposition, dims) -> FockVector:
    """Expand an exact coherent superposition in truncated number bases.

    ``dims`` is one dimension per mode (an int is broadcast).  Truncation
    loss is data, not an error: read it off ``FockVector.leakage()``.
    """
    if isinstance(dims, int):
        dims = (dims,) * state.num_modes
    dims = tuple(int(d) for d in dims)
    if len(dims) != state.num_modes:
        raise DimensionMismatchError("one dimension per mode required")
    data = np.zeros(dims, dtype=complex)
    for t in state.terms:
        block = np.array([t.coeff], dtype=complex).reshape((1,) * len(dims))
        for m, (d, a) in enumerate(zip(dims, t.amps)):
            col = coherent_column(d, a).reshape(
                (1,) * m + (d,) + (1,) * (len(dims) - m - 1))
            block = block * col
        data += block
    return FockVector(dims, data)


def evolve(v: FockVector, p: DynamicsParams) -> FockVector:
    """Number-basis evolution of a two-mode vector.

    Multiplies each |m,n> coefficient by exp(-i (w_a m + w_b n + chi m n) t);
    diagonal, hence exactly norm-preserving.
    """
    if v.num_modes != 2:
        raise DimensionMismatchError("evolve expects a two-mode vector")
    m = np.arange(v.dims[0])[:, None]
    n = np.arange(v.dims[1])[None, :]
    phase = np.exp(-1j * (p.omega_a * m + p.omega_b * n + p.chi * m * n) * p.t)
    return FockVector(v.dims, v.data * phase)


@lru_cache(maxsize=None)
def fock_destroy(dim: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def fock_displacement(dim: int, eps: complex) -> np.ndarray:
    """exp(eps a+ - conj(eps) a) on the truncated ladder.

    The generator is anti-Hermitian, so the exponential is taken through
    the eigendecomposition of its Hermitian partner; the result is unitary
    to machine precision as a dim x dim matrix, and matches the true
    displacement on states supported well below the truncation edge.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    eps = complex(eps)
    a = fock_destroy(dim)
    gen = eps * a.conj().T - eps.conjugate() * a
    w, u = np.linalg.eigh(1j * gen)
    d = (u * np.exp(-1j * w)) @ u.conj().T
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def fock_parity(dim: int) -> np.ndarray:
    p = np.diag((-1.0) ** np.arange(dim)).astype(complex)
    p.setflags(write=False)
    return p


def fock_rotation(dim: int, theta: float) -> np.ndarray:
    """Diagonal free-evolution phase exp(-i theta n)."""
    return np.diag(np.exp(-1j * theta * np.arange(dim)))


@lru_cache(maxsize=None)
def quadrature_x(dim: int) -> np.ndarray:
    """X = a + a+, tridiagonal with sqrt(n+1) off-diagonals."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    x = fock_destroy(dim) + fock_destroy(dim).T
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def half_line_projector(dim: int, sign: int) -> np.ndarray:
    """Projector onto the positive (sign=+1) or negative (sign=-1) X eigenspace.

    Built from the eigendecomposition of the truncated X, so P^2 = P,
    P+ + P- = I and Hermiticity hold to machine precision.  The half-line
    *mass* it assigns converges only ~O(1/dim) toward the continuum
    Gaussian integral, an erfc in closed form.  A zero eigenvalue (odd dim
    only) is assigned to the positive side.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    w, u = np.linalg.eigh(quadrature_x(dim))
    cols = u[:, w < 0.0] if sign < 0 else u[:, w >= 0.0]
    p = (cols @ cols.conj().T).astype(complex)
    p.setflags(write=False)
    return p


def apply_single_mode(v: FockVector, op: np.ndarray, mode: int) -> FockVector:
    """Apply a dim x dim operator to one mode of a multi-mode vector."""
    if not 0 <= mode < v.num_modes:
        raise DimensionMismatchError(f"mode {mode} out of range")
    if op.shape != (v.dims[mode], v.dims[mode]):
        raise DimensionMismatchError("operator shape does not match mode dim")
    moved = np.tensordot(op, v.data, axes=([1], [mode]))
    return FockVector(v.dims, np.moveaxis(moved, 0, mode))


def apply_cross_kerr_pi(v: FockVector, mode_a: int, mode_b: int) -> FockVector:
    """Multiply by the diagonal phase exp(-i pi n_A n_B)."""
    if mode_a == mode_b:
        raise ValueError("cross-Kerr needs two distinct modes")
    for m in (mode_a, mode_b):
        if not 0 <= m < v.num_modes:
            raise DimensionMismatchError(f"mode {m} out of range")
    na = np.arange(v.dims[mode_a])
    nb = np.arange(v.dims[mode_b])
    phase = np.exp(-1j * math.pi * np.multiply.outer(na, nb))
    shape = [1] * v.num_modes
    shape[mode_a] = v.dims[mode_a]
    shape[mode_b] = v.dims[mode_b]
    if mode_a > mode_b:
        phase = phase.T
    return FockVector(v.dims, v.data * phase.reshape(shape))
