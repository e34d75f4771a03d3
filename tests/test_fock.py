import math

import numpy as np
import pytest

from catport.algebra import CoherentSuperposition
from catport.fock import (DynamicsParams, FockVector, apply_cross_kerr_pi,
                          apply_single_mode, coherent_column, evolve,
                          fock_displacement, fock_parity, fock_rotation,
                          half_line_projector, quadrature_x, to_fock,
                          truncation_rule)
from catport.bell import BellLabel, make_quasi_bell

from oracles import coherent_tail_mass, coherent_vec, gaussian_negative_mass


class TestTruncationRule:
    @pytest.mark.parametrize("amp,dim", [(0.0, 10), (2.0, 26), (4.0, 50)])
    def test_pinned_values(self, amp, dim):
        assert truncation_rule(amp) == dim

    def test_always_even(self):
        for a in np.linspace(0, 8, 33):
            assert truncation_rule(a) % 2 == 0

    def test_leakage_guarantee_up_to_eight(self):
        # verified property: tail mass below 1e-10 across the whole range
        for a in np.linspace(0.0, 8.0, 25):
            dim = truncation_rule(a)
            assert coherent_tail_mass(a, dim) < 1e-10

    def test_pinned_leakages(self):
        assert coherent_tail_mass(2.0, 26) < 1e-10
        assert coherent_tail_mass(4.0, 50) < 1e-10


class TestToFock:
    def test_vacuum_is_unit_basis_vector(self):
        v = to_fock(CoherentSuperposition.coherent([0.0]), 8)
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(v.data, want, atol=1e-15)

    def test_ground_coefficient(self):
        v = to_fock(CoherentSuperposition.coherent([1.0]), 20)
        assert v.data[0] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert v.data[0] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_leakage_alpha_two(self):
        v = to_fock(CoherentSuperposition.coherent([2.0]), 40)
        assert v.leakage() < 1e-12

    def test_matches_independent_expansion(self):
        v = to_fock(CoherentSuperposition.coherent([1.1 - 0.7j]), 30)
        assert np.allclose(v.data, coherent_vec(30, 1.1 - 0.7j), atol=1e-10)

    def test_multimode_shape(self):
        s = CoherentSuperposition.coherent([1.0, -1.0])
        v = to_fock(s, (18, 20))
        assert v.dims == (18, 20)
        assert v.leakage() < 1e-10


class TestEvolve:
    def test_zero_time_is_identity(self):
        v = to_fock(CoherentSuperposition.coherent([1.0, 0.5]), 16)
        out = evolve(v, DynamicsParams(2, 2, 1.0, 0.0))
        assert np.array_equal(out.data, v.data)

    def test_magnitudes_preserved(self):
        v = to_fock(CoherentSuperposition.coherent([1.0, 0.5]), 16)
        out = evolve(v, DynamicsParams(2, 1, 1.0, 0.731))
        assert np.max(np.abs(np.abs(out.data) - np.abs(v.data))) < 1e-14
        assert abs(out.norm() - v.norm()) < 1e-13

    @pytest.mark.parametrize("freqs,label", [
        ((2, 2), BellLabel.PHI_PLUS),
        ((2, 1), BellLabel.PHI_MINUS),
        ((1, 2), BellLabel.PSI_PLUS),
        ((1, 1), BellLabel.PSI_MINUS),
    ])
    def test_pi_point_reproduces_table(self, freqs, label):
        dim = truncation_rule(1.0)
        v = to_fock(CoherentSuperposition.coherent([1.0, 1.0]), dim)
        out = evolve(v, DynamicsParams(freqs[0], freqs[1], 1.0, math.pi))
        ref = to_fock(make_quasi_bell(label, 1.0, 1.0), dim)
        assert out.fidelity(ref) > 1 - 1e-8

    def test_wrong_mode_count(self):
        v = to_fock(CoherentSuperposition.coherent([1.0]), 10)
        with pytest.raises(Exception):
            evolve(v, DynamicsParams(2, 2, 1.0, 1.0))


class TestOperators:
    def test_parity_squares_to_identity(self):
        p = np.asarray(fock_parity(12))
        assert np.array_equal(p @ p, np.eye(12))

    def test_displacement_unitary(self):
        d = np.asarray(fock_displacement(40, 0.3j))
        assert np.max(np.abs(d.conj().T @ d - np.eye(40))) < 1e-12

    def test_displacement_matches_exact_backend(self):
        dim = 40
        s = CoherentSuperposition.coherent([1.0])
        got = apply_single_mode(to_fock(s, dim),
                                np.asarray(fock_displacement(dim, 0.3j)), 0)
        want = to_fock(s.displace(0, 0.3j), dim)
        assert got.fidelity(want) > 1 - 1e-8

    def test_first_order_quadrature_form(self):
        # remainder of D(eps) ~ 1 + i|eps|X on a coherent state, with bound
        dim = 40
        eps = 0.01j
        d = np.asarray(fock_displacement(dim, eps))
        x = np.asarray(quadrature_x(dim))
        col = coherent_column(dim, 1.0)
        lhs = np.linalg.norm(d @ col - col - 1j * abs(eps) * (x @ col))
        bound = abs(eps) ** 2 * (2 * 1.0 + 1) ** 2 / 2
        assert bound == pytest.approx(4.5e-4)
        assert lhs <= bound

    def test_quadrature_structure(self):
        x = np.asarray(quadrature_x(9))
        assert np.allclose(x, x.T)
        assert x[3, 4] == pytest.approx(2.0)
        # spectrum symmetric about zero for an even-sized ladder
        w8, _ = np.linalg.eigh(np.asarray(quadrature_x(8)))
        assert np.max(np.abs(w8 + w8[::-1])) < 1e-12

    def test_rotation_phase(self):
        r = fock_rotation(5, math.pi / 2)
        assert r[3, 3] == pytest.approx(np.exp(-1.5j * math.pi), abs=1e-14)

    def test_composition_law_brute_force_matrices(self):
        # D(e1) D(e2) = exp(i Im(e1 conj(e2))) D(e1+e2) as matrix products,
        # with the oracle's Taylor-series exponentials on the other side
        from oracles import displacement_mat
        dim = 40
        e1, e2 = 0.3 - 0.1j, -0.2 + 0.25j
        lhs = displacement_mat(dim, e1) @ displacement_mat(dim, e2)
        rhs = (np.exp(1j * (e1 * e2.conjugate()).imag)
               * np.asarray(fock_displacement(dim, e1 + e2)))
        low = slice(0, dim // 2)
        assert np.max(np.abs(lhs[low, low] - rhs[low, low])) < 1e-10

    def test_parity_conjugation_brute_force_matrices(self):
        from oracles import displacement_mat, parity_mat
        dim = 40
        eps = 0.4 + 0.2j
        p = parity_mat(dim)
        lhs = p @ displacement_mat(dim, eps) @ p
        rhs = np.asarray(fock_displacement(dim, -eps))
        low = slice(0, dim // 2)
        assert np.max(np.abs(lhs[low, low] - rhs[low, low])) < 1e-10

    def test_cross_kerr_matches_evolve(self):
        v = to_fock(CoherentSuperposition.coherent([0.8, 1.2]), 20)
        got = apply_cross_kerr_pi(v, 0, 1)
        want = evolve(v, DynamicsParams(0, 0, 1.0, math.pi))
        assert np.max(np.abs(got.data - want.data)) < 1e-12


class TestHalfLineProjector:
    def test_algebraic_contracts(self):
        dim = 40
        plus = np.asarray(half_line_projector(dim, +1))
        minus = np.asarray(half_line_projector(dim, -1))
        assert np.max(np.abs(plus @ plus - plus)) < 1e-10
        assert np.max(np.abs(plus + minus - np.eye(dim))) < 1e-10
        assert np.max(np.abs(plus - plus.conj().T)) < 1e-10

    def test_vacuum_splits_evenly(self):
        dim = 40
        plus = np.asarray(half_line_projector(dim, +1))
        vac = np.zeros(dim, complex)
        vac[0] = 1.0
        assert np.vdot(vac, plus @ vac).real == pytest.approx(0.5, abs=1e-9)

    def test_coherent_negative_mass(self):
        # converges only ~O(1/dim) toward the continuum value, hence 5e-3
        dim = 40
        minus = np.asarray(half_line_projector(dim, -1))
        col = coherent_column(dim, 1.0)
        got = np.vdot(col, minus @ col).real
        assert got == pytest.approx(0.5 * math.erfc(math.sqrt(2)), abs=5e-3)

    def test_continuum_reference_against_quadrature(self):
        # the closed form itself is pinned by an independent integral
        want = gaussian_negative_mass(2.0)
        assert abs(0.5 * math.erfc(math.sqrt(2)) - want) < 1e-9

    def test_mirror_symmetry(self):
        dim = 40
        plus = np.asarray(half_line_projector(dim, +1))
        minus = np.asarray(half_line_projector(dim, -1))
        a = coherent_column(dim, 1.0)
        ma = coherent_column(dim, -1.0)
        lhs = np.vdot(ma, minus @ ma).real
        rhs = np.vdot(a, plus @ a).real
        assert abs(lhs - rhs) < 1e-10


class TestFockVector:
    def test_dims_data_consistency(self):
        with pytest.raises(Exception):
            FockVector((3, 3), np.zeros(8))
