import cmath
import math

import numpy as np
import pytest

from catport.algebra import (DEFAULT_MERGE_TOL, CoherentSuperposition,
                             CoherentTerm, DegenerateStateError,
                             DimensionMismatchError, fidelity, gram_matrix,
                             norm, normalize, overlap, partial_overlap, tensor)

from oracles import coherent_vec


def random_state(rng, num_modes=1, max_terms=4, max_amp=3.0):
    while True:
        k = int(rng.integers(1, max_terms + 1))
        terms = tuple(
            (complex(*rng.normal(size=2)),
             tuple(complex(*rng.uniform(-max_amp / 1.5, max_amp / 1.5, 2))
                   for _ in range(num_modes)))
            for _ in range(k))
        s = CoherentSuperposition(num_modes, terms)
        if s.terms and overlap(s, s).real > 1e-6:
            return normalize(s)


class TestOverlap:
    def test_identity_single_term(self):
        s = CoherentSuperposition.coherent([1.3 - 0.4j])
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_opposite_real_amplitudes(self):
        a = CoherentSuperposition.coherent([1.0])
        b = CoherentSuperposition.coherent([-1.0])
        got = overlap(a, b)
        assert got.real == pytest.approx(math.exp(-2), abs=1e-12)
        assert got.real == pytest.approx(0.1353352832366127, abs=1e-12)
        assert abs(got.imag) < 1e-15

    def test_matches_truncated_fock_inner_product(self):
        from catport.fock import truncation_rule
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = complex(*rng.uniform(-3 / 1.5, 3 / 1.5, 2))
            v = complex(*rng.uniform(-3 / 1.5, 3 / 1.5, 2))
            dim = truncation_rule(max(abs(u), abs(v)))
            want = np.vdot(coherent_vec(dim, u), coherent_vec(dim, v))
            got = overlap(CoherentSuperposition.coherent([u]),
                          CoherentSuperposition.coherent([v]))
            assert abs(got - want) < 1e-8

    def test_far_from_origin_does_not_overflow(self):
        far = CoherentSuperposition.coherent([1e200])
        assert overlap(far, far) == 1.0
        pair = far + CoherentSuperposition.coherent([-1e200])
        assert len(pair.terms) == 2
        assert norm(pair) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = random_state(rng, 2), random_state(rng, 2)
        assert overlap(a, b) == pytest.approx(overlap(b, a).conjugate(),
                                              abs=1e-14)

    def test_mode_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(CoherentSuperposition.coherent([1.0]),
                    CoherentSuperposition.coherent([1.0, 0.0]))


class TestNorm:
    def test_single_coherent_is_unit(self):
        assert norm(CoherentSuperposition.coherent([2.0 + 1j])) == \
            pytest.approx(1.0, abs=1e-14)

    def test_zero_state_normalize_raises(self):
        s = CoherentSuperposition(1, ((1.0, (0.5,)), (-1.0, (0.5,))))
        assert s.terms == ()
        with pytest.raises(DegenerateStateError):
            normalize(s)

    def test_squared_norm_real_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_state(rng, 2, max_terms=8)
            sq = overlap(s, s)
            assert abs(sq.imag) < 1e-12
            assert sq.real >= -1e-12


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        s = CoherentSuperposition.coherent([0.7, -0.2])
        assert s.displace(0, 0.0) == s

    def test_phase_and_shift(self):
        s = CoherentSuperposition.coherent([2.0]).displace(0, 0.3j)
        (t,) = s.terms
        assert t.amps[0] == pytest.approx(2.0 + 0.3j)
        assert t.coeff == pytest.approx(cmath.exp(0.6j))

    def test_composition_law(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_state(rng)
            e1 = complex(*rng.uniform(-0.6, 0.6, 2))
            e2 = complex(*rng.uniform(-0.6, 0.6, 2))
            lhs = s.displace(0, e2).displace(0, e1)
            rhs = s.displace(0, e1 + e2).scaled(
                cmath.exp(1j * (e1 * e2.conjugate()).imag))
            assert abs(overlap(lhs, rhs) - 1.0) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        s = random_state(rng, 2, max_terms=8)
        moved = s.displace(1, 0.4 - 0.2j)
        assert norm(moved) == pytest.approx(1.0, abs=1e-12)


class TestParity:
    def test_vacuum_fixed_point(self):
        v = CoherentSuperposition.coherent([0.0])
        assert v.parity(0) == v

    def test_flips_amplitude(self):
        s = CoherentSuperposition.coherent([1.5]).parity(0)
        assert s.terms[0].amps[0] == -1.5
        assert s.terms[0].coeff == 1.0

    def test_conjugates_displacement(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_state(rng)
            e = complex(*rng.uniform(-0.8, 0.8, 2))
            lhs = s.parity(0).displace(0, e).parity(0)
            assert abs(overlap(lhs, s.displace(0, -e)) - 1.0) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(17)
        s = random_state(rng, 2)
        assert abs(overlap(s.parity(1).parity(1), s) - 1.0) < 1e-14


class TestRotation:
    def test_zero_angle(self):
        s = CoherentSuperposition.coherent([1.0 + 1j])
        assert s.rotate(0, 0.0) == s

    def test_pi_equals_parity_on_single_term(self):
        s = CoherentSuperposition.coherent([1.2])
        assert abs(overlap(s.rotate(0, math.pi), s.parity(0)) - 1.0) < 1e-12

    def test_full_turn(self):
        rng = np.random.default_rng(19)
        s = random_state(rng)
        assert abs(overlap(s.rotate(0, 2 * math.pi), s) - 1.0) < 1e-12


class TestCrossKerr:
    def test_vacuum_control_passes_through(self):
        s = CoherentSuperposition.coherent([0.0, 1.7])
        out = s.cross_kerr_pi(0, 1)
        assert abs(overlap(out, s) - 1.0) < 1e-14

    def test_against_diagonal_fock_phase(self):
        dim = 24
        s = CoherentSuperposition.coherent([1.0, 1.0])
        out = s.cross_kerr_pi(0, 1)
        # the oracle evolves the raw tensor with exp(-i pi m n) directly
        grid = np.exp(-1j * math.pi * np.outer(np.arange(dim),
                                               np.arange(dim)))
        want = grid * np.outer(coherent_vec(dim, 1.0), coherent_vec(dim, 1.0))
        got = np.zeros((dim, dim), dtype=complex)
        for t in out.terms:
            got += t.coeff * np.outer(coherent_vec(dim, t.amps[0]),
                                      coherent_vec(dim, t.amps[1]))
        f = abs(np.vdot(want, got)) ** 2
        assert f > 1 - 1e-8

    def test_involution(self):
        rng = np.random.default_rng(23)
        s = random_state(rng, 2, max_terms=6)
        assert abs(overlap(s.cross_kerr_pi(0, 1).cross_kerr_pi(0, 1), s)
                   - 1.0) < 1e-12

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            CoherentSuperposition.coherent([1.0, 1.0]).cross_kerr_pi(1, 1)


class TestUnitarityProperty:
    def test_random_pipelines_preserve_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = random_state(rng, 2, max_terms=8)
            op = rng.choice(["disp", "parity", "rot", "kerr"])
            if op == "disp":
                s2 = s.displace(int(rng.integers(2)),
                                complex(*rng.uniform(-0.5, 0.5, 2)))
            elif op == "parity":
                s2 = s.parity(int(rng.integers(2)))
            elif op == "rot":
                s2 = s.rotate(int(rng.integers(2)),
                              float(rng.uniform(0, 2 * math.pi)))
            else:
                s2 = s.cross_kerr_pi(0, 1)
            assert abs(norm(s2) - 1.0) < 1e-12


class TestGram:
    def test_far_separated_inputs_give_identity(self):
        states = [CoherentSuperposition.coherent([8.0]),
                  CoherentSuperposition.coherent([-8.0])]
        g = gram_matrix(states)
        assert np.max(np.abs(g - np.eye(2))) < 1e-12

    def test_single_state_is_norm_squared(self):
        s = CoherentSuperposition.coherent([1.0], coeff=2.0)
        g = gram_matrix([s])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_hermitian_positive_semidefinite(self):
        rng = np.random.default_rng(31)
        states = [random_state(rng, 2) for _ in range(5)]
        g = gram_matrix(states)
        assert np.max(np.abs(g - g.conj().T)) == 0.0
        assert np.linalg.eigvalsh(g).min() > -1e-10


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(37)
        s = random_state(rng)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_coherent(self):
        a = CoherentSuperposition.coherent([1.0])
        b = CoherentSuperposition.coherent([-1.0])
        assert fidelity(a, b) == pytest.approx(math.exp(-4), abs=1e-12)
        assert fidelity(a, b) == pytest.approx(0.01831563888873418, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(41)
        s = random_state(rng)
        assert fidelity(s, s.scaled(cmath.exp(0.77j))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        z = CoherentSuperposition(1, ((1.0, (0.2,)), (-1.0, (0.2,))))
        with pytest.raises(DegenerateStateError):
            fidelity(z, CoherentSuperposition.coherent([0.0]))


class TestConsolidation:
    def test_merges_coinciding_terms(self):
        s = CoherentSuperposition(1, ((0.5, (1.0,)), (0.25, (1.0,)),
                                      (0.25, (1.0 + 1e-12,))))
        assert len(s.terms) == 1
        assert s.terms[0].coeff == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(43)
        s = random_state(rng, 2, max_terms=8).cross_kerr_pi(0, 1)
        again = CoherentSuperposition(s.num_modes, s.terms)
        assert again.terms == s.terms

    def test_invariant_no_close_pairs(self):
        rng = np.random.default_rng(47)
        s = random_state(rng, 2, max_terms=8).cross_kerr_pi(0, 1)
        amps = [t.amps for t in s.terms]
        for i in range(len(amps)):
            for j in range(i + 1, len(amps)):
                d = math.sqrt(sum(abs(x - y) ** 2
                                  for x, y in zip(amps[i], amps[j])))
                assert d > DEFAULT_MERGE_TOL


class TestSerialization:
    def test_document_shape(self):
        s = CoherentSuperposition.coherent([1.0, -2.0], coeff=0.5j)
        doc = s.to_dict()
        assert set(doc) == {"num_modes", "terms"}
        assert doc["terms"][0]["coeff"] == [0.0, 0.5]
        assert doc["terms"][0]["amps"] == [[1.0, 0.0], [-2.0, 0.0]]


class TestModeAlgebra:
    def test_tensor_then_partial_overlap_factorizes(self):
        rng = np.random.default_rng(59)
        left, right = random_state(rng, 2), random_state(rng)
        joint = tensor(left, right)
        rest = partial_overlap(left, joint, (0, 1))
        assert abs(overlap(rest, right) - 1.0) < 1e-12

    def test_permute_modes_round_trip(self):
        s = CoherentSuperposition.coherent([1.0, 2.0, 3.0])
        p = s.permute_modes((2, 0, 1))
        assert p.terms[0].amps == (3.0, 1.0, 2.0)
        assert p.permute_modes((1, 2, 0)) == s

    def test_finite_values_enforced(self):
        with pytest.raises(ValueError):
            CoherentTerm(float("nan"), (1.0,))
