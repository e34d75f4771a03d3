import math

import numpy as np
import pytest

from catport.algebra import (CoherentSuperposition, DegenerateStateError,
                             fidelity, gram_matrix, norm, normalize, overlap)
from catport.bell import (FREQUENCY_TABLE, LABELS, BellLabel,
                          DisplacementQuantum, QuasiBellSet,
                          UnsupportedConfigurationError, combined_op,
                          eigen_residual, generate_from_dynamics,
                          gram_closed_form, make_cat,
                          make_quasi_bell, measurement_bits,
                          parity_action_table, predicted_eigenvalue)
from catport.fock import DynamicsParams, evolve, to_fock, truncation_rule


class TestMakeCat:
    def test_zero_amplitude_even_cat_merges_to_vacuum(self):
        c = make_cat(0.0, +1)
        assert len(c.terms) == 1
        assert c.terms[0].coeff == 1.0
        assert c.terms[0].amps == (0.0,)

    def test_even_cat_norm(self):
        got = norm(make_cat(1.0, +1)) ** 2
        assert got == pytest.approx((1 + math.exp(-2)) / 2, abs=1e-12)
        assert got == pytest.approx(0.5676676416183064, abs=1e-12)

    def test_odd_cat_degenerates_at_zero(self):
        z = make_cat(0.0, -1)
        assert z.terms == ()
        with pytest.raises(DegenerateStateError):
            normalize(z)

    def test_not_normalized_by_construction(self):
        assert norm(make_cat(2.0, +1)) != pytest.approx(1.0)


class TestQuasiBell:
    def test_raw_combination_is_exactly_normalized(self):
        for lab in LABELS:
            raw = make_quasi_bell(lab, 1.3, 0.9, normalized=False)
            assert norm(raw) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_gram_closed_forms(self, alpha, beta):
        g = gram_matrix([make_quasi_bell(lab, alpha, beta) for lab in LABELS])
        assert np.max(np.abs(g - gram_closed_form(alpha, beta))) < 1e-12

    def test_pinned_offdiagonals_at_two(self):
        g = gram_matrix([make_quasi_bell(lab, 2.0, 2.0) for lab in LABELS])
        assert g[0, 1] == pytest.approx(math.exp(-8), abs=1e-12)
        assert g[0, 2] == pytest.approx(math.exp(-8), abs=1e-12)
        assert g[0, 3] == pytest.approx(-math.exp(-16), abs=1e-12)

    def test_gram_against_truncated_basis_oracle(self):
        from oracles import quasi_bell_vec
        import numpy as _np
        got = gram_matrix([make_quasi_bell(lab, 2.0, 2.0) for lab in LABELS])
        vecs = [quasi_bell_vec(str(lab), 2.0, 2.0, 40) for lab in LABELS]
        want = _np.array([[_np.vdot(x, y) for y in vecs] for x in vecs])
        assert _np.max(_np.abs(got - want)) < 1e-8

    def test_regrouping_identity(self):
        # the two groupings of the pi-point rewrite describe the same state
        alpha, beta = 1.1, 0.8
        first = (CoherentSuperposition(
            2, ((1.0, (alpha, beta)),)).cross_kerr_pi(0, 1))
        plus_a = make_cat(alpha, +1)
        minus_a = make_cat(alpha, -1)
        cb = CoherentSuperposition.coherent([beta])
        cmb = CoherentSuperposition.coherent([-beta])
        from catport.algebra import tensor
        second = tensor(plus_a, cb) + tensor(minus_a, cmb)
        assert fidelity(first, second) > 1 - 1e-12

    def test_asymptotic_orthogonality(self):
        g = gram_matrix([make_quasi_bell(lab, 4.0, 4.0) for lab in LABELS])
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) == pytest.approx(math.exp(-32), rel=1e-6)
        assert np.max(np.abs(off)) < 1.3e-14

    def test_set_construction(self):
        qset = QuasiBellSet.build(2.0, 2.0)
        assert set(qset.states) == set(LABELS)
        assert np.max(np.abs(qset.gram - gram_closed_form(2.0, 2.0))) < 1e-12


class TestDynamics:
    @pytest.mark.parametrize("freqs,label", list(FREQUENCY_TABLE.items()))
    def test_table_rows(self, freqs, label):
        state, got = generate_from_dynamics(freqs[0], freqs[1], 1.0, 1.0)
        assert got is label
        assert fidelity(state, make_quasi_bell(label, 1.0, 1.0)) > 1 - 1e-10

    def test_cross_check_with_number_basis_evolution(self):
        dim = truncation_rule(1.0)
        for (wa, wb), label in FREQUENCY_TABLE.items():
            state, _ = generate_from_dynamics(wa, wb, 1.0, 1.0)
            vec = evolve(to_fock(CoherentSuperposition.coherent([1.0, 1.0]),
                                 dim),
                         DynamicsParams(wa, wb, 1.0, math.pi))
            assert vec.fidelity(to_fock(state, dim)) > 1 - 1e-8

    def test_unsupported_frequencies(self):
        with pytest.raises(UnsupportedConfigurationError):
            generate_from_dynamics(3, 1, 1.0, 1.0)


class TestParityActions:
    @pytest.mark.parametrize("mode", ["a", "b"])
    @pytest.mark.parametrize("label", LABELS)
    def test_table_verified_by_application(self, mode, label):
        alpha, beta = 1.2, 0.7
        target_label, sign = parity_action_table(label, mode)
        s = make_quasi_bell(label, alpha, beta)
        flipped = s.parity(0 if mode == "a" else 1)
        want = make_quasi_bell(target_label, alpha, beta).scaled(sign)
        # exact at every amplitude, sign included
        assert abs(overlap(flipped, want) - 1.0) < 1e-12

    def test_pinned_entries(self):
        assert parity_action_table(BellLabel.PHI_PLUS, "a") == \
            (BellLabel.PSI_PLUS, +1)
        assert parity_action_table(BellLabel.PSI_PLUS, "b") == \
            (BellLabel.PSI_MINUS, -1)

    def test_double_application_is_identity(self):
        lab, sign = parity_action_table(BellLabel.PHI_MINUS, "a")
        lab2, sign2 = parity_action_table(lab, "a")
        assert lab2 is BellLabel.PHI_MINUS
        assert sign * sign2 == +1


class TestCombinedOperators:
    def test_large_amplitude_eigenvalue(self):
        alpha = beta = 32.0
        q = DisplacementQuantum(0, 0)
        s = make_quasi_bell(BellLabel.PHI_PLUS, alpha, beta)
        amp = overlap(s, combined_op(s, "PbDa", q, alpha, beta))
        assert abs(amp - 1j) < 1e-3  # -> i |Phi+> as amplitudes grow

    def test_eigenvalue_sets_at_amplitude_eight(self):
        q = DisplacementQuantum(0, 0)
        sets = {"PbDa": [], "PaDb": []}
        for which in sets:
            for lab in LABELS:
                s = make_quasi_bell(lab, 8.0, 8.0)
                amp = overlap(s, combined_op(s, which, q, 8.0, 8.0))
                sets[which].append(1j if amp.imag > 0 else -1j)
        assert sets["PbDa"] == [1j, 1j, -1j, -1j]
        assert sets["PaDb"] == [1j, -1j, 1j, -1j]

    def test_quantum_index_flips_sign(self):
        alpha = beta = 8.0
        s = make_quasi_bell(BellLabel.PHI_PLUS, alpha, beta)
        a0 = overlap(s, combined_op(s, "PbDa", DisplacementQuantum(0, 0),
                                    alpha, beta))
        a1 = overlap(s, combined_op(s, "PbDa", DisplacementQuantum(1, 0),
                                    alpha, beta))
        assert a0.imag > 0 > a1.imag

    def test_psi_minus_m1_eigenvalue(self):
        # predicted -i(-1)^1 = +i
        q = DisplacementQuantum(0, 1)
        assert predicted_eigenvalue(BellLabel.PSI_MINUS, "PaDb", q) == 1j
        s = make_quasi_bell(BellLabel.PSI_MINUS, 16.0, 16.0)
        amp = overlap(s, combined_op(s, "PaDb", q, 16.0, 16.0))
        assert amp.imag > 0

    def test_reordering_identity_exact(self):
        # Pb Da(e) . Pa Db(l) = Pa Pb Da(-e) Db(l) as state maps, exactly
        alpha = beta = 2.0
        q = DisplacementQuantum(0, 0)
        eps, lam = q.epsilon(alpha), q.lam(beta)
        s = make_quasi_bell(BellLabel.PHI_PLUS, alpha, beta)
        lhs = combined_op(combined_op(s, "PaDb", q, alpha, beta),
                          "PbDa", q, alpha, beta)
        rhs = (s.displace(1, lam).displace(0, -eps).parity(0).parity(1))
        assert abs(overlap(lhs, rhs) - 1.0) < 1e-12

    def test_orderings_commute_asymptotically(self):
        # the two orderings agree only in the large-amplitude limit,
        # with the disagreement falling off like 1/amplitude^2
        q = DisplacementQuantum(0, 0)
        gaps = []
        for a in (4.0, 8.0, 16.0, 32.0):
            s = make_quasi_bell(BellLabel.PHI_PLUS, a, a)
            ab = combined_op(combined_op(s, "PaDb", q, a, a), "PbDa", q, a, a)
            ba = combined_op(combined_op(s, "PbDa", q, a, a), "PaDb", q, a, a)
            gaps.append(1.0 - fidelity(ab, ba))
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        ratio = gaps[-2] / gaps[-1]
        assert ratio == pytest.approx(4.0, rel=0.2)
        assert gaps[-1] < 5e-3


class TestEigenResidual:
    def test_slope_near_minus_two(self):
        q = DisplacementQuantum(0, 0)
        grid = [4.0, 8.0, 16.0, 32.0]
        res = [eigen_residual(BellLabel.PHI_PLUS, "PbDa", q, a, a)
               for a in grid]
        slope = np.polyfit(np.log(grid), np.log(res), 1)[0]
        assert abs(slope + 2.0) < 0.1

    def test_matches_overlap_deficit(self):
        # residual ~ |eps|^2/2 with eps = i pi/(4 alpha) at n = 0
        a = 16.0
        got = eigen_residual(BellLabel.PHI_PLUS, "PbDa",
                             DisplacementQuantum(0, 0), a, a)
        eps = math.pi / (4 * a)
        assert got == pytest.approx(1 - math.exp(-eps ** 2 / 2), rel=1e-6)

    def test_monotone_decrease_with_amplitude(self):
        q = DisplacementQuantum(0, 0)
        res = [eigen_residual(BellLabel.PSI_PLUS, "PaDb", q, a, a)
               for a in (4.0, 8.0, 16.0, 32.0)]
        assert all(x > y for x, y in zip(res, res[1:]))

    def test_larger_quantum_is_worse(self):
        a = 4.0
        r0 = eigen_residual(BellLabel.PHI_PLUS, "PbDa",
                            DisplacementQuantum(0, 0), a, a)
        r1 = eigen_residual(BellLabel.PHI_PLUS, "PbDa",
                            DisplacementQuantum(1, 0), a, a)
        assert r1 > r0  # the displacement size triples

    def test_nonnegative(self):
        q = DisplacementQuantum(0, 0)
        for lab in LABELS:
            assert eigen_residual(lab, "PbDa", q, 2.0, 2.0) >= 0.0


class TestBitDecoding:
    def test_bit_semantics(self):
        assert measurement_bits(BellLabel.PHI_PLUS) == (0, 0)
        assert measurement_bits(BellLabel.PHI_MINUS) == (0, 1)
        assert measurement_bits(BellLabel.PSI_PLUS) == (1, 0)
        assert measurement_bits(BellLabel.PSI_MINUS) == (1, 1)
