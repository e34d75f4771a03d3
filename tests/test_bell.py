import itertools
import math

import mpmath
import numpy as np
import pytest

from catport.algebra import (CoherentSuperposition, DegenerateStateError,
                             fidelity, gram_matrix, norm, normalize, overlap)
from catport.bell import (FREQUENCY_TABLE, LABELS, BellLabel,
                          DisplacementQuantum, QuasiBellSet,
                          UnsupportedConfigurationError, combined_op,
                          eigen_residual, generate_from_dynamics,
                          frequency_row, gram_closed_form, make_cat,
                          make_quasi_bell, measurement_bits,
                          predicted_eigenvalue)
from catport.fock import DynamicsParams, evolve, to_fock, truncation_rule
from oracles import mp_combined_expectation

#: 0.05 to 1000, every (alpha, beta) pair of them, equal or not
_ORACLE_AMPLITUDES = (0.05, 0.3, 1.0, 2.5, 8.0, 40.0, 1000.0)


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

    @pytest.mark.parametrize("amp", [1e16, 1e200])
    def test_table_rows_at_large_amplitude(self, amp):
        # the pi-point rotations are exact sign flips at any amplitude
        for (wa, wb), label in FREQUENCY_TABLE.items():
            state, _ = generate_from_dynamics(wa, wb, amp, amp)
            f = fidelity(state, make_quasi_bell(label, amp, amp))
            assert f == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("row, key", [((2.0, 2), (2, 2)),
                                          ([1, 2.0], (1, 2)),
                                          (np.array([2, 1]), (2, 1))])
    def test_whole_number_rows_accepted_as_ints(self, row, key):
        got = frequency_row(row)
        assert got == key and all(type(w) is int for w in got)
        assert generate_from_dynamics(*row, 1.0, 1.0)[1] is \
            FREQUENCY_TABLE[key]

    @pytest.mark.parametrize("row", [(3, 1), (2.5, 2), (2, 0), (2, 2, 2),
                                     (math.inf, 2), (math.nan, 1),
                                     ("2", 2), (None, 2)])
    def test_unsupported_rows_rejected(self, row):
        with pytest.raises(UnsupportedConfigurationError):
            frequency_row(row)


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
        res = [eigen_residual("PbDa", q, a, a) for a in grid]
        slope = np.polyfit(np.log(grid), np.log(res), 1)[0]
        assert abs(slope + 2.0) < 0.1

    def test_matches_overlap_deficit(self):
        # residual ~ |eps|^2/2 with eps = i pi/(4 alpha) at n = 0
        a = 16.0
        got = eigen_residual("PbDa", DisplacementQuantum(0, 0), a, a)
        eps = math.pi / (4 * a)
        assert got == pytest.approx(1 - math.exp(-eps ** 2 / 2), rel=1e-6)

    def test_monotone_decrease_with_amplitude(self):
        q = DisplacementQuantum(0, 0)
        res = [eigen_residual("PaDb", q, a, a)
               for a in (4.0, 8.0, 16.0, 32.0)]
        assert all(x > y for x, y in zip(res, res[1:]))

    def test_larger_quantum_is_worse(self):
        a = 4.0
        r0 = eigen_residual("PbDa", DisplacementQuantum(0, 0), a, a)
        r1 = eigen_residual("PbDa", DisplacementQuantum(1, 0), a, a)
        assert r1 > r0  # the displacement size triples

    def test_nonnegative(self):
        q = DisplacementQuantum(0, 0)
        for which in ("PbDa", "PaDb"):
            assert eigen_residual(which, q, 2.0, 2.0) >= 0.0

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="which"):
            eigen_residual("PaDa", DisplacementQuantum(0, 0), 2.0, 2.0)

    def test_underflow_rounds_to_zero(self):
        assert eigen_residual("PbDa", DisplacementQuantum(0, 0),
                              1e200, 1e200) == 0.0

    @pytest.mark.parametrize("which", ["PbDa", "PaDb"])
    def test_overflow_rounds_to_one(self, which):
        # at 1e-160 |eps| is ~8e159 and |eps|^2 overflows to inf
        assert eigen_residual(which, DisplacementQuantum(0, 0),
                              1e-160, 1e-160) == 1.0

    @pytest.mark.parametrize("which", ["PbDa", "PaDb"])
    def test_matches_mpmath_frame_sum(self, which):
        # the 60-digit frame sum reads lambda (1 - residual), with alpha
        # and beta apart and the other operator's quantum varied too
        worst = 0.0
        for alpha, beta in itertools.product(_ORACLE_AMPLITUDES, repeat=2):
            for k, lab in itertools.product(range(3), LABELS):
                amp = mp_combined_expectation(lab.value, which, k, alpha,
                                              beta)
                for other in range(3):
                    q = (DisplacementQuantum(k, other) if which == "PbDa"
                         else DisplacementQuantum(other, k))
                    lam = predicted_eigenvalue(lab, which, q)
                    got = eigen_residual(which, q, alpha, beta)
                    with mpmath.workdps(60):
                        read = mpmath.mpc(lam.conjugate()) * amp
                        assert abs(mpmath.im(read)) < 1e-40
                        want = 1 - mpmath.re(read)
                        worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-14

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 2), (2, 1)])
    def test_matches_symbolic_operator(self, n, m):
        q = DisplacementQuantum(n, m)
        for a in (0.3, 0.7, 1.5, 4.0, 16.0, 64.0):
            for lab in LABELS:
                s = make_quasi_bell(lab, a, a)
                for which in ("PbDa", "PaDb"):
                    amp = overlap(s, combined_op(s, which, q, a, a))
                    want = (predicted_eigenvalue(lab, which, q)
                            * (1.0 - eigen_residual(which, q, a, a)))
                    assert abs(amp - want) <= 1e-13


class TestBitDecoding:
    def test_bit_semantics(self):
        assert measurement_bits(BellLabel.PHI_PLUS) == (0, 0)
        assert measurement_bits(BellLabel.PHI_MINUS) == (0, 1)
        assert measurement_bits(BellLabel.PSI_PLUS) == (1, 0)
        assert measurement_bits(BellLabel.PSI_MINUS) == (1, 1)
