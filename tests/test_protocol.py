import itertools
import math

import numpy as np
import pytest

from catport import bell, fock, protocol, reports
from catport.algebra import (CoherentSuperposition, DegenerateStateError,
                             fidelity, norm, normalize, overlap)
from catport.bell import (LABELS, BellLabel, QuasiBellSet,
                          UnsupportedConfigurationError)
from catport.protocol import (CORRECTIONS, CorrectionLabel,
                              DegenerateBasisError, LowdinMeasurement,
                              TargetState, apply_correction,
                              classical_baseline,
                              misclassification_probability,
                              run_teleport_homodyne, run_teleport_ideal,
                              correction_mu, three_mode_state)

from oracles import (FRAME_TO_CAT, displacement_mat, expand_initial,
                     frame_correction_grams, frame_ideal_maps,
                     frame_sign_corrections, frame_sign_effects, frame_tensor,
                     gaussian_negative_mass, half_line_element_quad,
                     half_line_overlap, ideal_bob, initial_state,
                     mp_homodyne_statistics, mp_ideal_statistics, parity_mat,
                     protocol_pipeline, term_pair_sign_statistics)

S = FRAME_TO_CAT
#: a sign pair's frame row on the measured cats of (T, a): frame
#: coordinates are R c, frame effects read R^T H R on the cats
R = np.kron(S, S) / 4


def frame_maps(maps):
    """The homodyne maps with the measured modes on their frames."""
    return np.einsum("km,mby->kby", R, maps)


def cat_effects(frame):
    """Frame effects on the measured modes, read on their cats."""
    return np.einsum("mk,jmn,nl->jkl", R, frame, R)


def kron_effects(effects):
    """The package's per-mode effects (A, B) as outcome 2s + t's effect
    A[s] (x) B[t] on the measured index."""
    return np.array([np.kron(a, b) for a in effects[0] for b in effects[1]])


def coh(amp, coeff=1.0):
    return CoherentSuperposition.coherent([amp], coeff)


class TestTargetState:
    def test_normalizes_logical_coefficients(self):
        t = TargetState(2.0, 0.0, 1.0)
        assert t.c_a == 1.0 and t.c_b == 0.0

    def test_rejects_double_zero(self):
        with pytest.raises(DegenerateStateError):
            TargetState(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("coeffs, unit", [((1e200, 1e200), (1, 1)),
                                              ((1e-200, 0.0), (1, 0))])
    def test_normalizes_at_extreme_scales(self, coeffs, unit):
        got, want = TargetState(*coeffs, 1.0), TargetState(*unit, 1.0)
        assert abs(got.c_a - want.c_a) < 1e-15
        assert abs(got.c_b - want.c_b) < 1e-15

    def test_physical_norm_recomputed(self):
        t = TargetState(1 / math.sqrt(2), 1 / math.sqrt(2), 0.5)
        assert norm(t.realized()) == pytest.approx(1.0, abs=1e-12)


class TestCorrections:
    def test_parity_correction_exact_any_beta(self):
        for beta in (0.8, 2.0, 5.0):
            for ca, cb in ((0.6, 0.8), (1 / math.sqrt(2), -1j / math.sqrt(2))):
                branch = coh(-beta, ca) + coh(beta, cb)
                fixed = apply_correction(branch, CorrectionLabel.PARITY, beta)
                ideal = coh(beta, ca) + coh(-beta, cb)
                assert abs(overlap(fixed, ideal) / norm(ideal) ** 2 - 1.0) \
                    < 1e-12

    def test_disp_overlap_magnitude_single_component(self):
        beta = 3.0
        fixed = apply_correction(coh(beta), CorrectionLabel.DISP, beta)
        got = abs(overlap(coh(beta), fixed))
        want = math.exp(-(math.pi / 6) ** 2 / 2)
        assert want == pytest.approx(0.8719023555668898, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_disp_error_vanishes_at_large_beta(self):
        mags = []
        for beta in (2.0, 4.0, 8.0, 16.0):
            fixed = apply_correction(coh(beta), CorrectionLabel.DISP, beta)
            mags.append(abs(overlap(coh(beta), fixed)))
        assert all(x < y for x, y in zip(mags, mags[1:]))
        assert mags[-1] > 1 - 2e-2

    def test_group_structure(self):
        # P Disp P equals the inverse-sign displacement as a state map
        beta = 2.0
        mu = 1j * math.pi / (2 * beta)
        rng = np.random.default_rng(61)
        s = normalize(coh(beta, complex(*rng.normal(size=2)))
                      + coh(-beta, complex(*rng.normal(size=2))))
        lhs = apply_correction(s.parity(0), CorrectionLabel.DISP,
                               beta).parity(0)
        rhs = s.displace(0, -mu).scaled(1j)
        assert abs(overlap(lhs, rhs) - 1.0) < 1e-12

    def test_conventional_global_phase_retained(self):
        out = apply_correction(coh(1.0), CorrectionLabel.DISP, 1.0)
        # coefficient carries i * (Weyl phase of the displacement)
        assert out.terms[0].coeff == pytest.approx(
            1j * np.exp(1j * math.pi / 2), abs=1e-12)


class TestExpandInitial:
    def test_components_match_bracketed_forms(self):
        ca, cb = 0.6, 0.8
        beta = 2.5
        expansion = expand_initial(TargetState(ca, cb, 2.0), 2.0, beta)
        want = {
            BellLabel.PHI_PLUS: coh(beta, ca) + coh(-beta, cb),
            BellLabel.PHI_MINUS: coh(-beta, ca) + coh(beta, cb),
            BellLabel.PSI_PLUS: coh(beta, ca) - coh(-beta, cb),
            BellLabel.PSI_MINUS: coh(-beta, ca) - coh(beta, cb),
        }
        for lab, comp, coeff in expansion:
            assert coeff > 0
            assert fidelity(comp, want[lab]) > 1 - 1e-12

    def test_balanced_probabilities_quarter_each(self):
        t = TargetState(1 / math.sqrt(2), 1 / math.sqrt(2), 4.0)
        run = run_teleport_ideal(t, 4.0, 4.0)
        assert np.max(np.abs(run.probabilities() - 0.25)) < 1e-6

    def test_reconstruction_residual_enforced(self):
        # exercised internally on every call
        expand_initial(TargetState(0.8, 0.6j, 1.5), 1.5, 1.5)

    def test_random_cases_reconstruct(self):
        # the residual is the norm of the consolidated difference, whose
        # rounding floor sits far below the 1e-10 bound at every amplitude
        for target, alpha, beta in _random_cases(0, 120):
            assert len(expand_initial(target, alpha, beta)) == 4

    def test_corrupted_solve_trips_residual(self):
        # rows [1, 0, 3, 2] are a symmetry of the tables and would not trip
        with pytest.raises(AssertionError, match="reconstruct"):
            expand_initial(TargetState(0.8, 0.6j, 1.5), 1.5, 1.5,
                           signs=bell.FRAME_COEFFS[[0, 1, 3, 2]])


class TestLowdin:
    def test_orthonormal_vectors(self):
        meas = LowdinMeasurement.from_set(QuasiBellSet.build(1.0, 1.0))
        for j, vj in enumerate(meas.vectors):
            for k, vk in enumerate(meas.vectors):
                want = 1.0 if j == k else 0.0
                assert abs(overlap(vj, vk) - want) < 1e-10

    def test_probabilities_complete_on_span(self):
        qset = QuasiBellSet.build(1.0, 1.0)
        meas = LowdinMeasurement.from_set(qset)
        state = normalize(qset.states[BellLabel.PHI_PLUS].scaled(0.3)
                          + qset.states[BellLabel.PSI_MINUS].scaled(0.9j))
        p = np.array([abs(overlap(v, state)) ** 2 for v in meas.vectors])
        inconclusive = max(0.0, 1.0 - p.sum())
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert inconclusive < 1e-10

    def test_inconclusive_weight_off_span(self):
        meas = LowdinMeasurement.from_set(QuasiBellSet.build(1.0, 1.0))
        outside = CoherentSuperposition.coherent([5.0, -5.0])
        p = np.array([abs(overlap(v, outside)) ** 2 for v in meas.vectors])
        assert 1.0 - p.sum() > 0.9

    def test_effects_approach_projectors_at_large_amplitude(self):
        qset = QuasiBellSet.build(6.0, 6.0)
        meas = LowdinMeasurement.from_set(qset)
        for lab, vec in zip(LABELS, meas.vectors):
            assert fidelity(vec, qset.states[lab]) > 1 - 1e-10

    def test_unit_amplitude_deviation_scale(self):
        qset = QuasiBellSet.build(1.0, 1.0)
        meas = LowdinMeasurement.from_set(qset)
        f = fidelity(meas.vectors[0], qset.states[BellLabel.PHI_PLUS])
        assert 1 - f == pytest.approx(0.0, abs=5 * math.exp(-2))
        assert 1 - f > 1e-4  # visibly non-orthogonal down here

    def test_condition_limit(self):
        with pytest.raises(DegenerateBasisError):
            LowdinMeasurement.from_set(QuasiBellSet.build(5e-4, 5e-4))


class TestIdealRun:
    def test_branch_bookkeeping(self):
        t = TargetState(1.0, 0.0, 3.0)
        run = run_teleport_ideal(t, 3.0, 3.0)
        labels = [b.outcome.label for b in run.branches]
        assert labels == ["Phi+", "Phi-", "Psi+", "Psi-"]
        corrections = [b.correction for b in run.branches]
        assert corrections == list(CORRECTIONS)
        assert run.probabilities().sum() == pytest.approx(1.0, abs=1e-10)
        assert run.inconclusive_rate < 1e-10

    def test_phi_branches_exact(self):
        run = run_teleport_ideal(TargetState(0.8, 0.6, 3.0), 3.0, 3.0)
        assert abs(run.branches[0].branch_fidelity - 1.0) < 1e-10
        assert abs(run.branches[1].branch_fidelity - 1.0) < 1e-10

    def test_engine_matches_independent_pipeline(self):
        for ca, cb, amps in [(1.0, 0.0, 3.0), (0.6, 0.8, 2.0),
                             (0.8, 0.6j, 2.5)]:
            t = TargetState(ca, cb, amps)
            run = run_teleport_ideal(t, amps, amps)
            p_o, f_o, avg_o = protocol_pipeline(ca, cb, amps, amps, amps, 40)
            assert np.max(np.abs(run.probabilities() - p_o)) < 1e-8
            got_f = np.array([b.branch_fidelity for b in run.branches])
            assert np.max(np.abs(got_f - f_o)) < 1e-8
            assert abs(run.average_fidelity - avg_o) < 1e-8

    def test_small_amplitude_matches_mpmath_route(self):
        # the Gram condition number here is 1.6e13: the ideal path has no
        # amplitude gate, and its cat tables stay exact
        for c_a, c_b in ((1.0, 0.0), (1.0, -1.0), (0.6, 0.8j)):
            t = TargetState(c_a, c_b, 5e-4)
            run = run_teleport_ideal(t, 5e-4, 5e-4)
            probs, fids = mp_ideal_statistics(t.c_a, t.c_b, 5e-4, 5e-4, 5e-4)
            got_f = [b.branch_fidelity for b in run.branches]
            assert np.max(np.abs(run.probabilities() - probs)) < 1e-13
            assert np.max(np.abs(np.array(got_f) - fids)) < 1e-13

    def test_average_is_probability_weighted(self):
        run = run_teleport_ideal(TargetState(0.6, 0.8, 2.0), 2.0, 2.0)
        want = sum(b.outcome.probability * b.branch_fidelity
                   for b in run.branches)
        assert run.average_fidelity == pytest.approx(want, abs=1e-14)

    def test_sampling_deterministic(self):
        t = TargetState(1.0, 0.0, 3.0)
        r1 = run_teleport_ideal(t, 3.0, 3.0, mode="sample", seed=123,
                                trials=5000)
        r2 = run_teleport_ideal(t, 3.0, 3.0, mode="sample", seed=123,
                                trials=5000)
        assert r1.counts == r2.counts
        assert sum(r1.counts) == 5000

    def test_sampling_tracks_enumeration(self):
        t = TargetState(0.6, 0.8, 3.0)
        run = run_teleport_ideal(t, 3.0, 3.0, mode="sample", seed=7,
                                 trials=20000)
        p = run.probabilities()
        emp = np.array(run.counts) / sum(run.counts)
        sigma = np.sqrt(p * (1 - p) / 20000)
        assert np.all(np.abs(emp - p) <= 3 * sigma + 1e-12)


class TestHomodyne:
    def test_three_mode_state_matches_four_term_form(self):
        ca, cb = 0.6, 0.8
        gamma = alpha = beta = 2.0
        got = three_mode_state(TargetState(ca, cb, gamma), alpha, beta)
        half = 0.5
        terms = [
            (half * ca, (gamma, alpha, beta)),
            (half * cb, (gamma, alpha, -beta)),
            (half * ca, (gamma, -alpha, beta)),
            (-half * cb, (gamma, -alpha, -beta)),
            (half * ca, (-gamma, alpha, -beta)),
            (half * cb, (-gamma, alpha, beta)),
            (-half * ca, (-gamma, -alpha, -beta)),
            (half * cb, (-gamma, -alpha, beta)),
        ]
        want = CoherentSuperposition(3, tuple(terms))
        # the half-prefactor four-term form is normalized only up to
        # e^{-2 gamma^2} cross terms for two-component payloads
        assert norm(want) == pytest.approx(1.0, abs=1e-3)
        assert fidelity(got, want) > 1 - 1e-10

    def test_three_mode_state_single_component_exact(self):
        # with c_b = 0 the four-term form is exactly normalized and the
        # derived state equals it including phase
        gamma = alpha = beta = 3.0
        got = three_mode_state(TargetState(1.0, 0.0, gamma), alpha, beta)
        terms = [
            (0.5, (gamma, alpha, beta)),
            (0.5, (gamma, -alpha, beta)),
            (0.5, (-gamma, alpha, -beta)),
            (-0.5, (-gamma, -alpha, -beta)),
        ]
        want = CoherentSuperposition(3, tuple(terms))
        assert norm(want) == pytest.approx(1.0, abs=1e-12)
        assert abs(overlap(got, want) - 1.0) < 1e-10

    def test_derived_sign_mapping_matches_reference_list(self):
        run = run_teleport_homodyne(TargetState(0.8, 0.6, 3.0), 3.0, 3.0,
                                    collapse="branch")
        mapping = {b.outcome.label: b.correction for b in run.branches}
        assert mapping == {
            "T+A+": CorrectionLabel.IDENTITY,
            "T+A-": CorrectionLabel.DISP,
            "T-A+": CorrectionLabel.PARITY,
            "T-A-": CorrectionLabel.PARITY_DISP,
        }

    def test_exact_and_branch_collapse_agree_at_moderate_amplitude(self):
        # the two collapses differ by the Gaussian sign error at amplitude
        # 3, 1/2 erfc(3 sqrt 2) ~ 1e-9 per mode; measured gaps are 3.8e-9
        # (probabilities) and 8.7e-10 (average fidelity)
        t = TargetState(1.0, 0.0, 3.0)
        exact = run_teleport_homodyne(t, 3.0, 3.0, collapse="exact")
        branch = run_teleport_homodyne(t, 3.0, 3.0, collapse="branch")
        assert exact.collapse == "exact" and branch.collapse == "branch"
        assert abs(exact.average_fidelity - branch.average_fidelity) < 1e-8
        for be, bb in zip(exact.branches, branch.branches):
            assert abs(be.outcome.probability - bb.outcome.probability) < 1e-8

    @pytest.mark.parametrize("u, v", [(0.0, 0.0), (0.3, -0.2), (1.0, 1.0),
                                      (2.0, -1.5), (-3.0, 2.5), (5.0, 4.0)])
    def test_half_line_overlap_vs_quadrature(self, u, v):
        for sign in (+1, -1):
            got = half_line_overlap(u, v, sign)
            assert abs(got - half_line_element_quad(u, v, sign)) < 1e-13
        assert (half_line_overlap(u, v, +1) + half_line_overlap(u, v, -1)
                == pytest.approx(overlap(coh(u), coh(v)), abs=1e-15))

    def test_half_line_overlap_refuses_complex_centre(self):
        with pytest.raises(ValueError, match="not real"):
            half_line_overlap(1.0, 1.0 + 0.5j, +1)

    def test_exact_collapse_converges_to_fock_projector_route(self):
        # Truncated half-line projectors converge to the continuum mass
        # only as O(1/dim) (see fock.half_line_projector), so the Fock
        # route may differ from the closed form by C/dim and the gap must
        # halve when dim doubles.  Measured C: 1.2e-3 for probabilities,
        # 0.08 for fidelities at amplitude 1; the bounds allow 1.5x that.
        amp = 1.0
        target = TargetState(0.6, 0.8j, amp)
        run = run_teleport_homodyne(target, amp, amp, collapse="exact")
        state = three_mode_state(target, amp, amp)
        mu = correction_mu(amp)

        def gaps(dim):
            psi = fock.to_fock(state, dim)
            ideal = fock.to_fock(ideal_bob(target, amp), dim).data
            corr = {CorrectionLabel.IDENTITY: np.eye(dim),
                    CorrectionLabel.PARITY: parity_mat(dim),
                    CorrectionLabel.DISP: 1j * displacement_mat(dim, mu),
                    CorrectionLabel.PARITY_DISP:
                        1j * parity_mat(dim) @ displacement_mat(dim, mu)}
            dp = df = 0.0
            for br in run.branches:
                # labels read "T+A-": the signs sit at positions 1 and 3
                s_t, s_a = (1 if ch == "+" else -1
                            for ch in br.outcome.label[1::2])
                v = fock.apply_single_mode(
                    fock.apply_single_mode(
                        psi, fock.half_line_projector(dim, s_t), 0),
                    fock.half_line_projector(dim, s_a), 1).data
                p = float(np.vdot(v, v).real)
                phi = corr[br.correction].conj().T @ ideal
                u = v @ phi.conj()
                f = float(np.vdot(u, u).real) / p
                dp = max(dp, abs(p - br.outcome.probability))
                df = max(df, abs(f - br.branch_fidelity))
            return dp, df

        (p24, f24), (p48, f48) = gaps(24), gaps(48)
        assert p24 < 2e-3 / 24 and f24 < 0.12 / 24
        assert p48 < 2e-3 / 48 and f48 < 0.12 / 48
        assert 1.8 < p24 / p48 < 2.2 and 1.8 < f24 / f48 < 2.2

    @pytest.mark.parametrize("amp", [0.5, 1.0, 3.0, 10.0, 40.0])
    def test_exact_collapse_complete_without_fock(self, amp, monkeypatch):
        # at amplitude 40 a truncated route would need dim 1850 per mode
        def refuse(*args, **kwargs):
            raise AssertionError("the exact collapse touched the Fock backend")

        for name in fock.__all__:
            monkeypatch.setattr(fock, name, refuse)
        assert not hasattr(protocol, "fock")
        assert not hasattr(bell, "fock")
        run = run_teleport_homodyne(TargetState(0.6, 0.8j, amp), amp, amp,
                                    collapse="exact")
        assert abs(run.probabilities().sum() - 1.0) < 1e-12
        assert all(0.0 <= b.branch_fidelity <= 1.0 + 1e-12
                   for b in run.branches)

    def test_agrees_with_ideal_path_at_amplitude_four(self):
        t = TargetState(1.0, 0.0, 4.0)
        hom = run_teleport_homodyne(t, 4.0, 4.0)
        ideal = run_teleport_ideal(t, 4.0, 4.0)
        assert abs(hom.average_fidelity - ideal.average_fidelity) < 1e-6

    def test_misclassification_reported(self):
        run = run_teleport_homodyne(TargetState(1.0, 0.0, 1.0), 1.0, 1.0)
        want = 0.5 * math.erfc(math.sqrt(2))
        assert run.misclassification["T"] == pytest.approx(want, abs=1e-15)
        assert run.misclassification["A"] == pytest.approx(want, abs=1e-15)

    def test_sign_error_closed_form_vs_quadrature(self):
        got = misclassification_probability(1.0)
        assert got == pytest.approx(0.022750131948179198, abs=1e-12)
        assert abs(got - gaussian_negative_mass(2.0)) < 1e-6

    def test_alternative_frequency_rows_still_decode(self):
        # every channel row x payload-entangler row pair yields four sign
        # groups whose components match exactly one undoable pattern
        t = TargetState(0.8, 0.6, 3.0)
        rows = ((2, 2), (2, 1), (1, 2), (1, 1))
        for row_ab in rows:
            for row_ta in rows:
                run = run_teleport_homodyne(t, 3.0, 3.0,
                                            freqs=(row_ab, row_ta),
                                            collapse="branch")
                assert run.probabilities().sum() == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_sampling_deterministic(self):
        t = TargetState(1.0, 0.0, 4.0)
        r1 = run_teleport_homodyne(t, 4.0, 4.0, mode="sample", seed=11,
                                   trials=1000)
        r2 = run_teleport_homodyne(t, 4.0, 4.0, mode="sample", seed=11,
                                   trials=1000)
        assert r1.counts == r2.counts


class TestClassicalBaseline:
    def test_guess_rate_quarter(self):
        guess, _ = classical_baseline(TargetState(1.0, 0.0, 3.0), 3.0, 3.0,
                                      trials=10000, seed=99)
        assert abs(guess - 0.25) <= 0.01

    def test_deterministic(self):
        t = TargetState(0.6, 0.8, 2.0)
        a = classical_baseline(t, 2.0, 2.0, trials=2000, seed=5)
        b = classical_baseline(t, 2.0, 2.0, trials=2000, seed=5)
        assert a == b

    def test_single_component_fidelity_near_half_at_large_amplitude(self):
        _, fid = classical_baseline(TargetState(1.0, 0.0, 8.0), 8.0, 8.0,
                                    trials=4000, seed=17)
        assert abs(fid - 0.5) < 0.03

    def test_memory_does_not_grow_with_trials(self):
        # 10**12 per-trial draws would need terabytes; one multinomial
        # over the 16 (branch, guess) cells needs none of that
        guess, fid = classical_baseline(TargetState(0.6, 0.8, 3.0), 3.0, 3.0,
                                        trials=10 ** 12, seed=41)
        assert abs(guess - 0.25) < 1e-5
        assert 0.0 <= fid <= 1.0


def _assert_valid(run):
    """Probabilities in [0, 1] summing to 1, fidelities in [0, 1]."""
    probs = run.probabilities()
    fids = np.array([b.branch_fidelity for b in run.branches])
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all((fids >= 0.0) & (fids <= 1.0 + 1e-12))
    assert 0.0 <= run.average_fidelity <= 1.0 + 1e-12


def test_mixed_amplitude_scales_stay_in_range():
    # e.g. alpha = 1e-100 beside gamma = 30: a reading that cancels the
    # payload's components leaves an exact zero, not rounding dust
    # whose ratio prints as a fidelity of 1e82
    amps = (1e-300, 1e-120, 1e-12, 0.5, 30.0)
    for alpha, beta, gamma in itertools.product(amps, repeat=3):
        for payload in ((1.0, 1.0), (1.0, 0.0), (0.6, 0.8j)):
            target = TargetState(*payload, gamma)
            _assert_valid(run_teleport_ideal(target, alpha, beta))
            for collapse in ("exact", "branch"):
                _assert_valid(run_teleport_homodyne(target, alpha, beta,
                                                    collapse=collapse))


def test_sampled_baseline_within_five_sigma_of_exact():
    # the exact baseline: a branch with weight p_k and a correction drawn
    # uniformly, so guesses are right at rate 1/4 and the mean fidelity
    # is sum_k p_k mean_c F[k, c]
    for i, (target, alpha, beta) in enumerate(_random_cases(505, 12)):
        trials = 20000
        _, p, fmat = protocol._statistics(
            protocol._ideal_maps(alpha, target.gamma),
            protocol._BRANCH_EFFECTS, protocol._payload(target),
            protocol._correction_grams(beta))
        cells, fmat = np.repeat(p, 4) / 4, np.ravel(fmat)
        mean = float(cells @ fmat)
        sigma = math.sqrt((cells @ fmat ** 2 - mean ** 2) / trials)
        guess, fid = classical_baseline(target, alpha, beta, trials, seed=i)
        assert abs(fid - mean) <= 5 * sigma
        assert abs(guess - 0.25) <= 5 * math.sqrt(0.25 * 0.75 / trials)


_ENTRY_POINTS = {
    "ideal": run_teleport_ideal,
    "homodyne": run_teleport_homodyne,
    "baseline": lambda t, a, b: classical_baseline(t, a, b, trials=10),
}


def _refuse_work(monkeypatch, names):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")

    for name in names:
        monkeypatch.setattr(protocol, name, refuse)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_non_positive_amplitude_rejected(entry, bad, which):
    amps = {"alpha": 2.0, "beta": 2.0, which: bad}
    with pytest.raises(ValueError, match="must be positive"):
        _ENTRY_POINTS[entry](TargetState(1.0, 0.0, 2.0), amps["alpha"],
                             amps["beta"])


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["alpha", "beta", "gamma", "c_a"])
def test_non_finite_input_rejected_up_front(entry, bad, which, monkeypatch):
    # the cat tables are finite at every amplitude, so only these checks
    # stop an infinite amplitude or coefficient
    _refuse_work(monkeypatch, ("_ideal_maps", "_payload", "_homodyne_maps",
                               "_correction_grams"))
    args = {"alpha": 2.0, "beta": 2.0, "gamma": 2.0, "c_a": 0.6, which: bad}
    with pytest.raises(ValueError, match="finite"):
        target = TargetState(args["c_a"], 0.8, args["gamma"])
        _ENTRY_POINTS[entry](target, args["alpha"], args["beta"])


@pytest.mark.parametrize("bad", [(3, 1), (2.5, 2)])
@pytest.mark.parametrize("slot", [0, 1])
def test_unsupported_row_rejected_up_front(bad, slot, monkeypatch):
    _refuse_work(monkeypatch, ("_correction_grams", "_payload",
                               "generate_from_dynamics"))
    freqs = [(2, 2), (2, 2)]
    freqs[slot] = bad
    target = TargetState(0.6, 0.8, 2.0)
    with pytest.raises(UnsupportedConfigurationError):
        run_teleport_homodyne(target, 2.0, 2.0, freqs=freqs)
    with pytest.raises(UnsupportedConfigurationError):
        three_mode_state(target, 2.0, 2.0, freqs)


@pytest.mark.parametrize("collapse", ["exact", "branch"])
def test_whole_number_float_rows_accepted(collapse):
    target = TargetState(0.6, 0.8j, 2.0)
    for freqs in (([2.0, 2], (1, 2)), ((1, 1), [2.0, 2])):
        ints = tuple(tuple(int(w) for w in row) for row in freqs)
        got, want = (run_teleport_homodyne(target, 2.0, 2.5, freqs=f,
                                           collapse=collapse)
                     for f in (freqs, ints))
        assert np.array_equal(got.probabilities(), want.probabilities())
        assert got.average_fidelity == want.average_fidelity
        assert fidelity(three_mode_state(target, 2.0, 2.5, freqs),
                        three_mode_state(target, 2.0, 2.5, ints)) > 1 - 1e-15


def _random_cases(seed, n):
    """n random (target, alpha, beta), amplitudes uniform in [0.8, 4]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        ca, cb = (complex(*rng.normal(size=2)) for _ in range(2))
        alpha, beta, gamma = (float(a) for a in rng.uniform(0.8, 4.0, 3))
        yield TargetState(ca, cb, gamma), alpha, beta


_ROWS = ((2, 2), (2, 1), (1, 2), (1, 1))
_ROW_PAIRS = [(r1, r2) for r1 in _ROWS for r2 in _ROWS]


def _sign_pair(label):
    # labels read "T+A-": the signs sit at positions 1 and 3
    return tuple(1 if ch == "+" else -1 for ch in label[1::2])


class TestBranchMapsAgainstFullState:
    """The 2x2 branch maps against the full three-mode reference route."""

    def test_ideal_path(self):
        for target, alpha, beta in _random_cases(101, 24):
            run = run_teleport_ideal(target, alpha, beta)
            meas = LowdinMeasurement.from_set(
                QuasiBellSet.build(alpha, target.gamma))
            collapsed = meas.collapse(initial_state(target, alpha, beta),
                                      (1, 0))
            ideal = ideal_bob(target, beta)
            for br, corr, raw in zip(run.branches, CORRECTIONS, collapsed):
                after = apply_correction(normalize(raw), corr, beta)
                assert abs(br.outcome.probability - norm(raw) ** 2) < 1e-12
                assert abs(br.branch_fidelity - fidelity(after, ideal)) < 1e-12
                bob, _ = reports._receiver_states(br, run.beta)
                assert fidelity(bob, raw) > 1 - 1e-12

    def test_branch_collapse_over_all_frequency_rows(self):
        for i, (target, alpha, beta) in enumerate(_random_cases(202, 32)):
            freqs = _ROW_PAIRS[i % len(_ROW_PAIRS)]
            run = run_teleport_homodyne(target, alpha, beta, freqs=freqs,
                                        collapse="branch")
            groups = {}
            for t in three_mode_state(target, alpha, beta, freqs).terms:
                pair = tuple(1 if a.real > 0 else -1 for a in t.amps[:2])
                groups.setdefault(pair, []).append((t.coeff, (t.amps[2],)))
            comps = {pair: CoherentSuperposition(1, tuple(terms))
                     for pair, terms in groups.items()}
            total = sum(norm(c) ** 2 for c in comps.values())
            ideal = ideal_bob(target, beta)
            for br in run.branches:
                comp = comps[_sign_pair(br.outcome.label)]
                after = apply_correction(normalize(comp), br.correction, beta)
                assert abs(br.outcome.probability
                           - norm(comp) ** 2 / total) < 1e-12
                assert abs(br.branch_fidelity - fidelity(after, ideal)) < 1e-12
                bob, _ = reports._receiver_states(br, run.beta)
                assert fidelity(bob, comp) > 1 - 1e-12

    def test_deferred_states_match_kernel_fidelities(self):
        # each record's states, built by the JSON writer, against the ideal
        # state: the fidelity the kernel reported, and unit norm or the
        # zero state
        cases = list(_random_cases(505, 24))
        cases += [(TargetState(1.0, s, g), a, b)
                  for s in (1.0, -1.0) for g, a, b in ((0.9, 1.3, 2.1),
                                                       (2.5, 3.0, 1.7))]
        for i, (target, alpha, beta) in enumerate(cases):
            ideal = ideal_bob(target, beta)
            for run in (run_teleport_ideal(target, alpha, beta),
                        run_teleport_homodyne(
                            target, alpha, beta, collapse="branch",
                            freqs=_ROW_PAIRS[i % len(_ROW_PAIRS)])):
                for br in run.branches:
                    bob, after = reports._receiver_states(br, run.beta)
                    for state in (bob, after):
                        assert not state.terms or abs(norm(state) - 1) < 1e-12
                    assert abs(fidelity(after, ideal)
                               - br.branch_fidelity) < 1e-12

    def test_exact_collapse(self):
        for i, (target, alpha, beta) in enumerate(_random_cases(303, 20)):
            freqs = _ROW_PAIRS[i % len(_ROW_PAIRS)]
            run = run_teleport_homodyne(target, alpha, beta, freqs=freqs,
                                        collapse="exact")
            mapping = {_sign_pair(br.outcome.label): br.correction
                       for br in run.branches}
            probs, fids = term_pair_sign_statistics(
                three_mode_state(target, alpha, beta, freqs), mapping,
                ideal_bob(target, beta), beta)
            got_f = [br.branch_fidelity for br in run.branches]
            assert np.max(np.abs(run.probabilities() - probs)) < 1e-12
            assert np.max(np.abs(np.array(got_f) - fids)) < 1e-12

    def test_homodyne_builds_no_three_mode_state(self, monkeypatch):
        calls = {}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(protocol, "three_mode_state")
        counting(protocol, "generate_from_dynamics")
        counting(reports, "apply_correction")
        counting(reports, "norm")
        counting(reports, "normalize")
        counting(np.linalg, "eigh")
        counting(CoherentSuperposition, "__post_init__")
        assert not hasattr(protocol, "half_line_overlap")
        t = TargetState(0.6, 0.8j, 2.0)
        for run in (lambda: run_teleport_ideal(t, 2.0, 2.0),
                    lambda: run_teleport_homodyne(t, 2.0, 2.0),
                    lambda: run_teleport_homodyne(t, 2.0, 2.0,
                                                  collapse="branch"),
                    lambda: classical_baseline(t, 2.0, 2.0, trials=100)):
            calls.clear()
            run()
            assert calls.get("three_mode_state", 0) == 0
            assert calls.get("generate_from_dynamics", 0) == 0
            assert calls.get("eigh", 0) == 0
            # the records keep numbers: only the JSON writer builds states
            assert calls.get("apply_correction", 0) == 0
            assert calls.get("norm", 0) == calls.get("normalize", 0) == 0
            assert calls.get("__post_init__", 0) == 0
        calls.clear()
        protocol._ideal_maps(2.0, 1.5)
        protocol._payload(TargetState(0.6, 0.8j, 1.5))
        protocol._homodyne_maps(((1, 2), (2, 1)))
        protocol._correction_grams(2.5)
        protocol._sign_effects(1.5, 2.0)
        assert calls.get("__post_init__", 0) == 0

    def test_json_record_builds_each_receiver_state_once(self, monkeypatch):
        calls = []
        real = reports.normalize

        def counting(state):
            calls.append(1)
            return real(state)
        monkeypatch.setattr(reports, "normalize", counting)
        run = run_teleport_ideal(TargetState(0.6, 0.8j, 2.0), 2.0, 2.5)
        doc = reports.run_to_json_doc(run)
        # one receiver state per branch, read by both of its state fields
        assert len(doc["branches"]) == 4 and len(calls) == 4

    def test_json_states_equal_symbolic_reference(self):
        # each branch's JSON states against v0|beta> + v1|-beta> built from
        # its frame, normalized and then corrected; at beta = 1e-12 the
        # c_b = 1 sign pairs T+A-, T-A- vanish and both fields are zero
        t = TargetState(0.6, 0.8j, 2.0)
        runs = [run_teleport_ideal(t, 2.0, 2.5),
                run_teleport_homodyne(t, 2.0, 2.5, freqs=((1, 2), (2, 1))),
                run_teleport_homodyne(t, 2.0, 2.5, collapse="branch"),
                run_teleport_homodyne(TargetState(1.0, 1.0, 1.0), 1.0, 1e-12)]
        vanished = 0
        for run in runs:
            doc = reports.run_to_json_doc(run)
            for br, rec in zip(run.branches, doc["branches"], strict=True):
                v0, v1 = br.outcome.frame
                raw = coh(run.beta, v0) + coh(-run.beta, v1)
                if norm(raw) > 0:
                    bob = normalize(raw)
                    after = apply_correction(bob, br.correction, run.beta)
                else:
                    bob = after = raw
                    vanished += 1
                    assert not raw.terms
                assert rec["collapsed_bob"] == bob.to_dict()
                assert rec["bob_after"] == after.to_dict()
        assert vanished == 2

    @pytest.mark.parametrize("freqs", _ROW_PAIRS)
    def test_table_probes_equal_symbolic_probes(self, freqs):
        # the pi-point tables hold at every amplitude: both basis payloads'
        # symbolic three-mode states read back to the same 0, +-1/2 pattern
        _, maps = protocol._homodyne_maps(freqs)
        probes = (S / 2 @ frame_maps(maps) @ S).reshape(2, 2, 2, 2).transpose(3, 0, 1, 2)
        rng = np.random.default_rng(sum(freqs[0] + freqs[1]))
        for alpha, beta, gamma in rng.uniform(0.6, 5.0, (4, 3)):
            frame = (gamma, alpha, beta)
            symbolic = np.stack([frame_tensor(
                three_mode_state(TargetState(ca, cb, gamma), alpha, beta,
                                 freqs), frame)
                for ca, cb in ((1.0, 0.0), (0.0, 1.0))])
            assert np.max(np.abs(probes - symbolic)) < 1e-15

    def test_payload_frame_matches_realized_state(self):
        for target, _, _ in _random_cases(404, 50):
            want = frame_tensor(target.realized(), (target.gamma,))
            got = S / 2 @ protocol._payload(target)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_no_symbolic_measurement_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run built the symbolic measurement")

        monkeypatch.setattr(QuasiBellSet, "build", refuse)
        monkeypatch.setattr(LowdinMeasurement, "from_set", refuse)
        monkeypatch.setattr(protocol, "partial_overlap", refuse)
        t = TargetState(0.6, 0.8j, 2.0)
        assert run_teleport_ideal(t, 2.0, 2.5).average_fidelity > 0
        for collapse in ("exact", "branch"):
            run = run_teleport_homodyne(t, 2.0, 2.5, collapse=collapse)
            assert run.average_fidelity > 0
        guess, _ = classical_baseline(t, 2.0, 2.5, trials=20, seed=1)
        assert 0.0 <= guess <= 1.0

    @pytest.mark.parametrize("collapse", ["exact", "branch"])
    def test_tiny_amplitude_runs(self, collapse):
        amp = 1e-6
        run = run_teleport_homodyne(TargetState(0.6, 0.8j, amp), amp, amp,
                                    collapse=collapse)
        assert abs(run.probabilities().sum() - 1.0) < 1e-12


class TestSignEffects:
    @pytest.mark.parametrize("gamma, alpha", [(0.3, 0.7), (1.0, 1.0),
                                              (1.5, 2.5), (3.0, 0.8)])
    def test_kronecker_of_closed_forms(self, gamma, alpha):
        # against the element-by-element half-line overlaps
        want = cat_effects(frame_sign_effects(gamma, alpha))
        got = kron_effects(protocol._sign_effects(gamma, alpha))
        assert np.max(np.abs(got - want)) < 1e-15

    def test_branch_effects_are_the_large_amplitude_limit(self):
        # the branch readout keeps one frame sign pair alone
        bell = kron_effects(protocol._BRANCH_EFFECTS)
        assert np.array_equal(bell, np.einsum("km,kn->kmn", np.eye(4),
                                              np.eye(4)))
        branch = kron_effects(protocol._BRANCH_SIGN_EFFECTS)
        assert np.array_equal(branch, cat_effects(bell))
        gaps = [np.max(np.abs(kron_effects(protocol._sign_effects(x, x))
                              - branch)) for x in (1.0, 2.0, 3.0, 5.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12
        assert np.max(np.abs(kron_effects(protocol._sign_effects(5.0, 7.0))
                             - branch)) < 1e-12


class TestFrameRoute:
    """The cat-coordinate tables against the frame route in oracles.

    A frame map is (S/2) M S of the cat map M (for the homodyne maps,
    after R takes the measured modes to their frames), a frame
    correction Gram C is S C' S of the cat one C', and a frame effect H
    reads R^T H R on the cats.  The frame route loses digits to
    cancellation below amplitude 0.3.
    """

    AMPS = np.linspace(0.3, 6.0, 7)

    @pytest.mark.parametrize("freqs", _ROW_PAIRS)
    def test_sign_table_maps_and_corrections(self, freqs):
        corrections, maps = protocol._homodyne_maps(freqs)
        want_corrections, want_maps = frame_sign_corrections(freqs)
        assert corrections == want_corrections
        assert np.max(np.abs(S / 2 @ frame_maps(maps) @ S
                             - want_maps)) < 1e-13

    def test_ideal_maps(self):
        for alpha, beta, gamma in itertools.product(self.AMPS, repeat=3):
            want, _ = frame_ideal_maps(alpha, beta, gamma)
            got = S / 2 @ protocol._ideal_maps(alpha, gamma) @ S
            assert np.max(np.abs(got - want)) < 1e-13

    def test_sign_effects(self):
        for gamma, alpha in itertools.product(self.AMPS, repeat=2):
            want = cat_effects(frame_sign_effects(gamma, alpha))
            got = kron_effects(protocol._sign_effects(gamma, alpha))
            assert np.max(np.abs(got - want)) < 1e-13

    def test_correction_grams(self):
        for beta in self.AMPS:
            want = S / 2 @ frame_correction_grams(beta) @ S / 2
            got = protocol._correction_grams(beta)
            assert np.max(np.abs(got - want)) < 1e-13


_SMALL_AMPS = (0.5, 1e-2, 1e-5, 1e-8, 1e-12)
_SMALL_PAYLOADS = ((1.0, 0.0), (1.0, -1.0), (0.6, 0.8j), (1.0, -1.0 + 1e-3))


class TestSmallAmplitude:
    """Every route against the 100-digit frame routes in oracles, with
    alpha = beta = gamma down to 1e-12, where the frame's Gram matrices
    are singular to double precision."""

    @pytest.mark.parametrize("amp", _SMALL_AMPS)
    @pytest.mark.parametrize("payload", _SMALL_PAYLOADS)
    def test_ideal_path(self, amp, payload):
        t = TargetState(*payload, amp)
        run = run_teleport_ideal(t, amp, amp)
        probs, fids = mp_ideal_statistics(t.c_a, t.c_b, amp, amp, amp)
        got_f = [b.branch_fidelity for b in run.branches]
        assert np.max(np.abs(run.probabilities() - probs)) < 1e-13
        assert np.max(np.abs(np.array(got_f) - fids)) < 1e-13

    @pytest.mark.parametrize("amp", _SMALL_AMPS)
    @pytest.mark.parametrize("payload", _SMALL_PAYLOADS)
    @pytest.mark.parametrize("freqs", [((2, 2), (2, 2)), ((1, 2), (2, 1))])
    def test_exact_collapse(self, amp, payload, freqs):
        t = TargetState(*payload, amp)
        run = run_teleport_homodyne(t, amp, amp, freqs=freqs)
        probs, fids = mp_homodyne_statistics(
            t.c_a, t.c_b, amp, amp, amp, freqs,
            [b.correction.value for b in run.branches])
        got_f = [b.branch_fidelity for b in run.branches]
        assert np.max(np.abs(run.probabilities() - probs)) < 1e-13
        assert np.max(np.abs(np.array(got_f) - fids)) < 1e-13


_TINY_ROUTES = {
    "ideal": lambda t, amp: run_teleport_ideal(t, amp, amp),
    "exact": lambda t, amp: run_teleport_homodyne(t, amp, amp),
    "branch": lambda t, amp: run_teleport_homodyne(t, amp, amp,
                                                   collapse="branch"),
    "baseline": lambda t, amp: classical_baseline(t, amp, amp, trials=100),
}


@pytest.mark.parametrize("route", sorted(_TINY_ROUTES))
@pytest.mark.parametrize("payload", [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0)],
                         ids=["even", "odd", "mixed"])
@pytest.mark.parametrize("amp", [1e-100, 1e-160, 1e-300])
def test_tiny_amplitudes_give_numbers_or_refuse(route, payload, amp):
    # below amplitude 1.1e-154 the odd cat's norm has no digits left, so
    # an odd payload is the zero state; everything else gives numbers
    target, run_route = TargetState(*payload, amp), _TINY_ROUTES[route]
    if payload == (1.0, -1.0) and amp < 1e-154:
        with pytest.raises(DegenerateStateError):
            run_route(target, amp)
        return
    if route == "baseline":
        assert all(0.0 <= x <= 1.0 for x in run_route(target, amp))
        return
    _assert_valid(run_route(target, amp))


def _nudged(weights, rng, ulps=4):
    """Each weight moved by `ulps` units in the last place, up or down."""
    up = rng.random(weights.shape) < 0.5
    for _ in range(ulps):
        weights = np.where(up, np.nextafter(weights, np.inf),
                           np.nextafter(weights, -np.inf))
    return weights


def test_seeded_draws_survive_last_bit_changes():
    # equal cells (the baseline repeats each branch weight four times)
    # make the sequential binomial sampler hit p_j / remaining = 1/2, a
    # branch point: without the grid a 1-ulp change re-draws the sample
    rng = np.random.default_rng(2024)
    moved = 0
    for i, (target, alpha, beta) in enumerate(_random_cases(606, 1000)):
        if i % 5 == 0:
            target = TargetState(1.0, 1.0, target.gamma)
        p = run_teleport_ideal(target, alpha, beta).probabilities()
        weights = np.repeat(p, 4) if i % 2 else p
        draws = [protocol._multinomial(np.random.default_rng(i), 1000, w)
                 for w in (weights, _nudged(weights, rng))]
        moved += not np.array_equal(*draws)
    assert moved <= 10


class TestInitialState:
    def test_normalized_product(self):
        t = TargetState(0.6, 0.8j, 2.0)
        assert norm(initial_state(t, 2.0, 2.0)) == pytest.approx(1.0,
                                                                 abs=1e-12)

    def test_mode_order(self):
        t = TargetState(1.0, 0.0, 1.5)
        s = initial_state(t, 2.0, 2.5)
        amps = {tuple(abs(a) for a in term.amps) for term in s.terms}
        assert all(a[0] == 1.5 and a[1] == 2.0 and a[2] == 2.5 for a in amps)
