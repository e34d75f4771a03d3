import math

import numpy as np
import pytest

from catport import bell, fock, protocol
from catport.algebra import (CoherentSuperposition, DegenerateStateError,
                             fidelity, half_line_overlap, norm, normalize,
                             overlap)
from catport.bell import LABELS, BellLabel, QuasiBellSet
from catport.protocol import (CORRECTIONS, CorrectionLabel,
                              DegenerateBasisError, LowdinMeasurement,
                              TargetState, apply_correction,
                              classical_baseline, correction_for_label,
                              expand_initial, initial_state,
                              misclassification_probability,
                              run_teleport_homodyne, run_teleport_ideal,
                              correction_mu, three_mode_state)

from oracles import (displacement_mat, gaussian_negative_mass,
                     half_line_element_quad, parity_mat, protocol_pipeline,
                     term_pair_sign_statistics)


def coh(amp, coeff=1.0):
    return CoherentSuperposition.coherent([amp], coeff)


class TestTargetState:
    def test_normalizes_logical_coefficients(self):
        t = TargetState(2.0, 0.0, 1.0)
        assert t.c_a == 1.0 and t.c_b == 0.0

    def test_rejects_double_zero(self):
        with pytest.raises(DegenerateStateError):
            TargetState(0.0, 0.0, 1.0)

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

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DegenerateBasisError):
            expand_initial(TargetState(1.0, 0.0, 5e-4), 5e-4, 1.0)

    def test_random_cases_reconstruct(self):
        # the residual is the norm of the consolidated difference, whose
        # rounding floor sits far below the 1e-10 bound at every amplitude
        for target, alpha, beta in _random_cases(0, 120):
            assert len(expand_initial(target, alpha, beta)) == 4

    def test_corrupted_solve_trips_residual(self, monkeypatch):
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: real(a, b)[[1, 0, 3, 2]])
        with pytest.raises(AssertionError, match="reconstruct"):
            expand_initial(TargetState(0.8, 0.6j, 1.5), 1.5, 1.5)


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
        p, inconclusive = meas.probabilities(state)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert inconclusive < 1e-10

    def test_inconclusive_weight_off_span(self):
        meas = LowdinMeasurement.from_set(QuasiBellSet.build(1.0, 1.0))
        outside = CoherentSuperposition.coherent([5.0, -5.0])
        p, inconclusive = meas.probabilities(outside)
        assert inconclusive > 0.9

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

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DegenerateBasisError):
            run_teleport_ideal(TargetState(1.0, 0.0, 5e-4), 5e-4, 5e-4)

    def test_frame_gram_matches_closed_form(self):
        grid = np.linspace(0.5, 6.0, 12)
        for alpha in grid:
            for gamma in grid:
                gram, _ = protocol._quadruple_reading(alpha, 1.0, gamma)
                want = bell.gram_closed_form(alpha, gamma)
                assert np.max(np.abs(gram - want)) < 1e-14

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
        emp = run.empirical_frequencies()
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
            ideal = fock.to_fock(target.ideal_bob(amp), dim).data
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

    def test_sampled_targets_mode_runs(self):
        guess, fid = classical_baseline(TargetState(1.0, 0.0, 2.0), 2.0, 2.0,
                                        trials=200, seed=23,
                                        sample_targets=True)
        assert abs(guess - 0.25) <= 5 * math.sqrt(0.25 * 0.75 / 200)
        assert 0.0 <= fid <= 1.0

    def test_memory_does_not_grow_with_trials(self):
        # 10**12 per-trial draws would need terabytes; one multinomial
        # over the 16 (branch, guess) cells needs none of that
        guess, fid = classical_baseline(TargetState(0.6, 0.8, 3.0), 3.0, 3.0,
                                        trials=10 ** 12, seed=41)
        assert abs(guess - 0.25) < 1e-5
        assert 0.0 <= fid <= 1.0

    def test_sampled_targets_build_one_measurement(self, monkeypatch):
        calls = []
        real = protocol._ideal_maps

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol, "_ideal_maps", counting)
        classical_baseline(TargetState(1.0, 0.0, 2.0), 2.0, 2.0, trials=50,
                           seed=3, sample_targets=True)
        assert len(calls) == 1


_ENTRY_POINTS = {
    "ideal": run_teleport_ideal,
    "homodyne": run_teleport_homodyne,
    "baseline": lambda t, a, b: classical_baseline(t, a, b, trials=10),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_non_positive_amplitude_rejected(entry, bad, which):
    amps = {"alpha": 2.0, "beta": 2.0, which: bad}
    with pytest.raises(ValueError, match="must be positive"):
        _ENTRY_POINTS[entry](TargetState(1.0, 0.0, 2.0), amps["alpha"],
                             amps["beta"])


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
            ideal = target.ideal_bob(beta)
            for br, lab, raw in zip(run.branches, LABELS, collapsed):
                after = apply_correction(normalize(raw),
                                         correction_for_label(lab), beta)
                assert abs(br.outcome.probability - norm(raw) ** 2) < 1e-12
                assert abs(br.branch_fidelity - fidelity(after, ideal)) < 1e-12
                assert fidelity(br.outcome.collapsed_bob, raw) > 1 - 1e-12

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
            ideal = target.ideal_bob(beta)
            for br in run.branches:
                comp = comps[_sign_pair(br.outcome.label)]
                after = apply_correction(normalize(comp), br.correction, beta)
                assert abs(br.outcome.probability
                           - norm(comp) ** 2 / total) < 1e-12
                assert abs(br.branch_fidelity - fidelity(after, ideal)) < 1e-12
                assert fidelity(br.outcome.collapsed_bob, comp) > 1 - 1e-12

    def test_exact_collapse(self):
        for i, (target, alpha, beta) in enumerate(_random_cases(303, 20)):
            freqs = _ROW_PAIRS[i % len(_ROW_PAIRS)]
            run = run_teleport_homodyne(target, alpha, beta, freqs=freqs,
                                        collapse="exact")
            mapping = {_sign_pair(br.outcome.label): br.correction
                       for br in run.branches}
            probs, fids = term_pair_sign_statistics(
                three_mode_state(target, alpha, beta, freqs), mapping,
                target.ideal_bob(beta), beta)
            got_f = [br.branch_fidelity for br in run.branches]
            assert np.max(np.abs(run.probabilities() - probs)) < 1e-12
            assert np.max(np.abs(np.array(got_f) - fids)) < 1e-12

    def test_homodyne_builds_one_three_mode_state(self, monkeypatch):
        calls = {}

        def counting(name):
            real = getattr(protocol, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(protocol, name, wrapper)

        counting("three_mode_state")
        counting("half_line_overlap")
        for collapse, half_lines in (("exact", 16), ("branch", 0)):
            calls.clear()
            run_teleport_homodyne(TargetState(0.6, 0.8j, 2.0), 2.0, 2.0,
                                  collapse=collapse)
            assert calls.get("three_mode_state") == 1
            assert calls.get("half_line_overlap", 0) == half_lines

    @pytest.mark.parametrize("freqs", _ROW_PAIRS)
    def test_flipped_probe_equals_symbolic_minus_gamma_probe(self, freqs):
        # P_T commutes with the T rotation and the cross-Kerr step, and
        # |-gamma> = P|gamma>: flipping T is exact, not approximate
        rng = np.random.default_rng(sum(freqs[0] + freqs[1]))
        for alpha, beta, gamma in rng.uniform(0.6, 5.0, (4, 3)):
            frame = (gamma, alpha, beta)
            plus, minus = (protocol._frame_tensor(
                three_mode_state(TargetState(ca, cb, gamma), alpha, beta,
                                 freqs), frame)
                for ca, cb in ((1.0, 0.0), (0.0, 1.0)))
            assert np.array_equal(minus, plus[::-1])

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
        guess, _ = classical_baseline(t, 2.0, 2.5, trials=20, seed=1,
                                      sample_targets=True)
        assert 0.0 <= guess <= 1.0

    @pytest.mark.parametrize("collapse", ["exact", "branch"])
    def test_tiny_amplitude_runs(self, collapse):
        # no Gram matrix enters the homodyne path, so it runs where the
        # ideal path's quadruple is degenerate
        amp = 1e-6
        run = run_teleport_homodyne(TargetState(0.6, 0.8j, amp), amp, amp,
                                    collapse=collapse)
        assert abs(run.probabilities().sum() - 1.0) < 1e-12


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
