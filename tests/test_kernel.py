"""The scalar run kernel against its einsum route, and what must not move.

protocol._statistics is plain complex arithmetic on nested tuples;
oracles.einsum_statistics is the same kernel in numpy einsums on the
same tables.  Probabilities and all 16 fidelities must agree within
1e-14, and so must every record's frame coordinates (relative to the
record's largest one, since frame coordinates are unnormalized and grow
like 1/amplitude for an odd payload).  Seeded counts and baseline guess
rates are pinned to the values the einsum kernel printed.

Where the einsum route itself loses digits (a branch collapse at tiny
amplitude, a branch of weight 1e-25 at mixed scales), the scalar kernel
is checked against its own formulas evaluated in 60-digit arithmetic.
"""

import contextlib
import io
import json

import mpmath
import numpy as np
import pytest

from catport import cli, protocol
from catport.protocol import (CORRECTIONS, TargetState, classical_baseline,
                              run_teleport_homodyne, run_teleport_ideal)

from oracles import (FRAME_TO_CAT, einsum_statistics,
                     mp_homodyne_statistics)

S = FRAME_TO_CAT
TOL = 1e-14

_ROWS = ((2, 2), (2, 1), (1, 2), (1, 1))
_ROW_PAIRS = [(r1, r2) for r1 in _ROWS for r2 in _ROWS]
_PATHS = ("ideal", "exact", "branch")


def _tables(target, alpha, beta, path, freqs):
    """The package's tables for one run: (maps, effects, corrections, the
    rows from measured index to record outcome)."""
    if path == "ideal":
        return (protocol._ideal_maps(alpha, target.gamma),
                protocol._BRANCH_EFFECTS, CORRECTIONS, np.eye(4))
    corrections, maps = protocol._homodyne_maps(freqs)
    effects = (protocol._BRANCH_SIGN_EFFECTS if path == "branch"
               else protocol._sign_effects(target.gamma, alpha))
    return maps, effects, corrections, np.kron(S, S) / 4


def _einsum_route(target, alpha, beta, path, freqs):
    """Probabilities, the 4x4 fidelity table, corrections and record frame
    coordinates by the einsum kernel."""
    maps, effects, corrections, rows = _tables(target, alpha, beta, path,
                                               freqs)
    chat = np.asarray(protocol._payload(target))
    comps = np.asarray(maps) @ chat
    if path == "branch":
        comps = comps * 2.0 ** -np.frexp(np.abs(comps).max())[1]
    probs, fids = einsum_statistics(comps, effects, chat,
                                    protocol._correction_grams(beta))
    if path == "branch":
        probs = probs / probs.sum()
    return probs, fids, corrections, rows @ comps @ S / 2


def _run(target, alpha, beta, path, freqs):
    if path == "ideal":
        return run_teleport_ideal(target, alpha, beta)
    return run_teleport_homodyne(target, alpha, beta, freqs=freqs,
                                 collapse=path)


def _assert_kernels_agree(target, alpha, beta, path, freqs):
    probs, fids, corrections, frames = _einsum_route(target, alpha, beta,
                                                     path, freqs)
    maps, effects, _, _ = _tables(target, alpha, beta, path, freqs)
    _, _, table = protocol._statistics(
        maps, effects, protocol._payload(target),
        protocol._correction_grams(beta), path == "branch")
    assert np.max(np.abs(np.array(table) - fids)) < TOL
    run = _run(target, alpha, beta, path, freqs)
    assert [b.correction for b in run.branches] == list(corrections)
    assert np.max(np.abs(run.probabilities() - probs)) < TOL
    for k, br in enumerate(run.branches):
        want = fids[k, CORRECTIONS.index(br.correction)]
        assert abs(br.branch_fidelity - want) < TOL
        scale = max(1.0, float(np.max(np.abs(frames[k]))))
        assert np.max(np.abs(np.array(br.outcome.frame) - frames[k])) \
            < TOL * scale


def _random_cases(seed, n):
    """n random (target, alpha, beta), amplitudes uniform in [0.6, 5];
    every fifth payload has c_a = c_b."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        ca, cb = (complex(*rng.normal(size=2)) for _ in range(2))
        alpha, beta, gamma = (float(a) for a in rng.uniform(0.6, 5.0, 3))
        yield TargetState(ca, ca if i % 5 == 0 else cb, gamma), alpha, beta


@pytest.mark.parametrize("path", _PATHS)
def test_random_cases_match_einsum_route(path):
    for i, (target, alpha, beta) in enumerate(_random_cases(51, 208)):
        _assert_kernels_agree(target, alpha, beta, path,
                              _ROW_PAIRS[i % len(_ROW_PAIRS)])


def test_baseline_table_matches_einsum_route():
    # the baseline's 16 cells are drawn from the einsum weights: on the
    # 2^-40 grid they are the same cells, so only the table's rounding
    # may move the mean fidelity
    for i, (target, alpha, beta) in enumerate(_random_cases(52, 40)):
        trials = 5000 + i
        probs, fids, _, _ = _einsum_route(target, alpha, beta, "ideal", None)
        cells = protocol._multinomial(np.random.default_rng(i), trials,
                                      np.repeat(probs, 4)).reshape(4, 4)
        guess, fid = classical_baseline(target, alpha, beta, trials, seed=i)
        assert guess == np.trace(cells) / trials
        assert abs(fid - np.sum(cells * fids) / trials) < TOL


_SMALL_AMPS = (0.5, 1e-2, 1e-5, 1e-8, 1e-12)
_SMALL_PAYLOADS = ((1.0, 0.0), (1.0, -1.0), (0.6, 0.8j), (1.0, -1.0 + 1e-3))


@pytest.mark.parametrize("amp", _SMALL_AMPS)
@pytest.mark.parametrize("payload", _SMALL_PAYLOADS)
def test_small_amplitudes_match_einsum_route(amp, payload):
    # the routes TestSmallAmplitude checks against 100 digits: the ideal
    # path and the exact collapse at both of its frequency-row pairs
    target = TargetState(*payload, amp)
    _assert_kernels_agree(target, amp, amp, "ideal", None)
    for freqs in (((2, 2), (2, 2)), ((1, 2), (2, 1))):
        _assert_kernels_agree(target, amp, amp, "exact", freqs)


def _mp_tables(target, alpha, beta, path, freqs):
    """(payload, maps, effects, correction Grams) by the package's
    formulas in mpmath; the sign tables are exact and are reused."""
    def norms2(x):
        e = mpmath.exp(-2 * mpmath.mpf(x) ** 2)
        return (1 + e) / 2, (1 - e) / 2

    def kernel(u, v):
        d = v - u
        return mpmath.exp(-abs(d) ** 2 / 2 + 1j * (mpmath.conj(u) * d).imag)

    even, odd = (mpmath.mpc(target.c_a) + s * mpmath.mpc(target.c_b)
                 for s in (1, -1))
    n_even, n_odd = norms2(target.gamma)
    norm = mpmath.sqrt(n_even * abs(even) ** 2 + n_odd * abs(odd) ** 2)
    chat = (even / norm, odd / norm)
    mu, frame = mpmath.mpc(0, mpmath.pi / (2 * beta)), (beta, -beta)
    f = [[mpmath.expj((mu * v).imag) * kernel(u, v + mu) for v in frame]
         for u in frame]
    disp = [[0.25j * (f[0][0] + s * f[1][0] + t * (f[0][1] + s * f[1][1]))
             for t in (1, -1)] for s in (1, -1)]
    n0, n1 = norms2(beta)
    grams = ([[n0, 0], [0, n1]], [[n0, 0], [0, -n1]], disp,
             [disp[0], [-d for d in disp[1]]])
    if path == "ideal":
        n_a, n_g = ([mpmath.sqrt(v) for v in norms2(x)]
                    for x in (alpha, target.gamma))
        maps = [[[(w[0][t] * n_a[0] + s * w[1][t] * n_a[1]) * n_g[t]
                  for t in (0, 1)] for s in (1, -1)]
                for w in protocol._BELL_CATS]
        return chat, maps, protocol._BRANCH_EFFECTS, grams
    maps = protocol._homodyne_maps(freqs)[1]
    if path == "branch":
        return chat, maps, protocol._BRANCH_SIGN_EFFECTS, grams
    halves = []
    for x in (target.gamma, alpha):
        e, o = norms2(x)
        q = mpmath.erf(mpmath.sqrt(2) * x) / 4
        halves.append(([[e / 2, q], [q, o / 2]], [[e / 2, -q], [-q, o / 2]]))
    return chat, maps, tuple(halves), grams


_MIXED = [(g, a, b) for g in (1e-12, 0.5, 30.0) for a in (1e-12, 0.5, 30.0)
          for b in (1e-12, 0.5, 30.0)]


@pytest.mark.parametrize("path, cases", [
    ("branch", [(TargetState(*payload, amp), amp, amp)
                for amp in _SMALL_AMPS for payload in _SMALL_PAYLOADS]),
    ("exact", [(TargetState(*payload, g), a, b) for g, a, b in _MIXED
               for payload in ((1.0, 1.0), (1.0, 0.0), (0.6, 0.8j))]),
], ids=["branch-small", "exact-mixed"])
def test_ill_conditioned_cases_match_60_digits(path, cases):
    for i, (target, alpha, beta) in enumerate(cases):
        freqs = _ROW_PAIRS[i % len(_ROW_PAIRS)]
        run = _run(target, alpha, beta, path, freqs)
        with mpmath.workdps(60):
            chat, maps, effects, grams = _mp_tables(target, alpha, beta,
                                                    path, freqs)
            _, probs, fids = protocol._statistics(maps, effects, chat, grams,
                                                  path == "branch")
            probs = [float(p) for p in probs]
            fids = [float(row[CORRECTIONS.index(b.correction)])
                    for row, b in zip(fids, run.branches)]
        assert np.max(np.abs(run.probabilities() - probs)) < TOL
        assert max(abs(b.branch_fidelity - f)
                   for b, f in zip(run.branches, fids)) < TOL


@pytest.mark.parametrize("gamma, alpha, beta", [
    (3.0, 1e-300, 1e-5), (3.0, 3.0, 2.0), (3.5, 1e-300, 2.0),
    (3.5, 3.0, 1e-5)])
def test_rare_outcome_fidelities_match_100_digits(gamma, alpha, beta):
    # a sign misread on T has weight ~1e-9 at gamma = 3 and ~1e-12 at 3.5
    # (far below that, rounding in (1 + e) - 2q + (1 - e) swamps it); the
    # einsum kernel left its fidelity 2e-10 off at (3, 1e-300, 1e-5)
    for payload in ((1.0, 0.0), (0.6, 0.8j)):
        target = TargetState(*payload, gamma)
        run = run_teleport_homodyne(target, alpha, beta)
        probs, fids = mp_homodyne_statistics(
            target.c_a, target.c_b, gamma, alpha, beta, ((2, 2), (2, 2)),
            [b.correction.value for b in run.branches])
        assert np.max(np.abs(run.probabilities() - probs)) < TOL
        assert max(abs(b.branch_fidelity - f)
                   for b, f in zip(run.branches, fids)) < TOL


#: (command, config, counts, baseline guess rate, baseline mean fidelity),
#: each run with --seed 100 + its index, 10000 trials and a 4000-trial
#: baseline; printed by the einsum kernel
_PINNED = [
    ("teleport", {"alpha": 0.6, "beta": 0.6, "gamma": 0.6,
                  "c_a": [0.6, 0.0], "c_b": [0.0, 0.8]},
     [2708, 3351, 1724, 2217], 0.2585, 0.310643904198099),
    ("teleport", {"alpha": 2.0, "beta": 2.0, "gamma": 2.0,
                  "c_a": [1.0, 0.0], "c_b": [1.0, 0.0]},
     [2585, 2427, 2509, 2479], 0.23575, 0.38377283017921227),
    ("teleport", {"alpha": 5.0, "beta": 5.0, "gamma": 5.0,
                  "c_a": [0.3, 0.4], "c_b": [-0.5, 0.1]},
     [2466, 2492, 2556, 2486], 0.233, 0.46121750768311914),
    ("homodyne", {"alpha": 0.6, "beta": 2.0, "gamma": 0.6,
                  "c_a": [1.0, 0.0], "c_b": [0.0, 0.0]},
     [3457, 3479, 1524, 1540], 0.2565, 0.39370333683853925),
    ("homodyne", {"alpha": 2.0, "beta": 5.0, "gamma": 2.0,
                  "c_a": [0.6, 0.0], "c_b": [0.0, 0.8], "collapse": "branch",
                  "freqs": [[1, 2], [2, 1]]},
     [2515, 2474, 2550, 2461], 0.247, 0.4848452287681747),
    ("homodyne", {"alpha": 5.0, "beta": 0.6, "gamma": 5.0,
                  "c_a": [1.0, 0.0], "c_b": [-1.0, 0.0]},
     [1275, 3683, 1316, 3726], 0.23925, 0.1316490079384752),
]


@pytest.mark.parametrize("index", range(len(_PINNED)))
def test_seeded_counts_and_baseline_pinned(index, tmp_path):
    command, cfg, counts, guess, fid = _PINNED[index]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, mode="sample", trials=10000,
                                    baseline_trials=4000)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path), "--format", "json",
                         "--seed", str(100 + index)])
    doc = json.loads(out.getvalue())
    assert code == 0
    assert doc["counts"] == counts
    assert doc["baseline"]["guess_rate"] == guess
    assert abs(doc["baseline"]["avg_fidelity"] - fid) < TOL


@pytest.mark.parametrize("path", _PATHS)
def test_records_hold_builtin_numbers(path):
    target = TargetState(0.6, 0.8j, 2.0)
    run = _run(target, 2.0, 2.5, path, ((2, 2), (2, 2)))
    sampled = (run_teleport_ideal(target, 2.0, 2.5, mode="sample", seed=3,
                                  trials=100) if path == "ideal" else
               run_teleport_homodyne(target, 2.0, 2.5, collapse=path,
                                     mode="sample", seed=3, trials=100))
    for r in (run, sampled):
        assert type(r.average_fidelity) is float
        assert type(r.inconclusive_rate) is float
        for br in r.branches:
            assert type(br.outcome.probability) is float
            assert type(br.branch_fidelity) is float
            assert all(type(v) is complex for v in br.outcome.frame)
        assert isinstance(r.probabilities(), np.ndarray)
    assert all(type(c) is int for c in sampled.counts)
    assert all(type(x) is float
               for x in classical_baseline(target, 2.0, 2.5, 100, seed=3))
