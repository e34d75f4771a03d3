"""Machine-readable result records: flat CSV rows and JSON documents.

CSV discipline: '.' decimal point, no locale, LF line endings, mandatory
header, floats rendered with shortest round-trip repr -- two runs with
the same seed produce byte-identical files.  Every randomized output
carries its seed in-band.
"""

from __future__ import annotations

import numpy as np

from .algebra import CoherentSuperposition, norm, normalize
from .bell import DisplacementQuantum, eigen_residual
from .protocol import (ProtocolResult, ProtocolRun, TargetState,
                       apply_correction, run_teleport_homodyne,
                       run_teleport_ideal)

__all__ = [
    "RESULT_COLUMNS",
    "run_to_rows",
    "run_to_json_doc",
    "rows_to_csv",
    "loglog_slope",
    "sweep_eigen_rows",
    "sweep_fidelity_rows",
    "EIGEN_SWEEP_COLUMNS",
    "FIDELITY_SWEEP_COLUMNS",
]

RESULT_COLUMNS = ("alpha", "beta", "gamma", "c_a_re", "c_a_im", "c_b_re",
                  "c_b_im", "path", "branch", "probability", "fidelity",
                  "avg_fidelity", "inconclusive_rate", "seed")

EIGEN_SWEEP_COLUMNS = ("alpha", "beta", "operator", "n", "m", "residual",
                       "slope")

FIDELITY_SWEEP_COLUMNS = ("alpha", "beta", "gamma", "c_a_re", "c_a_im",
                          "c_b_re", "c_b_im", "path", "avg_fidelity",
                          "one_minus_avg_fidelity", "slope")


def _fmt(value) -> str:
    """Deterministic cell rendering; floats use shortest round-trip repr."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def run_to_rows(run: ProtocolRun) -> list[dict]:
    """Per-branch rows plus one aggregate row for a protocol run."""
    base = {
        "alpha": run.alpha, "beta": run.beta, "gamma": run.gamma,
        "c_a_re": run.c_a.real, "c_a_im": run.c_a.imag,
        "c_b_re": run.c_b.real, "c_b_im": run.c_b.imag,
        "path": run.path, "seed": run.seed,
    }
    rows = []
    for br in run.branches:
        rows.append(dict(base, branch=br.outcome.label,
                         probability=br.outcome.probability,
                         fidelity=br.branch_fidelity,
                         avg_fidelity=run.average_fidelity,
                         inconclusive_rate=run.inconclusive_rate))
    rows.append(dict(base, branch="aggregate",
                     probability=float(sum(b.outcome.probability
                                           for b in run.branches)),
                     fidelity=run.average_fidelity,
                     avg_fidelity=run.average_fidelity,
                     inconclusive_rate=run.inconclusive_rate))
    return rows


def _receiver_states(branch: ProtocolResult, beta: float):
    """(v0|beta> + v1|-beta> normalized, that state corrected) for a branch
    with frame (v0, v1); the zero state twice if the branch vanished."""
    v0, v1 = branch.outcome.frame
    bob = CoherentSuperposition(1, ((v0, (beta,)), (v1, (-beta,))))
    if not norm(bob) > 0:
        return bob, bob
    bob = normalize(bob)
    return bob, apply_correction(bob, branch.correction, beta)


def run_to_json_doc(run: ProtocolRun) -> dict:
    """Richer JSON record, including states, bits, counts and diagnostics."""
    doc = {
        "path": run.path,
        "alpha": run.alpha, "beta": run.beta, "gamma": run.gamma,
        "c_a": [run.c_a.real, run.c_a.imag],
        "c_b": [run.c_b.real, run.c_b.imag],
        "mode": run.mode,
        "seed": run.seed,
        "trials": run.trials,
        "counts": list(run.counts) if run.counts is not None else None,
        "inconclusive_rate": run.inconclusive_rate,
        "average_fidelity": run.average_fidelity,
        "branches": [],
    }
    if run.misclassification is not None:
        doc["misclassification"] = run.misclassification
    if run.collapse is not None:
        doc["collapse"] = run.collapse
    if run.freqs is not None:
        doc["freqs"] = [list(r) for r in run.freqs]
    for br in run.branches:
        bob, after = _receiver_states(br, run.beta)
        doc["branches"].append({
            "branch": br.outcome.label,
            "eigen_bits": list(br.outcome.eigen_bits)
            if br.outcome.eigen_bits is not None else None,
            "probability": br.outcome.probability,
            "correction": br.correction.value,
            "fidelity": br.branch_fidelity,
            "collapsed_bob": bob.to_dict(),
            "bob_after": after.to_dict(),
        })
    return doc


def loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log(y) against log(x); None when there are
    fewer than two distinct xs or some y <= 0, where no slope exists."""
    if len(set(map(float, xs))) < 2 or not all(y > 0 for y in ys):
        return None
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def sweep_eigen_rows(amplitudes, operator: str, n: int,
                     m: int) -> list[dict]:
    """Eigen-residual of one combined operator over an amplitude grid.

    alpha = beta at each grid point.  The residual is the same for every
    label, so there is one row per grid point.  A fitted log-log slope
    column (expected near -2) is attached to every row when `loglog_slope`
    finds one.
    """
    q = DisplacementQuantum(n, m)
    residuals = [eigen_residual(operator, q, a, a) for a in amplitudes]
    slope = loglog_slope(amplitudes, residuals)
    return [
        {"alpha": float(a), "beta": float(a), "operator": operator, "n": n,
         "m": m, "residual": r, "slope": slope}
        for a, r in zip(amplitudes, residuals)
    ]


def sweep_fidelity_rows(betas, c_a=1.0, c_b=0.0,
                        path: str = "ideal") -> list[dict]:
    """Average teleportation fidelity over beta, with alpha = gamma = beta.

    The scaling probe keeps the payload on a single coherent component by
    default, where the displacement-correction error dominates and
    1 - F falls off like beta^-2.
    """
    run_path = run_teleport_ideal if path == "ideal" else run_teleport_homodyne
    rows = []
    for b in map(float, betas):
        run = run_path(TargetState(c_a, c_b, b), b, b)
        rows.append({
            "alpha": b, "beta": b, "gamma": b,
            "c_a_re": run.c_a.real, "c_a_im": run.c_a.imag,
            "c_b_re": run.c_b.real, "c_b_im": run.c_b.imag,
            "path": path, "avg_fidelity": run.average_fidelity,
            "one_minus_avg_fidelity": 1.0 - run.average_fidelity,
        })
    deficits = [max(1.0 - row["avg_fidelity"], 0.0) for row in rows]
    slope = loglog_slope(betas, deficits)
    for row in rows:
        row["slope"] = slope
    return rows
