"""Command-line experiment harness.

Subcommands: validate | bell | eigen | teleport | sweep | homodyne.
Experiment parameters come from a strict JSON config (--config); unknown
keys are rejected so a typo can never silently change a sweep.  Run
control lives on flags: --out, --format, and --seed on the two commands
that draw random numbers (teleport, homodyne).  Exit codes:
0 success, 1 a validation/check failure, 2 a config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .algebra import gram_matrix
from .bell import (FREQUENCY_TABLE, LABELS, BellLabel,
                   generate_from_dynamics, gram_closed_form, make_quasi_bell)
from .checks import run_checks
from .protocol import (TargetState, classical_baseline, run_teleport_homodyne,
                       run_teleport_ideal)
from .reports import (EIGEN_SWEEP_COLUMNS, FIDELITY_SWEEP_COLUMNS,
                      RESULT_COLUMNS, rows_to_csv, run_to_json_doc,
                      run_to_rows, sweep_eigen_rows, sweep_fidelity_rows)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _take(cfg: dict, schema: dict) -> dict:
    """Validate a config dict against {key: (validator, default)}.

    Unknown keys are errors; validators raise ConfigError with the key
    name on bad values.
    """
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(
            "unknown config key(s): " + ", ".join(sorted(unknown)))
    out = {}
    for key, (validate, default) in schema.items():
        if key in cfg:
            try:
                out[key] = validate(cfg[key])
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"config key '{key}': {exc}") from exc
        else:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key '{key}'")
            out[key] = default
    return out


_REQUIRED = object()


def serialize_config(cfg: dict) -> str:
    """Canonical JSON for a validated config: parse -> serialize -> parse
    is the identity (complex values as [re, im], rows as lists)."""
    doc = {}
    for key, value in cfg.items():
        if isinstance(value, complex):
            doc[key] = [value.real, value.imag]
        elif isinstance(value, tuple):
            doc[key] = [list(v) if isinstance(v, tuple) else v for v in value]
        else:
            doc[key] = value
    return json.dumps(doc, indent=2, sort_keys=True)


def _finite(x) -> float:
    # bool is an int subclass and float() parses strings: refuse both
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{x!r} is not a number")
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"{x!r} is not finite")
    return v


def _positive(x) -> float:
    v = _finite(x)
    if not v > 0:
        raise ValueError(f"{v} is not positive")
    return v


def _complex_field(x) -> complex:
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError("complex values are [re, im] pairs")
        return complex(_finite(x[0]), _finite(x[1]))
    return complex(_finite(x))


def _pos_int(x) -> int:
    if _finite(x) != int(x) or x < 1:
        raise ValueError(f"{x} is not a positive integer")
    return int(x)


def _nonneg_int(x) -> int:
    if _finite(x) != int(x) or x < 0:
        raise ValueError(f"{x} is not a nonnegative integer")
    return int(x)


def _choice(*allowed):
    def check(x):
        if x not in allowed:
            raise ValueError(f"{x!r} not one of {allowed}")
        return x
    return check


def _grid(x) -> list[float]:
    if not isinstance(x, list) or not x:
        raise ValueError("grid must be a non-empty list of amplitudes")
    return [_positive(v) for v in x]


def _freqs(x):
    rows = [tuple(_pos_int(v) for v in row) for row in x]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("freqs must be two [omega, omega] rows")
    for r in rows:
        if r not in FREQUENCY_TABLE:
            raise ValueError(f"frequency row {list(r)} not in the table")
    return (rows[0], rows[1])


_TELEPORT_SCHEMA = {
    "alpha": (_positive, 3.0),
    "beta": (_positive, 3.0),
    "gamma": (_positive, 3.0),
    "c_a": (_complex_field, complex(1.0)),
    "c_b": (_complex_field, complex(0.0)),
    "path": (_choice("ideal", "homodyne"), "ideal"),
    "mode": (_choice("enumerate", "sample"), "enumerate"),
    "trials": (_pos_int, 1),
    "freqs": (_freqs, ((2, 2), (2, 2))),
    "collapse": (_choice("exact", "branch"), "exact"),
    "baseline_trials": (_nonneg_int, 0),
}

_SWEEP_SCHEMA = {
    "kind": (_choice("fidelity", "eigen"), "fidelity"),
    "grid": (_grid, _REQUIRED),
    "c_a": (_complex_field, complex(1.0)),
    "c_b": (_complex_field, complex(0.0)),
    "path": (_choice("ideal", "homodyne"), "ideal"),
    "operator": (_choice("PbDa", "PaDb"), "PbDa"),
    "label": (_choice(*[lab.value for lab in LABELS]), "Phi+"),
    "n": (_nonneg_int, 0),
    "m": (_nonneg_int, 0),
}

_BELL_SCHEMA = {
    "alpha": (_positive, 2.0),
    "beta": (_positive, 2.0),
}

_EIGEN_SCHEMA = {
    "amplitudes": (_grid, [4.0, 8.0, 16.0, 32.0]),
    "n": (_nonneg_int, 0),
    "m": (_nonneg_int, 0),
}


def _emit(payload: str, out: str | None):
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def _emit_rows(rows, columns, args):
    if args.format == "csv":
        _emit(rows_to_csv(rows, columns), args.out)
    else:
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)


def cmd_validate(args) -> int:
    results = run_checks(self_test=args.self_test)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_bell(args) -> int:
    cfg = _take(_load_config(args.config), _BELL_SCHEMA)
    alpha, beta = cfg["alpha"], cfg["beta"]
    states = [make_quasi_bell(lab, alpha, beta) for lab in LABELS]
    gram = gram_matrix(states)
    closed = gram_closed_form(alpha, beta)
    rows = []
    for j, lj in enumerate(LABELS):
        for k, lk in enumerate(LABELS):
            rows.append({
                "alpha": alpha, "beta": beta,
                "bra": lj.value, "ket": lk.value,
                "overlap_re": gram[j, k].real, "overlap_im": gram[j, k].imag,
                "closed_form": closed[j, k].real,
                "abs_error": float(abs(gram[j, k] - closed[j, k])),
            })
    columns = ("alpha", "beta", "bra", "ket", "overlap_re", "overlap_im",
               "closed_form", "abs_error")
    _emit_rows(rows, columns, args)
    for (wa, wb), label in FREQUENCY_TABLE.items():
        generate_from_dynamics(wa, wb, alpha, beta)
        print(f"omega_a={wa} omega_b={wb} -> {label}", file=sys.stderr)
    return EXIT_OK


def cmd_eigen(args) -> int:
    cfg = _take(_load_config(args.config), _EIGEN_SCHEMA)
    rows = []
    for operator in ("PbDa", "PaDb"):
        for lab in LABELS:
            rows.extend(sweep_eigen_rows(
                cfg["amplitudes"], operator=operator, label=lab,
                n=cfg["n"], m=cfg["m"]))
    _emit_rows(rows, EIGEN_SWEEP_COLUMNS, args)
    return EXIT_OK


def _run_protocol(cfg, args):
    target = TargetState(cfg["c_a"], cfg["c_b"], cfg["gamma"])
    if cfg["path"] == "ideal":
        return run_teleport_ideal(target, cfg["alpha"], cfg["beta"],
                                  mode=cfg["mode"], seed=args.seed,
                                  trials=cfg["trials"])
    return run_teleport_homodyne(target, cfg["alpha"], cfg["beta"],
                                 freqs=cfg["freqs"],
                                 collapse=cfg["collapse"], mode=cfg["mode"],
                                 seed=args.seed, trials=cfg["trials"])


def cmd_teleport(args, force_path=None) -> int:
    cfg = _take(_load_config(args.config), _TELEPORT_SCHEMA)
    if force_path is not None:
        cfg["path"] = force_path
    run = _run_protocol(cfg, args)
    baseline = None
    if cfg["baseline_trials"]:
        baseline = classical_baseline(
            TargetState(cfg["c_a"], cfg["c_b"], cfg["gamma"]),
            cfg["alpha"], cfg["beta"], cfg["baseline_trials"],
            seed=args.seed)
    if args.format == "csv":
        _emit(rows_to_csv(run_to_rows(run), RESULT_COLUMNS), args.out)
    else:
        doc = run_to_json_doc(run)
        if baseline is not None:
            doc["baseline"] = {"trials": cfg["baseline_trials"],
                               "guess_rate": baseline[0],
                               "avg_fidelity": baseline[1]}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    print(f"average fidelity {run.average_fidelity!r}  "
          f"inconclusive rate {run.inconclusive_rate!r}", file=sys.stderr)
    if baseline is not None and args.format == "csv":
        print(f"baseline guess rate {baseline[0]!r}  "
              f"baseline fidelity {baseline[1]!r}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _take(_load_config(args.config), _SWEEP_SCHEMA)
    if cfg["kind"] == "eigen":
        rows = sweep_eigen_rows(cfg["grid"], operator=cfg["operator"],
                                label=BellLabel(cfg["label"]), n=cfg["n"],
                                m=cfg["m"])
        _emit_rows(rows, EIGEN_SWEEP_COLUMNS, args)
    else:
        rows = sweep_fidelity_rows(cfg["grid"], c_a=cfg["c_a"],
                                   c_b=cfg["c_b"], path=cfg["path"])
        _emit_rows(rows, FIDELITY_SWEEP_COLUMNS, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catport",
        description="entangled coherent-state teleportation lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def u64(text: str) -> int:
        value = int(text)
        if not 0 <= value < 2 ** 64:
            raise argparse.ArgumentTypeError(f"{value} is not in [0, 2**64)")
        return value

    def common(p, seeded=False):
        p.add_argument("--config", metavar="PATH",
                       help="JSON experiment config (strict keys)")
        if seeded:
            p.add_argument("--seed", type=u64, default=0, metavar="U64",
                           help="seed for the sampled counts and the "
                           "baseline (default 0)")
        p.add_argument("--out", metavar="PATH",
                       help="write results here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--self-test", action="store_true",
                   help="include the deliberately corrupted negative control")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bell", help="quadruple Gram table and frequency rows")
    common(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("eigen", help="joint-eigenvalue residual table")
    common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("teleport", help="run the protocol once")
    common(p, seeded=True)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("homodyne", help="teleport via the sign-readout path")
    common(p, seeded=True)
    p.set_defaults(func=lambda a: cmd_teleport(a, force_path="homodyne"))

    p = sub.add_parser("sweep", help="grid sweeps with fitted slopes")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
