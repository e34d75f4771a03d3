"""Command-line experiment harness.

Subcommands: validate | bell | eigen | teleport | sweep | homodyne.
Experiment parameters come from a strict JSON config (--config): unknown
keys are rejected, and so are teleport keys that the run's path or mode
would not read, so a typo can never silently change an experiment.  Run
control lives on flags: --out, --format, and --seed on the two commands
that draw random numbers (teleport, homodyne).  Exit codes:
0 success, 1 a validation/check failure, 2 a config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .bell import FREQUENCY_TABLE, LABELS, frequency_row, gram_closed_form
from .checks import run_checks
from .protocol import (DEFAULT_FREQS, MAX_TRIALS, TargetState,
                       classical_baseline, run_teleport_homodyne,
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
            except Exception as exc:
                raise ConfigError(f"config key '{key}': {exc}") from exc
        else:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key '{key}'")
            out[key] = default
    return out


_REQUIRED = object()


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


def _int_field(low: int):
    def check(x) -> int:
        # compared as ints: through a float, 2**63 - 1 would read as 2**63
        _finite(x)
        value = int(x)
        if value != x or not low <= value <= MAX_TRIALS:
            raise ValueError(f"{x!r} is not an integer in [{low}, 2**63 - 1]")
        return value
    return check


_pos_int, _nonneg_int = _int_field(1), _int_field(0)


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
    return (frequency_row(rows[0]), frequency_row(rows[1]))


_TELEPORT_SCHEMA = {
    "alpha": (_positive, 3.0),
    "beta": (_positive, 3.0),
    "gamma": (_positive, 3.0),
    "c_a": (_complex_field, complex(1.0)),
    "c_b": (_complex_field, complex(0.0)),
    "path": (_choice("ideal", "homodyne"), "ideal"),
    "mode": (_choice("enumerate", "sample"), "enumerate"),
    "trials": (_pos_int, 1),
    "freqs": (_freqs, DEFAULT_FREQS),
    "collapse": (_choice("exact", "branch"), "exact"),
    "baseline_trials": (_nonneg_int, 0),
}

_SWEEP_SCHEMA = {
    "grid": (_grid, _REQUIRED),
    "c_a": (_complex_field, complex(1.0)),
    "c_b": (_complex_field, complex(0.0)),
    "path": (_choice("ideal", "homodyne"), "ideal"),
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
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _emit_rows(rows, columns, args):
    """CSV rows under columns, or rows (any JSON value) as JSON."""
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
    gram = gram_closed_form(alpha, beta).real
    rows = [{"alpha": alpha, "beta": beta, "bra": lj.value, "ket": lk.value,
             "overlap": float(gram[j, k])}
            for j, lj in enumerate(LABELS) for k, lk in enumerate(LABELS)]
    _emit_rows(rows, ("alpha", "beta", "bra", "ket", "overlap"), args)
    for (wa, wb), label in FREQUENCY_TABLE.items():
        print(f"omega_a={wa} omega_b={wb} -> {label}", file=sys.stderr)
    return EXIT_OK


def cmd_eigen(args) -> int:
    cfg = _take(_load_config(args.config), _EIGEN_SCHEMA)
    rows = []
    for operator in ("PbDa", "PaDb"):
        rows.extend(sweep_eigen_rows(cfg["amplitudes"], operator=operator,
                                     n=cfg["n"], m=cfg["m"]))
    _emit_rows(rows, EIGEN_SWEEP_COLUMNS, args)
    return EXIT_OK


def _run_protocol(cfg, target, args):
    if cfg["path"] == "ideal":
        return run_teleport_ideal(target, cfg["alpha"], cfg["beta"],
                                  mode=cfg["mode"], seed=args.seed,
                                  trials=cfg["trials"])
    return run_teleport_homodyne(target, cfg["alpha"], cfg["beta"],
                                 freqs=cfg["freqs"],
                                 collapse=cfg["collapse"], mode=cfg["mode"],
                                 seed=args.seed, trials=cfg["trials"])


def cmd_teleport(args, force_path=None) -> int:
    given = _load_config(args.config)
    cfg = _take(given, _TELEPORT_SCHEMA)
    if force_path is not None:
        cfg["path"] = force_path
    # a key that this run would not read is refused like an unknown one
    unread = sorted(set(given) & (
        ({"collapse", "freqs"} if cfg["path"] == "ideal" else set())
        | ({"trials"} if cfg["mode"] == "enumerate" else set())))
    if unread:
        raise ConfigError(f"config key(s) {', '.join(unread)} do not apply "
                          f"to path '{cfg['path']}', mode '{cfg['mode']}'")
    target = TargetState(cfg["c_a"], cfg["c_b"], cfg["gamma"])
    run = _run_protocol(cfg, target, args)
    baseline = None
    if cfg["baseline_trials"]:
        baseline = classical_baseline(target, cfg["alpha"], cfg["beta"],
                                      cfg["baseline_trials"], seed=args.seed)
    if args.format == "csv":
        records = run_to_rows(run)
    else:
        records = run_to_json_doc(run)
        if baseline is not None:
            records["baseline"] = {"trials": cfg["baseline_trials"],
                                   "guess_rate": baseline[0],
                                   "avg_fidelity": baseline[1]}
    _emit_rows(records, RESULT_COLUMNS, args)
    print(f"average fidelity {run.average_fidelity!r}  "
          f"inconclusive rate {run.inconclusive_rate!r}", file=sys.stderr)
    if baseline is not None and args.format == "csv":
        print(f"baseline guess rate {baseline[0]!r}  "
              f"baseline fidelity {baseline[1]!r}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _take(_load_config(args.config), _SWEEP_SCHEMA)
    rows = sweep_fidelity_rows(cfg["grid"], c_a=cfg["c_a"], c_b=cfg["c_b"],
                               path=cfg["path"])
    _emit_rows(rows, FIDELITY_SWEEP_COLUMNS, args)
    return EXIT_OK


@functools.cache
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

    def command(name, text, func, seeded=False):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
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

    command("bell", "quadruple Gram table and frequency rows", cmd_bell)
    command("eigen", "joint-eigenvalue residual table", cmd_eigen)
    command("teleport", "run the protocol once", cmd_teleport, seeded=True)
    command("homodyne", "teleport via the sign-readout path",
            lambda a: cmd_teleport(a, force_path="homodyne"), seeded=True)
    command("sweep", "grid sweeps with fitted slopes", cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        # refused before any work, and without creating or truncating it
        if out is not None and (os.path.isdir(out) or not os.path.isdir(
                os.path.dirname(out) or ".")):
            raise ConfigError(f"cannot write {out}: not a file path in an "
                              "existing directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
