"""Every function defined in src/catport is entered by some CLI command,
or is named in ALLOWLIST with the reason it stays.

A fresh interpreter installs a profile hook before catport is imported, so
import-time calls count, and runs CORPUS through ``cli.main``: every
subcommand, CSV and JSON, both paths and both collapses, enumerate and
sample, a baseline, non-default frequency rows, ``validate --self-test``
and the config errors.  ``ast`` lists every ``def`` in the package.  The
never-entered set must equal ALLOWLIST: new dead code fails, and so does
an entry whose function is gone or now reached.  Every JSON document a
command writes, to stdout or to ``--out``, must parse as strict JSON: a
NaN or Infinity token fails.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from catport import cli

PACKAGE = Path(cli.__file__).resolve().parent

_PINNED = "perfbench TARGETS, ROADMAP item 1"

#: never entered by a command: {qualified name: why it stays}
ALLOWLIST = {
    "algebra.CoherentSuperposition.__add__": _PINNED,
    "algebra.CoherentSuperposition.__sub__": _PINNED,
    "algebra.CoherentSuperposition.permute_modes": _PINNED,
    "algebra.partial_overlap": _PINNED,
    "algebra.tensor": _PINNED,
    "bell.QuasiBellSet.build": _PINNED,
    "bell.QuasiBellSet.ordered_states":
        "called only by protocol.LowdinMeasurement.from_set (pinned)",
    "bell.make_cat": _PINNED,
    "fock.half_line_projector": _PINNED,
    "protocol.LowdinMeasurement.collapse": _PINNED,
    "protocol.LowdinMeasurement.from_set": _PINNED,
    "protocol.apply_correction": _PINNED,
    "protocol.TargetState.realized":
        "called only by protocol.three_mode_state (pinned)",
    "protocol.three_mode_state": _PINNED,
}

_PAYLOAD = {"c_a": [0.6, 0.1], "c_b": 0.8}

#: (argv, config: a dict, raw text or None, expected exit code); "{work}"
#: in an argument is the scratch directory
CORPUS = [
    (["validate", "--self-test"], None, 1),
    (["validate"], None, 0),
    (["bell", "--out", "{work}/bell.csv"], {"alpha": 2.0, "beta": 1.5}, 0),
    (["bell", "--format", "json"], None, 0),
    (["eigen"], {"amplitudes": [4.0, 8.0], "n": 1, "m": 2}, 0),
    (["eigen", "--format", "json"], None, 0),
    # |eps|^2 underflows at 1e200: a zero residual and no slope
    (["eigen"], {"amplitudes": [4.0, 1e200]}, 0),
    # |eps|^2 overflows at 1e-160: residual 1.0, no traceback
    (["eigen"], {"amplitudes": [1e-160]}, 0),
    (["sweep"], dict(_PAYLOAD, grid=[2, 4], path="homodyne"), 0),
    (["sweep", "--format", "json", "--out", "{work}/sweep.json"],
     {"grid": [3]}, 0),
    (["sweep"], {"grid": [3]}, 0),
    (["teleport", "--format", "json"],
     dict(_PAYLOAD, alpha=2.0, beta=2.5, gamma=1.5), 0),
    (["teleport", "--seed", "7", "--out", "{work}/run.csv"],
     {"mode": "sample", "trials": 100, "baseline_trials": 50}, 0),
    (["teleport", "--seed", "5", "--format", "json"],
     {"baseline_trials": 20}, 0),
    (["teleport", "--format", "json"],
     dict(_PAYLOAD, path="homodyne", collapse="exact",
          freqs=[[1, 2], [2, 1]]), 0),
    (["homodyne", "--seed", "3"],
     {"collapse": "branch", "mode": "sample", "trials": 10}, 0),
    (["homodyne", "--format", "json"], {"collapse": "branch"}, 0),
    # an odd payload below 1.1e-154 is the zero state: a check failure
    (["teleport"], {"gamma": 1e-160, "c_a": 1.0, "c_b": -1.0}, 1),
    # pi/(2 beta) overflows: the correction displacement does not exist
    (["teleport", "--format", "json"], {"beta": 1e-310}, 2),
    (["sweep"], {"grid": [1e-310, 1e-5]}, 2),
    (["teleport"], {"alfa": 1.0}, 2),
    (["teleport"], {"alpha": "3"}, 2),
    (["teleport"], '{"alpha": Infinity}', 2),
    (["teleport"], {"c_a": [1, 2, 3]}, 2),
    (["teleport"], {"trials": 0, "mode": "sample"}, 2),
    (["teleport"], {"freqs": [[3, 1], [2, 2]], "path": "homodyne"}, 2),
    (["homodyne"], {"freqs": [[2, 2]]}, 2),
    (["teleport"], {"collapse": "branch"}, 2),
    (["teleport"], {"trials": 10}, 2),
    (["teleport"], '{"alpha": 2.0,\n  broken\n}', 2),
    (["teleport"], "[1, 2]", 2),
    (["teleport", "--config", "{work}/missing.json"], None, 2),
    (["teleport", "--out", "{work}/no-dir/run.csv"], None, 2),
    (["sweep"], {}, 2),
    (["sweep"], {"grid": []}, 2),
    (["sweep"], {"grid": [2, 4], "kind": "eigen"}, 2),
    (["bell"], {"alpha": -1.0}, 2),
    (["eigen"], {"n": -1}, 2),
]

_CHILD = r"""
import contextlib, io, json, os, sys

entered = set()


def refuse(token):
    raise ValueError(f"a command wrote the non-JSON token {token}")


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from catport import cli

corpus, work = json.load(sys.stdin)
codes, parsed = [], 0
for i, (argv, config) in enumerate(corpus):
    argv = [a.replace("{work}", work) for a in argv]
    if config is not None:
        path = os.path.join(work, f"config{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        argv += ["--config", path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
    if "json" in argv and codes[-1] == 0:
        text = out.getvalue()
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                text = fh.read()
        json.loads(text, parse_constant=refuse)
        parsed += 1
sys.setprofile(None)
package = os.path.dirname(os.path.realpath(cli.__file__))
entered = sorted({(os.path.realpath(c.co_filename), c.co_firstlineno,
                   c.co_name) for c in entered
                  if os.path.realpath(c.co_filename).startswith(package)})
print(json.dumps({"codes": codes, "parsed": parsed, "entered": entered}))
"""


def package_defs() -> dict:
    """{(file, first line, name): module.qualified.name} of every def in
    the package; a decorated def starts at its first decorator, as its
    code object does."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[str(path), first, child.name] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path,
             f"{path.stem}.")
    return out


def test_every_def_is_reached_or_allowlisted(tmp_path):
    corpus = [(argv, config if config is None or isinstance(config, str)
               else json.dumps(config)) for argv, config, _ in CORPUS]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          input=json.dumps([corpus, str(tmp_path)]),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # the corpus does what it says: each command exits as expected
    assert result["codes"] == [code for _, _, code in CORPUS]
    # and each JSON document it wrote was strict JSON
    assert result["parsed"] == sum("json" in argv and code == 0
                                   for argv, _, code in CORPUS)
    entered = {tuple(e) for e in result["entered"]}
    never = {name for key, name in package_defs().items()
             if key not in entered}
    assert never == set(ALLOWLIST)
