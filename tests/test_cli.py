import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catport import algebra, bell, checks, cli, protocol, reports
from catport.algebra import CoherentSuperposition
from catport.bell import gram_closed_form
from catport.cli import (_SWEEP_SCHEMA, _TELEPORT_SCHEMA, ConfigError,
                         _take, build_parser, main)
from catport.reports import (FIDELITY_SWEEP_COLUMNS, loglog_slope,
                             rows_to_csv, sweep_fidelity_rows)


def run_cli(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="alfa"):
            _take({"alfa": 1.0}, _TELEPORT_SCHEMA)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="grid"):
            _take({}, _SWEEP_SCHEMA)

    def test_defaults_fill_in(self):
        cfg = _take({}, _TELEPORT_SCHEMA)
        assert cfg["path"] == "ideal"
        assert cfg["c_a"] == complex(1.0)

    def test_complex_pair_form(self):
        cfg = _take({"c_a": [0.6, 0.0], "c_b": [0.0, 0.8]}, _TELEPORT_SCHEMA)
        assert cfg["c_a"] == 0.6
        assert cfg["c_b"] == 0.8j

    def test_bad_frequency_row(self):
        with pytest.raises(ConfigError, match="freqs"):
            _take({"freqs": [[3, 1], [2, 2]]}, _TELEPORT_SCHEMA)


class TestExitCodes:
    def test_validate_passes(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert "frequency-table" in out and "FAIL" not in out

    def test_self_test_negative_control(self, capsys):
        assert run_cli("validate", "--self-test") == 1
        captured = capsys.readouterr()
        assert "corrupted-truncation" in captured.out
        assert "corrupted-truncation" in captured.err

    def test_config_syntax_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 2.0,\n  broken\n}')
        code = run_cli("teleport", "--config", str(bad))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_key_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpa": 2.0}')
        assert run_cli("teleport", "--config", str(cfg)) == 2
        assert "alpa" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"alpha": "3"}', "alpha"),
        ('{"trials": true}', "trials"),
        ('{"alpha": "inf"}', "alpha"),
        ('{"alpha": Infinity}', "alpha"),
    ], ids=["quoted-number", "bool-count", "quoted-inf", "json-infinity"])
    def test_bad_value_is_config_error_before_running(self, tmp_path, capsys,
                                                       monkeypatch, text, key):
        def refuse(*args, **kwargs):
            raise AssertionError("protocol ran on an invalid config")

        monkeypatch.setattr(cli, "_run_protocol", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli("teleport", "--config", str(cfg)) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, keys", [
        ({"collapse": "branch"}, "collapse"),
        ({"path": "ideal", "collapse": "branch", "freqs": [[1, 1], [2, 2]]},
         "collapse, freqs"),
        ({"trials": 10}, "trials"),
        ({"path": "homodyne", "mode": "enumerate", "trials": 10}, "trials"),
    ], ids=["collapse", "collapse-freqs", "trials", "homodyne-trials"])
    def test_unread_key_is_config_error_before_running(
            self, tmp_path, capsys, monkeypatch, settings, keys):
        def refuse(*args, **kwargs):
            raise AssertionError("protocol ran with a key it does not read")

        monkeypatch.setattr(cli, "_run_protocol", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        assert run_cli("teleport", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key(s) {keys} ")
        assert err.count("\n") == 1

    def test_homodyne_reads_its_keys_whatever_the_path(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"path": "ideal", "collapse": "branch",
                                   "freqs": [[1, 1], [2, 2]]}))
        assert run_cli("homodyne", "--config", str(cfg)) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("c_a, c_b", [(1e200, 1e200), (1e-200, 0)])
    def test_extreme_coefficients_run(self, tmp_path, capsys, c_a, c_b):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c_a": c_a, "c_b": c_b}))
        assert run_cli("teleport", "--config", str(cfg)) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command, key", [("homodyne", "gamma"),
                                              ("teleport", "beta")])
    def test_extreme_amplitudes_run(self, tmp_path, capsys, command, key):
        cfg, out = tmp_path / "cfg.json", tmp_path / "run.csv"
        cfg.write_text(json.dumps({key: 1e200}))
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        probs = [float(r["probability"]) for r in rows[:4]]
        assert all(math.isfinite(float(r["fidelity"])) for r in rows)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command, amp", [
        ("teleport", 5e-4), ("homodyne", 1e-8), ("homodyne", 1e-12),
        ("homodyne", 1e-100), ("homodyne", 1e-160), ("teleport", 1e-160)])
    def test_small_amplitudes_print_probabilities_or_exit_1(
            self, tmp_path, capsys, command, amp):
        # an odd payload: below amplitude 1.1e-154 it is the zero state,
        # which fails before any output; above, the numbers are exact
        cfg, out = tmp_path / "cfg.json", tmp_path / "run.csv"
        cfg.write_text(json.dumps({"alpha": amp, "beta": amp, "gamma": amp,
                                   "c_a": 1.0, "c_b": -1.0}))
        code = run_cli(command, "--config", str(cfg), "--out", str(out))
        capsys.readouterr()
        if amp < 1e-154:
            assert code == 1 and not out.exists()
            return
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        probs = [float(r["probability"]) for r in rows[:4]]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("amp", [1e16, 1e200])
    def test_bell_at_large_amplitude(self, tmp_path, capsys, amp):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": amp, "beta": amp}))
        assert run_cli("bell", "--config", str(cfg)) == 0
        assert "Psi-" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, code", [
        ({"mode": "sample", "trials": 1e19}, 2),
        ({"baseline_trials": 1e19}, 2),
        ({"mode": "sample", "trials": 2 ** 63}, 2),
        ({"mode": "sample", "trials": 2 ** 63 - 1}, 0),
        ({"baseline_trials": 2 ** 63 - 1}, 0),
    ], ids=["trials-1e19", "baseline-1e19", "trials-2**63",
            "trials-2**63-1", "baseline-2**63-1"])
    def test_trial_counts_up_to_numpy_limit(self, tmp_path, capsys,
                                            settings, code):
        # numpy's multinomial takes counts up to 2**63 - 1; a larger count
        # is a config error, and the limit itself compares exactly
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        assert run_cli("teleport", "--config", str(cfg)) == code
        err = capsys.readouterr().err
        assert ("config key" in err) == (code == 2)

    @pytest.mark.parametrize("command, seed", [
        ("bell", "1"), ("eigen", "1"), ("sweep", "1"), ("teleport", "-1"),
    ])
    def test_seed_is_a_usage_error_before_running(self, tmp_path, capsys,
                                                   monkeypatch, command, seed):
        # only teleport and homodyne draw random numbers, and their seed
        # must lie in [0, 2**64): anything else exits 2 while parsing
        def refuse(*args, **kwargs):
            raise AssertionError("protocol ran despite a bad --seed")

        monkeypatch.setattr(cli, "_run_protocol", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "sample", "trials": 10}')
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", str(cfg), "--seed", seed)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["teleport", "homodyne", "bell",
                                         "eigen", "sweep"])
    @pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
    def test_unusable_out_is_a_config_error_before_running(
            self, tmp_path, capsys, monkeypatch, command, where):
        def refuse(*args, **kwargs):
            raise AssertionError("ran despite an unusable --out")

        monkeypatch.setattr(cli, "_run_protocol", refuse)
        monkeypatch.setattr(cli, "_load_config", refuse)
        out = {"missing-dir": tmp_path / "no-dir" / "x.csv",
               "is-dir": tmp_path}[where]
        assert run_cli(command, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(out) in err
        assert not (tmp_path / "no-dir").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that fails every write")
    def test_write_failure_is_a_config_error(self, capsys):
        assert run_cli("teleport", "--out", "/dev/full") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write /dev/full")
        assert err.count("\n") == 1

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"grid": []}')
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "grid" in capsys.readouterr().err


class TestTeleportCommand:
    def test_csv_shape(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "beta": 2.0, "gamma": 2.0}))
        out = tmp_path / "run.csv"
        assert run_cli("teleport", "--config", str(cfg), "--out",
                       str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6  # header + 4 branches + aggregate
        header = lines[0].split(",")
        assert header[:3] == ["alpha", "beta", "gamma"]
        assert lines[5].split(",")[8] == "aggregate"

    def test_seed_reproducibility_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 3.0, "beta": 3.0, "gamma": 3.0,
                                   "mode": "sample", "trials": 5000}))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli("teleport", "--config", str(cfg), "--seed", "77",
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_payload(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "beta": 2.0, "gamma": 2.0,
                                   "mode": "sample", "trials": 100,
                                   "baseline_trials": 200}))
        out = tmp_path / "run.json"
        assert run_cli("teleport", "--config", str(cfg), "--seed", "3",
                       "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 3
        assert sum(doc["counts"]) == 100
        assert len(doc["branches"]) == 4
        assert doc["baseline"]["trials"] == 200
        assert 0 <= doc["baseline"]["guess_rate"] <= 1

    def test_homodyne_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "beta": 2.0, "gamma": 2.0}))
        out = tmp_path / "hom.json"
        assert run_cli("homodyne", "--config", str(cfg), "--format", "json",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["path"] == "homodyne"
        assert doc["collapse"] == "exact"
        assert "misclassification" in doc

    def test_sampled_frequencies_track_probabilities(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 4.0, "beta": 4.0, "gamma": 4.0,
                                   "mode": "sample", "trials": 100000}))
        out = tmp_path / "run.json"
        assert run_cli("teleport", "--config", str(cfg), "--seed", "8",
                       "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        n = doc["trials"]
        for br, count in zip(doc["branches"], doc["counts"]):
            p = br["probability"]
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(count / n - p) <= 3 * sigma + 1e-12

    @pytest.mark.parametrize("command, settings", [
        ("teleport", {}), ("teleport", {"path": "homodyne"}),
        ("homodyne", {"collapse": "branch"})],
        ids=["ideal", "exact", "branch"])
    def test_no_format_builds_states(self, tmp_path, capsys, monkeypatch,
                                     command, settings):
        # both records are all numbers: with every symbolic state refused,
        # CSV and JSON print what they print without the refusal
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(settings, baseline_trials=100)))
        outputs = {}
        for fmt in ("csv", "json"):
            assert run_cli(command, "--config", str(cfg), "--format",
                           fmt) == 0
            outputs[fmt] = capsys.readouterr().out

        def refuse(self):
            raise AssertionError("a command built a symbolic state")
        monkeypatch.setattr(CoherentSuperposition, "__post_init__", refuse)
        for fmt in ("csv", "json"):
            assert run_cli(command, "--config", str(cfg), "--format",
                           fmt) == 0
            assert capsys.readouterr().out == outputs[fmt]


class TestSweepCommand:
    def test_fidelity_sweep_slope_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": [2, 4, 8]}))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        icol = header.index("avg_fidelity")
        scol = header.index("slope")
        fids = [float(line.split(",")[icol]) for line in lines[1:]]
        assert fids == sorted(fids)  # monotone in the sweep variable
        slope = float(lines[1].split(",")[scol])
        assert -2.2 < slope < -1.8

    def test_eigen_sweep_slope(self, tmp_path):
        # the amplitude sweep of the eigen residuals is `catport eigen`
        out = tmp_path / "eigen.csv"
        assert run_cli("eigen", "--out", str(out)) == 0
        blocks = {}
        for row in csv.DictReader(out.read_text().splitlines()):
            blocks.setdefault(row["operator"], []).append(row)
        assert len(blocks) == 2
        for rows in blocks.values():
            assert [float(r["alpha"]) for r in rows] == [4.0, 8.0, 16.0, 32.0]
            assert all(abs(float(r["slope"]) + 2.0) < 0.1 for r in rows)

    @pytest.mark.parametrize("extra", [{"kind": "eigen"},
                                       {"operator": "PaDb"}],
                             ids=["kind", "operator"])
    def test_eigen_keys_rejected(self, tmp_path, capsys, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(extra, grid=[2, 4])))
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert next(iter(extra)) in capsys.readouterr().err

    def test_sweep_rows_carry_no_seed(self):
        rows = sweep_fidelity_rows([2.0, 4.0])
        assert all("seed" not in row for row in rows)
        assert "seed" not in FIDELITY_SWEEP_COLUMNS


class TestBellEigenCommands:
    def test_bell_gram_report(self, tmp_path, capsys):
        out = tmp_path / "bell.csv"
        assert run_cli("bell", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 17  # header + 16 matrix entries
        assert lines[0] == "alpha,beta,bra,ket,overlap"
        gram = gram_closed_form(2.0, 2.0)
        for i, row in enumerate(csv.DictReader(lines)):
            assert (float(row["alpha"]), float(row["beta"])) == (2.0, 2.0)
            # the closed form itself, bit for bit
            assert float(row["overlap"]) == gram[i // 4, i % 4].real
        err = capsys.readouterr().err
        assert "Phi+" in err  # frequency-table labels echoed

    def test_eigen_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplitudes": [4.0, 8.0]}))
        out = tmp_path / "eigen.csv"
        assert run_cli("eigen", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        # 2 operators x 2 amplitudes: the residual is the same for every label
        assert len(lines) == 5
        assert lines[0] == "alpha,beta,operator,n,m,residual,slope"

    def test_eigen_underflow_writes_no_nan(self, tmp_path, capsys):
        # at 1e200 |eps|^2 underflows and the residual is 0.0: no log-log
        # slope exists, so the cell is empty, not nan
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplitudes": [4.0, 1e200]}))
        assert run_cli("eigen", "--config", str(cfg)) == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert len(rows) == 4 and all(r["slope"] == "" for r in rows)
        assert captured.err == ""
        assert run_cli("eigen", "--config", str(cfg), "--format", "json") == 0
        captured = capsys.readouterr()

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(captured.out, parse_constant=refuse)
        assert all(r["slope"] is None for r in rows)
        assert {r["residual"] for r in rows if r["alpha"] == 1e200} == {0.0}
        assert captured.err == ""

    @pytest.mark.parametrize("command, config", [
        ("eigen", {"amplitudes": [4.0, 4.0]}),
        ("sweep", {"grid": [3.0, 3.0]}),
    ])
    def test_one_distinct_amplitude_has_no_slope(self, tmp_path, capsys,
                                                 command, config):
        # a log-log fit through one x is rank-deficient: no slope, no
        # numpy RankWarning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(command, "--config", str(cfg)) == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert rows and all(r["slope"] == "" for r in rows)
        assert captured.err == ""

    @pytest.mark.parametrize("command, config", [
        ("bell", {"alpha": 1.5, "beta": 0.7}),
        ("eigen", {"amplitudes": [0.5, 4.0, 32.0], "n": 1, "m": 2}),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_closed_forms_build_no_symbolic_state(self, tmp_path, capsys,
                                                  monkeypatch, command,
                                                  config, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = (command, "--config", str(cfg), "--format", fmt)
        assert run_cli(*argv) == 0
        want = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("symbolic algebra on a closed-form command")

        names = ("overlap", "gram_matrix", "normalize", "make_quasi_bell",
                 "generate_from_dynamics", "combined_op")
        for module in (algebra, bell, checks, cli, protocol, reports):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(CoherentSuperposition, "__init__", refuse)
        assert run_cli(*argv) == 0
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)


class TestReportHelpers:
    def test_csv_formatting_stable(self):
        rows = [{"a": 0.1, "b": None, "c": "x"}]
        assert rows_to_csv(rows, ("a", "b", "c")) == "a,b,c\n0.1,,x\n"

    def test_loglog_slope_exact_powerlaw(self):
        xs = [2.0, 4.0, 8.0]
        ys = [x ** -2 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(-2.0, abs=1e-12)

    def test_loglog_slope_none_without_a_fit(self):
        assert loglog_slope([3.0], [0.5]) is None
        assert loglog_slope([3.0, 3.0], [0.5, 0.25]) is None
        assert loglog_slope([2.0, 4.0], [0.5, 0.0]) is None

    def test_parser_subcommands(self):
        parser = build_parser()
        for cmd in ("validate", "bell", "eigen", "teleport", "sweep",
                    "homodyne"):
            assert cmd in parser.format_help()

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert build_parser() is build_parser()
        assert run_cli("teleport", "--seed", "5", "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        assert run_cli("teleport") == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows and all(r["seed"] == "0" for r in rows)


def test_cli_import_loads_no_test_dependency():
    # mpmath and pytest are test extras; a fresh interpreter that imports
    # the CLI must not load them
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, catport.cli; "
            "print(sorted({'mpmath', 'pytest'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
