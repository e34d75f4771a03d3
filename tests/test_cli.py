import json

import pytest

from catport import cli
from catport.cli import (_BELL_SCHEMA, _SWEEP_SCHEMA, _TELEPORT_SCHEMA,
                         ConfigError, _take, build_parser, main,
                         serialize_config)
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

    def test_round_trip_is_identity(self):
        raw = {"alpha": 2.0, "beta": 3.0, "gamma": 1.5,
               "c_a": [0.6, 0.0], "c_b": [0.0, 0.8],
               "path": "homodyne", "mode": "sample", "trials": 10,
               "freqs": [[2, 2], [2, 1]], "collapse": "branch"}
        cfg = _take(raw, _TELEPORT_SCHEMA)
        again = _take(json.loads(serialize_config(cfg)), _TELEPORT_SCHEMA)
        assert again == cfg

    def test_bell_schema_round_trip(self):
        cfg = _take({"alpha": 1.0}, _BELL_SCHEMA)
        assert _take(json.loads(serialize_config(cfg)), _BELL_SCHEMA) == cfg


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

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"kind": "fidelity", "grid": []}')
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


class TestSweepCommand:
    def test_fidelity_sweep_slope_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fidelity", "grid": [2, 4, 8]}))
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "eigen",
                                   "grid": [4, 8, 16, 32]}))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        scol = lines[0].split(",").index("slope")
        slope = float(lines[1].split(",")[scol])
        assert abs(slope + 2.0) < 0.1

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
        err = capsys.readouterr().err
        assert "Phi+" in err  # frequency-table labels echoed

    def test_eigen_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplitudes": [4.0, 8.0]}))
        out = tmp_path / "eigen.csv"
        assert run_cli("eigen", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        # 2 operators x 4 labels x 2 amplitudes
        assert len(lines) == 17


class TestReportHelpers:
    def test_csv_formatting_stable(self):
        rows = [{"a": 0.1, "b": None, "c": "x"}]
        assert rows_to_csv(rows, ("a", "b", "c")) == "a,b,c\n0.1,,x\n"

    def test_loglog_slope_exact_powerlaw(self):
        xs = [2.0, 4.0, 8.0]
        ys = [x ** -2 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(-2.0, abs=1e-12)

    def test_parser_subcommands(self):
        parser = build_parser()
        for cmd in ("validate", "bell", "eigen", "teleport", "sweep",
                    "homodyne"):
            assert cmd in parser.format_help()
