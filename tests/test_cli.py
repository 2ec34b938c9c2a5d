"""Command-line surface: parsing, config files, exit codes, outputs."""

import dataclasses
import typing

import numpy as np
import pytest

from sembench import bakeoff
from sembench.bakeoff import ConfigError, RunConfig
from sembench.cli import build_parser, load_config, main, parse_int_list
from sembench.metrics import CSV_COLUMNS, read_csv

FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


class TestParseIntList:
    def test_single(self):
        assert parse_int_list("7") == [7]

    def test_comma_list(self):
        assert parse_int_list("2,4,8") == [2, 4, 8]
        assert parse_int_list("2, 4, 8") == [2, 4, 8]

    def test_inclusive_range(self):
        assert parse_int_list("2..6") == [2, 3, 4, 5, 6]
        assert parse_int_list("3..3") == [3]

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_int_list("6..2")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_int_list("two")


class TestLoadConfig:
    def test_typed_values(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# benchmark defaults\n"
            "bp = 3\n"
            "p = 2..4   # swept orders\n"
            "k = 3\n"
            "mode = bk\n"
            "iterations = 10\n"
            "deterministic = false\n")
        values = load_config(cfg)
        assert values == {"bp": 3, "p": "2..4", "k": "3", "mode": "bk",
                          "iterations": 10, "deterministic": False}

    def test_unknown_key_rejected_with_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bp = 1\nwarp = 9\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:2.*warp"):
            load_config(cfg)

    def test_non_integer_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("iterations = soon\n")
        with pytest.raises(ConfigError, match="integer"):
            load_config(cfg)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("deterministic = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            load_config(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bp 1\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


class TestRunConfigSurface:
    """The CLI takes its keys and defaults from RunConfig's fields."""

    @pytest.mark.parametrize("name", FIELDS)
    def test_every_field_is_a_config_key(self, name, tmp_path):
        cfg = tmp_path / "one.cfg"
        kind = typing.get_type_hints(RunConfig)[name]
        value = {bool: "true", str: "bk"}.get(kind, "4")
        cfg.write_text(f"{name} = {value}\n")
        assert name in load_config(cfg)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_every_field_has_a_flag(self, command):
        dests = vars(build_parser().parse_args([command]))
        assert set(FIELDS) <= set(dests)

    def test_bare_run_uses_run_config_defaults(self, monkeypatch, capsys):
        seen = []

        def capture(config):
            seen.append(config)
            raise ConfigError("captured")

        monkeypatch.setattr(bakeoff, "run", capture)
        assert main(["run", "--bp", "3", "--p", "2", "--k", "1"]) == 2
        assert seen == [RunConfig(3, 2, 1)]


RUN_ARGS = ["run", "--bp", "1", "--p", "2", "--k", "1",
            "--iters", "2", "--trials", "1"]


class TestRunCommand:
    def test_prints_csv(self, capsys):
        assert main(RUN_ARGS) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(CSV_COLUMNS)
        cells = out[1].split(",")
        assert cells[0] == "1"
        assert cells[1] == "bp"
        assert cells[CSV_COLUMNS.index("iterations")] == "2"

    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(RUN_ARGS + ["--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["bp_id"] == 1 and rows[0]["n"] == 16

    def test_missing_required_flags(self, capsys):
        assert main(["run", "--p", "2", "--k", "1"]) == 2
        assert main(["run", "--bp", "1", "--k", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_arguments_rejected_for_run(self, capsys):
        assert main(["run", "--bp", "1", "--p", "2,3", "--k", "1"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_invalid_bp_exits_2(self, capsys):
        assert main(["run", "--bp", "9", "--p", "2", "--k", "1"]) == 2

    def test_too_many_ranks_exits_2(self, capsys):
        assert main(["run", "--bp", "1", "--p", "2", "--k", "1",
                     "--ranks", "4"]) == 2
        assert "at least one element per rank" in capsys.readouterr().err

    def test_no_free_dof_exits_2(self, capsys):
        assert main(["run", "--bp", "3", "--p", "1", "--k", "2",
                     "--trials", "1"]) == 2
        assert "no free degree of freedom" in capsys.readouterr().err

    def test_memory_estimate_over_available_exits_2(self, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(bakeoff, "mem_available_bytes", lambda: 1024)
        assert main(RUN_ARGS) == 2
        assert "GiB available" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(bakeoff, "run", exhausted)
        assert main(RUN_ARGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert "64.0 GiB" in err

    def test_config_file_provides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("bp = 1\np = 2\nk = 1\niterations = 2\ntrials = 1\n")
        assert main(["run", "--config", str(cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[CSV_COLUMNS.index("iterations")] == "2"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("bp = 1\np = 2\nk = 1\niterations = 2\ntrials = 1\n")
        assert main(["run", "--config", str(cfg), "--iters", "3"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[CSV_COLUMNS.index("iterations")] == "3"


class TestSweepCommand:
    def test_sweep_writes_sorted_csv_and_plot(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.dat"
        rc = main(["sweep", "--bp", "1", "--p", "2,3", "--k", "1..2",
                   "--iters", "2", "--trials", "1",
                   "--out", str(out), "--plot", str(plot), "--quiet"])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        sizes = [r["n_per_rank"] for r in rows]
        assert sizes == sorted(sizes)
        text = plot.read_text()
        assert "# p = 2" in text and "# p = 3" in text

    def test_sweep_without_out_prints_csv(self, capsys):
        rc = main(["sweep", "--bp", "1", "--p", "2", "--k", "1",
                   "--iters", "2", "--trials", "1", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(CSV_COLUMNS)
        assert len(out) == 2

    def test_sweep_reports_failures_and_exits_1(self, tmp_path, capsys):
        rc = main(["sweep", "--bp", "3", "--p", "2", "--k", "1,3",
                   "--ranks", "4", "--iters", "2", "--trials", "1",
                   "--quiet", "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "failed: p=2 k=1" in err
        assert len(read_csv(tmp_path / "s.csv")) == 1

    def test_progress_lines(self, capsys):
        rc = main(["sweep", "--bp", "1", "--p", "2", "--k", "1",
                   "--iters", "2", "--trials", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bp1 bp p=2 k=1" in out


class TestAnalyzeCommand:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        rc = main(["sweep", "--bp", "1", "--p", "2", "--k", "0..3",
                   "--iters", "2", "--trials", "1", "--quiet",
                   "--out", str(path)])
        assert rc == 0
        capsys.readouterr()
        return path

    def test_prints_table(self, dataset, capsys):
        assert main(["analyze", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "r_max" in out and " 1  2 " in out

    def test_summary_identity(self, dataset, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        assert main(["analyze", str(dataset), "--out", str(summary),
                     "--quiet"]) == 0
        lines = summary.read_text().splitlines()
        assert lines[0] == "bp_id,p,r_max,n_08,t_08,degenerate,samples"
        bp, p, r_max, n_08, t_08, degen, samples = lines[1].split(",")
        assert (bp, p) == ("1", "2")
        assert float(t_08) == 1.25 * float(n_08) / float(r_max)
        assert samples == "4"

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.csv")]) == 2

    def test_malformed_dataset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,header\n")
        assert main(["analyze", str(path)]) == 2

    def test_header_only_dataset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        assert main(["analyze", str(path)]) == 2


class TestVerifyCommand:
    def test_single_quick_suite(self, capsys):
        rc = main(["verify", "--check", "quadrature-exactness"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS quadrature-exactness")
        assert out.count("PASS") == 1

    def test_suite_with_overrides(self, capsys):
        rc = main(["verify", "--check", "even-odd", "--p", "4"])
        assert rc == 0
        assert "PASS even-odd" in capsys.readouterr().out

    def test_unknown_suite_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "everything"])
        assert exc.value.code == 2
