"""Command-line interface: outputs, determinism, and exit codes."""

import json

import pytest

from coprimearray import cli
from coprimearray.cli import main


class TestWeightsCommand:
    def test_row_count_and_values(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "-M", "4", "-N", "3", "--range", "full", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "lag,count"
        rows = dict(line.split(",") for line in lines[2:])
        assert len(rows) == 47  # lags -23 .. 23
        assert rows["0"] == "10"
        assert rows["16"] == "0"

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["weights", "-M", "5", "-N", "3", "-o", str(first)])
        main(["weights", "-M", "5", "-N", "3", "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestDiffsetCommand:
    def test_dof_column(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["diffset", "-M", "4", "-N", "3", "-o", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[2:]}
        assert rows["C"][1] == "37"
        assert rows["S"][1] == "19"
        assert rows["B+"][3] == "-4"  # max lag of the extension cross set is negative


class TestComplexityCommand:
    def test_values(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["complexity", "-M", "4", "-N", "3", "-o", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[2:]}
        assert rows["extended-full"][1:] == ["55", "36"]
        assert rows["prototype-continuous"][1:] == ["19", "12"]

    def test_prototype_row_requires_larger_m(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["complexity", "-M", "3", "-N", "7", "-o", str(out)]) == 0
        assert "prototype-continuous" not in out.read_text()


class TestBiasCommand:
    def test_cross_checks_pass_at_40_41(self, tmp_path):
        # The closed forms agree with their transforms to about 1e-13 of the
        # windows' peaks; an absolute bound of 1e-9 failed here.
        out = tmp_path / "b.csv"
        assert main(["bias", "-M", "40", "-N", "41", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 4096


class TestVarianceCommand:
    def test_single_pair(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["variance", "-M", "4", "-N", "3", "-o", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[2:]}
        assert rows["full"][2] == "1"
        assert rows["continuous"][2] == "0.92"

    def test_sweep_covers_non_coprime(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["variance", "--max", "4", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 16
        assert any(line.startswith("2,4,false") for line in lines)


    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_non_positive_sweep_bound_is_config_error(self, bound, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert main(["variance", "--max", bound, "-o", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "OutOfRangeError"
        assert not out.exists()


class TestEstimateCommand:
    def test_deterministic_and_peak_reported(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["estimate", "--snapshots", "10", "--seed", "1"]
        assert main(argv + ["-o", str(first)]) == 0
        printed = capsys.readouterr().out
        assert "peak: omega=" in printed
        assert main(argv + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_global_maximum_near_configured_tone(self, tmp_path):
        import math

        out = tmp_path / "e.csv"
        assert main(["estimate", "--snapshots", "10", "--seed", "1", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        omega, _ = max(rows, key=lambda row: float(row[1]))
        assert abs(float(omega) - 0.4 * math.pi) <= 2 * math.pi / 1024 + 1e-12

    def test_json_format(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["estimate", "--snapshots", "2", "--format", "json", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["omega", "power"]
        assert payload["config"]["freq"] == "0.4"
        assert len(payload["rows"]) == 1024


    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_snapshot_count_is_config_error(self, count, tmp_path, capsys, monkeypatch):
        def synthesize(*args, **kwargs):
            raise AssertionError("signal synthesized before the snapshot count was checked")

        monkeypatch.setattr(cli, "generate_signal", synthesize)
        out = tmp_path / "e.csv"
        assert main(["estimate", "--snapshots", count, "-o", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["type"] == "OutOfRangeError"
        assert "--snapshots" in record["message"]
        assert not out.exists()


class TestTablesCommand:
    def test_writes_three_tables(self, tmp_path):
        assert main(["tables", "--max", "4", "--grid-size", "2048", "-o", str(tmp_path)]) == 0
        names = sorted(path.name for path in tmp_path.glob("*.csv"))
        assert names == [
            "configuration_choice_table.csv",
            "dof_table.csv",
            "relative_amplitude_table.csv",
        ]
        dof_lines = (tmp_path / "dof_table.csv").read_text().splitlines()
        assert "4,3,extended,C,37" in dof_lines
        assert "4,3,prototype,C,17" in dof_lines

    def test_amplitude_values_at_default_grid(self, tmp_path):
        assert main(["tables", "--max", "2", "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "relative_amplitude_table.csv").read_text().splitlines()
        rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[2:]}
        r_full, r_cont, r_proto = (float(v) for v in rows[("4", "3")])
        assert abs(r_full - 0.508) <= 0.01
        assert abs(r_cont - 0.521) <= 0.01
        assert abs(r_proto - 0.565) <= 0.01
        assert abs(float(rows[("3", "4")][0]) - 0.683) <= 0.01

    @pytest.mark.parametrize("bound", ["0", "1", "-3"])
    def test_bound_below_smallest_factor_is_config_error(self, bound, tmp_path, capsys):
        argv = ["tables", "--max", bound, "--grid-size", "1024", "-o", str(tmp_path)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "OutOfRangeError"
        assert not list(tmp_path.iterdir())


class TestConfigHandling:
    def test_not_coprime_is_config_error(self, tmp_path, capsys):
        assert main(["weights", "-M", "4", "-N", "6", "-o", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["type"] == "NotCoprimeError"

    def test_usage_error_exits_2(self):
        assert main(["weights", "--range", "bogus"]) == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("M = 4\nN = 3\nrange = continuous\n# comment\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--config", str(config), "-o", str(out)]) == 0
        assert "range=continuous" in out.read_text().splitlines()[0]

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("M = 4\nN = 3\nrange = continuous\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--config", str(config), "--range", "full", "-o", str(out)]) == 0
        assert "range=full" in out.read_text().splitlines()[0]

    def test_outdir_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COPRIMEARRAY_OUTDIR", str(tmp_path))
        assert main(["weights", "-M", "2", "-N", "3"]) == 0
        assert (tmp_path / "weights_M2_N3_full.csv").exists()

    def test_io_failure_exits_4(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("occupied")
        # Using an existing file as a directory component fails at write time.
        assert main(["weights", "-M", "2", "-N", "3", "-o", str(target / "w.csv")]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "io"
