"""Unit tests for the experiment CSV export layer."""

import csv

import pytest

from repro.analysis import run_experiment
from repro.analysis.export import export_report
from repro.cli import main


@pytest.fixture(scope="module")
def fig6_report():
    return run_experiment("fig6", scale="quick")


class TestExportReport:
    def test_writes_transcript(self, fig6_report, tmp_path):
        paths = export_report(fig6_report, tmp_path)
        txt = tmp_path / "fig6.txt"
        assert txt in paths
        assert "collision" in txt.read_text()

    def test_scalar_csv(self, fig6_report, tmp_path):
        export_report(fig6_report, tmp_path)
        # fig6's data holds plain floats -> a name/value CSV.
        csvs = list(tmp_path.glob("fig6_*.csv"))
        assert not csvs  # floats are top-level scalars, no dict payload

    def test_reliability_curves_csv(self, tmp_path):
        report = run_experiment("fig7", scale="quick")
        export_report(report, tmp_path)
        path = tmp_path / "fig7_results.csv"
        assert path.exists()
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        schemes = {r["scheme"] for r in rows}
        assert "XED (9 chips)" in schemes
        assert "Chipkill (18 chips)" in schemes
        years = sorted({int(r["year"]) for r in rows})
        assert years == [1, 2, 3, 4, 5, 6, 7]
        for row in rows:
            assert 0.0 <= float(row["probability_of_failure"]) <= 1.0

    def test_analytical_reliability_curves_csv(self, tmp_path):
        report = run_experiment(
            "fig7", scale="quick", faultsim_backend="analytical"
        )
        export_report(report, tmp_path)
        path = tmp_path / "fig7_results.csv"
        assert path.exists()
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        results = report.data["results"]
        assert len(rows) == sum(len(r.curve()) for r in results.values())
        for name, result in results.items():
            got = [
                (int(row["year"]), float(row["probability_of_failure"]))
                for row in rows if row["scheme"] == name
            ]
            want = [(year, float(f"{p:.6e}")) for year, p in result.curve()]
            assert got == want

    def test_detection_table_csv(self, tmp_path):
        report = run_experiment("table2", scale="quick")
        export_report(report, tmp_path)
        path = tmp_path / "table2_aligned.csv"
        assert path.exists()
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        crc_bursts = [
            float(r["burst_rate"]) for r in rows if r["code"] == "CRC8-ATM"
        ]
        assert crc_bursts and all(v == 1.0 for v in crc_bursts)

    def test_perf_grid_csv(self, tmp_path):
        report = run_experiment("fig11", scale="quick")
        export_report(report, tmp_path)
        path = tmp_path / "fig11_grid.csv"
        assert path.exists()
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {"workload", "scheme", "exec_bus_cycles", "power_w"} <= set(
            rows[0]
        )
        assert any(r["workload"] == "libquantum" for r in rows)

    def test_directory_created(self, fig6_report, tmp_path):
        nested = tmp_path / "a" / "b"
        export_report(fig6_report, nested)
        assert (nested / "fig6.txt").exists()


class TestExportCli:
    def test_cli_export(self, tmp_path, capsys):
        code = main(["export", "table3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "table3.txt") in out
        assert (tmp_path / "table3.txt").exists()

    def test_cli_export_unknown(self, tmp_path):
        assert main(["export", "nope", "--out", str(tmp_path)]) == 2
