"""Tests for the ``repro experiments`` command-line interface."""


import pytest

import repro.sched.core as core
from repro.experiments.cli import ALL_EXPERIMENTS, main


class TestArguments:
    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repro-experiments" in capsys.readouterr().out

    def test_experiment_registry(self):
        assert "table1" in ALL_EXPERIMENTS
        assert "table7" in ALL_EXPERIMENTS
        for fig in ("fig1", "fig4", "fig5", "fig6", "fig7"):
            assert fig in ALL_EXPERIMENTS


class TestExecution:
    def test_population_experiments_share_one_run(self, capsys):
        rc = main(["table7", "fig5", "--blocks", "25", "--curtail", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[population] scheduling") == 1
        assert "Table 7" in out and "Figure 5" in out

    def test_csv_output(self, tmp_path, capsys):
        rc = main(
            ["fig5", "--blocks", "20", "--csv", str(tmp_path), "--seed", "3"]
        )
        assert rc == 0
        csv_path = tmp_path / "fig5.csv"
        assert csv_path.exists()
        assert "bucket_start" in csv_path.read_text()

    def test_non_population_experiment_skips_population(self, capsys):
        rc = main(["table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[population]" not in out
        assert "Table 1" in out

    def test_vector_journal_resumes(self, tmp_path, monkeypatch, capsys):
        """A journal written under the retired ``--engine vector`` still
        resumes under it, and both runs render exactly like ``fast``."""
        journal = str(tmp_path / "run.journal")
        args = ["table7", "--blocks", "12", "--curtail", "4000"]

        def table(out):
            # Everything but the wall time and the journal bookkeeping.
            return [
                line
                for line in out.splitlines()
                if "done in" not in line
                and not line.startswith("[journal]")
                and "resuming" not in line
            ]

        assert main(args + ["--engine", "fast"]) == 0
        fast = table(capsys.readouterr().out)
        monkeypatch.setattr(core, "_alias_warned", False)
        assert main(args + ["--engine", "vector", "--journal", journal]) == 0
        first = capsys.readouterr()
        # Keep the header and five records, as if the run had died.
        with open(journal) as fh:
            lines = fh.readlines()
        with open(journal, "w") as fh:
            fh.writelines(lines[:6])
        assert main(args + ["--engine", "vector", "--resume", journal]) == 0
        resumed = capsys.readouterr()
        assert table(first.out) == fast
        assert "resuming: 5 of 12 blocks recovered" in resumed.out
        assert table(resumed.out) == fast
        notices = first.err + resumed.err
        assert notices.count("engine 'vector' is deprecated") == 1, notices
