"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.mechanism import Mechanism


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_arguments(self):
        args = build_parser().parse_args(
            ["design", "--n", "8", "--alpha", "0.9", "--properties", "F"]
        )
        assert args.command == "design"
        assert args.n == 8 and args.alpha == 0.9 and args.properties == "F"


class TestDesignCommand:
    def test_design_prints_profile(self, capsys):
        exit_code = main(["design", "--n", "4", "--alpha", "0.8", "--properties", "WH"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "L0=" in output
        assert "WH=yes" in output

    def test_design_with_selector_reports_branch(self, capsys):
        exit_code = main(
            ["design", "--n", "6", "--alpha", "0.9", "--properties", "F", "--use-selector"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "EM" in output

    def test_design_heatmap_and_matrix(self, capsys):
        main(["design", "--n", "3", "--alpha", "0.7", "--heatmap", "--matrix"])
        output = capsys.readouterr().out
        assert "out  0" in output  # heatmap rows
        assert "i=0" in output  # matrix rows

    def test_design_save_round_trips(self, tmp_path, capsys):
        path = tmp_path / "mechanism.json"
        main(["design", "--n", "4", "--alpha", "0.85", "--properties", "all", "--save", str(path)])
        payload = json.loads(path.read_text())
        mechanism = Mechanism.from_dict(payload)
        assert mechanism.n == 4
        assert "saved mechanism" in capsys.readouterr().out

    def test_design_with_output_alpha(self, capsys):
        exit_code = main(
            ["design", "--n", "4", "--alpha", "0.8", "--output-alpha", "0.8"]
        )
        assert exit_code == 0


class TestCompareCommand:
    def test_compare_table_lists_named_mechanisms(self, capsys):
        exit_code = main(["compare", "--n", "4", "--alpha", "0.9"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("GM", "WM", "EM", "UM"):
            assert name in output
        assert "truth prob" in output

    def test_compare_with_heatmaps(self, capsys):
        main(["compare", "--n", "3", "--alpha", "0.6", "--heatmap"])
        output = capsys.readouterr().out
        assert output.count("out  0") == 4


class TestReleaseCommand:
    def test_release_inline_counts(self, capsys):
        exit_code = main(
            [
                "release",
                "--mechanism", "EM",
                "--n", "8",
                "--alpha", "0.9",
                "--counts", "3", "5", "2",
                "--seed", "1",
            ]
        )
        assert exit_code == 0
        values = [int(v) for v in capsys.readouterr().out.split()]
        assert len(values) == 3
        assert all(0 <= v <= 8 for v in values)

    def test_release_is_reproducible_with_seed(self, capsys):
        arguments = [
            "release", "--mechanism", "GM", "--n", "6", "--alpha", "0.8",
            "--counts", "1", "2", "3", "--seed", "7",
        ]
        main(arguments)
        first = capsys.readouterr().out
        main(arguments)
        second = capsys.readouterr().out
        assert first == second

    def test_release_from_file_to_file(self, tmp_path, capsys):
        counts_path = tmp_path / "counts.txt"
        counts_path.write_text("0\n4\n8\n")
        output_path = tmp_path / "released.txt"
        main(
            [
                "release", "--mechanism", "UM", "--n", "8", "--alpha", "0.5",
                "--counts-file", str(counts_path),
                "--output", str(output_path),
                "--seed", "3",
            ]
        )
        released = [int(line) for line in output_path.read_text().splitlines()]
        assert len(released) == 3
        assert "wrote 3 released counts" in capsys.readouterr().out

    def test_release_from_saved_mechanism(self, tmp_path, capsys):
        path = tmp_path / "mechanism.json"
        main(["design", "--n", "5", "--alpha", "0.8", "--properties", "F", "--save", str(path)])
        capsys.readouterr()
        main(["release", "--load", str(path), "--counts", "2", "4", "--seed", "0"])
        values = [int(v) for v in capsys.readouterr().out.split()]
        assert len(values) == 2 and all(0 <= v <= 5 for v in values)

    def test_release_validates_inputs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["release", "--mechanism", "GM", "--counts", "1"])  # missing n/alpha
        with pytest.raises(SystemExit):
            main(["release", "--mechanism", "GM", "--n", "4", "--alpha", "0.5"])  # no counts
        with pytest.raises(SystemExit):
            main(
                ["release", "--mechanism", "GM", "--n", "4", "--alpha", "0.5",
                 "--counts", "9"]
            )  # out of range


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("design --n 8 --alpha 0.9 --properties XX", "unknown structural property"),
            ("design --n 8 --alpha 1.5", "alpha must lie in [0, 1]"),
            ("compare --n 8 --alpha 2", "alpha must lie in [0, 1]"),
            ("release --mechanism FOO --n 8 --alpha 0.9 --counts 1", "unknown mechanism 'FOO'"),
            ("release --load /nonexistent.json --counts 1", "cannot read /nonexistent.json"),
        ],
    )
    def test_error_paths_exit_cleanly(self, argv, message):
        """Bad input ends in a one-line SystemExit message, never a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        text = excinfo.value.code
        assert isinstance(text, str) and "\n" not in text
        assert message in text


class TestExperimentsCommand:
    def test_experiments_subcommand_runs_fast_subset(self, capsys, tmp_path):
        exit_code = main(
            ["experiments", "--fast", "--only", "figure-6", "--csv-dir", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "figure-6.csv").exists()
        assert "figure-6" in capsys.readouterr().out
