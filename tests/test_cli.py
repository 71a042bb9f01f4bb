"""Tests for the command-line interface: outputs, formats, exit codes."""

import csv
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from monopmf import cli, experiments, format_counts, format_pmf, parse_pmf, sample, uniform_pmf
from monopmf.cli import main
from monopmf.pmf import COUNT_STREAM

SRC = Path(__file__).resolve().parents[1] / "src"
TABLE_COUNTS = np.array([20, 14, 11, 22, 15, 18])


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "sample.counts"
    path.write_text(format_counts(TABLE_COUNTS))
    return path


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "uniform5.pmf"
    path.write_text(format_pmf(uniform_pmf(5)))
    return path


class TestEstimate:
    def test_gren_output_matches_worked_example(self, counts_file, tmp_path):
        out = tmp_path / "fit.pmf"
        code = main(["estimate", "--counts", str(counts_file), "--estimator", "gren", "--out", str(out)])
        assert code == 0
        fit = parse_pmf(out.read_text(), monotone=True)
        assert fit.probs == pytest.approx([0.20, 0.16, 0.16, 0.16, 0.16, 0.16], abs=1e-15)

    def test_distance_table_matches_reference(self, counts_file, truth_file, tmp_path, capsys):
        out = tmp_path / "fit.pmf"
        code = main([
            "estimate", "--counts", str(counts_file), "--estimator", "all",
            "--out", str(out), "--truth", str(truth_file),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["estimator", "hellinger", "l1", "l2", "linf"]
        rows = {parts[0]: [float(v) for v in parts[1:]] for parts in (l.split("\t") for l in lines[1:])}
        # columns: hellinger, l1, l2
        assert rows["empirical"][:3] == pytest.approx([0.08043, 0.2, 0.09129], abs=5e-5)
        assert rows["rear"][:3] == pytest.approx([0.08043, 0.2, 0.09129], abs=5e-5)
        assert rows["gren"][:3] == pytest.approx([0.03048, 0.06667, 0.03651], abs=5e-5)

    def test_estimate_files_round_trip(self, counts_file, tmp_path):
        out = tmp_path / "fit.pmf"
        main(["estimate", "--counts", str(counts_file), "--estimator", "all", "--out", str(out)])
        emp = parse_pmf((tmp_path / "fit.empirical.pmf").read_text())
        assert_array_equal(emp.probs, TABLE_COUNTS / 100.0)
        for name in ("empirical", "rear", "gren"):
            fit = parse_pmf((tmp_path / f"fit.{name}.pmf").read_text())
            assert abs(fit.probs.sum() - 1.0) < 1e-12

    def test_rear_with_interior_zeros_trims_tail(self, tmp_path):
        path = tmp_path / "z.counts"
        path.write_text("0\t3\n1\t0\n2\t1\n")
        out = tmp_path / "z.pmf"
        code = main(["estimate", "--counts", str(path), "--estimator", "rear", "--out", str(out)])
        assert code == 0
        fit = parse_pmf(out.read_text())
        assert fit.probs == pytest.approx([0.75, 0.25])

    def test_single_point_counts(self, tmp_path, capsys):
        path = tmp_path / "one.counts"
        path.write_text("0\t5\n")
        code = main(["estimate", "--counts", str(path), "--estimator", "all"])
        assert code == 0
        body = capsys.readouterr().out
        assert body.count("0\t1\n") == 3

    def test_missing_file_exits_2(self, capsys):
        assert main(["estimate", "--counts", "/no/such/file"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_counts_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.counts"
        path.write_text("0\t5\n2\t1\n")
        assert main(["estimate", "--counts", str(path)]) == 2
        assert "invalid counts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "mixing"])
    def test_counts_too_large_for_exact_grenander_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "big.counts"
        path.write_text("".join(f"{x}\t{2**61}\n" for x in range(3)))  # n = 3 * 2^61, n * 3 >= 2^63
        assert main([command, "--counts", str(path), "--estimator", "gren"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"monopmf: invalid counts file {str(path)!r}: gren_counts requires")

    @pytest.mark.parametrize("lines", [
        f"0\t{2**63}\n",  # past int64 on its own
        f"0\t{2**62}\n1\t{2**62}\n",  # sums to 2^63, which would wrap to a negative n
    ], ids=["count", "sum"])
    def test_counts_past_int64_exit_2(self, lines, tmp_path, capsys):
        path = tmp_path / "huge.counts"
        path.write_text(lines)
        assert main(["estimate", "--counts", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"monopmf: invalid counts file {str(path)!r}: counts must sum to less than 2^63, got {2**63}\n"

    def test_missing_truth_writes_no_estimate(self, counts_file, tmp_path, capsys):
        missing = tmp_path / "missing.pmf"
        code = main(["estimate", "--counts", str(counts_file), "--truth", str(missing), "--out", str(tmp_path / "fit.pmf")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"monopmf: cannot read pmf file {str(missing)!r}")
        assert [p.name for p in tmp_path.iterdir()] == [counts_file.name]

    @pytest.mark.parametrize("command", ["estimate", "mixing"])
    def test_non_finite_pmf_exits_2(self, command, counts_file, tmp_path, capsys):
        pmf = tmp_path / "nan.pmf"
        pmf.write_text("0\tnan\n1\t0.5\n")
        args = ["--counts", str(counts_file), "--truth", str(pmf)] if command == "estimate" else ["--pmf", str(pmf)]
        assert main([command, *args]) == 2
        out, err = capsys.readouterr()
        assert "nan" not in out
        assert err == f"monopmf: invalid pmf file {str(pmf)!r}: pmf entries must be finite\n"

    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--counts", "x", "--estimator", "mle"])
        assert err.value.code == 1


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        args = ["simulate", "--truth", "uniform:5", "--n", "100", "--reps", "50",
                "--seed", "7", "--out", str(tmp_path / "runA")]
        assert main(args) == 0
        args[-1] = str(tmp_path / "runB")
        assert main(args) == 0
        for suffix in ("_raw.csv", "_summary.csv"):
            a = (tmp_path / f"runA{suffix}").read_bytes()
            b = (tmp_path / f"runB{suffix}").read_bytes()
            assert a == b

    def test_mixture_truth_spec_parses(self, tmp_path):
        code = main(["simulate", "--truth", "mixture:0.2:3,0.8:7", "--n", "20",
                     "--reps", "5", "--seed", "1", "--out", str(tmp_path / "m")])
        assert code == 0
        meta = json.loads((tmp_path / "m_meta.json").read_text())
        assert meta["truth"] == {"family": "mixture", "weights": [0.2, 0.8], "ys": [3, 7]}

    def test_mixing_target_rows_valid(self, tmp_path):
        code = main(["simulate", "--truth", "geometric:0.75", "--n", "100", "--reps", "30",
                     "--seed", "3", "--target", "mixing", "--estimators", "rear,gren",
                     "--metrics", "l1,l2", "--out", str(tmp_path / "mix")])
        assert code == 0
        with open(tmp_path / "mix_raw.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30 * 2 * 2
        assert all(float(r["value"]) >= 0 for r in rows)

    def test_config_json_alternative(self, tmp_path):
        cfg = {"truth": "uniform:4", "n": 30, "reps": 10, "seed": 2,
               "estimators": ["empirical", "gren"], "metrics": ["l2"], "target": "pmf"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "c")])
        assert code == 0
        meta = json.loads((tmp_path / "c_meta.json").read_text())
        assert meta["estimators"] == ["empirical", "grenander"]

    def test_mixing_empirical_hellinger_exits_1_before_any_replicate(self, tmp_path, capsys):
        code = main(["simulate", "--truth", "uniform:5", "--n", "20", "--reps", "50",
                     "--target", "mixing", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Hellinger" in err
        assert list(tmp_path.iterdir()) == []

    def test_inequality_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        # a broken rearrangement that inflates a large first frequency
        def broken(emp):
            out = emp.copy()
            out[..., 0] = np.where(emp[..., 0] > 0.65, 1.2 * emp[..., 0], emp[..., 0])
            return out

        monkeypatch.setattr(experiments, "rear", broken)
        code = main(["simulate", "--truth", "geometric:0.5", "--n", "50", "--reps", "200",
                     "--seed", "3", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("monopmf: monotone-estimator inequality violated at replicate ")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_truth_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--truth", "zipf:2", "--out", str(tmp_path / "x")])
        assert err.value.code == 1

    def test_missing_truth_and_config_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--out", str(tmp_path / "x")])
        assert err.value.code == 1

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        # a config file is input data, read by the same loader as counts and pmf files
        config = tmp_path / "run.json"
        config.write_bytes(b"\xff\xfe{")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"monopmf: invalid config file {str(config)!r}: 'utf-8' codec")

    @pytest.mark.parametrize("flags", [
        ["--truth", "uniform:5", "--metrics", "l1.23456789,l2"],
        ["--truth", "geometric:0.123456789"],
    ], ids=["metric", "truth"])
    def test_meta_json_reproduces_run(self, flags, tmp_path):
        assert main(["simulate", *flags, "--n", "40", "--reps", "30", "--seed", "5", "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(tmp_path / "a_meta.json"), "--out", str(tmp_path / "b")]) == 0
        for suffix in ("_raw.csv", "_summary.csv", "_meta.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    @pytest.mark.parametrize("content", [
        {"truth": {"family": "uniform", "y": None}},
        {"truth": {"family": "geometric", "theta": [0.5]}},
        {"truth": {"family": "nope"}},
        {"truth": {"family": "uniform", "y": -3}},
        {"truth": {"family": "mixture", "weights": [1]}},
        {"seed": -1},
        {"seed": 2**64},
        {"estimators": [1]},
        # integer fields are checked, not truncated
        {"n": 1.9, "reps": 2.5, "seed": 3.7},
        {"n": 1.9},
        {"reps": 2.5},
        {"seed": 3.7},
        {"truth": {"family": "mixture", "weights": [0.5, 0.5], "ys": [1.7, 3.2]}},
        {"n": True},
        {"reps": "3"},
        {"truth": {"family": "uniform", "y": 5.5}},
        # real fields are numbers, not strings or bools
        {"truth": {"family": "geometric", "theta": "0.5"}},
        {"truth": {"family": "geometric", "theta": False}},
        {"truth": {"family": "geometric", "theta": 0.5, "tail_tol": "1e-9"}},
        {"truth": {"family": "mixture", "weights": ["0.5", "0.5"], "ys": [1, 3]}},
        # fields of another family
        {"truth": {"family": "uniform", "y": 3, "weights": [1.0]}},
        {"truth": {"family": "uniform", "y": 3, "theta": 0.5}},
    ])
    def test_bad_config_content_exits_2(self, content, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"truth": "uniform:3", "n": 10, "reps": 5, **content}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"monopmf: invalid config file {str(config)!r}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_integral_config_numbers_run_as_ints(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"truth": {"family": "uniform", "y": 5.0}, "n": 1e1, "reps": 4.0, "seed": 2.0}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        flags = ["--truth", "uniform:5", "--n", "10", "--reps", "4", "--seed", "2"]
        assert main(["simulate", *flags, "--out", str(tmp_path / "b")]) == 0
        for suffix in ("_raw.csv", "_summary.csv", "_meta.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    @pytest.mark.parametrize("flags,name", [
        (["--truth", "uniform:3"], "--truth"),
        (["--n", "100"], "--n"),
        (["--reps", "1000"], "--reps"),
        (["--seed", "0"], "--seed"),
        (["--se=9"], "--seed"),
        (["--target", "pmf"], "--target"),
        (["--estimators", "empirical,rearrangement,grenander"], "--estimators"),
        (["--metrics", "hellinger,l1,l2"], "--metrics"),
    ])
    def test_config_flags_with_config_exit_1(self, flags, name, tmp_path, capsys):
        # a flag next to --config is refused even when it repeats the default
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"truth": "uniform:3", "n": 10, "reps": 5}))
        assert main(["simulate", "--config", str(config), *flags, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"monopmf: {name} cannot be combined with --config\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_run_too_large_for_memory_exits_1(self, tmp_path, capsys):
        # the distances of 10^17 replicates (6.25 EiB) cannot be allocated anywhere
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"truth": "uniform:3", "n": 10, "reps": 10**17}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("monopmf: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command", ["simulate", "risk"])
    def test_sample_size_of_2_63_exits_1(self, command, tmp_path, capsys):
        n = 2**63
        if command == "simulate":
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"truth": "uniform:3", "n": n, "reps": 1}))
            argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "x")]
        else:
            argv = ["risk", "--truth", "uniform:3", "--n", str(n), "--reps", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"monopmf: sample size n must lie in [1, 2^63), got {n}\n"
        assert [p.name for p in tmp_path.iterdir()] == (["run.json"] if command == "simulate" else [])

    @pytest.mark.parametrize("content,message", [
        ({"truth": {"family": "mixture", "weights": 3, "ys": [1]}, "n": 10, "reps": 5},
         "weights must be a list with one value per component, got 3"),
        ({"truth": {"family": "mixture", "weights": [1.0], "ys": 3}, "n": 10, "reps": 5},
         "ys must be a list with one value per component, got 3"),
        ({"truth": "uniform:3", "n": 10, "reps": 5, "estimators": "gren"},
         "estimators must be a list of estimator names, got 'gren'"),
        ({"truth": "uniform:3", "n": 10, "reps": 5, "metrics": "l1"},
         "metrics must be a list of metric names, got 'l1'"),
        ({"truth": "uniform:3", "n": 10, "reps": 5, "estimators": [3]},
         "estimators must be a list of estimator names, got [3]"),
        ({"truth": 3, "n": 10, "reps": 5}, "truth must be a spec string or an object, got 3"),
        ({"truth": "uniform:3", "reps": 5}, "missing field 'n'"),
        ([1, 2], "the config must be a JSON object, got list"),
        ("uniform:3", "the config must be a JSON object, got str"),
        ({"truth": {"y": 3}, "n": 10, "reps": 5}, "truth needs a 'family'"),
        ({"truth": {"family": "uniform", "y": 3, "foo": 1}, "n": 10, "reps": 5}, "unknown truth field 'foo'"),
        ({"truth": "uniform:3", "n": 10, "reps": 5, "estimators": ["gren", "rear", "Grenander"]},
         "estimator 'grenander' given more than once"),
        ({"truth": "uniform:3", "n": 10, "reps": 5, "metrics": ["l2", "l1", "l1.0"]}, "metric 'l1' given more than once"),
    ], ids=["weights", "ys", "estimators-str", "metrics-str", "estimators-int", "truth-int", "no-n", "list", "str",
            "truth-no-family", "truth-unknown-field", "estimators-repeated", "metrics-repeated"])
    def test_config_fault_names_the_field(self, content, message, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(content))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"monopmf: invalid config file {str(config)!r}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("flag,value,message", [
        ("--estimators", "gren,rear,grenander", "estimator 'grenander' given more than once"),
        ("--metrics", "l2,l1,l1.0", "metric 'l1' given more than once"),
    ], ids=["estimators", "metrics"])
    def test_repeated_estimator_or_metric_exits_1(self, flag, value, message, tmp_path, capsys, monkeypatch):
        # a repeat would write every one of its rows twice
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("run_experiment ran on a repeat"))
        assert main(["simulate", "--truth", "uniform:3", flag, value, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"monopmf: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,work,first", [
        (["limits", "--truth", "uniform:3", "--reps", "3"], "draw_limit_batch", "x_draws.csv"),
        (["simulate", "--truth", "uniform:3", "--reps", "3"], "run_experiment", "x_raw.csv"),
    ], ids=["limits", "simulate"])
    def test_unwritable_output_exits_1(self, argv, work, first, tmp_path, capsys, monkeypatch):
        # the output directory is checked before any replicate or draw is made
        monkeypatch.setattr(cli, work, lambda *args: pytest.fail(f"{work} ran before --out was checked"))
        code = main([*argv, "--out", str(tmp_path / "missing" / "x")])
        assert code == 1
        path = str(tmp_path / "missing" / first)
        assert capsys.readouterr().err == f"monopmf: cannot write {path!r}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []


class TestOtherCommands:
    def test_asymptotics_values(self, capsys):
        assert main(["asymptotics", "--truth", "uniform:5"]) == 0
        table = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
            if "\t" in line and not line[0].isdigit()
        )
        assert float(table["e_sq_l2_emp"]) == pytest.approx(0.833333, abs=1e-5)
        assert float(table["e_sq_l2_gren"]) == pytest.approx(0.241667, abs=1e-5)
        assert float(table["e_hell_gren"]) == pytest.approx(1.45, abs=1e-5)

    def test_asymptotics_block_gap_identity(self, capsys):
        assert main(["asymptotics", "--truth", "uniform:5"]) == 0
        out = capsys.readouterr().out
        table = dict(line.split("\t", 1) for line in out.strip().splitlines() if "\t" in line and not line[0].isdigit())
        gap = float(table["e_sq_l2_emp"]) - float(table["e_sq_l2_gren"])
        assert float(table["l2_sq_gap"]) == pytest.approx(gap, abs=1e-5)
        assert "0\t5\t" in out  # single block [0, 5]

    def test_asymptotics_strict_gap_zero(self, capsys):
        assert main(["asymptotics", "--truth", "mixture:0.5:0,0.3:1,0.2:2"]) == 0
        table = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
            if "\t" in line and not line[0].isdigit()
        )
        assert float(table["l2_sq_gap"]) == pytest.approx(0.0, abs=1e-12)

    def test_asymptotics_strictly_decreasing_tail_gap_is_exactly_zero(self, capsys):
        assert main(["asymptotics", "--truth", "geometric:0.75"]) == 0
        out = capsys.readouterr().out
        assert "\nl2_sq_gap\t0\n" in out
        assert "\ne_hell_gren\t96\n" in out

    @pytest.mark.parametrize("truth", ["uniform:10000000000000", "geometric:0.999999999999", "mixture:1:10000000000000"])
    def test_oversized_support_exits_1(self, truth, capsys):
        # rejected before the arrays (tens of TiB) are allocated
        assert main(["asymptotics", "--truth", truth]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("monopmf: support of ") and "exceeds the limit of 10000000" in err

    @pytest.mark.parametrize(
        "truth",
        [
            "mixture:1:100000000000000000000000000",
            "mixture:1:-100000000000000000000000000",
            "mixture:0.5:3,0.5:100000000000000000000000000",
        ],
    )
    def test_mixture_component_past_int64_exits_1(self, truth, capsys):
        assert main(["asymptotics", "--truth", truth]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("monopmf: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_risk_seed_outside_64_bits_exits_1(self, seed, capsys):
        assert main(["risk", "--truth", "uniform:3", "--n", "20", "--reps", "5", "--seed", seed]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"monopmf: seed must be a 64-bit unsigned integer, got {seed}\n"

    @pytest.mark.parametrize("k", ["2", "inf", "1.5", "1.23456789"])
    def test_risk_k_line_reads_back(self, k, capsys):
        assert main(["risk", "--truth", "uniform:2", "--n", "10", "--k", k, "--reps", "3"]) == 0
        assert f"\nk\t{k}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("truth", ["geometric:0.123456789", "geometric:0.75", "mixture:1:3"])
    def test_asymptotics_truth_line_reads_back(self, truth, capsys):
        assert main(["asymptotics", "--truth", truth]) == 0
        assert capsys.readouterr().out.startswith(f"truth\t{truth}\n")

    def test_risk_output(self, capsys):
        code = main(["risk", "--truth", "uniform:2", "--n", "50", "--k", "2",
                     "--estimator", "empirical", "--reps", "2000", "--seed", "4"])
        assert code == 0
        table = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        target = 1 - 3 * (1 / 3) ** 2
        assert float(table["scaled_risk"]) == pytest.approx(target, rel=0.05)

    def test_limits_csv(self, tmp_path):
        code = main(["limits", "--truth", "mixture:0.2:3,0.8:7", "--reps", "40",
                     "--seed", "6", "--out", str(tmp_path / "lim")])
        assert code == 0
        with open(tmp_path / "lim_draws.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40 * 8
        assert set(rows[0]) == {"draw", "x", "y", "y_rear", "y_gren"}
        with open(tmp_path / "lim_aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        assert len(agg) == 8

    def test_mixing_from_pmf_file(self, tmp_path, capsys):
        path = tmp_path / "p.pmf"
        path.write_text(format_pmf(uniform_pmf(5)))
        assert main(["mixing", "--pmf", str(path)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        weights = np.array([float(l.split("\t")[1]) for l in lines])
        assert weights == pytest.approx([0, 0, 0, 0, 0, 1], abs=1e-15)

    def test_mixing_from_counts(self, counts_file, tmp_path):
        out = tmp_path / "q.txt"
        code = main(["mixing", "--counts", str(counts_file), "--estimator", "gren", "--out", str(out)])
        assert code == 0
        weights = np.array([float(l.split("\t")[1]) for l in out.read_text().splitlines()])
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= -1e-15)

    @pytest.mark.parametrize("source", ["counts", "pmf"])
    def test_mixing_prints_no_negative_zero(self, source, counts_file, tmp_path, capsys):
        # a weight inside a flat stretch of the pmf is +0.0: gren pools the worked example's
        # counts into flat blocks, and a uniform pmf is one flat stretch
        path = tmp_path / "p.pmf"
        path.write_text(format_pmf(uniform_pmf(5)))
        assert main(["mixing", f"--{source}", str(counts_file if source == "counts" else path)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        values = [l.split("\t")[1] for l in lines]
        assert "0" in values and "-0" not in values

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_one_version_everywhere(self, capsys, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with pytest.raises(SystemExit):
            main(["--version"])
        flag = capsys.readouterr().out.split()
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]["version"]
        assert main(["simulate", "--truth", "uniform:3", "--n", "10", "--reps", "2", "--out", str(tmp_path / "v")]) == 0
        meta = json.loads((tmp_path / "v_meta.json").read_text())["version"]
        assert flag == ["monopmf", project] and meta == project

    def test_meta_records_count_stream(self, tmp_path):
        assert main(["simulate", "--truth", "uniform:3", "--n", "10", "--reps", "2", "--out", str(tmp_path / "v")]) == 0
        assert json.loads((tmp_path / "v_meta.json").read_text())["count_stream"] == COUNT_STREAM == 2


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        path = tmp_path / "one.counts"
        path.write_text("0\t2\n1\t1\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "monopmf", "estimate", "--counts", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "empirical" in proc.stdout


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_outputs_honour_umask(self, umask, counts_file, tmp_path):
        old = os.umask(umask)
        try:
            assert main(["simulate", "--truth", "uniform:3", "--n", "10", "--reps", "5",
                         "--out", str(tmp_path / "run")]) == 0
            assert main(["estimate", "--counts", str(counts_file), "--estimator", "gren",
                         "--out", str(tmp_path / "fit.pmf")]) == 0
        finally:
            os.umask(old)
        for name in ("run_raw.csv", "run_summary.csv", "run_meta.json", "fit.pmf"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name


# bit patterns: 0.0, -0.0, inf, -inf, NaN, -NaN, a NaN with a payload, a
# signalling NaN, the smallest subnormal, minus the largest subnormal, 1.0
_EDGE_FLOATS = np.array([
    0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF8000000000001, 0x7FF0000000000001, 0x1, 0x800FFFFFFFFFFFFF, 0x3FF0000000000000,
], dtype=np.uint64).view(np.float64).tolist()


@st.composite
def float_tables(draw):
    """A (rows, m) float array with repeated entries, or a strided or transposed view of one."""
    rows, m = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), min_size=1, max_size=6))
    a = np.array(draw(st.lists(st.sampled_from(pool), min_size=rows * m, max_size=rows * m)), dtype=np.float64)
    a = a.reshape(rows, m)
    view = draw(st.sampled_from(["c", "strided", "reversed", "transposed"]))
    return {"c": a, "strided": a[::2, ::2], "reversed": a[:, ::-1], "transposed": a.T}[view]


class TestFormatFloats:
    @settings(max_examples=300, deadline=None)
    @given(float_tables())
    def test_equals_per_value_format(self, a):
        assert cli._format_floats(a).ravel().tolist() == ["%.17g" % v for v in a.ravel().tolist()]


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_per_line_format(self, data):
        records = data.draw(st.integers(0, 25), label="records")
        mids = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=5), label="mids")
        m = data.draw(st.sampled_from([1, 3]), label="fields")
        rows = data.draw(st.sampled_from([1, 7, 40, 10**6]), label="piece")
        pool = data.draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), min_size=1, max_size=6))
        size = records * len(mids)
        columns = [np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
                            dtype=np.float64).reshape(records, len(mids)) for _ in range(m)]
        expected = "h\r\n" + "".join(
            f"{i}{mid}" + ",".join("%.17g" % c[i, j] for c in columns) + "\r\n"
            for i in range(records) for j, mid in enumerate(mids)
        )
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CSV_CHUNK_ROWS", rows)
            path = os.path.join(tmp, "t.csv")
            cli._write_table(path, "h\r\n", mids, columns)
            with open(path, "rb") as fh:
                assert fh.read() == expected.encode("utf-8")
