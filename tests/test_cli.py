"""Tests for the command-line interface: outputs, formats, exit codes."""

import csv
import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from monopmf import cli, experiments, parse_pmf, rng, uniform_pmf
from monopmf.cli import main
from monopmf.pmf import COUNT_STREAM
from references import RECORDED, format_counts, format_pmf

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
        fit = parse_pmf(out.read_text())
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
        assert capsys.readouterr().err == (
            f"monopmf: invalid counts file {str(path)!r}: "
            f"the Grenander estimator needs n * (K+1) < 2^63, got n = {3 * 2**61} and K+1 = 3\n"
        )

    def test_counts_at_the_exact_grenander_bound(self, tmp_path, capsys):
        # n = (2^63 - 1) // (K+1) is the largest total the exact Grenander takes
        top = (2**63 - 1) // 3
        path = tmp_path / "edge.counts"
        path.write_text(f"0\t{top - 1}\n1\t0\n2\t1\n")
        assert main(["estimate", "--counts", str(path), "--estimator", "gren"]) == 0
        path.write_text(f"0\t{top}\n1\t0\n2\t1\n")
        assert main(["estimate", "--counts", str(path), "--estimator", "gren"]) == 2
        assert capsys.readouterr().err == (
            f"monopmf: invalid counts file {str(path)!r}: "
            f"the Grenander estimator needs n * (K+1) < 2^63, got n = {top + 1} and K+1 = 3\n"
        )

    @pytest.mark.parametrize("lines,shown", [
        (f"0\t{2**63}\n", str(2**63)),  # past int64 on its own
        (f"0\t{2**62}\n1\t{2**62}\n", str(2**63)),  # sums to 2^63, which would wrap to a negative n
        ("0\t" + "9" * 4000 + "\n", "a 13288-bit integer"),  # an n past 128 bits is named by its bit length
        ("0\t" + "9" * 4300 + "\n1\t" + "9" * 4300 + "\n", "a 14286-bit integer"),  # 4301 digits: no str()
    ], ids=["count", "sum", "4000-digits", "4301-digits"])
    def test_counts_past_int64_exit_2(self, lines, shown, tmp_path, capsys):
        path = tmp_path / "huge.counts"
        path.write_text(lines)
        assert main(["estimate", "--counts", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"monopmf: invalid counts file {str(path)!r}: sample size n must lie in [1, 2^63), got {shown}\n"

    @pytest.mark.parametrize("line", [
        "0\t" + "7" * 5000,  # a count past Python's 4300-digit limit for int()
        "0\t1.5" + "0" * 5000,  # a count that is no integer
        "x" * 5000 + "\t1",  # a bad support point
    ], ids=["digits", "value", "point"])
    def test_long_bad_field_gives_one_short_line(self, line, tmp_path, capsys):
        # the message quotes the bad field cut to 30 characters around '...'
        path = tmp_path / "long.counts"
        path.write_text(line + "\n")
        assert main(["estimate", "--counts", str(path)]) == 2
        err = capsys.readouterr().err
        prefix = f"monopmf: invalid counts file {str(path)!r}: counts line 1: bad "
        assert err.startswith(prefix) and err.count("\n") == 1 and "..." in err
        assert len(err) <= len(prefix) + len("support point ") + 31

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

    @pytest.mark.parametrize("argv,first", [
        (["estimate"], "x.empirical.pmf"),
        (["estimate", "--estimator", "gren"], "x.pmf"),
        (["mixing"], "x.empirical.pmf"),
        (["mixing", "--estimator", "rear"], "x.pmf"),
    ], ids=["estimate-all", "estimate-gren", "mixing-all", "mixing-rear"])
    def test_unwritable_output_exits_1_before_any_estimate(self, argv, first, counts_file, tmp_path, capsys,
                                                           monkeypatch):
        # --out is checked once the counts are read and checked, before any estimate is made
        for module in (cli, experiments):
            monkeypatch.setattr(module, "estimate", lambda *args: pytest.fail("estimate ran before --out was checked"))
        code = main([*argv, "--counts", str(counts_file), "--out", str(tmp_path / "missing" / "x.pmf")])
        assert code == 1
        path = str(tmp_path / "missing" / first)
        assert capsys.readouterr().err == f"monopmf: cannot write {path!r}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["estimate", "mixing"])
    def test_invalid_counts_with_unwritable_output_exit_2(self, command, tmp_path, capsys):
        # the counts are checked first, also against the exact Grenander's int64 bound
        path = tmp_path / "big.counts"
        path.write_text("".join(f"{x}\t{2**61}\n" for x in range(3)))
        code = main([command, "--counts", str(path), "--out", str(tmp_path / "missing" / "x.pmf")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"monopmf: invalid counts file {str(path)!r}: "
            f"the Grenander estimator needs n * (K+1) < 2^63, got n = {3 * 2**61} and K+1 = 3\n"
        )

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

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("target", ["pmf", "mixing"])
    def test_grenander_past_2_63_exits_1_before_any_block(self, source, target, tmp_path, capsys, monkeypatch):
        # n*(K+1) >= 2^63 is past the exact Grenander's int64 cross products; the
        # run used to sample a block first and then fail inside gren_counts
        def unreachable(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(experiments, "sample_counts", unreachable)
        flags = {"truth": "uniform:999999", "n": 10**13, "reps": 5, "target": target, "estimators": ["rear", "gren"]}
        where = ""
        if source == "config":
            (tmp_path / "run.json").write_text(json.dumps(flags))
            args = ["--config", str(tmp_path / "run.json")]
            where = f"invalid config file {str(tmp_path / 'run.json')!r}: "
        else:
            args = [f"--{key}={','.join(value) if isinstance(value, list) else value}" for key, value in flags.items()]
        # a config file's sample size is checked where the file is read: invalid data, exit 2
        assert main(["simulate", *args, "--out", str(tmp_path / "big")]) == (2 if source == "config" else 1)
        out, err = capsys.readouterr()
        assert out == "" and list(tmp_path.glob("big*")) == []
        message = "the Grenander estimator needs n * (K+1) < 2^63, got n = 10000000000000 and K+1 = 1000000"
        assert err == f"monopmf: {where}{message}\n"

    def test_config_json_alternative(self, tmp_path):
        cfg = {"truth": "uniform:4", "n": 30, "reps": 10, "seed": 2,
               "estimators": ["empirical", "gren"], "metrics": ["l2"], "target": "pmf"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "c")])
        assert code == 0
        meta = json.loads((tmp_path / "c_meta.json").read_text())
        assert meta["estimators"] == ["empirical", "grenander"]

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_truth_pmf_is_built_once(self, source, tmp_path, monkeypatch):
        # checking a config file builds its truth, and the run takes that pmf, not a second one
        built = []
        to_pmf = experiments.TruthSpec.to_pmf
        monkeypatch.setattr(experiments.TruthSpec, "to_pmf", lambda spec: built.append(spec) or to_pmf(spec))
        (tmp_path / "cfg.json").write_text(json.dumps({"truth": "mixture:0.2:3,0.8:7", "n": 30, "reps": 10}))
        args = {"flags": ["--truth", "mixture:0.2:3,0.8:7", "--n", "30", "--reps", "10"],
                "config": ["--config", str(tmp_path / "cfg.json")]}[source]
        assert main(["simulate", *args, "--out", str(tmp_path / "c")]) == 0
        assert len(built) == 1

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

    def test_unknown_metric_label_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--truth", "uniform:3", "--metrics", "l0.5", "--out", str(tmp_path / "x")])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith("monopmf simulate: error: argument --metrics: unknown metric label 'l0.5'\n")
        assert list(tmp_path.iterdir()) == []

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
        # values the family's constructor rejects
        {"truth": {"family": "geometric", "theta": 0.5, "tail_tol": 2}},
        {"truth": {"family": "mixture", "weights": [0, 1], "ys": [3, 7]}},
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

    @pytest.mark.parametrize("flags,name", [(["--seed", "3", "--n", "5"], "--seed"), (["--n", "5", "--seed", "3"], "--n")])
    def test_config_conflict_names_the_first_flag_given(self, flags, name, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"truth": "uniform:3", "n": 10, "reps": 5}))
        assert main(["simulate", *flags, "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"monopmf: {name} cannot be combined with --config\n"

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
        # a flag's n is a usage error; a config file's is invalid data (test_config_fault_names_the_field)
        n = 2**63
        argv = [command, "--truth", "uniform:3", "--n", str(n), "--reps", "2"]
        assert main(argv + (["--out", str(tmp_path / "x")] if command == "simulate" else [])) == 1
        err = capsys.readouterr().err
        assert err == f"monopmf: sample size n must lie in [1, 2^63), got {n}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content,message", [
        ({"truth": {"family": "mixture", "weights": 3, "ys": [1]}, "n": 10, "reps": 5},
         "weights must be a list with one value per component, got 3"),
        ({"truth": {"family": "mixture", "weights": [1.0], "ys": 3}, "n": 10, "reps": 5},
         "ys must be a list with one value per component, got 3"),
        ({"truth": {"family": "mixture", "weights": [float("nan"), 1.0], "ys": [1, 2]}, "n": 10, "reps": 5},
         "mixture weights must be positive"),  # json.dumps writes the NaN as NaN, which json.loads reads
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
        ({"truth": "uniform:3", "n": 1e20, "reps": 2}, "sample size n must lie in [1, 2^63), got 100000000000000000000"),
        ({"truth": "uniform:3", "n": 2**63, "reps": 2}, "sample size n must lie in [1, 2^63), got 9223372036854775808"),
        ({"truth": "uniform:3", "n": 2**62, "reps": 2},
         "the Grenander estimator needs n * (K+1) < 2^63, got n = 4611686018427387904 and K+1 = 4"),
    ], ids=["weights", "ys", "weights-nan", "estimators-str", "metrics-str", "estimators-int", "truth-int", "no-n",
            "list", "str", "truth-no-family", "truth-unknown-field", "estimators-repeated", "metrics-repeated",
            "n-1e20", "n-2^63", "grenander-bound"])
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
        (["limits", "--truth", "uniform:3", "--reps", "3"], "_draw_limit_blocks", "x_draws.csv"),
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

    def test_mixture_nan_weight_exits_1(self, capsys):
        assert main(["asymptotics", "--truth", "mixture:nan:1,1:2"]) == 1
        assert capsys.readouterr() == ("", "monopmf: mixture weights must be positive\n")

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

    def test_risk_single_replicate_exits_1(self, capsys):
        assert main(["risk", "--truth", "uniform:3", "--n", "10", "--reps", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "monopmf: risk estimation needs at least two replicates\n"

    def test_risk_scale_overflow_exits_1_before_any_replicate(self, capsys, monkeypatch):
        # n^(k/2) = 10^500 is past the largest float, so scaled_risk cannot be printed
        monkeypatch.setattr(cli, "estimate_risk", None)  # a replicate would call it
        assert main(["risk", "--truth", "uniform:3", "--n", "100000", "--k", "200", "--reps", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "monopmf: the scale n^(k/2) overflows a float at n = 100000, k = 200\n"

    def test_risk_grenander_past_2_63_exits_1_before_any_block(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(experiments, "sample_counts", unreachable)
        assert main(["risk", "--truth", "uniform:999999", "--n", str(10**13), "--reps", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "monopmf: the Grenander estimator needs n * (K+1) < 2^63, got n = 10000000000000 and K+1 = 1000000\n"

    def test_risk_output(self, capsys):
        code = main(["risk", "--truth", "uniform:2", "--n", "50", "--k", "2",
                     "--estimator", "empirical", "--reps", "2000", "--seed", "4"])
        assert code == 0
        table = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        target = 1 - 3 * (1 / 3) ** 2
        assert float(table["scaled_risk"]) == pytest.approx(target, rel=0.05)

    def test_limits_csv(self, tmp_path):
        # 5000 draws of 10 points are three whole blocks and a short fourth, each fed to the aggregate as
        # it comes; every mean still has the bits of np.mean over the whole column of _draws.csv
        reps, height = 5000, rng._block_height(10)
        assert 2 * height < reps and reps % height
        assert main(["limits", "--truth", "uniform:9", "--reps", str(reps), "--seed", "6",
                     "--out", str(tmp_path / "lim")]) == 0
        with open(tmp_path / "lim_draws.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == reps * 10
        assert list(rows[0]) == ["draw", "x", "y", "y_rear", "y_gren"]
        with open(tmp_path / "lim_aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        assert [row["x"] for row in agg] == [str(x) for x in range(10)]
        for name in ("y", "y_rear", "y_gren"):
            draws = np.array([float(row[name]) for row in rows]).reshape(reps, 10)
            for x, row in enumerate(agg):
                column = np.ascontiguousarray(draws[:, x])
                assert float(row[f"mean_{name}"]).hex() == np.mean(column).hex()
                assert float(row[f"mean_sq_{name}"]).hex() == np.mean(column * column).hex()
        p = uniform_pmf(9).probs
        assert [float(row["var_limit"]).hex() for row in agg] == [float(v).hex() for v in p * (1.0 - p)]

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
        assert flag == ["monopmf", project] and meta == project == RECORDED["version"]

    def test_meta_records_count_stream(self, tmp_path):
        assert main(["simulate", "--truth", "uniform:3", "--n", "10", "--reps", "2", "--out", str(tmp_path / "v")]) == 0
        assert json.loads((tmp_path / "v_meta.json").read_text())["count_stream"] == COUNT_STREAM == RECORDED["count_stream"]


class TestInputRules:
    """Each rule on a sample's size is stated once, so every command that meets it prints the same text,
    after the name of the file that broke it where one did."""

    BOUND = f"the Grenander estimator needs n * (K+1) < 2^63, got n = {2**62} and K+1 = 3"
    EMPTY = "sample size n must lie in [1, 2^63), got 0"
    AT_BOUND = f"0\t{2**62 - 1}\n1\t0\n2\t1\n"

    @pytest.mark.parametrize("message,argv,data,code", [
        (BOUND, ["simulate", "--truth", "uniform:2", "--n", str(2**62), "--out", "{dir}/x"], None, 1),
        (BOUND, ["simulate", "--config", "{file}", "--out", "{dir}/x"],
         json.dumps({"truth": "uniform:2", "n": 2**62, "reps": 2}), 2),
        (BOUND, ["risk", "--truth", "uniform:2", "--n", str(2**62), "--reps", "2"], None, 1),
        (BOUND, ["estimate", "--counts", "{file}"], AT_BOUND, 2),
        (BOUND, ["mixing", "--counts", "{file}"], AT_BOUND, 2),
        (EMPTY, ["simulate", "--truth", "uniform:2", "--n", "0", "--out", "{dir}/x"], None, 1),
        (EMPTY, ["risk", "--truth", "uniform:2", "--n", "0", "--reps", "2"], None, 1),
        (EMPTY, ["estimate", "--counts", "{file}"], "0\t0\n", 2),
    ], ids=["bound-simulate-n", "bound-simulate-config", "bound-risk", "bound-estimate", "bound-mixing",
            "empty-simulate-n", "empty-risk", "empty-counts"])
    def test_each_rule_prints_one_line_everywhere(self, message, argv, data, code, tmp_path, capsys):
        path = tmp_path / "input"
        if data is not None:
            path.write_text(data)
        assert main([arg.format(dir=tmp_path, file=path) for arg in argv]) == code
        out, err = capsys.readouterr()
        where = "" if data is None else f"invalid {'config' if argv[0] == 'simulate' else 'counts'} file {str(path)!r}: "
        assert out == "" and err == f"monopmf: {where}{message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([] if data is None else ["input"])


class TestSequenceFiles:
    """The pmf and weight lines of estimate and mixing, on stdout and in --out files, have the bytes of
    the per-value reference format."""

    @staticmethod
    def expected(command, counts):
        """{name: the reference text} of each estimator's sequence for `counts`."""
        out = {}
        for kind, name in experiments._SHORT_NAMES.items():
            values = np.trim_zeros(experiments.estimate(kind, counts), "b")
            out[name] = format_pmf(values if command == "estimate" else cli.mixing_estimate(values))
        return out

    @staticmethod
    def lines(text):
        """The lines of `text`, ends kept: a failed comparison of two lists names the first line that
        differs at once, where one of two long strings runs a slow character diff."""
        return text.splitlines(keepends=True)

    @pytest.mark.parametrize("command", ["estimate", "mixing"])
    def test_wider_than_one_piece(self, command, tmp_path, capsys):
        counts = np.arange(20000, 0, -1)  # 20000 lines, past one piece of _CSV_CHUNK_ROWS
        path = tmp_path / "wide.counts"
        path.write_text(format_counts(counts))
        expected = self.expected(command, counts)
        lines = self.lines
        assert main([command, "--counts", str(path)]) == 0
        assert lines(capsys.readouterr().out) == lines("".join(f"# {name}\n{text}" for name, text in expected.items()))
        assert main([command, "--counts", str(path), "--out", str(tmp_path / "w.txt")]) == 0
        for name, text in expected.items():
            assert lines((tmp_path / f"w.{name}.txt").read_bytes().decode()) == lines(text)
        assert main([command, "--counts", str(path), "--estimator", "gren", "--out", str(tmp_path / "g.txt")]) == 0
        assert lines((tmp_path / "g.txt").read_bytes().decode()) == lines(expected["gren"])

    def test_subnormal_weight_takes_the_fallback(self, tmp_path, capsys):
        # the weights 1 and 2 * 5e-324 = 1e-323; a subnormal is left to %
        path = tmp_path / "tiny.pmf"
        path.write_text("0\t1\n1\t5e-324\n")
        assert main(["mixing", "--pmf", str(path)]) == 0
        assert capsys.readouterr().out == "# pmf\n0\t1\n1\t9.8813129168249309e-324\n"
        assert main(["mixing", "--pmf", str(path), "--out", str(tmp_path / "w.txt")]) == 0
        expected = format_pmf(cli.mixing_estimate(parse_pmf(path.read_text()).probs))
        assert (tmp_path / "w.txt").read_bytes().decode() == expected == "0\t1\n1\t9.8813129168249309e-324\n"

    def test_every_estimate_on_stdout_under_its_name(self, counts_file, capsys):
        assert main(["estimate", "--counts", str(counts_file), "--estimator", "all"]) == 0
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("#")] == ["# empirical", "# rear", "# gren"]
        expected = self.expected("estimate", TABLE_COUNTS)
        assert out == "".join(f"# {name}\n{text}" for name, text in expected.items())


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

    @pytest.mark.parametrize("command", ["estimate", "mixing", "risk", "simulate"])
    def test_sum_past_the_float_range_is_one_line(self, command, counts_file, tmp_path):
        # two weights or entries of 1e308 sum to inf: the run fails with its one line, and
        # numpy's overflow warning, printed once per process, never precedes it
        pmf, config = tmp_path / "big.pmf", tmp_path / "big.json"
        pmf.write_text("0\t1e308\n1\t1e308\n")
        config.write_text(json.dumps({"truth": "mixture:1e308:3,1e308:5", "n": 10, "reps": 5}))
        pmf_fault = f"monopmf: invalid pmf file {str(pmf)!r}: pmf entries must sum to 1, got inf\n"
        argv, code, err = {
            "estimate": (["estimate", "--counts", str(counts_file), "--truth", str(pmf)], 2, pmf_fault),
            "mixing": (["mixing", "--pmf", str(pmf)], 2, pmf_fault),
            "risk": (["risk", "--truth", "mixture:1e308:3,1e308:5", "--n", "10", "--reps", "5"], 1,
                     "monopmf: mixture weights must sum to 1\n"),
            "simulate": (["simulate", "--config", str(config), "--out", str(tmp_path / "x")], 2,
                         f"monopmf: invalid config file {str(config)!r}: mixture weights must sum to 1\n"),
        }[command]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "monopmf", *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (code, err)


@pytest.fixture(params=["asymptotics", "mixing"])
def stdout_argv(request, tmp_path):
    """A command whose result goes to stdout: asymptotics, short enough to fail only at the final
    flush, or mixing on 20000 points, whose 1.7 MB fail in the middle of its writes."""
    if request.param == "asymptotics":
        return ["asymptotics", "--truth", "uniform:9"]
    path = tmp_path / "wide.counts"
    path.write_text(format_counts(np.arange(20000, 0, -1)))
    return ["mixing", "--counts", str(path)]


class TestStdoutFailures:
    """A write to stdout that fails is one line on stderr and exit 1, not a traceback."""

    def run(self, argv, stdout, cwd=None):
        """(exit code, stderr) of argv; stdout None runs it with descriptor 1 closed."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        close = (lambda: os.close(1)) if stdout is None else None
        proc = subprocess.run([sys.executable, "-m", "monopmf", *argv], stdout=stdout, stderr=subprocess.PIPE,
                              text=True, env=env, cwd=cwd, preexec_fn=close)
        return proc.returncode, proc.stderr

    def test_closed_pipe(self, stdout_argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            code, err = self.run(stdout_argv, write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (1, f"monopmf: cannot write to standard output: {os.strerror(errno.EPIPE)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_full_device(self, stdout_argv):
        with open("/dev/full", "w") as full:
            code, err = self.run(stdout_argv, full)
        assert (code, err) == (1, f"monopmf: cannot write to standard output: {os.strerror(errno.ENOSPC)}\n")

    def test_closed_descriptor(self, stdout_argv):
        code, err = self.run(stdout_argv, None)
        assert (code, err) == (1, f"monopmf: cannot write to standard output: {os.strerror(errno.EBADF)}\n")

    def test_closed_descriptor_without_output(self, tmp_path):
        # simulate prints nothing, so a closed descriptor 1 is no error; its files are
        # opened on the lowest free descriptors, 1 among them, and must still be whole
        code, err = self.run(["simulate", "--truth", "uniform:3", "--n", "10", "--reps", "5", "--out", "run"], None,
                             cwd=tmp_path)
        assert (code, err) == (0, "")
        assert main(["simulate", "--truth", "uniform:3", "--n", "10", "--reps", "5",
                     "--out", str(tmp_path / "again")]) == 0
        for suffix in ("_raw.csv", "_summary.csv", "_meta.json"):
            assert (tmp_path / f"run{suffix}").read_bytes() == (tmp_path / f"again{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("error,line", [
    (MemoryError(), "out of memory"),  # CPython's own allocation failures, in .tolist() or "".join, carry no message
    (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB"),  # numpy's have one
], ids=["bare", "numpy"])
def test_memory_error_is_one_line(error, line, monkeypatch, capsys):
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_asymptotics", exhausted)
    assert main(["asymptotics", "--truth", "uniform:3"]) == 1
    assert capsys.readouterr().err == f"monopmf: {line}\n"


#: Each benchmark workload's command at a tiny size: (target, argv), the target "cli" or a script.
_WORKLOAD_SHAPES = {
    "simulate": ("cli", ["simulate", "--truth", "mixture:0.2:3,0.8:7", "--n", "100", "--out", "run", "--reps", "300"]),
    "risk": ("cli", ["risk", "--truth", "uniform:9999", "--n", "100000", "--k", "2", "--estimator", "gren", "--reps", "3"]),
    "limits": ("cli", ["limits", "--truth", "uniform:9", "--out", "run", "--reps", "200"]),
    "mixing_comparison": (str(SRC.parent / "scripts" / "mixing_comparison.py"), ["--outdir", ".", "--reps", "20"]),
}

_RUN_AND_REPORT = """
import runpy, sys
target, argv = sys.argv[1], sys.argv[2:]
if target == "cli":
    from monopmf.cli import main
    code = main(argv)
else:
    sys.argv = [target, *argv]
    try:
        runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(code, *(name in sys.modules for name in ("numpy.ma", "fractions", "decimal")))
"""


class TestImports:
    @pytest.mark.parametrize("shape", list(_WORKLOAD_SHAPES))
    def test_workload_leaves_numpy_ma_unloaded(self, shape, tmp_path):
        # importing numpy.ma costs about 15 ms per process; np.quantile and a bare
        # np.unique pull it in, so no summary or operator may call them; the CSV
        # writer's digit tables come from ints, not from fractions or decimal
        target, argv = _WORKLOAD_SHAPES[shape]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT, target, *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False False"


def test_limits_memory_does_not_grow_with_reps(tmp_path):
    # limits draws, transforms, writes and aggregates one block at a time; held whole, the
    # 2 * 10^5 draws of K = 9 peak at about 113 MB.  VmHWM is the peak of the command's own
    # process image: ru_maxrss would also count the image of the test process before exec.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for VmHWM")
    report = (
        "import sys\nfrom monopmf.cli import main\ncode = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, int(status.split('VmHWM:')[1].split()[0]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = ["limits", "--truth", "uniform:9", "--reps", "200000", "--out", str(tmp_path / "x")]
    proc = subprocess.run([sys.executable, "-c", report, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 60 * 1024


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
# signalling NaN, the smallest subnormal, minus the largest subnormal, 1.0,
# the largest subnormal, the smallest normal
_EDGE_BITS = np.array([
    0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF8000000000001, 0x7FF0000000000001, 0x1, 0x800FFFFFFFFFFFFF, 0x3FF0000000000000,
    0x000FFFFFFFFFFFFF, 0x0010000000000000,
], dtype=np.uint64).view(np.float64)
# powers of ten where %g changes notation and where the array path ends, with
# their neighbours 1 ulp away, whose exponent log10 can misjudge
_EDGE_POWERS = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e100, 1e-280, 1e280])
# 17-digit values: exact ones, and exact ties at the 18th digit
# (1234567890123456.25 and .75 print 1234567890123456.2 and .8, half to even)
_EDGE_FLOATS = [
    *_EDGE_BITS.tolist(), 1234567890123456.5, 1234567890123457.5, 1234567890123456.25, 1234567890123456.75,
    *_EDGE_POWERS.tolist(), *np.nextafter(_EDGE_POWERS, 0).tolist(), *np.nextafter(_EDGE_POWERS, np.inf).tolist(),
]


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
        texts, inverse = cli._format_floats(a)
        assert inverse.shape == a.shape
        expected = [("%.17g" % v).encode("ascii").ljust(cli._TEXT_WIDTH, b"\0") for v in a.ravel().tolist()]
        assert [texts[i].tobytes() for i in inverse.ravel().tolist()] == expected

    def test_random_bit_patterns_of_every_exponent(self):
        bits = np.random.default_rng(22).integers(0, 2**64, size=10**6, dtype=np.uint64)
        assert np.unique(bits >> 52).size == 4096  # each exponent, of either sign
        values = bits.view(np.float64)
        texts, inverse = cli._format_floats(values)
        expected = np.array(["%.17g" % v for v in values.tolist()], dtype=f"S{cli._TEXT_WIDTH}")  # NUL-padded
        assert np.array_equal(texts.view(expected.dtype).ravel().take(inverse), expected)

    @pytest.mark.parametrize("shift", [0.0, -1e-9, 1e-9], ids=["log10", "log10-low", "log10-high"])
    def test_powers_of_ten_and_their_neighbours(self, shift, monkeypatch):
        # next to 10^k log10 can misjudge the exponent and the digits can round up to 10^(k+1);
        # such values take %, also where log10 is shifted to misjudge more of them
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        powers = np.array([float(f"1e{k}") for k in range(-280, 281)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        texts, inverse = cli._format_floats(values)
        expected = np.array(["%.17g" % v for v in values.tolist()], dtype=f"S{cli._TEXT_WIDTH}")
        assert np.array_equal(texts.view(expected.dtype).ravel().take(inverse), expected)

    def test_limit_law_draws_all_take_array_code(self):
        # draws of the scale of the limit law Y leave nothing to %
        a = np.abs(np.random.default_rng(29).normal(0.0, 0.3, size=10**5))
        assert cli._exponents_and_digits(a, cli._digit_tables()[0])[2].all()


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_per_line_format(self, data):
        records = data.draw(st.integers(0, 25), label="records")
        alphabet = st.characters(codec="utf-8", exclude_characters="\0")  # _table_pieces drops NUL bytes
        mids = data.draw(st.lists(st.text(alphabet, max_size=4), min_size=1, max_size=5), label="mids")
        m = data.draw(st.sampled_from([1, 3]), label="fields")
        rows = data.draw(st.sampled_from([1, 7, 40, 10**6]), label="piece")
        pool = data.draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), min_size=1, max_size=6))
        size = records * len(mids)
        columns = [np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
                            dtype=np.float64).reshape(records, len(mids)) for _ in range(m)]
        # the records come in chunks of any sizes, empty ones too, and the pieces end at each chunk's end
        cuts = sorted(data.draw(st.lists(st.integers(0, records), max_size=4), label="cuts"))
        chunks = [tuple(c[a:b] for c in columns) for a, b in zip([0, *cuts], [*cuts, records])]
        end = data.draw(st.sampled_from(["\r\n", "\n"]), label="end")
        expected = "h\r\n" + "".join(
            f"{i}{mid}" + ",".join("%.17g" % c[i, j] for c in columns) + end
            for i in range(records) for j, mid in enumerate(mids)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CSV_CHUNK_ROWS", rows)
            got = b"".join(map(bytes, cli._table_pieces("h\r\n", mids, records, iter(chunks), end)))
        assert got == expected.encode("utf-8")
