"""Smoke tests of the study scripts, each run as its own process at a tiny size."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monopmf.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "name,args,files",
    [
        (
            "estimator_comparison.py",
            ["--reps", "5", "--sizes", "10"],
            [f"compare_uniform_5_n10{suffix}" for suffix in ("_raw.csv", "_summary.csv", "_meta.json")]
            + ["compare_mixture_0.25_1+0.2_3+0.15_5+0.4_7_n10_summary.csv"],
        ),
        ("mixing_comparison.py", ["--reps", "5", "--sizes", "10,30"], ["mixing_summary.csv"]),
        (
            "limit_diagnostics.py",
            ["--reps", "50"],
            ["zero_probability.csv", "touchpoints.csv", "efficiency.csv"],
        ),
    ],
    ids=["estimator_comparison", "mixing_comparison", "limit_diagnostics"],
)
def test_script_runs(name, args, files, tmp_path):
    proc = run_script(name, "--outdir", "out", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for f in files:
        assert (tmp_path / "out" / f).is_file(), f
    if name == "limit_diagnostics.py":  # --reps 50 gives 25 walks per touchpoint length
        with open(tmp_path / "out" / "touchpoints.csv", newline="") as fh:
            assert [row["reps"] for row in csv.DictReader(fh)] == ["25"] * 5


def test_limit_diagnostics_rejects_fewer_than_two_walks(tmp_path):
    proc = run_script("limit_diagnostics.py", "--outdir", "out", "--reps", "3", cwd=tmp_path)
    assert proc.returncode == 2
    assert "--reps must be at least 4" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_estimator_comparison_writes_simulate_bytes(tmp_path):
    # the script and `monopmf simulate` share one writer and one config
    proc = run_script("estimator_comparison.py", "--outdir", "out", "--reps", "40", "--sizes", "25", "--seed", "9",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    prefix = str(tmp_path / "sim")
    assert main(["simulate", "--truth", "mixture:0.2:3,0.8:7", "--n", "25", "--reps", "40", "--seed", "9",
                 "--out", prefix]) == 0
    for suffix in ("_raw.csv", "_summary.csv", "_meta.json"):
        script_file = tmp_path / "out" / f"compare_mixture_0.2_3+0.8_7_n25{suffix}"
        assert script_file.read_bytes() == Path(prefix + suffix).read_bytes(), suffix
