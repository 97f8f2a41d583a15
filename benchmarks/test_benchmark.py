"""Self-tests of the benchmark: python3 -m pytest benchmarks -q

Each workload runs at the tiny size (``--tiny``), so the whole file takes
about a minute, most of it the engel5 gauge build.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_tiny(capsys, workload: str, trace: int) -> dict:
    assert bench.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_with_its_unit(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = run_tiny(capsys, workload, trace)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in res["metrics"].values())


def test_corrupt_artifact_counts_as_failed(capsys, monkeypatch):
    real = bench.run_command

    def corrupting(cmd, seed, trace, it_dir, k):
        result = real(cmd, seed, trace, it_dir, k)
        path = os.path.join(it_dir, "scan", "scan.csv")
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-3, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x01]))
        return result

    monkeypatch.setattr(bench, "run_command", corrupting)
    res = run_tiny(capsys, "scan-d4", 0)
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_wrappers_leave_artifacts_byte_identical(tmp_path):
    cmd = bench.WORKLOADS["drift-heisenberg"][1][0]
    env = dict(bench.child_env(), PYTHONPATH=os.path.join(bench.ROOT, "src"))
    subprocess.run([sys.executable, "-m", "nilwalk.cli", *cmd.argv(3)],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    shutil.move(tmp_path / "walk", tmp_path / "plain")
    subprocess.run([sys.executable, bench.SHIM, str(tmp_path / "spans.json"), "1", "--",
                    *cmd.argv(3)], cwd=tmp_path, env=bench.child_env(), check=True,
                   capture_output=True)
    for name in ("walk.csv", "manifest.json"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "walk" / name).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "scan-d4", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
