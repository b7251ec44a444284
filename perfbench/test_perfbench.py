"""Checks of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench

Every metric in ``BENCHMARK.json`` must come out with its unit, a wrong
expected value must be counted as a failed operation, and the benchmark
must refuse to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _tiny(name: str, trace: bool) -> dict:
    return run.measure(name, seed=3, seconds=0, trace=trace, tiny=True, cli_rounds=1, setup_children=1)


def test_declared_metrics_match_the_harness():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert set(workloads.LEDGER) <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_pass_emits_every_end_to_end_metric(name):
    result = _tiny(name, trace=False)
    assert result["correct"], result["report"]["unexpected_failures"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert 0 <= result["report"]["failed_frac"] < 1
    assert result["report"]["cli_p50_ms"] > 0
    json.loads(run.contract_line(result))
    if name == "b0-sweep":  # a ledger case: reported, counted, but not a failed run
        assert any(d.startswith("SO n=7 d=2 totally_singular") for d in result["report"]["known_defects"])
        assert result["report"]["failed_frac"] > 0
        assert result["metrics"]["ok_frac"]["value"] < 1


def test_traced_pass_emits_every_per_layer_metric():
    result = _tiny("verify-large", trace=True)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["genstab.solves"] > 0 and values["linalg.nullspace_dim_s"] > 0
    assert (HERE.parent / result["report"]["spans"]).is_file()


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    case = next(iter(workloads.VERIFY_CASES_TINY))
    alg, proj = workloads.VERIFY_CASES_TINY[case]
    monkeypatch.setitem(workloads.VERIFY_CASES_TINY, case, (alg, proj + 1))
    result = _tiny("verify-large", trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["report"]["failed_frac"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "catalogue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
