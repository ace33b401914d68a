"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from checks import check_erase_outputs  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
import pefkit.evaluate  # noqa: E402
import pefkit.pef  # noqa: E402
from pefkit import (  # noqa: E402
    Categorical,
    ErasureFunction,
    GroupedData,
    Permutation,
    Sample,
    analyze,
    apply,
    save_function_json,
    write_erased_csv,
)

WORKLOAD_NAMES = sorted(run.WORKLOADS)
FULL_SIZE = dict(run.WORKLOADS)


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    tiny = {n: replace(wl, groups=2, support=6, samples=400) for n, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_REPS", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads(run.SPEC.read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert result["attempted"] >= 1
    if workload != "alg1_unequal":  # Algorithm 1 may leak; see README.md
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload, leaks", [("alg1_unequal", True), ("alg1_tol0", False)])
def test_known_algorithm1_leak_at_seed_4(workload, leaks, monkeypatch, capsys):
    # Full size: the default tol takes the leaking "equal" branch at seed 4.
    monkeypatch.setattr(run, "WORKLOADS", FULL_SIZE)
    assert run.main(["--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    failures = json.loads(out[-2])["diagnostics"]["failures"]
    assert result["correct"] is not leaks
    assert any(f.startswith("check leakage: branch=equal") for f in failures) is leaks


def test_equal_workload_has_no_qopt_or_coupling_spans(capsys):
    assert run.main(["--workload", "equal_k4000", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    touched = [k for k, v in metrics.items() if k.startswith(("qopt.", "coupling.")) and v["value"]]
    assert touched == []
    assert metrics["pef.build_deterministic_pef.s"]["value"] > 0


def test_tracer_reports_missing_names_and_restores_originals():
    apply_before = pefkit.pef.apply
    tracer = Tracer(["pef.apply", "evaluate.JointCounts.from_pairs",
                     "pef.no_such_function", "evaluate.NoSuchClass.f", "nomodule.f"])
    with tracer.recording(0):
        assert pefkit.pef.apply is not apply_before
        pefkit.evaluate.JointCounts.from_pairs([(1, 2), (1, 3)])
    assert tracer.absent == ["pef.no_such_function", "evaluate.NoSuchClass.f", "nomodule.f"]
    assert pefkit.pef.apply is apply_before
    assert tracer.stats()[0]["evaluate.JointCounts.from_pairs"]["calls"] == 1


def test_leaky_map_is_counted_as_failed(tmp_path):
    # Each group gets its own outputs, so Z reveals the concept: I(Z;A) = 1 bit.
    half = np.array([0.5, 0.5])
    g = GroupedData(((0, Categorical((0, 1), half)), (1, Categorical((2, 3), half))), half)
    support = (10, 11, 12, 13)
    f = ErasureFunction(
        "deterministic", support, Categorical(support, np.full(4, 0.25)),
        group_maps={0: Permutation({0: 10, 1: 11}), 1: Permutation({2: 12, 3: 13})},
    )
    samples = [Sample(x, x // 2) for x in [0, 1, 2, 3] * 100]
    (tmp_path / "report.json").write_text(json.dumps(analyze(f, g).to_json()))
    save_function_json(f, tmp_path / "function.json")
    write_erased_csv(apply(f, samples, seed=0), tmp_path / "erased.csv")

    tally = run.Tally()
    results = check_erase_outputs(np.array([[s.x, s.concept] for s in samples]), tmp_path)
    for name, ok, detail in results:
        tally.record(ok, name)
    assert tally.attempted == 4
    assert {"leakage", "pushforward"} <= set(tally.failures)


def test_missing_outputs_fail_every_check(tmp_path):
    results = check_erase_outputs(np.zeros((3, 2), dtype=np.int64), tmp_path)
    assert [ok for _, ok, _ in results] == [False] * 4


def test_exits_nonzero_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "bo_unequal", "--seed", "1", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
