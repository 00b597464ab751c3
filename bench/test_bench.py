"""Tests of the benchmark itself: its declared metrics, its oracle, its
compare mode, and negative controls showing that its checks can fail.

    python3 -m pytest bench -q

They run single passes, under a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.load_package() is None

from hostspeed import REFERENCE_PROBE_S, HostSpeed, clock  # noqa: E402
from oracle import smith_invariants  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, ChecksAndCosets, KernelSweep, RunAll  # noqa: E402


def one_pass(workload, tracer=None):
    expected = {op.name: op.oracle() if op.oracle else op.expected
                for op in workload.ops}
    results = run.run_pass(workload.ops, tracer or NullTracer())
    return expected, results


def tally(workload, expected, results):
    t = run.Tally()
    t.add(workload, expected, results)
    return t


@pytest.fixture(scope="module")
def checks_seed1():
    workload = ChecksAndCosets(1)
    return (workload, *one_pass(workload))


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("matrix, expected", [
    ([[0, 0], [0, 0]], ([], 0)),
    ([[2, 0], [0, 3]], ([1, 6], 2)),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], ([2, 6, 12], 3)),
    # crashes the package's SNF; determinantal divisors 1, 2, 12, 0
    ([[2, 5, -1, -1], [8, 0, 2, 2], [8, 2, -10, 8], [8, 2, -10, 8]], ([1, 2, 6], 3)),
])
def test_oracle_on_hand_checked_matrices(matrix, expected):
    assert smith_invariants(matrix) == expected


def test_known_snf_crash_is_a_raise_not_a_wrong_answer(checks_seed1):
    t = tally(*checks_seed1)
    assert set(t.raised) == {"snf.smith_normal_form"}
    assert t.raised["snf.smith_normal_form"] > 0
    assert t.wrong == {}


def test_corrupted_expected_value_raises_error_rate(checks_seed1):
    workload, expected, results = checks_seed1
    clean = tally(workload, expected, results)
    corrupted = dict(expected, **{"cover_h1.k2": (1, (2,))})
    t = tally(workload, corrupted, results)
    assert t.wrong == {"subgroups.reidemeister_schreier": 1}
    assert t.failed / t.attempted > clean.failed / clean.attempted


def test_second_seed_reports_same_operation_counts(checks_seed1):
    workload, _, _ = checks_seed1
    other = ChecksAndCosets(2)
    assert other.matrices != workload.matrices
    assert [op.name for op in other.ops] == [op.name for op in workload.ops]
    counts = []
    for w in (workload, other):
        tr = Tracer()
        one_pass(w, tr)
        counts.append(tr.counts)
    seed1, seed2 = counts
    for name in ("snf.calls", "homcheck.relators_checked", "cosets.tc_index",
                 "subgroups.schreier_generators", "perm.group_order"):
        assert seed1[name] == seed2[name], name


@pytest.mark.parametrize("workload_cls, op_name, wrong_value", [
    (RunAll, "run_all", {"status": "fail"}),
    (KernelSweep, "kernel_homology.j1", (1, (2,))),
])
def test_corrupted_pinned_value_fails_traced_pass(workload_cls, op_name, wrong_value):
    workload = workload_cls(1)
    tr = Tracer()
    expected, results = one_pass(workload, tr)
    assert tally(workload, expected, results).failed == 0
    corrupted = dict(expected, **{op_name: wrong_value})
    t = tally(workload, corrupted, results)
    assert t.failed == 1 and t.raised == {}
    assert tr.times and tr.counts["presentations.syllables"] > 0


def test_host_speed_correction():
    speed = HostSpeed()
    speed.starts = [0.5, 1.0, 1.5, 2.5]
    speed.durations = [2 * REFERENCE_PROBE_S, REFERENCE_PROBE_S,
                       REFERENCE_PROBE_S / 2, REFERENCE_PROBE_S]
    inside = sum(speed.durations[:3])
    # three probes inside: at half, equal and double the reference speed
    expected_speed = (0.5 + 1 + 2) / 3
    assert speed.corrected(0.0, 2.0) == pytest.approx((2.0 - inside) * expected_speed)
    assert speed.corrected(0.0, 2.0, in_process=False) == pytest.approx(
        2.0 * expected_speed)
    assert speed.corrected(3.0, 4.0) == 1.0  # no probe inside: wall time


def test_host_speed_probes_while_open():
    with HostSpeed(interval=0.005) as speed:
        t0 = clock()
        while clock() - t0 < 0.2:
            pass
    assert len(speed.starts) >= 5
    assert speed.starts == sorted(speed.starts)
    assert 0 < speed.corrected(t0, clock())


def test_compare_prints_ratio_with_both_bases(tmp_path, capsys):
    for name, value in (("old", 2.0), ("new", 1.5)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "r.json").write_text(json.dumps({
            "schema": run.SCHEMA, "workload": "run-all", "trace": 0,
            "metrics": {"run_s": {"value": value, "unit": "s"}},
        }))
    assert run.compare(tmp_path / "old", tmp_path / "new") == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if "run_s" in x)
    assert line.split()[1:] == ["s", "2", "1.5", "0.750"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "bench" / "results").exists()
