"""Benchmark of the knotcover package.

Run one workload for a fixed time and print its metrics:

    python3 bench/run.py --workload kernel-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced passes and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result (environment,
problem sizes, every pass time, raised and wrong operations, error rate)
goes to ``bench/results/<workload>-seed<seed>-trace<t>.json`` or ``--out``.

Compare two result files, or two directories of them, metric by metric:

    python3 bench/run.py --compare OLD NEW

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import HostSpeed, clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCHEMA = "knotcover-bench/1"
SETUP_SAMPLES = 5
# Corrected time of one pass (see ``hostspeed.py``) on the reference host.
# A run makes ``--seconds / NOMINAL_PASS_S`` passes, rounded, at least one,
# so the operations it attempts depend on the seed and ``--seconds`` only.
NOMINAL_PASS_S = {"kernel-sweep": 9.7, "run-all": 2.8, "checks-and-cosets": 5.0}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

_LAYER_TIMES = (
    "presentations.build_s",
    "homcheck.phi_tables_s",
    "homcheck.check_relators_s",
    "homcheck.search_surjections_s",
    "perm.closure_s",
    "cosets.kernel_coset_table_s",
    "cosets.cyclic_cover_table_s",
    "cosets.todd_coxeter_s",
    "subgroups.reidemeister_schreier_s",
    "subgroups.boundary_quotient_s",
    "snf.smith_normal_form_sparse_s",
    "snf.smith_normal_form_s",
    "cli.run_all_s",
    "trace.relation_matrix_s",
    "trace.schreier_words_s",
    "trace.run_s",
)
_LAYER_COUNTS = (
    "presentations.syllables",
    "homcheck.relators_checked",
    "homcheck.search_candidates",
    "homcheck.surjections_found",
    "perm.group_order",
    "cosets.tc_index",
    "cosets.tc_subgroup_words",
    "subgroups.schreier_generators",
    "subgroups.rewritten_relators",
    "subgroups.rewritten_syllables",
    "snf.rows",
    "snf.cols",
    "snf.nnz",
    "snf.rank",
    "snf.torsion_factors",
    "snf.calls",
    "snf.failed",
)
_KERNEL_TIMES = (
    "cosets.kernel_coset_table_s",
    "subgroups.reidemeister_schreier_s",
    "snf.smith_normal_form_sparse_s",
)
_KERNEL_COUNTS = (
    "subgroups.schreier_generators",
    "subgroups.rewritten_syllables",
    "snf.rows",
    "snf.cols",
    "snf.nnz",
    "snf.rank",
    "snf.torsion_factors",
    "snf.max_factor_bits",
)


def _per_layer() -> dict[str, str]:
    units = {name: "s" for name in _LAYER_TIMES}
    units.update({name: "count" for name in _LAYER_COUNTS})
    units["snf.max_factor_bits"] = "bits"
    for j in range(1, 6):
        units.update({f"{name}.j{j}": "s" for name in _KERNEL_TIMES})
        for name in _KERNEL_COUNTS:
            units[f"{name}.j{j}"] = "bits" if name.endswith("bits") else "count"
    return units


PER_LAYER = _per_layer()


class Raised:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def load_package() -> str | None:
    """Put ``src/`` first on the path and import the package from there;
    return an error message if that fails."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import knotcover
    except ImportError as exc:
        return f"cannot import knotcover from {src}: {exc}"
    if Path(knotcover.__file__).resolve().parent.parent != src.resolve():
        return f"knotcover was not imported from {src}"
    return None


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until the workload's
    inputs and expected values are ready, once per sample, corrected for
    the host's speed as the passes are."""
    samples = []
    with HostSpeed() as speed:
        for _ in range(SETUP_SAMPLES):
            start = clock()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append((start, float(proc.stdout.split()[-1])))
    return [speed.corrected(t0, t1, in_process=False) for t0, t1 in samples]


def run_pass(ops, tracer) -> list:
    state: dict = {}
    results = []
    for op in ops:
        try:
            results.append(op.run(tracer, state))
        except Exception as exc:  # a raising operation is a counted failure
            results.append(Raised(exc))
    return results


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


class Tally:
    """Operations attempted, raised and answered wrongly, over all passes."""

    def __init__(self):
        self.attempted = 0
        self.raised: dict[str, int] = {}
        self.wrong: dict[str, int] = {}
        self.examples: list[str] = []

    def add(self, workload, expected: dict, results: list) -> None:
        answered = {}
        for op, got in zip(workload.ops, results):
            self.attempted += 1
            if isinstance(got, Raised):
                self._fail(self.raised, op.layer, f"{op.name} raised {got.text}")
                continue
            answered[op.name] = got
            if got != expected[op.name]:
                self._fail(self.wrong, op.layer,
                           f"{op.name} gave {got!r}, expected {expected[op.name]!r}")
        for check in workload.pass_checks(answered):
            self._fail(self.wrong, "pass", f"check failed: {check}")

    def _fail(self, table: dict, key: str, example: str) -> None:
        table[key] = table.get(key, 0) + 1
        if len(self.examples) < 10:
            self.examples.append(example)

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + sum(self.wrong.values())


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure(args) -> int:
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    expected = {op.name: op.oracle() if op.oracle else op.expected
                for op in workload.ops}
    tracer = Tracer() if args.trace else NullTracer()
    tally = Tally()
    passes = pass_count(args.workload, args.seconds)
    windows, layer_times, layer_counts = [], [], []
    gc.collect()
    with HostSpeed() as speed:
        for _ in range(passes):
            if args.trace:
                tracer.reset()
            t0 = clock()
            last_results = run_pass(workload.ops, tracer)
            windows.append((t0, clock()))
            if args.trace:
                layer_times.append(tracer.times)
                layer_counts.append(tracer.counts)
            tally.add(workload, expected, last_results)
    pass_times = [t1 - t0 for t0, t1 in windows]
    corrected = [speed.corrected(t0, t1) for t0, t1 in windows]
    # Span times are corrected by their pass's ratio of corrected to wall time.
    layer_times = [{k: v * c / t for k, v in times.items()}
                   for times, c, t in zip(layer_times, corrected, pass_times)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    answered = {op.name: got for op, got in zip(workload.ops, last_results)
                if not isinstance(got, Raised)}
    error_rate = tally.failed / tally.attempted
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.run_s":
                value = statistics.median(corrected)
            elif unit == "s":
                value = statistics.median(t.get(name, 0.0) for t in layer_times)
            else:
                value = layer_counts[0].get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "run_s": {"value": statistics.median(corrected), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    report = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "sizes": workload.sizes(answered),
        "passes": len(pass_times),
        "pass_times_s": pass_times,
        "corrected_pass_times_s": corrected,
        "host_speed": speed.summary(),
        "setup_samples_s": setup_samples,
        "operations_per_pass": len(workload.ops),
        "attempted": tally.attempted,
        "raised": sum(tally.raised.values()),
        "wrong": sum(tally.wrong.values()),
        "failed": tally.failed,
        "raised_by_layer": tally.raised,
        "wrong_by_layer": tally.wrong,
        "examples": tally.examples,
        "metrics": {**metrics, "error_rate": {"value": error_rate, "unit": "ratio"}},
    }
    if args.trace:
        report["counts_repeat"] = all(c == layer_counts[0] for c in layer_counts)
        report["layer_times_s"] = {
            k: statistics.median(t.get(k, 0.0) for t in layer_times)
            for k in sorted(set().union(*layer_times))
        }
        report["layer_counts"] = dict(sorted(layer_counts[0].items()))

    out = Path(args.out) if args.out else (
        BENCH_DIR / "results"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(pass_times)} passes of {len(workload.ops)} operations")
    print(f"raised {report['raised']} {tally.raised}, wrong {report['wrong']}, "
          f"error_rate {error_rate:.6g}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"result file: {out}")
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def setup_probe(args) -> int:
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    print(clock())
    return 0


def _load_results(path: Path) -> dict:
    """Result files under ``path`` grouped by (workload, trace), with each
    metric's median over the files of a group."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[tuple, list[dict]] = {}
    for f in files:
        data = json.loads(f.read_text())
        if data.get("schema") == SCHEMA:
            groups.setdefault((data["workload"], data["trace"]), []).append(data)
    out = {}
    for key, runs in groups.items():
        names = sorted(set().union(*(r["metrics"] for r in runs)))
        out[key] = {
            "runs": len(runs),
            "metrics": {
                n: (statistics.median(r["metrics"][n]["value"]
                                      for r in runs if n in r["metrics"]),
                    next(r["metrics"][n]["unit"] for r in runs if n in r["metrics"]))
                for n in names
            },
        }
    return out


def compare(old: Path, new: Path) -> int:
    a, b = _load_results(old), _load_results(new)
    shared = sorted(a.keys() & b.keys())
    if not shared:
        print("error: no workload appears in both inputs", file=sys.stderr)
        return 2
    for workload, trace in shared:
        ma, mb = a[(workload, trace)], b[(workload, trace)]
        print(f"{workload} trace {trace}: A {old} ({ma['runs']} runs), "
              f"B {new} ({mb['runs']} runs)")
        print(f"  {'metric':40} {'unit':6} {'A':>14} {'B':>14} {'B/A':>8}")
        for name in sorted(ma["metrics"].keys() & mb["metrics"].keys()):
            (va, unit), (vb, _) = ma["metrics"][name], mb["metrics"][name]
            ratio = f"{vb / va:8.3f}" if va else ("       -" if not vb else "     inf")
            print(f"  {name:40} {unit:6} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["kernel-sweep", "run-all",
                                               "checks-and-cosets"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="result file (default bench/results/...)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path,
                        help="print each metric of two result sets as a ratio")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    error = load_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
