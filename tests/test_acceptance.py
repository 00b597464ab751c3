"""Acceptance suite: one test per advertised guarantee, with the stated
runtime budgets.  Each test prints a single PASS/FAIL line so a verbose
run reads as a checklist."""

import json
import time

from knotcover.cli import main
from knotcover.cosets import cyclic_cover_table, kernel_coset_table, todd_coxeter
from knotcover.homcheck import (
    GenAssignment,
    check_relators,
    phi_tables,
    search_surjections,
    sternfeld_error_repro,
)
from knotcover.perm import closure, orbit_count
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    stage_boundary_words,
    trefoil_presentation,
)
from knotcover.subgroups import (
    TREFOIL_LONGITUDE,
    TREFOIL_MERIDIAN,
    abelianize,
    boundary_quotient,
    kernel_cover,
    kernel_homology,
    reidemeister_schreier,
    schreier_rank_bound,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_staged_tables_satisfy_all_relators():
    start = time.perf_counter()
    bad = []
    for j in range(1, 13):
        assignment = phi_tables(j)
        for p in (kjss_presentation(j), kj_presentation(j)):
            result = check_relators(p, assignment)
            if not result.ok:
                bad.append((j, [v.name for v in result.violations]))
    elapsed = time.perf_counter() - start
    report(
        "staged tables",
        not bad and elapsed < 5.0,
        f"zero violations for stage counts 1..12 in {elapsed:.2f}s"
        + (f"; violations {bad}" if bad else ""),
    )


def test_criterion_02_historical_fragment_mismatch():
    best = min(
        _timed(sternfeld_error_repro)[0] for _ in range(5)
    )
    repro = sternfeld_error_repro()
    ok = (
        str(repro.got) == "(1,2)(3,5)"
        and str(repro.expected) == "(1,2)(3,4)"
        and repro.mismatch
        and best < 0.001
    )
    report(
        "historical fragment mismatch",
        ok,
        f"evaluates to {repro.got}, table requires {repro.expected}, "
        f"in {best * 1e6:.0f}us",
    )


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def test_criterion_03_trefoil_onto_a5():
    start = time.perf_counter()
    p = trefoil_presentation()
    pinned = GenAssignment.from_names({"a": "(1,3,5,4,2)", "b": "(1,2,3,4,5)"})
    result = check_relators(p, pinned)
    found = search_surjections(p, limit=1000)
    key = lambda a: tuple(str(a.value(g)) for g in p.generators)
    rediscovered = key(pinned) in {key(a) for a in found}
    elapsed = time.perf_counter() - start
    ok = (
        result.ok
        and result.image_order == 60
        and rediscovered
        and elapsed < 1.0
    )
    report(
        "trefoil onto A5",
        ok,
        f"pinned assignment passes with image order {result.image_order}, "
        f"search rediscovers it among {len(found)} in {elapsed:.2f}s",
    )


def test_criterion_04_image_orders_with_small_stage_deviation():
    orders = {
        j: check_relators(kjss_presentation(j), phi_tables(j)).image_order
        for j in range(1, 13)
    }
    high_ok = all(orders[j] == 60 for j in range(3, 13))
    small = (orders[1], orders[2])
    ok = high_ok and small == (2, 12)
    report(
        "image orders",
        ok,
        f"60 from stage count 3 on; stage counts 1 and 2 give {small}, "
        "a deviation from the blanket onto-A5 phrasing, reported not failed",
    )


def test_criterion_05_cyclic_cover_homology():
    p = trefoil_presentation()
    results = {}
    for k, expected in ((3, "Z + Z/2 + Z/2"), (2, "Z + Z/3")):
        elapsed, sub = _timed(
            reidemeister_schreier, p, cyclic_cover_table(p, k)
        )
        inv = abelianize(sub.presentation)
        results[k] = (str(inv), expected, elapsed)
    ok = all(got == want and t < 1.0 for got, want, t in results.values())
    report(
        "cyclic cover homology",
        ok,
        "; ".join(
            f"{k}-fold H1 = {got} (want {want}, {t:.2f}s)"
            for k, (got, want, t) in sorted(results.items())
        ),
    )


def test_criterion_06_boundary_quotient_order_three():
    start = time.perf_counter()
    q2 = boundary_quotient(k=2)
    order_enum = todd_coxeter(q2).index
    inv2 = abelianize(q2)
    q1 = boundary_quotient(k=1)
    trivial = todd_coxeter(q1).index == 1 and str(abelianize(q1)) == "0"
    elapsed = time.perf_counter() - start
    ok = (
        order_enum == 3
        and (inv2.free_rank, inv2.torsion) == (0, (3,))
        and trivial
        and elapsed < 1.0
    )
    report(
        "boundary quotient",
        ok,
        f"2-fold quotient order {order_enum} by enumeration and "
        f"{inv2} by abelianization; identity cover trivial; {elapsed:.2f}s",
    )


def _orbits(t, words):
    return orbit_count([t.word_action(w) for w in words], t.index)


def test_criterion_07_boundary_connectivity():
    # the orbits of a boundary torus's curves count the components above it
    start = time.perf_counter()
    p = trefoil_presentation()
    torus = [TREFOIL_MERIDIAN, TREFOIL_LONGITUDE]
    cyclic = [(_orbits(t, torus), _orbits(t, [TREFOIL_LONGITUDE]))
              for t in (cyclic_cover_table(p, k) for k in range(1, 9))]
    pinned = GenAssignment.from_names({"a": "(1,3,5,4,2)", "b": "(1,2,3,4,5)"})
    a5 = _orbits(kernel_coset_table(p, pinned), torus)
    staged = {}
    for j in range(3, 7):
        _, t = kernel_cover(j)
        staged[j] = [[_orbits(t, pair) for pair in stage_boundary_words(j - d)]
                     for d in range(j)]
    elapsed = time.perf_counter() - start
    # by distance d from the top stage: d = 0, then odd and even d
    expected = {j: [[60, 30]] + [[30, 20] if d % 2 else [20, 30]
                                 for d in range(1, j)] for j in staged}
    ok = (cyclic == [(1, k) for k in range(1, 9)] and a5 == 12
          and staged == expected and elapsed < 1.0)
    report(
        "boundary connectivity",
        ok,
        f"one boundary component on cyclic covers 1..8, {a5} on the A5 "
        f"cover, staged kernels j=3..6 by stage, in {elapsed:.2f}s",
    )


def test_criterion_08_knot_groups_abelianize_to_z():
    start = time.perf_counter()
    invariants = [abelianize(kj_presentation(j)) for j in range(1, 7)]
    elapsed = time.perf_counter() - start
    ok = all(str(inv) == "Z" for inv in invariants) and elapsed < 1.0
    report(
        "knot group abelianization",
        ok,
        f"H1 = Z for stage counts 1..6 in {elapsed:.2f}s",
    )


def test_criterion_09_kernel_rank_growth():
    start = time.perf_counter()
    counts = {}
    bounds = {}
    for j in (2, 3, 4):
        inv = kernel_homology(j)
        counts[j] = inv.min_generators
        index = closure(phi_tables(j).mapping.values()).order
        bounds[j] = schreier_rank_bound(inv.min_generators, index)
    elapsed = time.perf_counter() - start
    growing = counts[2] < counts[3] < counts[4]
    bounds_growing = bounds[2] < bounds[3] < bounds[4]
    ok = growing and bounds_growing and elapsed < 600.0
    report(
        "kernel rank growth",
        ok,
        f"minimal generators {counts[2]} < {counts[3]} < {counts[4]}, "
        f"certified rank bounds {bounds[2]} < {bounds[3]} < {bounds[4]}, "
        f"in {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_10_run_all_is_deterministic(capsys):
    code1 = main(["run-all", "--json"])
    first = capsys.readouterr().out
    code2 = main(["run-all", "--json"])
    second = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and first == second and len(first) > 0
    payload = json.loads(first)
    ok = ok and payload["status"] == "pass"
    with capsys.disabled():
        report(
            "determinism",
            ok,
            f"two run-all invocations emit byte-identical JSON "
            f"({len(first)} bytes, status {payload['status']})",
        )
