"""Command-line interface.

Every subcommand prints a deterministic report, as text or as versioned JSON
with ``--json``; identical invocations produce byte-identical output.  The
exit code is 0 iff the command's checks all pass.

``run-all`` spreads its sections, and the kernel section's stage counts,
over the CPUs the process may use (``_run_tasks``), and puts the report
together in registry order, so its output is byte-identical whatever that
count is; ``taskset -c 0 knotcover run-all`` runs it in one process.
README's "Kernel homology and timing" says what the benchmark's
``peak_rss_mib`` counts of it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from fractions import Fraction
from functools import partial
from math import ceil, prod
from typing import Callable, Hashable, Iterator, Sequence

from .cosets import CosetTable, cyclic_cover_table, kernel_coset_table, todd_coxeter
from .errors import CapacityError, KnotcoverError, ParseError
from .homcheck import (
    A5_ORDER,
    TREFOIL_A5,
    GenAssignment,
    check_relators,
    phi_tables,
    search_surjections,
    sternfeld_error_repro,
)
from .perm import Perm, orbit_count
from .presentations import (
    check_stage_count,
    kj_presentation,
    kjss_presentation,
    stage_boundary_words,
    trefoil_presentation,
)
from .subgroups import (
    TREFOIL_LONGITUDE,
    TREFOIL_MERIDIAN,
    abelianize,
    boundary_quotient,
    cover_homology,
    kernel_cover,
    schreier_rank_bound,
)
from .words import Presentation, Word, parse_presentation, parse_word, print_presentation

SCHEMA = "knotcover-report/5"

# Claim identifiers used in run-all reports.  Each names the mathematical
# statement being machine-checked, so a failure localizes immediately.
CLAIM_TABLES = "staged-tables-satisfy-relators"
CLAIM_SMALL_STAGE_ORDERS = "small-stage-image-orders-as-computed"
CLAIM_FRAGMENT_MISMATCH = "historical-fragment-evaluation-mismatch"
CLAIM_TREFOIL_SURJECTION = "trefoil-onto-a5"
CLAIM_COVER_H1 = "cyclic-cover-homology"
CLAIM_BOUNDARY_QUOTIENT = "two-fold-boundary-quotient-order-three"
CLAIM_BOUNDARY_COMPONENTS = "boundary-components-of-covers"
CLAIM_KNOT_H1 = "staged-knot-groups-abelianize-to-z"
CLAIM_KERNEL_GROWTH = "kernel-homology-rank-growth"

EXPECTED_IMAGE_ORDERS = {1: 2, 2: 12}  # every higher stage count gives 60
SMALL_STAGE_NOTE = (
    "image order below 60 at stage counts 1 and 2; the blanket onto-A5 "
    "statement only holds from stage count 3 on, so these are reported as "
    "a deviation, not a failure"
)

# The stage limit of `kernel-homology` and `run-all --kernel-jmax`: the
# largest N such that `knotcover kernel-homology --j M --force` finished
# within 4 s in each of five fresh-process runs for every M up to N.  Each
# stage adds 660 rows and 540 columns to the relation matrix, and the Smith
# normal form grows faster than that.  The runs of one N spread by a second
# or more on a shared host, so their range is recorded, not one median;
# for N = 14 / 15 / 16 / 17 / 18 they took
# 1.86-2.42 / 1.65-2.35 / 2.71-4.31 / 2.06-2.90 / 3.17-4.40 s
# (Python 3.11.7, a shared 2-core Xeon host).  At N = 15 the fresh-process
# peak RSS is 26.9-27.0 MiB (eight runs, same host).  Per stage times also
# come from the benchmark (`bench/README.md`):
#     python3 bench/run.py --workload kernel-sweep --seconds 20 --trace 1
KERNEL_HOMOLOGY_MAX_STAGES = 15

def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise KnotcoverError(f"cannot read {path}: {e}") from None


def _file_lines(path: str) -> Iterator[tuple[str, str]]:
    """``(path:line, text)`` for each non-blank line, '#' comments removed."""
    for lineno, raw in enumerate(_load_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{path}:{lineno}", line


def _parse_at(where: str, parse: Callable, text):
    """``parse(text)``, with a parse error reported at ``where``."""
    try:
        return parse(text)
    except ParseError as e:
        raise KnotcoverError(f"{where}: {e}") from None


def load_presentation_file(path: str) -> Presentation:
    """Parse a presentation file in the format ``presentation`` prints."""
    return _parse_at(path, parse_presentation, _load_text(path))


def load_assignment_file(path: str,
                         generators: Sequence[str]) -> GenAssignment:
    """Parse an assignment file: one ``name = cycle-notation`` line per
    generator, each one of ``generators``, '#' comments allowed."""
    mapping: dict[str, Perm] = {}
    for where, line in _file_lines(path):
        name, eq, cycles = (part.strip() for part in line.partition("="))
        if not eq:
            raise KnotcoverError(f"{where}: expected 'name = cycles'")
        if name in mapping:
            raise KnotcoverError(f"{where}: generator {name!r} assigned twice")
        mapping.update(_parse_at(where, GenAssignment.from_names,
                                 {name: cycles}).mapping)
        if name not in generators:
            raise KnotcoverError(f"{where}: unknown generator {name!r}")
    return GenAssignment(mapping, label=path)


def load_words_file(path: str, generators: Sequence[str]) -> list[Word]:
    """Parse one word per non-empty line, syllables separated by spaces,
    each syllable over one of ``generators``."""
    parse = partial(parse_word, generators=generators)
    return [_parse_at(where, parse, line) for where, line in _file_lines(path)]


def _envelope(command: str, report: dict) -> dict:
    """The JSON report of ``command``: its results under the schema tag."""
    return {"schema": SCHEMA, "command": command, **report}


def _violation_lines(violations) -> list[str]:
    return [
        f"  violated {v.name}: {v.relator} -> {v.value}" for v in violations
    ]


def _check_tables_at(j: int) -> tuple:
    """Verify the staged tables against both the identified and the plain
    link presentations for one stage count.  The identified relators start
    with the plain ones, so the plain violations are read off one check and
    every violation is among the identified ones."""
    report = check_relators(kjss_presentation(j), phi_tables(j))
    plain_names = set(kj_presentation(j).relator_names)
    plain = [v for v in report.violations if v.name in plain_names]
    expected_order = EXPECTED_IMAGE_ORDERS.get(j, A5_ORDER)
    entry = {
        "j": j,
        "violations_identified": [v.name for v in report.violations],
        "violations_plain": [v.name for v in plain],
        "image_order": report.image_order,
        "expected_image_order": expected_order,
        "surjective_onto_a5": report.surjective_onto_a5,
        "ok": report.ok and report.image_order == expected_order,
    }
    if j in EXPECTED_IMAGE_ORDERS:
        entry["note"] = SMALL_STAGE_NOTE
    return entry, report.violations


def cmd_presentation(args) -> tuple[dict, list[str], int]:
    check_stage_count(args.j)
    if args.kind == "trefoil":
        p = trefoil_presentation()
    elif args.kind == "kj":
        p = kj_presentation(args.j)
    else:
        p = kjss_presentation(args.j)
    text = print_presentation(p)
    report = {
        "kind": args.kind,
        "j": args.j,
        "generators": len(p.generators),
        "relators": len(p.relators),
        "dsl": text,
    }
    return report, [text.rstrip("\n")], 0


def cmd_verify_tables(args) -> tuple[dict, list[str], int]:
    entry, violations = _check_tables_at(args.j)
    lines = [
        f"stage count {args.j}: image order {entry['image_order']}"
        f" (expected {entry['expected_image_order']}),"
        f" onto A5: {entry['surjective_onto_a5']}"
    ]
    lines += _violation_lines(violations)
    if "note" in entry:
        lines.append("note: " + entry["note"])
    lines.append("ok" if entry["ok"] else "FAIL")
    return entry, lines, 0 if entry["ok"] else 1


def cmd_check_hom(args) -> tuple[dict, list[str], int]:
    p = load_presentation_file(args.pres)
    assignment = load_assignment_file(args.assign, p.generators)
    result = check_relators(p, assignment)
    report = {
        "violations": [v.name for v in result.violations],
        "image_order": result.image_order,
        "surjective_onto_a5": result.surjective_onto_a5,
        "ok": result.ok,
    }
    lines = [f"image order {result.image_order}, onto A5: {result.surjective_onto_a5}"]
    lines += _violation_lines(result.violations)
    lines.append("ok" if result.ok else "FAIL")
    return report, lines, 0 if result.ok else 1


def cmd_search_hom(args) -> tuple[dict, list[str], int]:
    p = load_presentation_file(args.pres)
    found = search_surjections(p, limit=args.limit)
    listed = [
        {g: str(a.value(g)) for g in p.generators} for a in found
    ]
    report = {
        "count": len(found),
        "assignments": listed,
    }
    lines = [f"found {len(found)} surjections (limit {args.limit})"]
    for item in listed:
        lines.append("  " + ", ".join(f"{k} -> {v}" for k, v in sorted(item.items())))
    return report, lines, 0


def _fragment_entry() -> dict:
    """Replay the historical sewing-word evaluation."""
    repro = sternfeld_error_repro()
    return {
        "got": str(repro.got),
        "expected": str(repro.expected),
        "mismatch": repro.mismatch,
    }


def cmd_reproduce_sternfeld_error(args) -> tuple[dict, list[str], int]:
    entry = _fragment_entry()
    lines = [
        f"sewing word evaluates to {entry['got']}",
        f"table requires          {entry['expected']}",
        "mismatch reproduced" if entry["mismatch"] else "FAIL: no mismatch",
    ]
    return entry, lines, 0 if entry["mismatch"] else 1


# The option each `cosets` mode reads beside --pres; the others are refused.
_COSETS_MODE_OPTIONS = {"kernel": "assign", "cyclic": "k", "subgroup": "subgroup"}


def cmd_cosets(args) -> tuple[dict, list[str], int]:
    for mode, option in _COSETS_MODE_OPTIONS.items():
        if mode != args.mode and getattr(args, option) is not None:
            raise KnotcoverError(f"--mode {args.mode} does not read --{option}")
    p = load_presentation_file(args.pres)
    if args.mode == "kernel":
        if not args.assign:
            raise KnotcoverError("--mode kernel requires --assign FILE")
        table = kernel_coset_table(
            p, load_assignment_file(args.assign, p.generators))
    elif args.mode == "cyclic":
        if args.k is None:
            raise KnotcoverError("--mode cyclic requires --k K")
        table = cyclic_cover_table(p, args.k)
    else:
        gens = load_words_file(args.subgroup, p.generators) if args.subgroup else []
        table = todd_coxeter(p, gens)
    lines = [f"index {table.index}"]
    for g, row in zip(table.gens, table.action):
        lines.append(f"  {g}: " + " ".join(str(x) for x in row))
    return table.to_json_dict(), lines, 0


def cmd_abelianize(args) -> tuple[dict, list[str], int]:
    p = load_presentation_file(args.pres)
    inv = abelianize(p)
    return inv.to_json_dict(), [str(inv)], 0


def _quotient_orders(k: int) -> tuple:
    """Order of the k-fold cover modulo its boundary by coset enumeration,
    its abelianization, and the order that abelianization gives.  A positive
    free rank proves the quotient infinite: both orders are then None and
    the enumeration, which could not finish, is skipped."""
    quotient = boundary_quotient(k=k)
    inv = abelianize(quotient)
    if inv.free_rank:
        return None, inv, None
    return todd_coxeter(quotient).index, inv, prod(inv.torsion)


def cmd_cover_quotient(args) -> tuple[dict, list[str], int]:
    order, inv, order_from_abelianization = _quotient_orders(args.fold)
    # an infinite quotient is known by one route only
    routes_agree = None if order is None else order_from_abelianization == order
    report = {
        "fold": args.fold,
        "order": order,
        "abelianization": inv.to_json_dict(),
        "order_from_abelianization": order_from_abelianization,
        "routes_agree": routes_agree,
    }
    if order is None:
        lines = [
            f"{args.fold}-fold cover modulo boundary: order infinite "
            f"by abelianization {inv}",
            "coset enumeration skipped",
        ]
    else:
        lines = [
            f"{args.fold}-fold cover modulo boundary: order {order} "
            f"by coset enumeration, abelianization {inv}",
            "routes agree" if routes_agree else "routes DISAGREE",
        ]
    return report, lines, 1 if routes_agree is False else 0


def _check_kernel_stages(j: int, further: str) -> None:
    """Refuse kernel homology at a stage count j above the stage limit;
    ``further`` says how to go past it."""
    if j > KERNEL_HOMOLOGY_MAX_STAGES:
        raise CapacityError(
            f"stage count {j} exceeds the limit {KERNEL_HOMOLOGY_MAX_STAGES}; "
            f"the relation matrix would be about {A5_ORDER * (11 * j - 1)} x "
            f"{A5_ORDER * (9 * j - 1) + 1}. {further}"
        )


def _kernel_entry(j: int) -> tuple:
    """Kernel homology at stage count j with the rank bound it forces at
    the kernel's index, the order of the staged image group."""
    p, table = kernel_cover(j)
    inv = cover_homology(p, table)
    bound = schreier_rank_bound(inv.min_generators, table.index)
    entry = {
        "j": j,
        "homology": inv.to_json_dict(),
        "min_generators": inv.min_generators,
        "rank_bound": str(bound),
        "rank_bound_ceiling": ceil(bound),
    }
    return entry, inv


def cmd_kernel_homology(args) -> tuple[dict, list[str], int]:
    if not args.force:
        _check_kernel_stages(args.j, "Pass --force to compute anyway.")
    entry, inv = _kernel_entry(args.j)
    lines = [
        f"H1 of stage-{args.j} kernel: {inv} "
        f"(needs {inv.min_generators} generators; "
        f"rank bound {entry['rank_bound']} -> {entry['rank_bound_ceiling']})"
    ]
    return entry, lines, 0


def cmd_rank_bound(args) -> tuple[dict, list[str], int]:
    bound = schreier_rank_bound(args.m, args.i)
    report = {
        "m": args.m,
        "i": args.i,
        "value": str(bound),
        "ceiling": ceil(bound),
    }
    return report, [f"rank >= {bound} (so at least {ceil(bound)})"], 0


# Run-all sections.  Each takes the run inputs and returns its results
# fragment, its verdicts and its text lines.  The verdicts map each claim id
# SECTIONS registers for the section to whether the claim holds; only
# `_run_sections` turns them into `failed`, `FAIL <claim id>` lines and status.

def _tables_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    tables = [_check_tables_at(j)[0] for j in range(1, inputs["jmax"] + 1)]
    # K_j's relators are among Kss_j's, so its violations are among theirs
    verdicts = {
        CLAIM_TABLES: not any(t["violations_identified"] for t in tables),
        CLAIM_SMALL_STAGE_ORDERS: all(
            t["image_order"] == t["expected_image_order"] for t in tables),
    }
    lines = []
    for t in tables:
        names = t["violations_identified"]
        lines.append(
            f"{'ok' if t['ok'] else 'FAIL'} tables j={t['j']}: "
            f"{len(names)} violations, image order {t['image_order']}"
        )
        lines += [f"  violated {name}" for name in names]
    return {"tables": tables}, verdicts, lines


def _fragment_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    entry = _fragment_entry()
    line = (
        ("ok" if entry["mismatch"] else "FAIL")
        + f" historical fragment: {entry['got']} != required {entry['expected']}"
    )
    return {"sternfeld": entry}, {CLAIM_FRAGMENT_MISMATCH: entry["mismatch"]}, [line]


def _surjection_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    trefoil = trefoil_presentation()
    pinned_report = check_relators(trefoil, TREFOIL_A5)
    found = search_surjections(trefoil, limit=1000)
    rediscovered = TREFOIL_A5 in found  # equality ignores the label
    entry = {
        "assignment": {g: str(TREFOIL_A5.value(g)) for g in trefoil.generators},
        "violations": [v.name for v in pinned_report.violations],
        "image_order": pinned_report.image_order,
        "search_found_pinned": rediscovered,
        "search_total": len(found),
    }
    ok = (pinned_report.ok and pinned_report.image_order == A5_ORDER
          and rediscovered)
    line = (
        f"trefoil onto A5: image order {entry['image_order']}, "
        f"search found pinned assignment: {rediscovered} "
        f"({len(found)} surjections total)"
    )
    return {"trefoil_surjection": entry}, {CLAIM_TREFOIL_SURJECTION: ok}, [line]


def _cover_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    trefoil = trefoil_presentation()
    covers = []
    lines = []
    for k, (free, torsion) in ((2, (1, [3])), (3, (1, [2, 2]))):
        inv = cover_homology(trefoil, cyclic_cover_table(trefoil, k))
        ok = inv.free_rank == free and list(inv.torsion) == torsion
        covers.append(
            {"fold": k, **inv.to_json_dict(),
             "expected": {"free_rank": free, "torsion": torsion}, "ok": ok}
        )
        lines.append(
            f"{'ok' if ok else 'FAIL'} {k}-fold cover H1: "
            f"free rank {inv.free_rank}, torsion {list(inv.torsion)}"
        )
    ok = all(c["ok"] for c in covers)
    return {"cover_homology": covers}, {CLAIM_COVER_H1: ok}, lines


def _quotient_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    quotients = []
    lines = []
    for k, expected_order in ((1, 1), (2, 3)):
        order, inv, ab_order = _quotient_orders(k)
        ok = order == expected_order and ab_order == expected_order
        quotients.append(
            {"fold": k, "order": order, "abelianization": inv.to_json_dict(),
             "expected_order": expected_order, "ok": ok}
        )
        lines.append(
            f"{'ok' if ok else 'FAIL'} {k}-fold cover mod boundary: order {order}"
        )
    ok = all(q["ok"] for q in quotients)
    return {"boundary_quotient": quotients}, {CLAIM_BOUNDARY_QUOTIENT: ok}, lines


def _torus_orbits(t: CosetTable, curves: tuple[Word, Word]) -> tuple[int, bool]:
    """Orbits on the cosets of ``t`` of the subgroup two boundary curves
    generate, and whether the curves commute there, as the two curves of a
    torus must.  The orbits count the boundary components over the torus."""
    x, y = (t.word_action(w) for w in curves)
    commute = all(y[a - 1] == x[b - 1] for a, b in zip(x, y))
    return orbit_count((x, y), t.index), commute


# Boundary components over the trefoil's boundary torus on its A5 cover.
TREFOIL_A5_BOUNDARY_COMPONENTS = 12


def _staged_boundary_components(d: int) -> tuple[int, int]:
    """Boundary components over the tori (alpha_l, beta_l) and (gamma_l,
    delta_l) of the stage at distance d = j - l from the top, on the
    60-sheeted kernel cover of a stage count j >= 3."""
    if d == 0:
        return 60, 30
    return (30, 20) if d % 2 else (20, 30)


def _boundary_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    trefoil = trefoil_presentation()
    torus = (TREFOIL_MERIDIAN, TREFOIL_LONGITUDE)
    folds = []
    ok = True
    for k in range(1, 9):
        t = cyclic_cover_table(trefoil, k)
        components, commute = _torus_orbits(t, torus)
        longitude = orbit_count([t.word_action(TREFOIL_LONGITUDE)], t.index)
        folds.append({"fold": k, "transitive": components == 1,
                      "commute": commute, "longitude_orbits": longitude})
        # the longitude dies in H1, so it fixes every coset of a cyclic cover
        ok = ok and components == 1 and commute and longitude == t.index
    a5, a5_commute = _torus_orbits(kernel_coset_table(trefoil, TREFOIL_A5), torus)
    ok = ok and a5_commute and a5 == TREFOIL_A5_BOUNDARY_COMPONENTS
    staged = []
    for j in range(3, inputs["jmax"] + 1):
        _, t = kernel_cover(j)
        # (orbits, commute) of both tori of each stage, from the top down
        tori = [[_torus_orbits(t, pair) for pair in stage_boundary_words(j - d)]
                for d in range(j)]
        components = [[n for n, _ in stage] for stage in tori]
        commute = all(c for stage in tori for _, c in stage)
        staged.append({"j": j, "components": components, "commute": commute})
        ok = ok and commute and components == [
            list(_staged_boundary_components(d)) for d in range(j)]
    fragment = {
        "boundary_connectivity": folds,
        "boundary_components": {
            "trefoil_a5": {"components": a5, "commute": a5_commute},
            "staged_kernels": staged,
        },
    }
    line = (f"{'ok' if ok else 'FAIL'} boundary components on cyclic covers "
            f"1..{len(folds)}, {a5} on the trefoil's A5 cover")
    if staged:
        line += f", by stage on kernels j=3..{staged[-1]['j']}"
    return fragment, {CLAIM_BOUNDARY_COMPONENTS: ok}, [line]


def _knot_h1_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    knot_h1 = [
        {"j": j, **abelianize(kj_presentation(j)).to_json_dict()}
        for j in range(1, min(inputs["jmax"], 6) + 1)
    ]
    ok = all(e["free_rank"] == 1 and e["torsion"] == [] for e in knot_h1)
    line = (
        "ok knot group H1 = Z at every computed stage count"
        if ok else "FAIL knot group H1"
    )
    return {"knot_group_h1": knot_h1}, {CLAIM_KNOT_H1: ok}, [line]


def _kernel_section(inputs: dict) -> tuple[dict, dict[str, bool], list[str]]:
    return _kernel_growth(
        [_kernel_entry(j)[0] for j in range(1, inputs["kernel_jmax"] + 1)])


def _kernel_growth(kernel: list[dict]) -> tuple[dict, dict[str, bool], list[str]]:
    """The kernel section's results from its entries, one per stage count
    from 1 up."""
    counts = [k["min_generators"] for k in kernel]
    # each bound divides by its own kernel's index, so growing counts alone
    # do not make the bounds grow
    bounds = [Fraction(k["rank_bound"]) for k in kernel]
    # growth from stage 2 on is the claim; stage 1 is the trefoil baseline
    strict = all(seq[i] < seq[i + 1] for seq in (counts, bounds)
                 for i in range(1, len(kernel) - 1))
    lines = [
        f"kernel homology j={k['j']}: {k['min_generators']} generators "
        f"needed, rank bound {k['rank_bound']} -> {k['rank_bound_ceiling']}"
        for k in kernel
    ]
    return ({"kernel_homology": kernel, "kernel_growth_strict_from_stage_2": strict},
            {CLAIM_KERNEL_GROWTH: strict}, lines)


# The claim registry: each section with the claim ids it gives verdicts on.
SECTIONS: tuple[tuple[tuple[str, ...], Callable], ...] = (
    ((CLAIM_TABLES, CLAIM_SMALL_STAGE_ORDERS), _tables_section),
    ((CLAIM_FRAGMENT_MISMATCH,), _fragment_section),
    ((CLAIM_TREFOIL_SURJECTION,), _surjection_section),
    ((CLAIM_COVER_H1,), _cover_section),
    ((CLAIM_BOUNDARY_QUOTIENT,), _quotient_section),
    ((CLAIM_BOUNDARY_COMPONENTS,), _boundary_section),
    ((CLAIM_KNOT_H1,), _knot_h1_section),
    ((CLAIM_KERNEL_GROWTH,), _kernel_section),
)


def _call(task: Callable) -> tuple[bool, object]:
    try:
        return True, task()
    except Exception as e:
        return False, e


def _run_tasks(tasks: dict[Hashable, Callable]) -> dict[Hashable, tuple[bool, object]]:
    """Call each of (at most 256) tasks once, on the CPUs this process may
    use; return each key's outcome, ``(True, result)`` or ``(False,
    exception)``.

    This process and min(CPUs, tasks) - 1 forked children pull the tasks,
    in the dict's order, from one pipe of task indices.  Each child sends
    its outcomes back pickled on a pipe of its own.  With one usable CPU,
    no ``os.fork`` or a second live thread (a forked copy of a threaded
    process can deadlock), no child is forked and every task runs here.
    The tasks of a child that sends nothing readable run here too."""
    import pickle
    import signal

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    forks = hasattr(os, "fork") and threading.active_count() == 1
    keys = list(tasks)
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(keys))))
    os.close(fill)

    def pull() -> dict[int, tuple[bool, object]]:
        done = {}
        while index := os.read(queue, 1):
            done[index[0]] = _call(tasks[keys[index[0]]])
        return done

    children: list[tuple[int, int]] = []
    try:
        for _ in range(min(cpus, len(keys)) - 1 if forks else 0):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: fewer children, same tasks
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                try:
                    with open(writer, "wb") as out:
                        out.write(pickle.dumps(pull()))
                finally:
                    os._exit(0)
            os.close(writer)
            children.append((pid, reader))
        outcomes = pull()
        for _, reader in children:
            with open(reader, "rb", closefd=False) as sent:
                data = sent.read()
            try:
                outcomes.update(pickle.loads(data))
            except Exception:
                pass  # the child died or sent what cannot be read back
        for i in range(len(keys)):
            if i not in outcomes:
                outcomes[i] = _call(tasks[keys[i]])
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, reader in children:
            os.close(reader)
            os.waitpid(pid, 0)
    return {keys[i]: outcome for i, outcome in outcomes.items()}


def _run_sections(jmax: int, kernel_jmax: int) -> tuple[dict, list[str]]:
    """Run every registry section; return the report and its text lines."""
    if jmax < 1:
        raise KnotcoverError(f"jmax must be at least 1, got {jmax}")
    check_stage_count(jmax)
    if kernel_jmax < 3:
        raise KnotcoverError(
            f"kernel_jmax must be at least 3, got {kernel_jmax}: kernel "
            "growth is compared from stage count 2 to 3")
    _check_kernel_stages(kernel_jmax, "Run `knotcover kernel-homology "
                         "--j N --force` for a larger stage count.")
    inputs = {"jmax": jmax, "kernel_jmax": kernel_jmax}
    # the kernel section is most of the time, so each of its stage counts
    # is a task of its own, the largest pulled first
    stages = range(1, kernel_jmax + 1)
    tasks: dict = {j: partial(_kernel_entry, j) for j in reversed(stages)}
    tasks.update((section, partial(section, inputs)) for _, section in SECTIONS
                 if section is not _kernel_section)
    outcomes = _run_tasks(tasks)

    def result(key):
        ok, value = outcomes[key]
        if not ok:
            raise value
        return value

    results: dict = {}
    failed: list[str] = []
    lines: list[str] = []
    # in registry order, so the error raised is the one a run of the
    # sections one after another would meet first
    for claims, section in SECTIONS:
        fragment, verdicts, section_lines = (
            _kernel_growth([result(j)[0] for j in stages])
            if section is _kernel_section else result(section))
        section_failed = [claim for claim in claims if not verdicts[claim]]
        results.update(fragment)
        failed += section_failed
        lines += section_lines + [f"FAIL {claim}" for claim in section_failed]
    status = "pass" if not failed else "fail"
    report = {
        "inputs": inputs,
        "results": results,
        "failed": sorted(failed),
        "status": status,
    }
    return report, lines + [f"status: {status}"]


def run_all(jmax: int = 5, kernel_jmax: int = 4) -> dict:
    """Run the whole verification battery and return the report dict."""
    return _envelope("run-all", _run_sections(jmax, kernel_jmax)[0])


def cmd_run_all(args) -> tuple[dict, list[str], int]:
    report, lines = _run_sections(args.jmax, args.kernel_jmax)
    return report, lines, 0 if report["status"] == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so that main reports them on
    its one ``error:`` line; subparsers inherit the class."""

    def error(self, message: str):
        raise KnotcoverError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="knotcover",
        description="verification toolkit for staged link groups and covers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, fn: Callable, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("presentation", cmd_presentation, help="print a built-in presentation")
    p.add_argument("--kind", choices=["trefoil", "kj", "kjss"], required=True)
    p.add_argument("--j", type=int, default=1, help="stage count")

    p = add("verify-tables", cmd_verify_tables,
            help="check the staged tables at one stage count")
    p.add_argument("--j", type=int, required=True)

    p = add("check-hom", cmd_check_hom,
            help="check an assignment file against a presentation file")
    p.add_argument("--pres", required=True)
    p.add_argument("--assign", required=True)

    p = add("search-hom", cmd_search_hom,
            help="search surjections onto A5 (at most 3 generators)")
    p.add_argument("--pres", required=True)
    p.add_argument("--limit", type=int, default=100)

    add("reproduce-sternfeld-error", cmd_reproduce_sternfeld_error,
        help="replay the historical sewing-word evaluation")

    p = add("cosets", cmd_cosets, help="build a coset table")
    p.add_argument("--pres", required=True)
    p.add_argument("--mode", choices=["kernel", "cyclic", "subgroup"],
                   required=True)
    p.add_argument("--assign")
    p.add_argument("--k", type=int)
    p.add_argument("--subgroup")

    p = add("abelianize", cmd_abelianize,
            help="abelian invariants of a presentation file")
    p.add_argument("--pres", required=True)

    p = add("cover-quotient", cmd_cover_quotient,
            help="k-fold cyclic cover of the trefoil modulo its boundary")
    p.add_argument("--fold", type=int, required=True)

    p = add("kernel-homology", cmd_kernel_homology,
            help="H1 of the staged-assignment kernel")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help="compute past the default stage limit")

    p = add("rank-bound", cmd_rank_bound, help="Schreier rank bound (m-1)/i + 1")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, required=True)

    p = add("run-all", cmd_run_all, help="run the full verification battery")
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--kernel-jmax", type=int, default=4, dest="kernel_jmax")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, lines, code = args.fn(args)
    except KnotcoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(_envelope(args.subcommand, report), sort_keys=True, indent=2)
              if args.json else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early; send the rest of stdout to devnull so
        # the interpreter's final flush raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
