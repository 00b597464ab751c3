"""The benchmark's three workloads.

A workload is a fixed list of operations built from the seed.  One pass
runs every operation once, in order, in this process (a closed loop with
one client).  Each operation calls the package's public functions through
a tracer and returns its result in a plain comparable form; the results
are checked after the pass, outside the timed region, against pinned
values or the independent oracle in ``oracle.py``.

With tracing off, ``kernel-sweep`` calls ``kernel_homology`` and the other
workloads call ``abelianize``.  With tracing on, both are split into their
public steps (presentation, tables, coset table, rewriting, relation
matrix, ``smith_normal_form_sparse``) so each layer gets its own span; the
pinned values check that the steps give the same invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from knotcover.cli import run_all
from knotcover.cosets import cyclic_cover_table, kernel_coset_table, todd_coxeter
from knotcover.homcheck import (
    GenAssignment,
    check_relators,
    phi_tables,
    search_surjections,
    sternfeld_error_repro,
)
from knotcover.perm import closure
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    trefoil_presentation,
)
from knotcover.snf import smith_normal_form, smith_normal_form_sparse
from knotcover.subgroups import (
    abelianize,
    boundary_quotient,
    kernel_homology,
    reidemeister_schreier,
)
from knotcover.words import Presentation, reduce, word

from oracle import smith_invariants
from tracer import NullTracer

# H1 of the staged-assignment kernel, as (free rank, {torsion factor:
# multiplicity}).  Minimum generator counts are 2, 12, 102, 142, 178.
KERNEL_H1 = {
    1: (1, {3: 1}),
    2: (4, {2: 2, 6: 6}),
    3: (36, {3: 21, 6: 39, 18: 2, 72: 4}),
    4: (51, {2: 25, 6: 60, 18: 1, 90: 1, 360: 4}),
    5: (71, {3: 15, 6: 80, 30: 2, 360: 6, 720: 1, 3600: 3}),
}
KERNEL_MIN_GENERATORS = {1: 2, 2: 12, 3: 102, 4: 142, 5: 178}

# Staged-table image orders; every stage count from 3 on gives A5.
IMAGE_ORDER = {1: 2, 2: 12}

# Rewritten kernel presentations: (index, Schreier generators, relators).
KERNEL_REWRITE = {
    1: (2, 17, 20), 2: (12, 205, 252), 3: (60, 1561, 1920),
    4: (60, 2101, 2580), 5: (60, 2641, 3240), 6: (60, 3181, 3900),
    7: (60, 3721, 4560), 8: (60, 4261, 5220),
}

# H1 of the k-fold cyclic cover of the trefoil complement has period 6 in k.
COVER_H1 = {1: (1, ()), 2: (1, (3,)), 3: (1, (2, 2)), 4: (1, (3,)),
            5: (1, ()), 0: (3, ())}
BOUNDARY_QUOTIENT_ORDER = {1: 1, 2: 3, 3: 4, 4: 3, 5: 1}
# Trefoil group (the braid group B3) modulo a^k: binary tetrahedral,
# octahedral and icosahedral extensions.
POWER_QUOTIENT_ORDER = {3: 24, 4: 96, 5: 600}

TREFOIL_A5 = {"a": "(1,3,5,4,2)", "b": "(1,2,3,4,5)"}
A5_ORDER = 60

SMALL_MATRICES = 3000  # sides 2..8
MEDIUM_MATRICES = 300  # sides 10..24


def torsion_tuple(multiplicities: dict[int, int]) -> tuple[int, ...]:
    return tuple(d for d, n in sorted(multiplicities.items()) for _ in range(n))


@dataclass
class Op:
    """One operation of a pass.

    ``layer`` names the public function blamed when the operation raises.
    ``expected`` is its pinned value; when ``oracle`` is set the expected
    value is computed by it instead, once, before timing starts.
    """

    name: str
    layer: str
    run: Callable[[Any, dict], Any]
    expected: Any = None
    oracle: Callable[[], Any] | None = None


# ---------------------------------------------------------------- steps


def relation_matrix(p: Presentation) -> dict[int, dict[int, int]]:
    """Exponent-sum matrix of the relators, as ``abelianize`` builds it."""
    index = p.generator_index()
    rows = {}
    for i, r in enumerate(p.relators):
        entries: dict[int, int] = {}
        for sym, sign in r:
            j = index[sym]
            entries[j] = entries.get(j, 0) + sign
        entries = {j: v for j, v in entries.items() if v}
        if entries:
            rows[i] = entries
    return rows


def build(tr, fn, *args):
    p = tr.call("presentations.build", fn, *args)
    if tr.enabled:
        tr.count("presentations.syllables", sum(len(r) for r in p.relators))
    return p


def rewrite(tr, p, table, tag=None):
    sub = tr.call("subgroups.reidemeister_schreier", reidemeister_schreier,
                  p, table, tag=tag)
    if tr.enabled:
        rels = sub.presentation.relators
        tr.count("subgroups.schreier_generators",
                 len(sub.presentation.generators), tag)
        tr.count("subgroups.rewritten_relators", len(rels), tag)
        tr.count("subgroups.rewritten_syllables",
                 sum(len(r) for r in rels), tag)
    return sub


def _snf(tr, name, fn, matrix, nrows, ncols, nnz, tag):
    if not tr.enabled:
        return fn(matrix)
    for key, n in (("calls", 1), ("rows", nrows), ("cols", ncols), ("nnz", nnz)):
        tr.count("snf." + key, n, tag)
    try:
        factors, rank = tr.call(name, fn, matrix, tag=tag)
    except Exception:
        tr.count("snf.failed", 1, tag)
        raise
    torsion = [d for d in factors if d > 1]
    tr.count("snf.rank", rank, tag)
    tr.count("snf.torsion_factors", len(torsion), tag)
    tr.maximum("snf.max_factor_bits", max(torsion, default=1).bit_length(), tag)
    return factors, rank


def invariants(tr, p: Presentation, tag=None):
    """(free rank, torsion) of ``p`` made abelian."""
    if not tr.enabled:
        inv = abelianize(p)
        return inv.free_rank, inv.torsion
    rows = tr.call("trace.relation_matrix", relation_matrix, p)
    ncols = len(p.generators)
    nnz = sum(len(r) for r in rows.values())
    factors, rank = _snf(tr, "snf.smith_normal_form_sparse",
                         smith_normal_form_sparse, rows, len(rows), ncols, nnz, tag)
    return ncols - rank, tuple(d for d in factors if d > 1)


def dense_snf(tr, m: list[list[int]]):
    nnz = sum(1 for row in m for v in row if v) if tr.enabled else 0
    return _snf(tr, "snf.smith_normal_form", smith_normal_form,
                m, len(m), len(m[0]), nnz, None)


def kernel_steps(tr, j: int):
    """The kernel pipeline up to the rewritten presentation."""
    tag = f"j{j}"
    p = build(tr, kj_presentation, j)
    phi = tr.call("homcheck.phi_tables", phi_tables, j)
    table = tr.call("cosets.kernel_coset_table", kernel_coset_table, p, phi, tag=tag)
    return p, table, rewrite(tr, p, table, tag)


def todd_coxeter_traced(tr, p, words=()):
    table = tr.call("cosets.todd_coxeter", todd_coxeter, p, words)
    if tr.enabled:
        tr.count("cosets.tc_index", table.index)
        tr.count("cosets.tc_subgroup_words", len(words))
    return table


def schreier_words(table, sub):
    """Schreier generators rep(c) g rep(c g)^-1 as words in the base
    generators."""
    reps = sub.transversal
    return [
        reduce(reps[c - 1].syllables + ((g, 1),)
               + reps[table.step(c, g, 1) - 1].inverse().syllables)
        for c, g in sub.schreier_gens
    ]


def kernel_sizes(j: int, free_rank: int | None = None, torsion=()) -> dict:
    """Problem sizes of the stage-j kernel from the cheap public steps,
    plus rank and largest torsion factor when its H1 is given."""
    _, table, sub = kernel_steps(NullTracer(), j)
    rows = relation_matrix(sub.presentation)
    entry = {
        "j": j,
        "index": table.index,
        "matrix_rows": len(rows),
        "matrix_cols": len(sub.presentation.generators),
        "matrix_nnz": sum(len(r) for r in rows.values()),
    }
    if free_rank is not None:
        entry["rank"] = entry["matrix_cols"] - free_rank
        entry["largest_torsion_factor"] = max(torsion, default=1)
    return entry


# ------------------------------------------------------------ workloads


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = self.build_ops()

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def sizes(self, results: dict) -> dict:
        """Problem sizes; ``results`` maps op name to a checked result."""
        return {"operations": len(self.ops)}

    def pass_checks(self, results: dict) -> list[str]:
        """Names of checks across operations that fail."""
        return []


class KernelSweep(Workload):
    name = "kernel-sweep"

    def build_ops(self):
        return [
            Op(f"kernel_homology.j{j}", "subgroups.kernel_homology",
               self._op(j), (free, torsion_tuple(mult)))
            for j, (free, mult) in KERNEL_H1.items()
        ]

    @staticmethod
    def _op(j):
        def run(tr, state):
            if not tr.enabled:
                inv = kernel_homology(j)
                return inv.free_rank, inv.torsion
            _, _, sub = kernel_steps(tr, j)
            return invariants(tr, sub.presentation, f"j{j}")
        return run

    def pass_checks(self, results):
        if len(results) < len(self.ops):
            return []  # an operation raised; that is already counted
        counts = [free + len(torsion) for free, torsion in results.values()]
        failed = []
        if counts != [KERNEL_MIN_GENERATORS[j] for j in KERNEL_H1]:
            failed.append("kernel minimum generator counts")
        if any(b <= a for a, b in zip(counts[1:], counts[2:])):
            failed.append("kernel rank growth from stage 2")
        return failed

    def sizes(self, results):
        return {
            "operations": len(self.ops),
            "kernels": [kernel_sizes(j, *results.get(f"kernel_homology.j{j}", ()))
                        for j in KERNEL_H1],
        }


class RunAll(Workload):
    name = "run-all"

    def build_ops(self):
        expected = {
            "status": "pass",
            "failed": [],
            "image_orders": [IMAGE_ORDER.get(j, A5_ORDER) for j in range(1, 6)],
            "fragment": ["(1,2)(3,5)", "(1,2)(3,4)", True],
            "surjections": [A5_ORDER, 120, True],
            "covers": [[k, COVER_H1[k][0], list(COVER_H1[k][1])] for k in (2, 3)],
            "quotients": [[k, BOUNDARY_QUOTIENT_ORDER[k]] for k in (1, 2)],
            "transitive_folds": list(range(1, 9)),
            "knot_h1": [[1, []] for _ in range(5)],
            "kernel_h1": [[KERNEL_H1[j][0], list(torsion_tuple(KERNEL_H1[j][1]))]
                          for j in range(1, 5)],
            "rank_bound_ceilings": [2, 2, 3, 4],
            "growth_strict": True,
        }
        return [Op("run_all", "cli.run_all", self._op, expected)]

    @staticmethod
    def _op(tr, state):
        if tr.enabled:
            # presentations run_all builds, so the layer is reported here too
            build(tr, trefoil_presentation)
            for j in range(1, 6):
                build(tr, kj_presentation, j)
                build(tr, kjss_presentation, j)
        return summarize_run_all(tr.call("cli.run_all", run_all))

    def sizes(self, results):
        h1 = results["run_all"]["kernel_h1"] if "run_all" in results else []
        return {
            "operations": len(self.ops),
            "inputs": {"jmax": 5, "kernel_jmax": 4},
            "kernels": [kernel_sizes(j, *inv) for j, inv in enumerate(h1, start=1)],
        }


def summarize_run_all(report: dict) -> dict:
    """The values of a run-all report that the benchmark pins."""
    res = report["results"]
    surj = res["trefoil_surjection"]
    frag = res["sternfeld"]
    return {
        "status": report["status"],
        "failed": report["failed"],
        "image_orders": [t["image_order"] for t in res["tables"]],
        "fragment": [frag["got"], frag["expected"], frag["mismatch"]],
        "surjections": [surj["image_order"], surj["search_total"],
                        surj["search_found_pinned"]],
        "covers": [[c["fold"], c["free_rank"], c["torsion"]]
                   for c in res["cover_homology"]],
        "quotients": [[q["fold"], q["order"]] for q in res["boundary_quotient"]],
        "transitive_folds": [c["fold"] for c in res["boundary_connectivity"]
                             if c["transitive"]],
        "knot_h1": [[e["free_rank"], e["torsion"]] for e in res["knot_group_h1"]],
        "kernel_h1": [[k["homology"]["free_rank"], k["homology"]["torsion"]]
                      for k in res["kernel_homology"]],
        "rank_bound_ceilings": [k["rank_bound_ceiling"]
                                for k in res["kernel_homology"]],
        "growth_strict": res["kernel_growth_strict_from_stage_2"],
    }


class ChecksAndCosets(Workload):
    name = "checks-and-cosets"

    def build_ops(self):
        self.trefoil = trefoil_presentation()
        self.pinned = GenAssignment.from_names(TREFOIL_A5, label="trefoil-a5")
        self.matrices = random_matrices(self.seed)
        ops = []
        for j in range(1, 25):
            o = IMAGE_ORDER.get(j, A5_ORDER)
            ops.append(Op(f"tables.j{j}", "homcheck.check_relators",
                          self._tables(j), (0, 0, o, o, o)))
        for j in range(1, 25):
            ops.append(Op(f"knot_h1.j{j}", "subgroups.abelianize",
                          lambda tr, st, j=j: invariants(tr, build(tr, kj_presentation, j)),
                          (1, ())))
        ops.append(Op("fragment", "homcheck.sternfeld_error_repro", self._fragment,
                      ("(1,2)(3,5)", "(1,2)(3,4)")))
        ops.append(Op("surjections", "homcheck.search_surjections",
                      self._surjections, (120, True)))
        for k in range(1, 13):
            ops.append(Op(f"cover_h1.k{k}", "subgroups.reidemeister_schreier",
                          self._cover(k), COVER_H1[k % 6]))
        for k, order in BOUNDARY_QUOTIENT_ORDER.items():
            ops.append(Op(f"boundary_quotient.k{k}", "subgroups.boundary_quotient",
                          self._quotient(k), (order, order)))
        for k, order in POWER_QUOTIENT_ORDER.items():
            p = Presentation(self.trefoil.generators,
                             self.trefoil.relators + (word("a") ** k,),
                             label=f"trefoil-a{k}")
            ops.append(Op(f"power_quotient.k{k}", "cosets.todd_coxeter",
                          lambda tr, st, p=p: todd_coxeter_traced(tr, p).index, order))
        for j, expected in KERNEL_REWRITE.items():
            ops.append(Op(f"kernel_rewrite.j{j}", "subgroups.reidemeister_schreier",
                          self._kernel(j), expected))
        for j in range(3, 9):
            ops.append(Op(f"kernel_todd_coxeter.j{j}", "cosets.todd_coxeter",
                          self._kernel_tc(j), (KERNEL_REWRITE[j][0],) * 2))
        for i, m in enumerate(self.matrices):
            ops.append(Op(f"snf.{i}", "snf.smith_normal_form",
                          lambda tr, st, m=m: dense_snf(tr, m),
                          oracle=lambda m=m: smith_invariants(m)))
        return ops

    @staticmethod
    def _tables(j):
        def run(tr, state):
            phi = tr.call("homcheck.phi_tables", phi_tables, j)
            kj = build(tr, kj_presentation, j)
            kjss = build(tr, kjss_presentation, j)
            plain = tr.call("homcheck.check_relators", check_relators, kj, phi)
            identified = tr.call("homcheck.check_relators", check_relators, kjss, phi)
            group = tr.call("perm.closure", closure, phi.values_in_order(kj.generators))
            if tr.enabled:
                tr.count("homcheck.relators_checked",
                         len(kj.relators) + len(kjss.relators))
                tr.count("perm.group_order", group.order)
            return (len(plain.violations), len(identified.violations),
                    plain.image_order, identified.image_order, group.order)
        return run

    @staticmethod
    def _fragment(tr, state):
        r = tr.call("homcheck.sternfeld_error_repro", sternfeld_error_repro)
        return str(r.got), str(r.expected)

    def _surjections(self, tr, state):
        limit = 1000
        found = tr.call("homcheck.search_surjections", search_surjections,
                        self.trefoil, limit=limit)
        if tr.enabled:
            # the search is exhaustive when it stops short of the limit
            if len(found) < limit:
                tr.count("homcheck.search_candidates",
                         A5_ORDER ** len(self.trefoil.generators))
            tr.count("homcheck.surjections_found", len(found))
        gens = self.trefoil.generators
        hit = any(all(a.value(g) == self.pinned.value(g) for g in gens)
                  for a in found)
        return len(found), hit

    def _cover(self, k):
        def run(tr, state):
            table = tr.call("cosets.cyclic_cover_table", cyclic_cover_table,
                            self.trefoil, k)
            sub = rewrite(tr, self.trefoil, table)
            return invariants(tr, sub.presentation)
        return run

    @staticmethod
    def _quotient(k):
        def run(tr, state):
            q = tr.call("subgroups.boundary_quotient", boundary_quotient, k=k)
            order = todd_coxeter_traced(tr, q).index
            free, torsion = invariants(tr, q)
            ab_order = None
            if free == 0:
                ab_order = 1
                for d in torsion:
                    ab_order *= d
            return order, ab_order
        return run

    @staticmethod
    def _kernel(j):
        def run(tr, state):
            p, table, sub = kernel_steps(tr, j)
            state[j] = (p, table, sub)
            return (table.index, len(sub.presentation.generators),
                    len(sub.presentation.relators))
        return run

    @staticmethod
    def _kernel_tc(j):
        def run(tr, state):
            p, table, sub = state[j]
            words = tr.call("trace.schreier_words", schreier_words, table, sub)
            return todd_coxeter_traced(tr, p, words).index, table.index
        return run

    def sizes(self, results):
        largest = max(
            (max(results[f"snf.{i}"][0], default=1)
             for i in range(len(self.matrices)) if f"snf.{i}" in results),
            default=1,
        )
        return {
            "operations": len(self.ops),
            "kernels": [kernel_sizes(j) for j in KERNEL_REWRITE],
            "matrices": {
                "small": SMALL_MATRICES,
                "medium": MEDIUM_MATRICES,
                "low_rank": SMALL_MATRICES // 2 + MEDIUM_MATRICES // 2,
                "entries": sum(len(m) * len(m[0]) for m in self.matrices),
                "largest_torsion_factor": largest,
            },
        }


def random_matrices(seed: int) -> list[list[list[int]]]:
    """Seeded integer matrices: even positions have independent entries in
    -9..9 (almost always full rank), odd positions are products A B of
    random matrices with entries in -3..3 and an inner side smaller than
    both sides (so rank-deficient)."""
    rng = random.Random(seed)
    out = []
    for count, lo, hi in ((SMALL_MATRICES, 2, 8), (MEDIUM_MATRICES, 10, 24)):
        for i in range(count):
            n, m = rng.randint(lo, hi), rng.randint(lo, hi)
            if i % 2 == 0:
                out.append([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
                continue
            r = rng.randint(1, min(n, m) - 1)
            a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
            out.append([[sum(a[x][t] * b[t][y] for t in range(r)) for y in range(m)]
                        for x in range(n)])
    return out


WORKLOADS = {w.name: w for w in (KernelSweep, RunAll, ChecksAndCosets)}
