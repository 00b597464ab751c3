"""Subgroup presentations and homology: Reidemeister-Schreier rewriting of a
coset table, abelian invariants via Smith normal form, the cyclic-cover
boundary quotient, and the rank growth of staged-kernel homology.

One walk over a coset table rewrites it: ``CosetTable.verify`` traces and
checks the table and returns the relator paths; the walk builds the tree
and transversal and a table of the Schreier column each syllable crosses
at each coset, so it raises exactly what verify raises.
``reidemeister_schreier`` reads words off those tables, also for the
boundary words of ``boundary_quotient``.  ``cover_homology`` reads the H1
relation rows off them, relator by relator: it fills the rows of all
cosets at once, one syllable at a time, summing each syllable's sign at
the column it crosses from each coset.  No rewritten word, walk or
presentation is built, and the rows come out as ``abelianize`` builds
them from the rewritten presentation, in the same order with their
columns in the same order."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cosets import CosetTable, cyclic_cover_table, kernel_coset_table
from .errors import CapacityError, InvalidArgumentError
from .homcheck import phi_tables
from .presentations import kj_presentation, trefoil_presentation
from .snf import SparseRows, _smith
from .words import Presentation, Word, word

# Boundary curves of the trefoil complement, as words in the two-generator
# presentation: the meridian is the generator a, and the longitude below is
# the boundary curve that commutes with it and dies under abelianization.
# It equals the central form (a b)^3 a^-6.
TREFOIL_MERIDIAN = word("a")
TREFOIL_LONGITUDE = word("a^-1 b a a b a^-1 a^-1 a^-1")


@dataclass(frozen=True, eq=False)
class SubgroupPresentation:
    """A rewritten presentation of the subgroup a coset table describes.

    Schreier generator s = (c, g) stands for rep(c) * g * rep(c * g)^-1,
    named by appending "x<coset>" to the base generator name; the last "x"
    splits the name back into g and c.  Spanning-tree pairs are dropped,
    leaving index * gens - index + 1 generators; every base relator is
    rewritten once per coset.

    The pairs are not stored: ``schreier_gens`` reads them off the
    generator names each time it is asked.
    """

    presentation: Presentation
    transversal: tuple[Word, ...]

    @property
    def schreier_gens(self) -> tuple[tuple[int, str], ...]:
        """The pairs (coset, generator) of the Schreier generators, in the
        order of ``presentation.generators``: each name split at its last
        "x"."""
        return tuple((int(c), g) for g, _, c in
                     (name.rpartition("x") for name in self.presentation.generators))


def _schreier_walk(p: Presentation, t: CosetTable):
    """The Schreier tree of ``t`` and the tables that rewrite every
    relator of ``p`` from every coset, along the paths ``t.verify(p)``
    traces and returns.

    Returns ``(reps, pairs, paths, crossing)``:
    - ``reps[c]`` is coset c's representative as syllables, after a
      padding item 0: its path on the breadth-first tree from coset 1,
      which takes forward edges before backward ones, generators in
      presentation order, and never backtracks, so each is reduced;
    - ``pairs`` lists the Schreier generators (coset, generator), the pairs
      off the tree in coset-then-generator order; a pair's position is its
      column;
    - ``paths`` holds, for each relator, the cosets at which each of its
      syllables is read, one list per syllable with one entry per
      starting coset;
    - ``crossing[g, sign][x]`` is the column the syllable (g, sign) crosses
      when read at coset x, or None on the tree: g read at x crosses the
      pair (x, g); g^-1 read at x crosses (x * g^-1, g) backwards.

    So relator i read from coset c crosses, in order, the columns
    ``crossing[syl][at[c]]`` for each syllable ``syl`` of it and ``at`` of
    its path, each with the syllable's sign.  The table is checked first,
    so a bad one raises what ``CosetTable.verify`` raises before any tree
    is built.  Each such walk is freely reduced: a cancelling pair would
    enclose a closed, reduced walk on the tree, and there is none.
    """
    paths = t.verify(p)
    n, gens, rows = t.index, t.gens, t.rows

    # breadth-first spanning tree from coset 1: a representative is its
    # parent's plus one syllable; the pair (c, g) with g the i-th generator
    # is numbered c * len(gens) + i, and its column is None on the tree or
    # in the padding that coset 0 stands for
    m = len(gens)
    reps: list[tuple | None] = [None, ()] + [None] * (n - 1)
    column: list[int | None] = [None] * m + [0] * (n * m)
    queue = [1]
    for cur in queue:
        for i, g in enumerate(gens):
            for sign in (1, -1):
                nxt = rows[g, sign][cur]
                if reps[nxt] is None:
                    reps[nxt] = reps[cur] + ((g, sign),)
                    column[(cur if sign > 0 else nxt) * m + i] = None
                    queue.append(nxt)

    pairs = []
    for x, k in enumerate(column):
        if k is not None:
            column[x] = len(pairs)
            pairs.append((x // m, gens[x % m]))

    crossing = {}
    for i, g in enumerate(gens):
        crossing[g, 1] = column[i::m]
        crossing[g, -1] = [column[c * m + i] for c in rows[g, -1]]
    return reps, pairs, paths, crossing


def reidemeister_schreier(p: Presentation, t: CosetTable) -> SubgroupPresentation:
    """Presentation of the subgroup whose coset action ``t`` describes."""
    reps, pairs, paths, crossing = _schreier_walk(p, t)
    n = t.index
    names = [f"{g}x{c}" for c, g in pairs]
    rel_names = [f"{name}@{c}" for name in p.relator_names
                 for c in range(1, n + 1)]
    # each column crosses at one coset per sign, so each syllable is made
    # once and every occurrence shares it
    syllables = {syl: [None if k is None else (names[k], syl[1]) for k in ks]
                 for syl, ks in crossing.items()}
    # the public constructor checks at run time that each walk is reduced
    relators = []
    for path, r in zip(paths, p.relators):
        crossed = [map(syllables[syl].__getitem__, at)
                   for syl, at in zip(r, path)]
        for walk in zip(*crossed) if crossed else [()] * n:
            relators.append(Word(tuple(filter(None, walk))))
    derived = Presentation(
        generators=tuple(names),
        relators=tuple(relators),
        label=f"{p.label or 'base'}-index{n}",
        relator_names=tuple(rel_names),
    )
    return SubgroupPresentation(
        presentation=derived,
        transversal=tuple(map(Word._trusted, reps[1:])),
    )


@dataclass(frozen=True)
class AbelianInvariants:
    """An abelian group Z^free_rank + Z/d1 + ... with d1 | d2 | ..., di >= 2."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank cannot be negative")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError(f"torsion factor {d} is not >= 2")
            if i and d % self.torsion[i - 1]:
                raise ValueError("torsion factors must form a divisibility chain")

    @property
    def min_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def to_json_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _invariants(rows: SparseRows, ncols: int) -> AbelianInvariants:
    """Invariants of the abelian group on ``ncols`` generators with one
    relation per row: Smith normal form of ``rows``, each a relator's
    exponent sums by column, zeros kept.

    The rows are handed to the elimination itself, which drops the zeros
    and empty rows and consumes the rest: they are the one copy of the
    matrix live during it.
    """
    factors, rank = _smith(rows)
    return AbelianInvariants(
        free_rank=ncols - rank,
        torsion=tuple(d for d in factors if d > 1),
    )


def abelianize(p: Presentation) -> AbelianInvariants:
    """Invariants of the presented group made abelian: Smith normal form of
    the relator exponent-sum matrix.  One loop adds each syllable's sign
    into its column, so a row's columns are in order of first occurrence,
    whether or not a column repeats."""
    index = p.generator_index()
    rows: SparseRows = {}
    for i, r in enumerate(p.relators):
        rows[i] = entries = {}
        for sym, sign in r:
            j = index[sym]
            entries[j] = entries.get(j, 0) + sign
    return _invariants(rows, len(p.generators))


def cover_homology(p: Presentation, t: CosetTable) -> AbelianInvariants:
    """First homology of the subgroup whose coset action ``t`` describes:
    ``abelianize(reidemeister_schreier(p, t).presentation)``, with the same
    exponent-sum rows in the same order, read straight off the table.

    By Fox calculus each syllable g read at coset x adds its sign at the
    Schreier column (x, g), and g^-1 read at x subtracts at (x * g^-1, g),
    so no rewritten word, name or presentation is built.  The paths and
    Schreier columns are let go of once the rows are built, so the
    elimination runs beside the rows alone.
    """
    rows, ncols = _cover_rows(p, t)
    return _invariants(rows, ncols)


def _cover_rows(p: Presentation, t: CosetTable) -> tuple[SparseRows, int]:
    """The exponent-sum rows ``abelianize`` builds for the rewritten
    presentation of ``t``'s subgroup, and its generator count.

    Relator by relator, one row per coset is filled syllable by syllable:
    a syllable's column at each coset is looked up in the walk's
    ``crossing`` table along its path and summed in place, so a row's
    columns are in order of first occurrence, zeros kept, as in
    ``abelianize``, with no rewritten walk in between.
    """
    _, pairs, paths, crossing = _schreier_walk(p, t)
    n = t.index
    rows: SparseRows = {}
    for path, r in zip(paths, p.relators):
        block = [{} for _ in range(n)]
        for syl, at in zip(r, path):
            sign = syl[1]
            for entries, k in zip(block, map(crossing[syl].__getitem__, at)):
                if k is not None:
                    entries[k] = entries.get(k, 0) + sign
        rows.update(enumerate(block, len(rows)))
    return rows, len(pairs)


def boundary_quotient(k: int) -> Presentation:
    """Presentation of the trefoil's k-fold cyclic cover modulo its boundary:
    the Reidemeister-Schreier rewrite, over the cover's table, of the trefoil
    presentation extended by two relators, TREFOIL_MERIDIAN^k and
    TREFOIL_LONGITUDE.

    Both boundary words fix every coset, so their rewrites from coset r are
    the words r TREFOIL_MERIDIAN^k r^-1 and r TREFOIL_LONGITUDE r^-1.  Folds
    above BOUNDARY_QUOTIENT_MAX_FOLD are refused before any table is built.
    """
    if k > BOUNDARY_QUOTIENT_MAX_FOLD:
        raise CapacityError(
            f"fold {k} exceeds the limit {BOUNDARY_QUOTIENT_MAX_FOLD}: the "
            f"relator meridian^{k} would be traced from each of the {k} cosets"
        )
    p = trefoil_presentation()
    extended = Presentation(
        generators=p.generators,
        relators=p.relators + (TREFOIL_MERIDIAN ** k, TREFOIL_LONGITUDE),
        label=f"{p.label}-mod-boundary",
        relator_names=(*p.relator_names, f"meridian^{k}", "longitude"),
    )
    return reidemeister_schreier(extended, cyclic_cover_table(p, k)).presentation


def schreier_rank_bound(m: int, i: int) -> Fraction:
    """Rank bound from the Schreier index formula, exact in Fraction form.

    A subgroup of index i of a rank-r group has rank at most i(r - 1) + 1,
    so a subgroup needing m generators gives r >= (m - 1)/i + 1.
    """
    if m < 0 or i < 1:
        raise InvalidArgumentError(f"need m >= 0 and i >= 1, got m={m}, i={i}")
    return Fraction(m - 1, i) + 1


# The largest fold `boundary_quotient` accepts.  Its boundary relator
# meridian^k is traced from all k cosets, so time and memory grow about
# quadratically: `knotcover cover-quotient --fold N` took 0.35-0.41 /
# 0.83-0.87 / 2.9 s at a peak of 26 / 51 / 147 MiB for N = 500 / 1000 /
# 2000 (Python 3.11 on a shared two-vCPU Xeon host, five fresh processes
# each, three at N = 2000 with the limit raised).
BOUNDARY_QUOTIENT_MAX_FOLD = 1000


def kernel_cover(j: int) -> tuple[Presentation, CosetTable]:
    """The j-stage link presentation and the coset table of the kernel of
    its staged assignment, one coset per image element."""
    p = kj_presentation(j)
    return p, kernel_coset_table(p, phi_tables(j))


def kernel_homology(j: int) -> AbelianInvariants:
    """First homology of the kernel of the staged assignment on the j-stage
    link presentation: ``cover_homology`` of ``kernel_cover(j)``."""
    return cover_homology(*kernel_cover(j))
