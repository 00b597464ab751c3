"""Subgroup presentations and homology: Reidemeister-Schreier rewriting of a
coset table, abelian invariants via Smith normal form, the cyclic-cover
boundary quotient, and the rank growth of staged-kernel homology.

One walk over a coset table rewrites it: ``CosetTable.verify`` traces and
checks the table and returns the relator paths; the walk builds the tree
and transversal and maps Schreier columns over those paths, so it raises
exactly what verify raises.
``reidemeister_schreier`` turns the walk into words, also for the boundary
words of ``boundary_quotient``; ``cover_homology`` reads the H1 relation rows
straight off it, with no rewritten word or presentation in between."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .cosets import CosetTable, cyclic_cover_table, kernel_coset_table
from .errors import CapacityError, InvalidArgumentError
from .homcheck import phi_tables
from .presentations import kj_presentation, trefoil_presentation
from .snf import _smith
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
    """Rewrite every relator of ``p`` from every coset of ``t``, along the
    paths ``t.verify(p)`` traces and returns.

    Returns ``(reps, pairs, walks)``:
    - ``reps`` holds each coset's representative as syllables, coset 1's
      first: its path on the breadth-first tree from coset 1, which takes
      forward edges before backward ones, generators in presentation
      order, and never backtracks, so each is reduced;
    - ``pairs`` lists the Schreier generators (coset, generator), the pairs
      off the tree in coset-then-generator order; a pair's position is its
      column;
    - ``walks(syllable)`` yields, for relator i read from coset c, in that
      order, the tuple of ``syllable(column, sign)`` for each syllable off
      the tree.  ``syllable`` must return a non-empty tuple; it is called
      once per column and sign, and every occurrence shares the result.

    The table is checked first, so a bad one raises what
    ``CosetTable.verify`` raises before any tree is built.  Each walk is
    freely reduced: a cancelling pair would enclose a closed, reduced walk
    on the tree, and there is none.
    """
    paths = t.verify(p)
    n, gens, rows = t.index, t.gens, t.rows

    # breadth-first spanning tree from coset 1 (0 here): a representative
    # is its parent's plus one syllable; the pair (c, g) with g the i-th
    # generator is numbered c * len(gens) + i
    m = len(gens)
    reps: list[tuple | None] = [()] + [None] * (n - 1)
    on_tree: set[int] = set()
    queue = [0]
    for cur in queue:
        for i, g in enumerate(gens):
            for sign in (1, -1):
                nxt = rows[g, sign][cur]
                if reps[nxt] is None:
                    reps[nxt] = reps[cur] + ((g, sign),)
                    on_tree.add((cur if sign > 0 else nxt) * m + i)
                    queue.append(nxt)

    pairs = []
    column: list[int | None] = [None] * (n * m)
    for x in range(n * m):
        if x not in on_tree:
            column[x] = len(pairs)
            pairs.append((x // m + 1, gens[x % m]))

    def walks(syllable: Callable[[int, int], tuple]) -> Iterator[tuple]:
        # What each syllable contributes at each coset, None on the tree:
        # g read at c crosses the pair (c, g); g^-1 read at c crosses
        # (c * g^-1, g) backwards.
        crossing = {}
        for i, g in enumerate(gens):
            for sign in (1, -1):
                ids = [column[c * m + i]
                       for c in (range(n) if sign > 0 else rows[g, -1])]
                crossing[g, sign] = [None if k is None else syllable(k, sign)
                                     for k in ids]
        for path, r in zip(paths, p.relators):
            crossed = [map(crossing[syl].__getitem__, at)
                       for syl, at in zip(r, path)]
            for walk in zip(*crossed) if crossed else [()] * n:
                yield tuple(filter(None, walk))

    return reps, pairs, walks


def reidemeister_schreier(p: Presentation, t: CosetTable) -> SubgroupPresentation:
    """Presentation of the subgroup whose coset action ``t`` describes."""
    reps, pairs, walks = _schreier_walk(p, t)
    n = t.index
    names = [f"{g}x{c}" for c, g in pairs]
    rel_names = [f"{name}@{c}"
                 for name in map(p.relator_name, range(len(p.relators)))
                 for c in range(1, n + 1)]
    # the public constructor checks at run time that each walk is reduced
    relators = [Word(walk) for walk in walks(lambda k, sign: (names[k], sign))]
    derived = Presentation(
        generators=tuple(names),
        relators=tuple(relators),
        label=f"{p.label or 'base'}-index{n}",
        relator_names=tuple(rel_names),
    )
    return SubgroupPresentation(
        presentation=derived,
        transversal=tuple(map(Word._trusted, reps)),
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


def _invariants(relators: Iterable[Sequence[tuple[int, int]]],
                ncols: int) -> AbelianInvariants:
    """Invariants of the abelian group on ``ncols`` generators with one
    relation per relator, a relator given as its (column, sign) syllables:
    Smith normal form of the exponent-sum rows, each row's columns in order
    of first occurrence.

    ``relators`` is read to its end before the elimination starts, so a
    generator over a walk has let go of the walk by then.  The rows built
    here, zeros and empty rows already left out, are handed to the
    elimination itself, which consumes them: they are the one copy of the
    matrix live during it.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, r in enumerate(relators):
        entries = dict(r)
        if len(entries) < len(r):
            # a column repeats: sum its signs
            entries = {}
            for j, sign in r:
                entries[j] = entries.get(j, 0) + sign
            entries = {j: v for j, v in entries.items() if v}
        if entries:
            rows[i] = entries
    factors, rank = _smith(rows)
    return AbelianInvariants(
        free_rank=ncols - rank,
        torsion=tuple(d for d in factors if d > 1),
    )


def abelianize(p: Presentation) -> AbelianInvariants:
    """Invariants of the presented group made abelian: Smith normal form of
    the relator exponent-sum matrix."""
    index = p.generator_index()
    return _invariants(
        ([(index[sym], sign) for sym, sign in r] for r in p.relators),
        len(p.generators),
    )


def cover_homology(p: Presentation, t: CosetTable) -> AbelianInvariants:
    """First homology of the subgroup whose coset action ``t`` describes:
    ``abelianize(reidemeister_schreier(p, t).presentation)``, with the same
    exponent-sum rows in the same order, read straight off the table.

    By Fox calculus each syllable g read at coset x adds its sign at the
    Schreier column (x, g), and g^-1 read at x subtracts at (x * g^-1, g),
    so no rewritten word, name or presentation is built.

    The walk is dropped here before its rows are read, and its generator
    lets go of the paths and Schreier columns once the last row is read,
    so the elimination runs beside the rows alone.
    """
    reps, pairs, walks = _schreier_walk(p, t)
    ncols = len(pairs)
    relators = walks(lambda k, sign: (k, sign))
    del reps, pairs, walks
    return _invariants(relators, ncols)


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
