"""Subgroup presentations and homology: Reidemeister-Schreier rewriting of a
coset table, abelian invariants via Smith normal form, the cyclic-cover
boundary quotient, and the rank growth of staged-kernel homology."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cosets import CosetTable, cyclic_cover_table, kernel_coset_table
from .errors import CapacityError, InvalidArgumentError
from .homcheck import phi_tables
from .presentations import kj_presentation, trefoil_presentation
from .snf import smith_normal_form_sparse
from .words import Presentation, Word, reduce, word

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
    """

    table: CosetTable
    schreier_gens: tuple[tuple[int, str], ...]
    presentation: Presentation
    transversal: tuple[Word, ...]

    def rewrite_from(self, coset: int, w: Word) -> Word:
        """Rewrite rep(coset) * w * rep(trace(coset, w))^-1 in the Schreier
        generators.  With trace(coset, w) == coset this is the rewriting of
        a subgroup element conjugated by the transversal representative."""
        return _rewrite(self.table, self._names, coset, w)

    @cached_property
    def _names(self) -> dict[tuple[int, str], str]:
        return dict(zip(self.schreier_gens, self.presentation.generators))


def _rewrite(t: CosetTable, names: dict[tuple[int, str], str],
             coset: int, w: Word) -> Word:
    """Rewrite a word read from ``coset``; ``names`` maps each Schreier pair
    to its generator, and a pair it lacks is a tree edge."""
    out = []
    cur = coset
    for sym, sign in w:
        if sign > 0:
            nxt = t.step(cur, sym, 1)
            name = names.get((cur, sym))
        else:
            nxt = t.step(cur, sym, -1)
            name = names.get((nxt, sym))
        if name is not None:
            out.append((name, sign))
        cur = nxt
    return reduce(out)


def reidemeister_schreier(p: Presentation, t: CosetTable) -> SubgroupPresentation:
    """Presentation of the subgroup whose coset action ``t`` describes."""
    t.verify(p)
    n = t.index
    gens = t.gens

    # breadth-first spanning tree from coset 1, forward edges before
    # backward ones, generators in presentation order
    tree: set[tuple[int, str]] = set()
    rep: dict[int, Word] = {1: Word()}
    queue = [1]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = t.step(cur, g, 1)
            if nxt not in rep:
                rep[nxt] = rep[cur] * Word(((g, 1),))
                tree.add((cur, g))
                queue.append(nxt)
            prev = t.step(cur, g, -1)
            if prev not in rep:
                rep[prev] = rep[cur] * Word(((g, -1),))
                tree.add((prev, g))
                queue.append(prev)

    # one name per Schreier generator, shared by every occurrence
    names = {
        (c, g): f"{g}x{c}"
        for c in range(1, n + 1)
        for g in gens
        if (c, g) not in tree
    }

    relators = []
    rel_names = []
    for i, r in enumerate(p.relators):
        for c in range(1, n + 1):
            relators.append(_rewrite(t, names, c, r))
            rel_names.append(f"{p.relator_name(i)}@{c}")
    derived = Presentation(
        generators=tuple(names.values()),
        relators=tuple(relators),
        label=f"{p.label or 'base'}-index{n}",
        relator_names=tuple(rel_names),
    )
    return SubgroupPresentation(
        table=t,
        schreier_gens=tuple(names),
        presentation=derived,
        transversal=tuple(rep[c] for c in range(1, n + 1)),
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


def abelianize(p: Presentation) -> AbelianInvariants:
    """Invariants of the presented group made abelian: Smith normal form of
    the relator exponent-sum matrix."""
    index = p.generator_index()
    rows: dict[int, dict[int, int]] = {}
    for i, r in enumerate(p.relators):
        entries: dict[int, int] = {}
        for sym, sign in r:
            j = index[sym]
            entries[j] = entries.get(j, 0) + sign
        entries = {j: v for j, v in entries.items() if v}
        if entries:
            rows[i] = entries
    factors, rank = smith_normal_form_sparse(rows)
    return AbelianInvariants(
        free_rank=len(p.generators) - rank,
        torsion=tuple(d for d in factors if d > 1),
    )


def boundary_quotient(k: int) -> Presentation:
    """Presentation of the trefoil's k-fold cyclic cover modulo its boundary:
    the rewritten cover presentation plus, for every coset representative r,
    the rewritten words r TREFOIL_MERIDIAN^k r^-1 and r TREFOIL_LONGITUDE r^-1.
    """
    p = trefoil_presentation()
    sub = reidemeister_schreier(p, cyclic_cover_table(p, k))
    relators = list(sub.presentation.relators)
    names = list(sub.presentation.relator_names)
    power = TREFOIL_MERIDIAN ** k
    for c in range(1, k + 1):
        relators.append(sub.rewrite_from(c, power))
        names.append(f"meridian^{k}@{c}")
        relators.append(sub.rewrite_from(c, TREFOIL_LONGITUDE))
        names.append(f"longitude@{c}")
    return Presentation(
        generators=sub.presentation.generators,
        relators=tuple(relators),
        label=f"{p.label}-cover{k}-mod-boundary",
        relator_names=tuple(names),
    )


def schreier_rank_bound(m: int, i: int) -> Fraction:
    """Rank bound from the Schreier index formula, exact in Fraction form.

    A subgroup of index i of a rank-r group has rank at most i(r - 1) + 1,
    so a subgroup needing m generators forces r >= (m - 1)/i + 1.
    """
    if m < 0 or i < 1:
        raise InvalidArgumentError(f"need m >= 0 and i >= 1, got m={m}, i={i}")
    return Fraction(m - 1, i) + 1


# The largest stage count that runs in about 4 s: medians of three runs
# take 3.2 s at 10, 3.8 s at 11 and 5.1 s at 12 (Python 3.11, 2-core Xeon).
KERNEL_HOMOLOGY_MAX_STAGES = 11


def kernel_homology(j: int, force: bool = False) -> AbelianInvariants:
    """First homology of the kernel of the staged assignment on the j-stage
    link presentation.

    Pipeline: kernel coset table (one coset per image element), rewritten
    subgroup presentation, abelianization.  Stages above
    KERNEL_HOMOLOGY_MAX_STAGES are refused unless ``force`` is set, since
    the relation matrix grows like 60 * 11j rows by 60 * 9j columns.
    """
    if j < 1:
        raise InvalidArgumentError(f"stage count must be positive, got {j}")
    if j > KERNEL_HOMOLOGY_MAX_STAGES and not force:
        raise CapacityError(
            f"stage count {j} exceeds default limit {KERNEL_HOMOLOGY_MAX_STAGES}; "
            f"the relation matrix would be about {60 * (11 * j - 1)} x "
            f"{60 * 9 * j - 59}. Pass force=True (--force on the command "
            "line) to compute anyway."
        )
    p = kj_presentation(j)
    table = kernel_coset_table(p, phi_tables(j))
    sub = reidemeister_schreier(p, table)
    return abelianize(sub.presentation)
