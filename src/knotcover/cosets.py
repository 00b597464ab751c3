"""Coset tables: right actions of a presentation's generators on numbered
cosets, plus three ways to build them.

Cosets are numbered from 1; coset 1 is the subgroup itself.  Tracing a word
applies its syllables left to right, matching the word-evaluation convention.
``CosetTable.verify`` traces every relator of a presentation from every
coset, checks the table against it, and returns the paths it traced, which
the Reidemeister-Schreier walk reads.
``image_table`` builds an assignment's image group as a table and traces
each relator from coset 1 once, for the kernel table and for every relator
check of an assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidHomomorphismError,
    MissingAssignmentError,
    TableIntegrityError,
)
from .perm import PermGroup, closure, inverse_row, orbit_count
from .words import Presentation, Syllable, Word

# The most cosets `todd_coxeter` defines, and the largest fold
# `cyclic_cover_table` builds.  The largest enumeration in any claim or
# benchmark workload, the trefoil modulo a^5 (index 600), needs a cap of 725.
# Reaching the cap is cheap: `knotcover cosets --mode subgroup` with the
# subgroup <a> of the trefoil group stopped at it in 0.58-0.68 s at a peak
# of 35 MiB (three fresh processes, Python 3.11.7, a shared 2-core host), so
# a lower cap would save nothing.
COSET_CAP = 100_000


@dataclass(frozen=True)
class CosetTable:
    """Right action of each generator on the cosets 1..index.

    ``action[gi][c - 1]`` is the image of coset ``c`` under generator number
    ``gi``; every row must be a permutation of 1..index.  The check builds
    ``rows``, the action row of each generator (sign 1) and of its inverse
    (-1) with a leading 0, as ``closure`` pads its lookups:
    ``rows[g, sign][c]`` is coset c's image.  Each distinct row is checked
    and indexed once, and equal actions share rows (a staged kernel has up
    to four gens per action).
    """

    gens: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]
    index: int
    rows: dict[tuple[str, int], tuple[int, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.action) != len(self.gens):
            raise TableIntegrityError("one action row per generator required")
        if self.index < 1:
            raise TableIntegrityError(
                f"index must be positive, got {self.index}")
        cosets = list(range(1, self.index + 1))
        rows = {}
        made = {}
        for g, row in zip(self.gens, self.action):
            if row not in made:
                if sorted(row) != cosets:
                    raise TableIntegrityError(
                        f"action of {g} is not a permutation of 1..{self.index}"
                    )
                made[row] = ((0,) + row, (0,) + inverse_row(row))
            rows[g, 1], rows[g, -1] = made[row]
        object.__setattr__(self, "rows", rows)

    def step(self, coset: int, sym: str, sign: int = 1) -> int:
        return self.trace(coset, ((sym, sign),))

    def trace(self, coset: int, w: Iterable[Syllable]) -> int:
        if not 1 <= coset <= self.index:
            raise InvalidArgumentError(
                f"coset {coset} outside 1..{self.index}")
        for syl in w:
            coset = self.rows[syl][coset]
        return coset

    def word_action(self, w: Word) -> tuple[int, ...]:
        """The coset each of 1..index reaches along ``w``: each syllable is
        mapped over every coset at once, as ``verify`` traces relators."""
        at = range(1, self.index + 1)
        for syl in w:
            at = list(map(self.rows[syl].__getitem__, at))
        return tuple(at)

    def verify(self, p: Presentation) -> list[list[list[int]]]:
        """Trace each relator of ``p`` from every coset at once, one syllable
        at a time, then check that this table really is the coset action of
        a subgroup of the presented group; return the paths traced.

        A relator's path lists the cosets reached from cosets 1..index
        before each syllable.  Raises TableIntegrityError if the generators
        differ, else at the first relator that moves a coset, else if the
        action is intransitive.
        """
        if tuple(p.generators) != self.gens:
            raise TableIntegrityError("table generators do not match presentation")
        rows = self.rows
        cosets = list(range(1, self.index + 1))
        paths = []
        for i, r in enumerate(p.relators):
            at = cosets
            path = []
            for syl in r:
                path.append(at)
                at = list(map(rows[syl].__getitem__, at))
            if at != cosets:
                c = next(c for c, d in zip(cosets, at) if d != c)
                raise TableIntegrityError(
                    f"relator {p.relator_names[i]} moves coset {c}"
                )
            paths.append(path)
        orbits = orbit_count(self.action, self.index)
        if orbits != 1:
            raise TableIntegrityError(
                f"coset action is not transitive: {orbits} orbits")
        return paths

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "action": {g: list(row) for g, row in zip(self.gens, self.action)},
        }


def image_table(p: Presentation, assignment
                ) -> tuple[CosetTable, PermGroup, list[tuple[int, int]]]:
    """The image group of ``assignment`` as a table on the generators of
    ``p``, the group from closure(), and ``(i, c)`` for each relator i, in
    order, that ends at coset c != 1.  Coset c is ``group.elements[c - 1]``
    and generator g sends the coset of x to that of x * image(g), so a word
    traced from coset 1, the identity, ends at the coset of its value."""
    try:
        images = assignment.values_in_order(p.generators)
    except MissingAssignmentError:
        # A missing image is reported for the first generator met while
        # reading the relators in order, as evaluating them one by one would.
        for r in p.relators:
            for sym, _ in r:
                assignment.value(sym)
        raise
    group = closure(images)
    action = tuple(group.action[img] for img in images)
    table = CosetTable(tuple(p.generators), action, group.order)
    missed = [(i, c) for i, r in enumerate(p.relators)
              if (c := table.trace(1, r)) != 1]
    return table, group, missed


def kernel_coset_table(p: Presentation, assignment) -> CosetTable:
    """Coset table of the kernel of the homomorphism given by ``assignment``:
    its image table, once every relator fixes coset 1.  Otherwise raises
    InvalidHomomorphismError naming every violated relator."""
    table, _, missed = image_table(p, assignment)
    if missed:
        raise InvalidHomomorphismError(
            "assignment violates relators: "
            + ", ".join(p.relator_names[i] for i, _ in missed))
    return table


def cyclic_cover_table(p: Presentation, k: int) -> CosetTable:
    """Coset table of the k-fold cyclic cover subgroup: every generator
    steps each coset forward by one, mod k.

    Valid only when every relator has total exponent zero, i.e. when the
    generator-to-1 map really defines a homomorphism onto the integers, so
    a presentation with no generators has no cover of fold above 1.
    Folds above COSET_CAP are refused before any row is built.
    """
    if k < 1:
        raise InvalidArgumentError(f"fold count must be positive, got {k}")
    if k > COSET_CAP:
        raise CapacityError(f"fold {k} exceeds the coset cap {COSET_CAP}")
    if k > 1 and not p.generators:
        raise TableIntegrityError(
            "the presentation has no generators, so the cyclic cover is "
            "not defined"
        )
    for i, r in enumerate(p.relators):
        e = r.total_exponent()
        if e != 0:
            raise TableIntegrityError(
                f"relator {p.relator_names[i]} has total exponent {e}, "
                "so the cyclic cover is not defined"
            )
    row = tuple(c % k + 1 for c in range(1, k + 1))
    return CosetTable(
        gens=tuple(p.generators),
        action=tuple(row for _ in p.generators),
        index=k,
    )


def todd_coxeter(p: Presentation, subgroup_gens: Iterable[Word] = ()) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by ``subgroup_gens``.

    HLT strategy: scan and fill every relator at every live coset in input
    order, then define any still-missing neighbours; coincidences merge via
    union-find keeping the smaller coset number.  The working table has a
    column for each generator and for each inverse, and column x ^ 1 undoes
    column x.  The invariant stated at ``merge_queue`` carries three steps:
    a fresh coset is defined with no merge step, the subgroup words are
    scanned from coset 1, and the final numbering reads entries with no
    ``find``.  Deterministic for fixed input.  Raises CapacityError, saying
    how far it got, once COSET_CAP cosets have been defined and another is
    needed; a partial table is never returned.  A subgroup generator that
    uses a symbol outside the presentation raises InvalidArgumentError.
    """
    # read three times: checked here, encoded one at a time as each is
    # scanned from coset 1, and traced again at the end
    subgroup_gens = tuple(subgroup_gens)
    gens = tuple(p.generators)
    gen_index = p.generator_index()
    ncols = 2 * len(gens)

    # Column 2i is generator i and column 2i + 1 its inverse, so column
    # x ^ 1 is the inverse of column x.
    def columns(w: Word) -> list[int]:
        return [2 * gen_index[sym] + (sign < 0) for sym, sign in w]

    relators = [columns(r) for r in p.relators]
    for w in subgroup_gens:
        for sym, _ in w:
            if sym not in gen_index:
                raise InvalidArgumentError(
                    f"subgroup generator {w} uses {sym}, "
                    "which is not a generator of the presentation"
                )

    table: list[list[int | None]] = []
    parent: list[int] = []
    c: int | None = None  # scanned coset; None while tracing subgroup words

    def new_coset() -> int:
        if len(parent) >= COSET_CAP:
            live = sum(find(x) == x for x in range(len(parent)))
            where = ("tracing subgroup generators" if c is None
                     else f"scanning coset {c + 1}")
            raise CapacityError(
                f"coset enumeration exceeded cap of {COSET_CAP} cosets "
                f"({len(parent)} defined, {live} live, {where})"
            )
        table.append([None] * ncols)
        parent.append(len(parent))
        return len(parent) - 1

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    # Invariant between operations: for every live representative c,
    # table[c][x] is None or a live representative, and edges always come
    # in reciprocal pairs table[c][x] = d <-> table[d][x ^ 1] = c.  A merge
    # empties the dead coset's row and the reciprocal entries before
    # re-adding its edges at the survivor, so the invariant holds whenever
    # no merge is pending.  None is pending while a scan reads the table or
    # once the enumeration ends, so the scans and the final numbering read
    # entries with no find.  An edge to a fresh coset, whose row is empty,
    # cannot conflict, and a merge keeps the smaller number, so coset 1
    # (index 0) survives every merge.  `verify` checks the result.
    merge_queue: list[tuple[int, int]] = []

    def set_edge(c: int, x: int, d: int) -> None:
        """Record c * x = d, queueing coincidences on conflict."""
        c, d = find(c), find(d)
        e = table[c][x]
        if e is not None:
            if e != d:
                merge_queue.append((e, d))
            return
        e = table[d][x ^ 1]
        if e is not None:
            # the x-action is injective, so two preimages of d coincide
            if e != c:
                merge_queue.append((e, c))
            return
        table[c][x] = d
        table[d][x ^ 1] = c

    def process_merges() -> None:
        while merge_queue:
            a, b = merge_queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            moved: list[tuple[int, int]] = []
            for x, d in enumerate(table[b]):
                if d is not None:
                    table[b][x] = None
                    table[d][x ^ 1] = None
                    moved.append((x, d))
            parent[b] = a
            for x, d in moved:
                set_edge(a, x, d)

    def scan_and_fill(start: int, w: list[int]) -> None:
        i, f = 0, start
        j, b = len(w) - 1, start
        while True:
            while i <= j:
                nxt = table[f][w[i]]
                if nxt is None:
                    break
                f, i = nxt, i + 1
            while j >= i:
                prev = table[b][w[j] ^ 1]
                if prev is None:
                    break
                b, j = prev, j - 1
            if j < i:  # the scan closed: its two ends are one coset
                if f != b:
                    merge_queue.append((f, b))
                    process_merges()
                return
            if i == j:
                # single gap: closing deduction, may reveal a coincidence
                set_edge(f, w[i], b)
                process_merges()
                return
            # gap of length > 1: fill with a fresh coset (cannot conflict)
            d = new_coset()
            set_edge(f, w[i], d)
            f, i = d, i + 1

    new_coset()
    for w in subgroup_gens:
        scan_and_fill(0, columns(w))
    c = 0
    while c < len(parent):
        for r in relators:
            if find(c) != c:
                break
            scan_and_fill(c, r)
        if find(c) == c:
            # define in column order g0, g0^-1, g1, g1^-1, ...; this order
            # fixes the coset numbering
            for x in range(ncols):
                if table[c][x] is None:
                    set_edge(c, x, new_coset())
        c += 1

    live = [c for c in range(len(parent)) if find(c) == c]
    number = {c: i + 1 for i, c in enumerate(live)}
    action = tuple(
        tuple(number[table[c][x]] for c in live)
        for x in range(0, ncols, 2)
    )
    result = CosetTable(gens=gens, action=action, index=len(live))
    result.verify(p)
    for w in subgroup_gens:
        if result.trace(1, w) != 1:
            raise TableIntegrityError("subgroup generator does not fix coset 1")
    return result
