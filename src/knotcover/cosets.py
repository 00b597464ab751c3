"""Coset tables: right actions of a presentation's generators on numbered
cosets, plus three ways to build them.

Cosets are numbered from 1; coset 1 is the subgroup itself.  Tracing a word
applies its syllables left to right, matching the word-evaluation convention.
One tracer, ``relator_paths``, checks a table against a presentation;
``CosetTable.verify`` and the Reidemeister-Schreier walk both consume it.
``image_table`` builds an assignment's image group as a table, which the
kernel table and every relator check of an assignment trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidHomomorphismError,
    TableIntegrityError,
)
from .perm import Perm, closure, inverse_row, orbit_size
from .words import Presentation, Syllable, Word

DEFAULT_COSET_CAP = 100_000


@dataclass(frozen=True)
class CosetTable:
    """Right action of each generator on the cosets 1..index.

    ``action[gi][c - 1]`` is the image of coset ``c`` under generator number
    ``gi``; every row must be a permutation of 1..index.
    """

    gens: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]
    index: int

    def __post_init__(self):
        if len(self.action) != len(self.gens):
            raise TableIntegrityError("one action row per generator required")
        if self.index < 1:
            raise TableIntegrityError(
                f"index must be positive, got {self.index}")
        for row in dict.fromkeys(self.action):  # each distinct row once
            if sorted(row) != list(range(1, self.index + 1)):
                g = self.gens[self.action.index(row)]
                raise TableIntegrityError(
                    f"action of {g} is not a permutation of 1..{self.index}"
                )

    @cached_property
    def rows(self) -> dict[tuple[str, int], tuple[int, ...]]:
        """Action row of each generator (sign 1) and of its inverse (-1),
        from 0: ``rows[g, sign][c - 1]`` is coset c's image, less 1.  Equal
        actions share rows (a staged kernel has up to four gens per action)."""
        rows = {}
        made = {}
        for g, row in zip(self.gens, self.action):
            if row not in made:
                made[row] = (tuple([d - 1 for d in row]),
                             tuple([d - 1 for d in inverse_row(row)]))
            rows[g, 1], rows[g, -1] = made[row]
        return rows

    def step(self, coset: int, sym: str, sign: int = 1) -> int:
        return self.trace(coset, ((sym, sign),))

    def trace(self, coset: int, w: Iterable[Syllable]) -> int:
        if not 1 <= coset <= self.index:
            raise InvalidArgumentError(
                f"coset {coset} outside 1..{self.index}")
        coset -= 1
        for syl in w:
            coset = self.rows[syl][coset]
        return coset + 1

    def word_action(self, w: Word) -> tuple[int, ...]:
        return tuple(self.trace(c, w) for c in range(1, self.index + 1))

    def verify(self, p: Presentation) -> None:
        """Raise TableIntegrityError unless this table really is the coset
        action of a subgroup of the presented group: generators match, every
        relator acts trivially, and the action is transitive."""
        for _ in relator_paths(self, p):
            pass

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "action": {g: list(row) for g, row in zip(self.gens, self.action)},
        }


def relator_paths(t: CosetTable, p: Presentation) -> Iterator[list[list[int]]]:
    """Trace each relator of ``p`` from every coset of ``t`` at once, one
    syllable at a time, checking the table as ``CosetTable.verify`` says.

    Yields each relator's path: the cosets, numbered from 0, reached from
    cosets 1..index before each syllable.  Raises TableIntegrityError when
    first resumed if the generators differ, before a relator's path if it
    moves a coset, and after the last path if the action is intransitive.
    """
    if tuple(p.generators) != t.gens:
        raise TableIntegrityError("table generators do not match presentation")
    rows = t.rows
    cosets = list(range(t.index))
    for i, r in enumerate(p.relators):
        at = cosets
        path = []
        for syl in r:
            path.append(at)
            at = list(map(rows[syl].__getitem__, at))
        if at != cosets:
            c = next(c for c in cosets if at[c] != c)
            raise TableIntegrityError(
                f"relator {p.relator_name(i)} moves coset {c + 1}"
            )
        yield path
    if orbit_size(t.action) != t.index:
        raise TableIntegrityError("coset action is not transitive")


def orbit_transitive(t: CosetTable, words: Sequence[Word]) -> bool:
    """True iff the subgroup generated by the traced actions of ``words``
    moves coset 1 onto every coset."""
    return orbit_size(t.word_action(w) for w in words) == t.index


def image_table(p: Presentation, assignment
                ) -> tuple[CosetTable, tuple[Perm, ...]]:
    """The image group of ``assignment`` as a table on the generators of
    ``p``, and its elements in closure() order: coset c is ``elements[c - 1]``
    and generator g sends the coset of x to that of x * image(g), so a word
    traced from coset 1, the identity, ends at the coset of its value."""
    # A missing image is reported for the first generator met while reading
    # the relators in order, as evaluating them one by one would.
    for r in p.relators:
        for sym, _ in r:
            assignment.value(sym)
    images = assignment.values_in_order(p.generators)
    group = closure(images)
    action = tuple(group.action[img] for img in images)
    return CosetTable(tuple(p.generators), action, group.order), group.elements


def kernel_coset_table(p: Presentation, assignment) -> CosetTable:
    """Coset table of the kernel of the homomorphism given by ``assignment``:
    its image table, once every relator fixes coset 1.  Otherwise raises
    InvalidHomomorphismError naming every violated relator."""
    table, _ = image_table(p, assignment)
    violated = [p.relator_name(i) for i, r in enumerate(p.relators)
                if table.trace(1, r) != 1]
    if violated:
        raise InvalidHomomorphismError(
            f"assignment violates relators: {', '.join(violated)}")
    return table


def cyclic_cover_table(p: Presentation, k: int) -> CosetTable:
    """Coset table of the k-fold cyclic cover subgroup: every generator
    steps each coset forward by one, mod k.

    Valid only when every relator has total exponent zero, i.e. when the
    generator-to-1 map really defines a homomorphism onto the integers.
    """
    if k < 1:
        raise InvalidArgumentError(f"fold count must be positive, got {k}")
    for i, r in enumerate(p.relators):
        e = r.total_exponent()
        if e != 0:
            raise TableIntegrityError(
                f"relator {p.relator_name(i)} has total exponent {e}, "
                "so the cyclic cover is not defined"
            )
    row = tuple(c % k + 1 for c in range(1, k + 1))
    return CosetTable(
        gens=tuple(p.generators),
        action=tuple(row for _ in p.generators),
        index=k,
    )


def todd_coxeter(
    p: Presentation,
    subgroup_gens: Iterable[Word] = (),
    cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by ``subgroup_gens``.

    HLT strategy: scan and fill every relator at every live coset in input
    order, then define any still-missing neighbours; coincidences merge via
    union-find keeping the smaller coset number.  The working table has a
    column for each generator and for each inverse, and column x ^ 1 undoes
    column x.  Deterministic for fixed input.  Raises CapacityError once
    more than ``cap`` cosets have been defined; a partial table is never
    returned.  A subgroup generator that uses a symbol outside the
    presentation raises InvalidArgumentError.
    """
    if cap < 1:
        raise InvalidArgumentError(f"cap must be positive, got {cap}")
    # read once: the words are encoded here and traced again at the end
    subgroup_gens = tuple(subgroup_gens)
    gens = tuple(p.generators)
    gen_index = {g: i for i, g in enumerate(gens)}
    ncols = 2 * len(gens)

    # Column 2i is generator i and column 2i + 1 its inverse, so column
    # x ^ 1 is the inverse of column x.
    def columns(w: Word) -> list[int]:
        return [2 * gen_index[sym] + (sign < 0) for sym, sign in w]

    relators = [columns(r) for r in p.relators]
    subgroup_words = []
    for w in subgroup_gens:
        for sym, _ in w:
            if sym not in gen_index:
                raise InvalidArgumentError(
                    f"subgroup generator {w} uses {sym}, "
                    "which is not a generator of the presentation"
                )
        subgroup_words.append(columns(w))

    table: list[list[int | None]] = []
    parent: list[int] = []
    c: int | None = None  # scanned coset; None while tracing subgroup words

    def new_coset() -> int:
        if len(parent) >= cap:
            live = sum(find(x) == x for x in range(len(parent)))
            where = ("tracing subgroup generators" if c is None
                     else f"scanning coset {c + 1}")
            raise CapacityError(
                f"coset enumeration exceeded cap of {cap} cosets "
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

    def step(c: int, x: int) -> int | None:
        d = table[c][x]
        return None if d is None else find(d)

    # Invariant between operations: for every live representative c,
    # table[c][x] is None or a live representative, and edges always come
    # in reciprocal pairs table[c][x] = d <-> table[d][x ^ 1] = c.
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
                set_edge(a, x, find(d))

    def scan_and_fill(start: int, w: list[int]) -> None:
        i, f = 0, start
        j, b = len(w) - 1, start
        while True:
            while i <= j:
                nxt = step(f, w[i])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i > j:
                if f != b:
                    merge_queue.append((f, b))
                    process_merges()
                return
            while j >= i:
                prev = step(b, w[j] ^ 1)
                if prev is None:
                    break
                b, j = prev, j - 1
            if j < i:
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

    start = new_coset()
    for w in subgroup_words:
        scan_and_fill(find(start), w)
    c = 0
    while c < len(parent):
        if find(c) == c:
            for r in relators:
                if find(c) != c:
                    break
                scan_and_fill(c, r)
            # define in column order g0, g0^-1, g1, g1^-1, ...; this order
            # fixes the coset numbering
            for x in range(ncols):
                if find(c) != c:
                    break
                if step(c, x) is None:
                    set_edge(c, x, new_coset())
                    process_merges()
        c += 1

    live = [c for c in range(len(parent)) if find(c) == c]
    number = {c: i + 1 for i, c in enumerate(live)}
    action = tuple(
        tuple(number[find(table[c][x])] for c in live)
        for x in range(0, ncols, 2)
    )
    result = CosetTable(gens=gens, action=action, index=len(live))
    result.verify(p)
    for w in subgroup_gens:
        if result.trace(1, w) != 1:
            raise TableIntegrityError("subgroup generator does not fix coset 1")
    return result
