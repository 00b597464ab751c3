"""Checking generator-image assignments against presentations.

Every permutation table of the package lives here, each read from cycle
text by ``GenAssignment.from_names``: the staged tables, the historical
fragment and the pinned trefoil map.  The staged image tables send every
stage-l generator of a link presentation to a fixed element of A5.  The top
stage gets its own table; below it the tables repeat with period four in
the distance j - l.

Every relator check here reads ``cosets.image_table``'s one trace of each
relator; ``eval_word`` multiplies permutations instead, for the historical
fragment and as the tests' independent reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .cosets import image_table
from .errors import CapacityError, InvalidArgumentError, MissingAssignmentError
from .perm import (
    Perm, closure, compose, inverse_row, is_even, orbit_count, parse_cycles,
)
from .presentations import LINK_LETTERS, check_stage_count
from .words import Presentation, Word, check_name, word

A5_ORDER = 60

# Standard generators of A5; closure() of these fixes the element order used
# by the deterministic surjection search.
A5_STANDARD_GENERATORS = (parse_cycles("(1,2,3,4,5)"), parse_cycles("(1,2,3)"))


@dataclass(frozen=True)
class GenAssignment:
    """An immutable map from generator names to permutations."""

    mapping: Mapping[str, Perm]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    @classmethod
    def from_names(cls, named: Mapping[str, str], label: str = ""
                   ) -> "GenAssignment":
        """Each name's cycle text read by ``parse_cycles``: ``()`` is the
        identity, and blank text raises ParseError like other bad text."""
        return cls({check_name(name): parse_cycles(text)
                    for name, text in named.items()}, label)

    def value(self, sym: str) -> Perm:
        try:
            return self.mapping[sym]
        except KeyError:
            raise MissingAssignmentError(sym) from None

    def values_in_order(self, gens: Iterable[str]) -> list[Perm]:
        return [self.value(g) for g in gens]


def eval_word(assignment: GenAssignment, w: Word) -> Perm:
    """Image of ``w``: the left-to-right product of the generator images."""
    out = Perm.identity()
    for sym, sign in w:
        img = assignment.value(sym)
        out = compose(out, img if sign > 0 else img.inverse())
    return out


@dataclass(frozen=True)
class RelatorViolation:
    name: str
    relator: Word
    value: Perm


@dataclass(frozen=True)
class CheckReport:
    violations: tuple[RelatorViolation, ...]
    image_order: int
    surjective_onto_a5: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relators(p: Presentation, assignment: GenAssignment) -> CheckReport:
    """Evaluate every relator; collect the ones that miss the identity.

    Each relator is traced once from coset 1, the identity, through the
    image table; a violation's value is the element at the coset it ends
    on.  The distinct images are the keys of the group's action.
    """
    table, group, missed = image_table(p, assignment)
    violations = tuple(
        RelatorViolation(p.relator_names[i], p.relators[i],
                         group.elements[c - 1])
        for i, c in missed)
    onto_a5 = table.index == A5_ORDER and all(
        img.degree <= 5 and is_even(img) for img in group.action)
    return CheckReport(violations, table.index, onto_a5)


# Stage image tables.  The top stage uses _TABLE_TOP; a stage at distance
# d >= 1 below the top uses _TABLE_CYCLE[(d - 1) % 4].
_TABLE_TOP = GenAssignment.from_names({
    "a": "(1,2)(3,4)", "b": "(1,2)(3,4)", "c": "(1,2)(3,4)", "d": "(1,2)(3,4)",
    "e": "(1,2)(3,4)", "f": "(1,2)(3,4)", "g": "(1,2)(3,4)", "h": "()", "i": "()",
})

_TABLE_CYCLE = tuple(map(GenAssignment.from_names, (
    {
        "a": "(1,2,3)", "b": "(1,2,3)", "c": "(1,2,3)", "d": "(1,2,3)",
        "e": "(2,4,3)", "f": "(1,3,4)", "g": "(1,4,2)",
        "h": "(1,2)(3,4)", "i": "(1,3)(2,4)",
    },
    {
        "a": "(1,3)(4,5)", "b": "(1,3)(4,5)", "c": "(1,3)(4,5)", "d": "(1,3)(4,5)",
        "e": "(1,2)(4,5)", "f": "(1,3)(4,5)", "g": "(2,3)(4,5)",
        "h": "(1,2,3)", "i": "(1,3,2)",
    },
    {
        "a": "(3,4,5)", "b": "(3,4,5)", "c": "(3,4,5)", "d": "(3,4,5)",
        "e": "(1,3,5)", "f": "(1,4,3)", "g": "(1,5,4)",
        "h": "(1,3)(4,5)", "i": "(1,5)(3,4)",
    },
    {
        "a": "(1,2)(3,4)", "b": "(1,2)(3,4)", "c": "(1,2)(3,4)", "d": "(1,2)(3,4)",
        "e": "(1,2)(4,5)", "f": "(1,2)(3,4)", "g": "(1,2)(3,5)",
        "h": "(3,4,5)", "i": "(3,5,4)",
    },
)))

# The six generator images quoted from the historical thesis table, and the
# sewing word whose image that table gets wrong: the word evaluates to the
# image of r instead of the image of a.
_FRAGMENT = GenAssignment.from_names({
    "o": "(1,4)(2,5)", "h": "(1,4)(3,5)", "f": "(2,3)(4,5)",
    "q": "(1,2)(4,5)", "a": "(1,2)(3,4)", "r": "(1,2)(3,5)",
}, label="sternfeld-fragment")
_FRAGMENT_WORD = word("o^-1 h f^-1 q")

# The pinned surjection of the trefoil group onto A5.
TREFOIL_A5 = GenAssignment.from_names(
    {"a": "(1,3,5,4,2)", "b": "(1,2,3,4,5)"}, label="trefoil-a5")


def phi_tables(j: int) -> GenAssignment:
    """The staged assignment on the generators a_l..i_l, 1 <= l <= j.

    The four parallel-strand generators a..d of each stage share one image,
    so the same assignment serves both the identified presentation and the
    plain link presentation.
    """
    check_stage_count(j)
    mapping: dict[str, Perm] = {}
    for l in range(1, j + 1):
        table = _TABLE_TOP if l == j else _TABLE_CYCLE[(j - l - 1) % 4]
        for letter in LINK_LETTERS:
            mapping[f"{letter}{l}"] = table.mapping[letter]
    return GenAssignment(mapping, label=f"phi-{j}")


@dataclass(frozen=True)
class SternfeldRepro:
    """Outcome of replaying the historical table computation: the sewing
    word's image versus the image the table needs it to be."""

    got: Perm
    expected: Perm

    @property
    def mismatch(self) -> bool:
        return self.got != self.expected


def sternfeld_error_repro() -> SternfeldRepro:
    return SternfeldRepro(
        got=eval_word(_FRAGMENT, _FRAGMENT_WORD),
        expected=_FRAGMENT.value("a"),
    )


SEARCH_MAX_GENERATORS = 3


def _fixes_identity(relator: list, choice: tuple[int, ...]) -> bool:
    """True iff an encoded relator, traced from the identity at position 1
    with generator i sent to pool[choice[i]], ends there again."""
    c = 1
    for rows, i in relator:
        c = rows[choice[i]][c]
    return c == 1


def search_surjections(p: Presentation, limit: int = 100) -> list[GenAssignment]:
    """Brute-force assignments whose image is all of A5, at most ``limit``
    of them.

    Candidate images come from the closure of the standard A5 generators,
    and assignment tuples are tried in lexicographic order over that
    element order, so results are deterministic.  Presentations with more
    than SEARCH_MAX_GENERATORS generators are refused.
    """
    ngens = len(p.generators)
    if ngens > SEARCH_MAX_GENERATORS:
        raise CapacityError(
            f"search supports at most {SEARCH_MAX_GENERATORS} generators, "
            f"got {ngens}"
        )
    if limit < 1:
        raise InvalidArgumentError(f"limit must be at least 1, got {limit}")
    pool = closure(A5_STANDARD_GENERATORS).elements
    # closure(pool) lists pool itself, so its action rows are the right
    # multiplication table of A5 on the positions of pool's elements.
    action = closure(pool).action
    forward = [action[g] for g in pool]
    # Each relator is encoded once as (rows of its syllable's sign, generator
    # position) pairs; a leading 0 lets position c index its own image.
    steps = {1: [(0,) + row for row in forward],
             -1: [(0,) + inverse_row(row) for row in forward]}
    at = p.generator_index()
    relators = [[(steps[sign], at[sym]) for sym, sign in r] for r in p.relators]
    found: list[GenAssignment] = []
    for choice in itertools.product(range(len(pool)), repeat=ngens):
        if not all(_fixes_identity(r, choice) for r in relators):
            continue
        # the images generate A5 iff multiplying by them is transitive on it
        if orbit_count([forward[k] for k in choice], A5_ORDER) != 1:
            continue
        found.append(GenAssignment(
            {g: pool[k] for g, k in zip(p.generators, choice)},
            label=f"search-{len(found)}",
        ))
        if len(found) >= limit:
            break
    return found
