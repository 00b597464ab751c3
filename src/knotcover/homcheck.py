"""Checking generator-image assignments against presentations.

The staged image tables send every stage-l generator of a link presentation
to a fixed element of A5.  The top stage gets its own table; below it the
tables repeat with period four in the distance j - l.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import CapacityError, InvalidArgumentError, MissingAssignmentError
from .perm import Perm, closure, compose, is_even, parse_cycles
from .presentations import LINK_LETTERS, sternfeld_fragment
from .words import GenSym, Presentation, Word

A5_ORDER = 60

# Standard generators of A5; closure() of these fixes the element order used
# by the deterministic surjection search.
A5_STANDARD_GENERATORS = (parse_cycles("(1,2,3,4,5)"), parse_cycles("(1,2,3)"))


@dataclass(frozen=True)
class GenAssignment:
    """An immutable map from generator symbols to permutations."""

    mapping: Mapping[GenSym, Perm]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    @classmethod
    def from_names(cls, named: Mapping[str, Perm | str], label: str = ""
                   ) -> "GenAssignment":
        mapping = {}
        for name, value in named.items():
            if isinstance(value, str):
                value = parse_cycles(value) if value.strip() else Perm.identity()
            mapping[GenSym.parse(name)] = value
        return cls(mapping, label)

    def value(self, sym: GenSym) -> Perm:
        try:
            return self.mapping[sym]
        except KeyError:
            raise MissingAssignmentError(sym.name) from None

    def values_in_order(self, gens: Iterable[GenSym]) -> list[Perm]:
        return [self.value(g) for g in gens]

    def with_value(self, sym: GenSym, value: Perm) -> "GenAssignment":
        mapping = dict(self.mapping)
        mapping[sym] = value
        return GenAssignment(mapping, self.label)

    def __len__(self) -> int:
        return len(self.mapping)


def eval_word(assignment: GenAssignment, w: Word) -> Perm:
    """Image of ``w``: the left-to-right product of the generator images."""
    out = Perm.identity()
    for sym, sign in w:
        img = assignment.value(sym)
        out = compose(out, img if sign > 0 else img.inverse())
    return out


@dataclass(frozen=True)
class RelatorViolation:
    index: int
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
    """Evaluate every relator; collect the ones that miss the identity."""
    violations = []
    for i, r in enumerate(p.relators):
        value = eval_word(assignment, r)
        if value.degree != 0:
            violations.append(RelatorViolation(i, p.relator_name(i), r, value))
    images = assignment.values_in_order(p.generators)
    group = closure(images)
    onto_a5 = (
        group.order == A5_ORDER
        and all(img.degree <= 5 for img in images)
        and all(is_even(img) for img in images)
    )
    return CheckReport(tuple(violations), group.order, onto_a5)


# Stage image tables.  The top stage uses TABLE_TOP; a stage at distance
# d >= 1 below the top uses TABLE_CYCLE[(d - 1) % 4].
_TABLE_TOP = {
    "a": "(1,2)(3,4)", "b": "(1,2)(3,4)", "c": "(1,2)(3,4)", "d": "(1,2)(3,4)",
    "e": "(1,2)(3,4)", "f": "(1,2)(3,4)", "g": "(1,2)(3,4)", "h": "()", "i": "()",
}

_TABLE_CYCLE = (
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
)


def stage_table(j: int, l: int) -> dict[str, Perm]:
    """Image table for stage ``l`` of a ``j``-stage presentation."""
    if not 1 <= l <= j:
        raise InvalidArgumentError(f"stage {l} outside 1..{j}")
    if l == j:
        table = _TABLE_TOP
    else:
        table = _TABLE_CYCLE[(j - l - 1) % 4]
    return {name: parse_cycles(text) for name, text in table.items()}


def phi_tables(j: int) -> GenAssignment:
    """The staged assignment on the generators a_l..i_l, 1 <= l <= j.

    The four parallel-strand generators a..d of each stage share one image,
    so the same assignment serves both the identified presentation and the
    plain link presentation.
    """
    if j < 1:
        raise InvalidArgumentError(f"stage count must be positive, got {j}")
    mapping: dict[GenSym, Perm] = {}
    for l in range(1, j + 1):
        table = stage_table(j, l)
        for letter in LINK_LETTERS:
            mapping[GenSym(letter, l)] = table[letter]
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
    images, w = sternfeld_fragment()
    assignment = GenAssignment(images, label="sternfeld-fragment")
    return SternfeldRepro(
        got=eval_word(assignment, w),
        expected=assignment.value(GenSym("a")),
    )


SEARCH_MAX_GENERATORS = 3


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
    pool = list(closure(A5_STANDARD_GENERATORS))
    found: list[GenAssignment] = []
    for images in itertools.product(pool, repeat=ngens):
        assignment = GenAssignment(
            dict(zip(p.generators, images)), label=f"search-{len(found)}"
        )
        if any(eval_word(assignment, r).degree != 0 for r in p.relators):
            continue
        if closure(images).order != A5_ORDER:
            continue
        found.append(assignment)
        if len(found) >= limit:
            break
    return found
