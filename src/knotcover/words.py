"""Free-group words, finite presentations, and their text format.

A generator is a plain name matching [a-z][a-z0-9]*, such as the stage
letter ``a1`` or the Schreier name ``ax12``.  A word is a freely reduced
sequence of syllables (generator, +1 or -1).  Presentations can be written
to and read from a small line-oriented format:

    # comment
    gens: a b
    rel: b^-1 a^-1 b^-1 a b a
    rel: x = y          # stored as the single relator x y^-1

Validation happens once, at the public constructors.  ``Word(syllables)``
checks every sign and that no two neighbouring syllables cancel, in one
pass.  ``Presentation(...)`` checks the generator names, duplicates and the
symbols of every relator, one pass each, and walks the input item by item
only to word an error.  As the names are checked, printing a presentation
and parsing the text gives back an equal one.  A word whose reducedness
follows from how it was built skips the check: ``reduce`` has just reduced
it, ``Word.inverse`` reverses a reduced word, and renaming the letters of a
reduced word injectively (the stage words of ``presentations``) or
extending a breadth-first tree path by one edge (the transversal, which
``subgroups._schreier_walk`` extends as it walks) keeps it reduced.  These
build through the trusted path ``Word._trusted``, which checks nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import ParseError

_NAME_RE = re.compile(r"[a-z][a-z0-9]*\Z")


def check_name(name: str, line: int | None = None, col: int | None = None) -> str:
    """Return ``name`` if it is a generator name; raise ParseError, at
    ``line`` and ``col`` when given, if it is not."""
    if not _NAME_RE.match(name):
        raise ParseError(f"bad generator name {name!r}", line, col)
    return name


Syllable = tuple[str, int]


def reduce(raw: Iterable[Syllable]) -> "Word":
    """Freely reduce a raw syllable sequence into a Word."""
    stack: list[Syllable] = []
    for sym, sign in raw:
        if sign not in (1, -1):
            raise ValueError(f"syllable sign must be +1 or -1, got {sign}")
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return Word._trusted(tuple(stack))


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct unreduced sequences via reduce()."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        syl = tuple(self.syllables)
        # with both signs +1 or -1, the previous syllable cancels this one
        # exactly when the symbols match and the signs differ
        last_sym, last_sign = None, 0
        for i, (sym, sign) in enumerate(syl):
            if sign not in (1, -1):
                raise ValueError(f"syllable sign must be +1 or -1, got {sign}")
            if sign != last_sign and i and sym == last_sym:
                raise ValueError(f"word not freely reduced at position {i}")
            last_sym, last_sign = sym, sign
        object.__setattr__(self, "syllables", syl)

    @classmethod
    def _trusted(cls, syllables: tuple[Syllable, ...]) -> "Word":
        """A word from a tuple of syllables that is known to be freely
        reduced with signs +1 and -1; nothing is checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "syllables", syllables)
        return w

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.syllables + other.syllables)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return reduce(base.syllables * abs(k))

    def inverse(self) -> "Word":
        return Word._trusted(
            tuple((sym, -sign) for sym, sign in reversed(self.syllables)))

    def total_exponent(self) -> int:
        return sum(sign for _, sign in self.syllables)

    def symbols(self) -> set[str]:
        return {sym for sym, _ in self.syllables}

    def __str__(self) -> str:
        return " ".join(
            sym if sign > 0 else f"{sym}^-1" for sym, sign in self.syllables
        )

    def __repr__(self) -> str:
        return f"Word[{self}]" if self.syllables else "Word[]"


def word(text: str) -> Word:
    """Parse a whitespace-separated syllable string, e.g. ``"b^-1 a"``."""
    return reduce(_parse_syllable(tok) for tok in text.split())


def _parse_syllable(token: str) -> Syllable:
    name, caret, exp = token.partition("^")
    if caret and exp != "-1":
        raise ParseError(f"bad syllable {token!r}: only ^-1 is allowed")
    return (check_name(name), -1 if caret else 1)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation.  Equality compares generators and relators
    only; the label and the diagnostic relator names are metadata."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    label: str = field(default="", compare=False)
    relator_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        rels = tuple(self.relators)
        if not all(map(_NAME_RE.match, gens)):
            for g in gens:
                check_name(g)
        names = set(gens)
        if len(names) != len(gens):
            raise ValueError("duplicate generator names")
        # streamed, not collected: a set of every syllable used would be as
        # large as the generators' on a rewritten presentation
        symbols = map(itemgetter(0),
                      chain.from_iterable(r.syllables for r in rels))
        if not names.issuperset(symbols):
            for i, r in enumerate(rels):
                extra = r.symbols() - names
                if extra:
                    raise ValueError(
                        f"relator {i} uses undeclared generators: {sorted(extra)}"
                    )
        if self.relator_names is not None and len(self.relator_names) != len(rels):
            raise ValueError("relator_names length does not match relators")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", rels)

    def relator_name(self, i: int) -> str:
        if self.relator_names is not None:
            return self.relator_names[i]
        return f"relator[{i}]"

    def generator_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.generators)}


def parse_presentation(text: str) -> Presentation:
    """Parse the line format described in the module docstring.

    A bare ``rel:`` line yields an empty relator, which imposes nothing.
    """
    generators: list[str] = []
    seen: set[str] = set()
    relators: list[Word] = []
    pending: list[tuple[int, list[tuple[str, int, int]]]] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("gens:"):
            body_at = line.index("gens:") + len("gens:")
            for m in re.finditer(r"\S+", line[body_at:]):
                tok, col = m.group(), body_at + m.start() + 1
                check_name(tok, lineno, col)
                if tok in seen:
                    raise ParseError(f"duplicate generator {tok!r}", lineno, col)
                seen.add(tok)
                generators.append(tok)
        elif stripped.startswith("rel:"):
            body_at = line.index("rel:") + len("rel:")
            toks = [
                (m.group(), lineno, body_at + m.start() + 1)
                for m in re.finditer(r"\S+", line[body_at:])
            ]
            pending.append((lineno, toks))
        else:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError(
                f"expected 'gens:' or 'rel:', got {stripped.split()[0]!r}", lineno, col
            )

    def to_syllable(tok: str, lineno: int, col: int) -> Syllable:
        try:
            sym, sign = _parse_syllable(tok)
        except ParseError as e:
            raise ParseError(str(e), lineno, col) from None
        if sym not in seen:
            raise ParseError(f"unknown generator {sym!r}", lineno, col)
        return (sym, sign)

    for lineno, toks in pending:
        eq_positions = [i for i, (tok, _, _) in enumerate(toks) if tok == "="]
        if not eq_positions:
            relators.append(reduce(to_syllable(*t) for t in toks))
        elif len(eq_positions) == 1:
            split = eq_positions[0]
            lhs, rhs = toks[:split], toks[split + 1:]
            if not lhs or not rhs:
                _, _, col = toks[split]
                raise ParseError("'=' needs a word on both sides", lineno, col)
            left = reduce(to_syllable(*t) for t in lhs)
            right = reduce(to_syllable(*t) for t in rhs)
            relators.append(left * right.inverse())
        else:
            _, _, col = toks[eq_positions[1]]
            raise ParseError("more than one '=' in relator", lineno, col)

    return Presentation(tuple(generators), tuple(relators))


def print_presentation(p: Presentation) -> str:
    """Render a presentation in the line format; re-parsing gives back an
    equal presentation."""
    lines = ["gens: " + " ".join(p.generators)]
    for r in p.relators:
        lines.append(("rel: " + str(r)).rstrip())
    return "\n".join(lines) + "\n"
