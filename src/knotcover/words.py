"""Free-group words, finite presentations, and their text format.

A word is a freely reduced sequence of syllables (generator, +1 or -1).
Presentations can be written to and read from a small line-oriented format:

    # comment
    gens: a b
    rel: b^-1 a^-1 b^-1 a b a
    rel: x = y          # stored as the single relator x y^-1

Generator names match [a-z][a-z0-9]* and must not be split ambiguously, so a
stem never ends in a digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ParseError

_NAME_RE = re.compile(r"[a-z][a-z0-9]*\Z")


@dataclass(frozen=True, order=True)
class GenSym:
    """A generator symbol: a lowercase stem plus an optional positive
    subscript.  ``GenSym("a", 3)`` prints as ``a3``."""

    stem: str
    subscript: int | None = None

    def __post_init__(self):
        if not _NAME_RE.match(self.stem):
            raise ValueError(f"bad generator stem {self.stem!r}")
        if self.stem[-1].isdigit():
            raise ValueError(f"generator stem {self.stem!r} may not end in a digit")
        if self.subscript is not None and self.subscript < 1:
            raise ValueError(f"subscript must be positive, got {self.subscript}")

    @property
    def name(self) -> str:
        if self.subscript is None:
            return self.stem
        return f"{self.stem}{self.subscript}"

    @classmethod
    def parse(cls, name: str) -> "GenSym":
        """Split a printed name back into stem and subscript.

        >>> GenSym.parse("a12")
        GenSym(stem='a', subscript=12)
        """
        if not _NAME_RE.match(name):
            raise ParseError(f"bad generator name {name!r}")
        stem = name.rstrip("0123456789")
        if stem == name:
            return cls(stem, None)
        return cls(stem, int(name[len(stem):]))

    def __str__(self) -> str:
        return self.name


Syllable = tuple[GenSym, int]


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
    return Word(tuple(stack))


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct unreduced sequences via reduce()."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        syl = tuple(self.syllables)
        for i, (sym, sign) in enumerate(syl):
            if sign not in (1, -1):
                raise ValueError(f"syllable sign must be +1 or -1, got {sign}")
            if i and syl[i - 1][0] == sym and syl[i - 1][1] == -sign:
                raise ValueError(f"word not freely reduced at position {i}")
        object.__setattr__(self, "syllables", syl)

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.syllables + other.syllables)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        out = Word()
        for _ in range(abs(k)):
            out = out * base
        return out

    def inverse(self) -> "Word":
        return Word(tuple((sym, -sign) for sym, sign in reversed(self.syllables)))

    def conjugate(self, by: "Word") -> "Word":
        """The word by^-1 * self * by."""
        return by.inverse() * self * by

    def exponent_sum(self, sym: GenSym) -> int:
        return sum(sign for s, sign in self.syllables if s == sym)

    def total_exponent(self) -> int:
        return sum(sign for _, sign in self.syllables)

    def symbols(self) -> set[GenSym]:
        return {sym for sym, _ in self.syllables}

    def __str__(self) -> str:
        return " ".join(
            sym.name if sign > 0 else f"{sym.name}^-1" for sym, sign in self.syllables
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
    try:
        sym = GenSym.parse(name)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return (sym, -1 if caret else 1)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation.  Equality compares generators and relators
    only; the label and the diagnostic relator names are metadata."""

    generators: tuple[GenSym, ...]
    relators: tuple[Word, ...]
    label: str = field(default="", compare=False)
    relator_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        rels = tuple(self.relators)
        names = {g.name for g in gens}
        if len(names) != len(gens):
            raise ValueError("duplicate generator names")
        for i, r in enumerate(rels):
            extra = {s.name for s in r.symbols()} - names
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

    def generator_index(self) -> dict[GenSym, int]:
        return {g: i for i, g in enumerate(self.generators)}


def parse_presentation(text: str) -> Presentation:
    """Parse the line format described in the module docstring.

    A bare ``rel:`` line yields an empty relator, which imposes nothing.
    """
    generators: list[GenSym] = []
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
                try:
                    sym = GenSym.parse(tok)
                except ValueError:
                    raise ParseError(f"bad generator name {tok!r}", lineno, col)
                if sym.name in seen:
                    raise ParseError(f"duplicate generator {tok!r}", lineno, col)
                seen.add(sym.name)
                generators.append(sym)
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
        if sym.name not in seen:
            raise ParseError(f"unknown generator {sym.name!r}", lineno, col)
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
    lines = ["gens: " + " ".join(g.name for g in p.generators)]
    for r in p.relators:
        lines.append(("rel: " + str(r)).rstrip())
    return "\n".join(lines) + "\n"
