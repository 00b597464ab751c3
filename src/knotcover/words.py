"""Free-group words, finite presentations, and their text format.

A generator is a plain name matching [a-z][a-z0-9]*, such as the stage
letter ``a1`` or the Schreier name ``ax12``.  A word is a freely reduced
sequence of syllables (generator, +1 or -1).  Presentations can be written
to and read from a small line-oriented format:

    # comment
    gens: a b
    rel: b^-1 a^-1 b^-1 a b a
    rel: x = y          # stored as the single relator x y^-1

A relator may use only generators declared above it.  The text is read
line by line, so its first error is the one reported.  ``parse_word``
reads one word over given generators by the same rule, as a subgroup-word
file line is read: each syllable is checked to name a generator before
free reduction, so ``a c c^-1`` is refused over ``a`` at its first ``c``.

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
from typing import Container, Iterable, Iterator

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
    """Freely reduce a raw syllable sequence into a Word.

    A syllable that is kept and is a tuple is kept as the very object
    given, so a product or power of words shares its factors' syllables;
    any other pair, such as a list, becomes a tuple."""
    stack: list[Syllable] = []
    for syl in raw:
        sym, sign = syl
        if sign not in (1, -1):
            raise ValueError(f"syllable sign must be +1 or -1, got {sign}")
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append(syl if type(syl) is tuple else (sym, sign))
    return Word._trusted(tuple(stack))


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word.  Construct unreduced sequences via reduce().

    Slotted: a word is its syllable tuple and no instance dict, as a
    rewritten presentation holds one word per relator and coset."""

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

    def __str__(self) -> str:
        return " ".join(
            sym if sign > 0 else f"{sym}^-1" for sym, sign in self.syllables
        )


def word(text: str) -> Word:
    """Parse a whitespace-separated syllable string, e.g. ``"b^-1 a"``."""
    return reduce(_parse_syllable(tok) for tok in text.split())


def parse_word(text: str, generators: Container[str]) -> Word:
    """Parse a syllable string as ``word`` does, each syllable naming one
    of ``generators``: every token is checked before free reduction, so
    ``"a c c^-1"`` over ``a`` raises ParseError at ``c``."""
    return reduce(_syllables(((tok, None) for tok in text.split()), generators))


def _parse_syllable(token: str, line: int | None = None,
                    col: int | None = None) -> Syllable:
    """The syllable ``token`` spells; raise ParseError, at ``line`` and
    ``col`` when given, if it spells none."""
    name, caret, exp = token.partition("^")
    if caret and exp != "-1":
        raise ParseError(f"bad syllable {token!r}: only ^-1 is allowed",
                         line, col)
    return (check_name(name, line, col), -1 if caret else 1)


def _syllables(tokens: Iterable[tuple[str, int | None]],
               generators: Container[str],
               line: int | None = None) -> Iterator[Syllable]:
    """The syllable each ``(token, col)`` spells, in order; raise
    ParseError, at ``line`` and the token's column when given, at the first
    token that spells no syllable or names none of ``generators``."""
    for tok, col in tokens:
        sym, sign = _parse_syllable(tok, line, col)
        if sym not in generators:
            raise ParseError(f"unknown generator {sym!r}", line, col)
        yield sym, sign


@dataclass(frozen=True)
class Presentation:
    """A finite presentation.  Equality compares generators and relators
    only; the label and the diagnostic relator names are metadata.
    ``relator_names[i]`` is the name of relator i on every instance, and
    ``relator[i]`` when no names are given."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    label: str = field(default="", compare=False)
    relator_names: tuple[str, ...] = field(default=None, compare=False)

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
                extra = {sym for sym, _ in r} - names
                if extra:
                    raise ValueError(
                        f"relator {i} uses undeclared generators: {sorted(extra)}"
                    )
        if self.relator_names is None:
            object.__setattr__(self, "relator_names",
                               tuple(f"relator[{i}]" for i in range(len(rels))))
        elif len(self.relator_names) != len(rels):
            raise ValueError("relator_names length does not match relators")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", rels)

    def generator_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.generators)}


def parse_presentation(text: str) -> Presentation:
    """Parse the line format described in the module docstring, one line
    at a time: the first error in the text is the one raised.

    A bare ``rel:`` line yields an empty relator, which imposes nothing.
    """
    generators: list[str] = []
    seen: set[str] = set()
    relators: list[Word] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        key = next((k for k in ("gens:", "rel:") if stripped.startswith(k)), None)
        if key is None:
            raise ParseError(
                f"expected 'gens:' or 'rel:', got {stripped.split()[0]!r}",
                lineno, indent + 1)
        body_at = indent + len(key)
        toks = [(m.group(), body_at + m.start() + 1)
                for m in re.finditer(r"\S+", line[body_at:])]
        if key == "gens:":
            for tok, col in toks:
                check_name(tok, lineno, col)
                if tok in seen:
                    raise ParseError(f"duplicate generator {tok!r}", lineno, col)
                seen.add(tok)
                generators.append(tok)
            continue
        eqs = [i for i, (tok, _) in enumerate(toks) if tok == "="]
        if len(eqs) > 1:
            raise ParseError("more than one '=' in relator", lineno,
                             toks[eqs[1]][1])
        # lhs = rhs is stored as lhs rhs^-1; with no '=', rhs is empty
        split = eqs[0] if eqs else len(toks)
        if eqs and not 0 < split < len(toks) - 1:
            raise ParseError("'=' needs a word on both sides", lineno,
                             toks[split][1])
        relators.append(reduce(_syllables(toks[:split], seen, lineno))
                        * reduce(_syllables(toks[split + 1:], seen, lineno)).inverse())

    return Presentation(tuple(generators), tuple(relators))


def print_presentation(p: Presentation) -> str:
    """Render a presentation in the line format; re-parsing gives back an
    equal presentation."""
    lines = ["gens: " + " ".join(p.generators)]
    for r in p.relators:
        lines.append(("rel: " + str(r)).rstrip())
    return "\n".join(lines) + "\n"
