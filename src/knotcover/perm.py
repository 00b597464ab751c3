"""Permutations on the points 1..n and finite permutation groups.

Composition is left to right throughout the package: ``compose(p, q)`` is the
permutation "apply p, then q".  Evaluating a word g1 g2 ... gk therefore means
multiplying the images in the order written.

Validation happens once, at the public constructor: ``Perm(images)`` checks
that ``images`` permutes 1..n and that n is within ``DEGREE_CAP``, so every
permutation read from text, files or callers is checked.  Products and
inverses of existing permutations are permutations of no larger degree by
construction; ``compose`` and ``Perm.inverse`` build them by tuple indexing
through the trusted path ``Perm._trusted``, which only trims trailing fixed
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, ParseError

# Largest point a permutation may move.  All groups in this package act on at
# most 12 points, so anything bigger signals corrupted input.
DEGREE_CAP = 12

DEFAULT_CLOSURE_CAP = 10_000

# The points 1..DEGREE_CAP; ``_POINTS[m:n]`` pads an image tuple of length m
# to length n with fixed points.
_POINTS = tuple(range(1, DEGREE_CAP + 1))


@dataclass(frozen=True)
class Perm:
    """A permutation stored as a tuple of images: ``images[i]`` is the image
    of the point ``i + 1``.

    Trailing fixed points are trimmed on construction, so two permutations
    that agree on every point compare equal regardless of the degree they
    were built with.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        images = Perm._trusted(images).images
        if len(images) > DEGREE_CAP:
            raise ValueError(f"degree {len(images)} exceeds cap {DEGREE_CAP}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """A permutation from ``images`` that are known to permute 1..n with
        n <= DEGREE_CAP: trailing fixed points are trimmed, and nothing is
        checked.  The public constructor trims through here after checking."""
        n = len(images)
        while n and images[n - 1] == n:
            n -= 1
        p = object.__new__(cls)
        object.__setattr__(p, "images", images[:n])
        return p

    @classmethod
    def identity(cls) -> "Perm":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if point < 1:
            raise ValueError(f"points are 1-based, got {point}")
        if point <= len(self.images):
            return self.images[point - 1]
        return point

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm._trusted(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted by
        that point."""
        seen: set[int] = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            point = self(start)
            while point != start:
                cyc.append(point)
                seen.add(point)
                point = self(point)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        n = 1
        power = self
        while power.images:
            power = compose(power, self)
            n += 1
        return n

    def __str__(self) -> str:
        return cycle_string(self)

    def __repr__(self) -> str:
        return f"Perm[{cycle_string(self)}]"


def compose(p: Perm, q: Perm) -> Perm:
    """Apply ``p`` first, then ``q``."""
    a, b = p.images, q.images
    if len(a) < len(b):
        a += _POINTS[len(a):len(b)]
    elif len(b) < len(a):
        b += _POINTS[len(b):len(a)]
    # The leading 0 shifts b so that point x indexes its own image.
    lookup = (0,) + b
    return Perm._trusted(tuple(map(lookup.__getitem__, a)))


def is_even(p: Perm) -> bool:
    """True iff ``p`` is a product of an even number of transpositions."""
    return sum(len(c) - 1 for c in p.cycles()) % 2 == 0


def cycle_string(p: Perm) -> str:
    """Canonical cycle notation; the identity prints as ``()``.

    >>> cycle_string(parse_cycles("(3,4)(1,2)"))
    '(1,2)(3,4)'
    """
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycles)


def parse_cycles(text: str) -> Perm:
    """Parse a product of disjoint cycles, e.g. ``(1,2)(3,4)`` or ``()``.

    >>> parse_cycles("(1,2)(3,4)")(1)
    2
    """
    mapping: dict[int, int] = {}
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    skip_ws()
    if pos == n:
        raise ParseError("empty cycle expression")
    saw_cycle = False
    while pos < n:
        if text[pos] != "(":
            raise ParseError(f"expected '(' at position {pos}, got {text[pos]!r}")
        pos += 1
        points: list[int] = []
        while True:
            skip_ws()
            if pos < n and text[pos] == ")":
                pos += 1
                break
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == start:
                tok = text[pos] if pos < n else "end of input"
                raise ParseError(f"expected point at position {start}, got {tok!r}")
            point = int(text[start:pos])
            if point < 1 or point > DEGREE_CAP:
                raise ParseError(
                    f"point {point} outside 1..{DEGREE_CAP} at position {start}"
                )
            if point in mapping or point in points:
                raise ParseError(f"repeated point {point} at position {start}")
            points.append(point)
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
            elif pos < n and text[pos] == ")":
                pos += 1
                break
            else:
                tok = text[pos] if pos < n else "end of input"
                raise ParseError(f"expected ',' or ')' at position {pos}, got {tok!r}")
        for i, point in enumerate(points):
            mapping[point] = points[(i + 1) % len(points)]
        saw_cycle = True
        skip_ws()
    if not saw_cycle:
        raise ParseError("empty cycle expression")
    degree = max(mapping, default=0)
    return Perm(tuple(mapping.get(x, x) for x in range(1, degree + 1)))


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group given by its full element list.

    ``elements`` is in breadth-first discovery order starting from the
    identity, so it is deterministic for a fixed generator list.
    """

    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)


def closure(gens: Iterable[Perm], cap: int = DEFAULT_CLOSURE_CAP) -> PermGroup:
    """Group generated by ``gens``, found by breadth-first multiplication.

    Element order: identity first, then products in discovery order scanning
    generators in the order given.  A repeated generator only reproduces
    products already seen, so each distinct generator is multiplied once and
    the order is the same as with the repeats.  Raises CapacityError past
    ``cap`` elements.
    """
    gens = tuple(gens)
    distinct = tuple(dict.fromkeys(gens))
    identity = Perm.identity()
    elements = [identity]
    seen = {identity}
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g in distinct:
            nxt = compose(current, g)
            if nxt not in seen:
                if len(elements) >= cap:
                    raise CapacityError(f"closure exceeded cap of {cap} elements")
                seen.add(nxt)
                elements.append(nxt)
    return PermGroup(generators=gens, elements=tuple(elements))
