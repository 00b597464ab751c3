"""Built-in presentations: the trefoil group, the staged link groups K_j,
their quotients Kss_j with the four parallel strands identified, and the
historical 21-generator table data used by the error reproduction."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidArgumentError
from .perm import Perm, parse_cycles
from .words import GenSym, Presentation, Word, word

LINK_LETTERS = "abcdefghi"

# Conjugation relators of one link stage, written lhs = rhs and stored as
# lhs * rhs^-1.  Row k is named R_{l,k+1} at stage l.
_LINK_RELATOR_RHS = (
    ("b", "c^-1 a c"),
    ("c", "a^-1 b a"),
    ("d", "b^-1 c b"),
    ("e", "g d g^-1"),
    ("f", "h e h^-1"),
    ("g", "e f e^-1"),
    ("a", "h^-1 g h"),
    ("h", "g^-1 i g"),
    ("i", "f h f^-1"),
)


def _stage_word(text: str, l: int) -> Word:
    """Parse a word over the plain letters and attach subscript ``l``."""
    plain = word(text)
    return Word(tuple((GenSym(s.stem, l), sign) for s, sign in plain))


def trefoil_presentation() -> Presentation:
    """The two-generator trefoil group <a, b | b^-1 a^-1 b^-1 a b a>."""
    a, b = GenSym("a"), GenSym("b")
    return Presentation(
        generators=(a, b),
        relators=(word("b^-1 a^-1 b^-1 a b a"),),
        label="trefoil",
        relator_names=("braid",),
    )


def link_block(l: int) -> tuple[tuple[GenSym, ...], tuple[Word, ...], tuple[str, ...]]:
    """Generators a_l..i_l, the nine conjugation relators of stage ``l``, and
    their diagnostic names."""
    if l < 1:
        raise InvalidArgumentError(f"stage index must be positive, got {l}")
    gens = tuple(GenSym(c, l) for c in LINK_LETTERS)
    relators = []
    names = []
    for k, (lhs, rhs) in enumerate(_LINK_RELATOR_RHS, start=1):
        relators.append(_stage_word(lhs, l) * _stage_word(rhs, l).inverse())
        names.append(f"R_{{{l},{k}}}")
    return gens, tuple(relators), tuple(names)


class BoundaryWords(NamedTuple):
    """Boundary curve classes of one stage, as words in that stage's
    generators: two meridian-like curves (alpha, gamma) and two clasp
    curves (beta, delta)."""

    alpha: Word
    beta: Word
    gamma: Word
    delta: Word


def boundary_words(l: int) -> BoundaryWords:
    if l < 1:
        raise InvalidArgumentError(f"stage index must be positive, got {l}")
    return BoundaryWords(
        alpha=_stage_word("h", l),
        beta=_stage_word("f^-1 g", l),
        gamma=_stage_word("a", l),
        delta=_stage_word("c a b g^-1 h^-1 e^-1 h", l),
    )


def kj_presentation(j: int) -> Presentation:
    """Group of the j-stage link complement: stages 1..j glued by the sewing
    relators S_{l,1}: h_{l-1} = delta_l and S_{l,2}: f_{l-1}^-1 g_{l-1} = a_l,
    with the top meridian killed by h_j = 1."""
    if j < 1:
        raise InvalidArgumentError(f"stage count must be positive, got {j}")
    gens: list[GenSym] = []
    relators: list[Word] = []
    names: list[str] = []
    for l in range(1, j + 1):
        g, r, n = link_block(l)
        gens.extend(g)
        relators.extend(r)
        names.extend(n)
    for l in range(2, j + 1):
        below = boundary_words(l - 1)
        here = boundary_words(l)
        relators.append(below.alpha * here.delta.inverse())
        names.append(f"S_{{{l},1}}")
        relators.append(below.beta * here.gamma.inverse())
        names.append(f"S_{{{l},2}}")
    relators.append(_stage_word("h", j))
    names.append(f"h_{j}")
    return Presentation(
        generators=tuple(gens),
        relators=tuple(relators),
        label=f"kj-{j}",
        relator_names=tuple(names),
    )


def kjss_presentation(j: int) -> Presentation:
    """kj_presentation(j) plus, per stage, the identifications a=b, b=c, c=d
    that collapse the four parallel strands."""
    base = kj_presentation(j)
    relators = list(base.relators)
    names = list(base.relator_names or ())
    for l in range(1, j + 1):
        for lhs, rhs in (("a", "b"), ("b", "c"), ("c", "d")):
            relators.append(_stage_word(lhs, l) * _stage_word(rhs, l).inverse())
            names.append(f"{lhs}{l}={rhs}{l}")
    return Presentation(
        generators=base.generators,
        relators=tuple(relators),
        label=f"kjss-{j}",
        relator_names=tuple(names),
    )


def _assignment(cycles: dict[str, str], subscript: int | None = None
                ) -> dict[GenSym, Perm]:
    return {
        GenSym(name, subscript): parse_cycles(text) for name, text in cycles.items()
    }


def sternfeld_fragment() -> tuple[dict[GenSym, Perm], Word]:
    """The six generator images quoted from the historical thesis table,
    plus the sewing word o^-1 h f^-1 q whose image that table gets wrong:
    the word evaluates to the image of r instead of the image of a."""
    images = _assignment(
        {
            "o": "(1,4)(2,5)",
            "h": "(1,4)(3,5)",
            "f": "(2,3)(4,5)",
            "q": "(1,2)(4,5)",
            "a": "(1,2)(3,4)",
            "r": "(1,2)(3,5)",
        }
    )
    return images, word("o^-1 h f^-1 q")


# Corrected 21-generator tables, one per residue of the stage distance.
# Shipped as data only; the relators they belong to are not modelled here.
_STERNFELD_TABLE_TOP = {
    "a": "(1,2)(3,5)", "b": "(1,2)(3,5)", "c": "(1,2)(3,5)", "d": "(1,2)(3,5)",
    "e": "(1,2)(4,5)", "f": "(1,2)(4,5)", "g": "(1,2)(4,5)", "h": "(1,2)(3,5)",
    "i": "(1,2)(3,5)", "j": "(1,2)(4,5)", "k": "(1,2)(3,4)", "l": "(1,2)(4,5)",
    "m": "(1,2)(3,4)", "n": "(1,2)(3,4)", "o": "(1,2)(3,4)", "p": "(1,2)(3,4)",
    "q": "(1,2)(3,5)", "r": "()", "s": "()", "t": "()", "u": "()",
}

_STERNFELD_TABLE_ODD = {
    "a": "(1,2)(4,5)", "b": "(1,2)(4,5)", "c": "(1,2)(4,5)", "d": "(1,2)(4,5)",
    "e": "(1,3)(4,5)", "f": "(2,5)(3,4)", "g": "(1,5)(2,4)", "h": "(1,4)(3,5)",
    "i": "(2,4)(3,5)", "j": "(1,3)(2,5)", "k": "(2,3)(4,5)", "l": "(1,3)(4,5)",
    "m": "(1,3)(4,5)", "n": "(1,5)(2,4)", "o": "(1,4)(2,3)", "p": "(1,5)(2,3)",
    "q": "(1,2)(3,4)", "r": "(1,2)(3,5)", "s": "(1,2)(4,5)", "t": "(1,5)(2,3)",
    "u": "(2,5)(3,4)",
}

_STERNFELD_TABLE_EVEN = {
    "a": "(1,2)(3,5)", "b": "(1,2)(3,5)", "c": "(1,2)(3,5)", "d": "(1,2)(3,5)",
    "e": "(1,4)(3,5)", "f": "(2,5)(3,4)", "g": "(1,5)(2,3)", "h": "(1,3)(4,5)",
    "i": "(2,3)(4,5)", "j": "(1,4)(2,5)", "k": "(2,4)(3,5)", "l": "(1,4)(3,5)",
    "m": "(1,4)(3,5)", "n": "(1,5)(2,3)", "o": "(1,3)(2,4)", "p": "(1,5)(2,4)",
    "q": "(1,2)(3,4)", "r": "(1,2)(4,5)", "s": "(1,2)(3,5)", "t": "(1,5)(2,4)",
    "u": "(2,5)(3,4)",
}


def sternfeld_tables() -> tuple[dict[GenSym, Perm], ...]:
    """The corrected 21-generator tables (top stage, odd distance, even
    distance), keyed by plain letter symbols a..u."""
    return (
        _assignment(_STERNFELD_TABLE_TOP),
        _assignment(_STERNFELD_TABLE_ODD),
        _assignment(_STERNFELD_TABLE_EVEN),
    )
