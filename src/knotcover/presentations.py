"""Built-in presentations: the trefoil group, the staged link groups K_j and
their quotients Kss_j with the four parallel strands identified.  One stage
is parsed once, over the plain letters, and stage l is its renaming by the
suffix l; ``staged_presentations`` gives K_j and Kss_j from one build of
K_j.  This module builds words only; every permutation table lives in
``homcheck``."""

from __future__ import annotations

from .errors import CapacityError, InvalidArgumentError
from .words import Presentation, Word, word

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

# One stage, parsed once over the plain letters; every stage is a renaming.
_LINK_RELATORS = tuple(word(lhs) * word(rhs).inverse()
                       for lhs, rhs in _LINK_RELATOR_RHS)

# Boundary curves of one stage, one pair per boundary torus: a meridian-like
# curve and a clasp curve, (alpha, beta) and (gamma, delta).
_BOUNDARY_TORI = ((word("h"), word("f^-1 g")),
                  (word("a"), word("c a b g^-1 h^-1 e^-1 h")))

# The identifications a=b, b=c, c=d that collapse the four parallel strands.
_STRAND_PAIRS = (("a", "b"), ("b", "c"), ("c", "d"))
_STRAND_RELATORS = tuple(word(lhs) * word(rhs).inverse()
                         for lhs, rhs in _STRAND_PAIRS)


def _at_stage(w: Word, l: int) -> Word:
    """Rename a word over the plain letters to stage ``l`` by suffixing each
    letter.  The renaming is injective, so the renamed word is still reduced."""
    return Word._trusted(tuple((f"{s}{l}", sign) for s, sign in w.syllables))


def stage_boundary_words(l: int) -> tuple[tuple[Word, Word], tuple[Word, Word]]:
    """The two boundary tori of stage ``l``, each as its pair of curves:
    ((alpha_l, beta_l), (gamma_l, delta_l)).  The sewing relators glue the
    pair (alpha_{l-1}, beta_{l-1}) to (delta_l, gamma_l).

    >>> [[str(w) for w in torus] for torus in stage_boundary_words(2)]
    [['h2', 'f2^-1 g2'], ['a2', 'c2 a2 b2 g2^-1 h2^-1 e2^-1 h2']]
    """
    return tuple(tuple(_at_stage(w, l) for w in torus)
                 for torus in _BOUNDARY_TORI)


def trefoil_presentation() -> Presentation:
    """The two-generator trefoil group <a, b | b^-1 a^-1 b^-1 a b a>."""
    return Presentation(
        generators=("a", "b"),
        relators=(word("b^-1 a^-1 b^-1 a b a"),),
        label="trefoil",
        relator_names=("braid",),
    )


# The cap on every stage count: of the staged presentations and tables, so
# of `presentation`, `verify-tables`, `run-all --jmax` and `kernel-homology
# --force`.  `run-all --jmax N` is the slowest of these: its tables and
# boundary sections work at every stage count up to N, so its time grows
# about quadratically.  The cap is a round N at which it finishes within
# 4 s in a fresh process on one CPU, the rule of the kernel-homology limit.
# Fresh-process runs (Python 3.11.7, a shared 2-core Xeon host) took
#     run-all --jmax 100                    1.02-1.22 s (eight runs)
#     taskset -c 0 run-all --jmax 100       1.51-1.86 s (eight runs)
#     taskset -c 0 run-all --jmax 150       3.00-3.49 s (three runs, cap raised)
#     verify-tables --j 100                 0.11 s (four runs)
#     presentation --kind kjss --j 100      0.10-0.11 s (four runs)
# and, before the cap existed, `verify-tables --j 1000` 0.29-0.35 s; a count
# such as 10**22 ran until it was killed.
STAGE_CAP = 100


def check_stage_count(j: int) -> None:
    """Refuse a stage count j below 1 or above STAGE_CAP."""
    if j < 1:
        raise InvalidArgumentError(f"stage count must be positive, got {j}")
    if j > STAGE_CAP:
        raise CapacityError(
            f"stage count {j} exceeds the stage cap {STAGE_CAP}")


def kj_presentation(j: int) -> Presentation:
    """Group of the j-stage link complement: stages 1..j glued by the sewing
    relators S_{l,1}: alpha_{l-1} = delta_l and S_{l,2}: beta_{l-1} =
    gamma_l over the curves of ``stage_boundary_words``, with the top
    meridian killed by alpha_j = h_j = 1."""
    check_stage_count(j)
    stages = range(1, j + 1)
    relators = [_at_stage(r, l) for l in stages for r in _LINK_RELATORS]
    names = [f"R_{{{l},{k}}}" for l in stages
             for k in range(1, len(_LINK_RELATORS) + 1)]
    tori = [stage_boundary_words(l) for l in stages]
    for l, ((alpha, beta), _), (_, (gamma, delta)) in zip(stages[1:], tori,
                                                          tori[1:]):
        relators += [alpha * delta.inverse(), beta * gamma.inverse()]
        names += [f"S_{{{l},1}}", f"S_{{{l},2}}"]
    (alpha, _), _ = tori[-1]
    relators.append(alpha)
    names.append(f"h_{j}")
    return Presentation(
        generators=tuple(f"{c}{l}" for l in stages for c in LINK_LETTERS),
        relators=tuple(relators),
        label=f"kj-{j}",
        relator_names=tuple(names),
    )


def staged_presentations(j: int) -> tuple[Presentation, Presentation]:
    """``(kj_presentation(j), kjss_presentation(j))`` from one build of K_j:
    Kss_j is K_j plus, per stage, the identifications a=b, b=c, c=d that
    collapse the four parallel strands."""
    base = kj_presentation(j)
    stages = range(1, j + 1)
    return base, Presentation(
        generators=base.generators,
        relators=base.relators + tuple(_at_stage(r, l) for l in stages
                                       for r in _STRAND_RELATORS),
        label=f"kjss-{j}",
        relator_names=base.relator_names + tuple(
            f"{lhs}{l}={rhs}{l}" for l in stages for lhs, rhs in _STRAND_PAIRS),
    )


def kjss_presentation(j: int) -> Presentation:
    """kj_presentation(j) with the four parallel strands collapsed; see
    ``staged_presentations``."""
    return staged_presentations(j)[1]
