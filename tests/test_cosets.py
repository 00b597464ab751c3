"""Tests for coset tables: kernels, cyclic covers, and Todd-Coxeter."""

import hashlib
import json
import random
import tracemalloc

import pytest

from knotcover import cosets
from knotcover.cosets import (
    CosetTable,
    cyclic_cover_table,
    image_table,
    kernel_coset_table,
    todd_coxeter,
)
from knotcover.errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidHomomorphismError,
    MissingAssignmentError,
    TableIntegrityError,
)
from knotcover.homcheck import (
    GenAssignment,
    check_relators,
    eval_word,
    phi_tables,
)
from knotcover.perm import Perm, closure, orbit_count, parse_cycles
from knotcover.presentations import (
    kj_presentation,
    kjss_presentation,
    trefoil_presentation,
)
from knotcover.subgroups import (
    TREFOIL_LONGITUDE,
    TREFOIL_MERIDIAN,
    boundary_quotient,
    cover_homology,
    reidemeister_schreier,
)
from knotcover.words import Presentation, Word, reduce, word

S3 = Presentation(
    generators=("a", "b"),
    relators=(word("a a"), word("b b"), word("a b a b a b")),
)
Q8 = Presentation(
    generators=("a", "b"),
    relators=(word("a a a a"), word("a a b^-1 b^-1"), word("b^-1 a b a")),
)


def pinned_trefoil():
    return GenAssignment.from_names(
        {"a": "(1,3,5,4,2)", "b": "(1,2,3,4,5)"}, label="pinned"
    )


# -- CosetTable basics --------------------------------------------------------

def test_action_rows_must_be_permutations():
    with pytest.raises(TableIntegrityError, match="not a permutation"):
        CosetTable(
            gens=("a",), action=((1, 1),), index=2
        )


def test_a_bad_row_is_named_by_its_first_generator():
    # b's row is not a permutation and c repeats it; the check meets the
    # row once, at b
    with pytest.raises(TableIntegrityError,
                       match=r"action of b is not a permutation of 1\.\.2"):
        CosetTable(gens=("a", "b", "c"), action=((2, 1), (1, 1), (1, 1)),
                   index=2)


def test_equal_rows_share_their_index_entries():
    # equal rows that are distinct tuples still share one entry per sign
    row = (2, 3, 1)
    other = tuple(list(row))
    assert other is not row
    t = CosetTable(gens=("a", "b"), action=(row, other), index=3)
    assert t.rows["a", 1] is t.rows["b", 1]
    assert t.rows["a", -1] is t.rows["b", -1]
    assert t.rows["a", 1] == (0, 2, 3, 1) and t.rows["a", -1] == (0, 3, 1, 2)


def test_tables_compare_by_their_inputs_only():
    def build():
        return CosetTable(gens=("a", "b"), action=((2, 1), (1, 2)), index=2)

    s, t = build(), build()
    assert s == t and hash(s) == hash(t)
    assert "rows" not in repr(s)


def test_one_row_per_generator():
    with pytest.raises(TableIntegrityError):
        CosetTable(gens=("a", "b"), action=((1,),), index=1)


def test_index_must_be_positive():
    # an empty table would pass the permutation check and then fail with
    # IndexError wherever it is traced
    with pytest.raises(TableIntegrityError, match="index must be positive"):
        CosetTable(gens=("a", "b"), action=((), ()), index=0)


def test_step_trace_and_word_action():
    t = cyclic_cover_table(trefoil_presentation(), 4)
    a = "a"
    assert t.step(1, a) == 2
    assert t.step(1, a, -1) == 4
    assert t.trace(1, word("a b a")) == 4
    assert t.word_action(word("a")) == (2, 3, 4, 1)
    assert t.word_action(word("a b^-1")) == (1, 2, 3, 4)
    # a and b act alike, so they share one row map entry per sign
    assert t.rows["a", 1] is t.rows["b", 1] and t.rows["a", -1] is t.rows["b", -1]


@pytest.mark.parametrize("coset", [0, -1, 4, 5])
def test_step_and_trace_reject_cosets_outside_the_table(coset):
    # 0 and -1 would otherwise index rows from the end
    t = cyclic_cover_table(trefoil_presentation(), 3)
    with pytest.raises(InvalidArgumentError, match=f"coset {coset} outside 1..3"):
        t.step(coset, "a")
    with pytest.raises(InvalidArgumentError, match=f"coset {coset} outside 1..3"):
        t.trace(coset, word("a"))
    with pytest.raises(InvalidArgumentError, match=f"coset {coset} outside 1..3"):
        t.trace(coset, Word())


def test_verify_accepts_real_tables_and_rejects_corrupt_ones():
    p = trefoil_presentation()
    t = cyclic_cover_table(p, 3)
    t.verify(p)
    # swap the b-row so the braid relator no longer acts trivially
    corrupt = CosetTable(
        gens=t.gens,
        action=(t.action[0], (1, 3, 2)),
        index=3,
    )
    with pytest.raises(TableIntegrityError, match="braid"):
        corrupt.verify(p)


def test_verify_requires_matching_generators():
    t = cyclic_cover_table(trefoil_presentation(), 2)
    other = Presentation(generators=("x", "y"), relators=())
    with pytest.raises(TableIntegrityError, match="generators"):
        t.verify(other)


def test_to_json_dict_round_trips_the_action():
    t = cyclic_cover_table(trefoil_presentation(), 3)
    d = t.to_json_dict()
    assert d == {"index": 3, "action": {"a": [2, 3, 1], "b": [2, 3, 1]}}


# -- kernel tables ------------------------------------------------------------

def test_trefoil_kernel_has_index_sixty():
    p = trefoil_presentation()
    t = kernel_coset_table(p, pinned_trefoil())
    assert t.index == 60
    t.verify(p)


@pytest.mark.parametrize("j,index", [(1, 2), (2, 12), (3, 60)])
def test_staged_kernel_index_is_the_image_order(j, index):
    t = kernel_coset_table(kjss_presentation(j), phi_tables(j))
    assert t.index == index
    t.verify(kjss_presentation(j))


def test_kernel_requires_a_homomorphism():
    assignment = GenAssignment(
        {**phi_tables(1).mapping, "a1": parse_cycles("(1,2,3)")})
    with pytest.raises(InvalidHomomorphismError, match=r"R_\{1,1\}"):
        kernel_coset_table(kjss_presentation(1), assignment)


def test_image_table_traces_each_word_to_its_value():
    # coset c holds elements[c - 1]; tracing from the identity's coset 1
    # ends at the coset of the word's value, as multiplying gives it
    p = trefoil_presentation()
    assignment = pinned_trefoil()
    t, group, _ = image_table(p, assignment)
    elements = group.elements
    assert t.index == len(elements) == 60
    assert elements[0] == Perm.identity()
    for text in ("a", "b^-1", "a b", "a b a^-1 b^-1", "b b b a^-1 b", "a a a a a"):
        w = word(text)
        assert elements[t.trace(1, w) - 1] == eval_word(assignment, w)


def test_image_table_asks_each_generator_for_its_image_once(monkeypatch):
    # the relators are read for a missing image only once one is missing,
    # and check_relators reads the images from the image table's group
    asked = []
    real = GenAssignment.value

    def spy(self, sym):
        asked.append(sym)
        return real(self, sym)

    monkeypatch.setattr(GenAssignment, "value", spy)
    for p, assignment in ((trefoil_presentation(), pinned_trefoil()),
                          (kjss_presentation(2), phi_tables(2))):
        for check in (image_table, check_relators):
            asked.clear()
            check(p, assignment)
            assert asked == list(p.generators)


def test_missing_image_of_a_generator_in_no_relator_is_named():
    # no relator reads 'a', so it is named as the generators order it
    p = Presentation(generators=("a", "b", "c"), relators=(word("c b"),))
    assignment = GenAssignment.from_names({"b": "(1,2)", "c": "(1,2)"})
    with pytest.raises(MissingAssignmentError, match="'a'"):
        image_table(p, assignment)


def test_kernel_names_every_violated_relator_in_relator_order():
    p = kjss_presentation(2)
    assignment = GenAssignment({**phi_tables(2).mapping,
                                "a1": parse_cycles("(1,2,4)"),
                                "e2": parse_cycles("(1,2)")})
    # oracle: evaluate each relator by multiplying permutations
    violated = [p.relator_names[i] for i, r in enumerate(p.relators)
                if eval_word(assignment, r) != Perm.identity()]
    assert len(violated) > 2
    with pytest.raises(InvalidHomomorphismError) as e:
        kernel_coset_table(p, assignment)
    assert str(e.value) == f"assignment violates relators: {', '.join(violated)}"
    # each missed relator ends at the coset of its value
    _, group, missed = image_table(p, assignment)
    coset = {x: c for c, x in enumerate(group.elements, start=1)}
    assert missed == [(i, coset[eval_word(assignment, r)])
                      for i, r in enumerate(p.relators)
                      if eval_word(assignment, r) != Perm.identity()]


def test_kernel_coset_order_is_closure_discovery_order():
    # coset 1 is the identity; stepping from it follows the generator images
    p = trefoil_presentation()
    assignment = pinned_trefoil()
    t = kernel_coset_table(p, assignment)
    group = closure(assignment.values_in_order(p.generators))
    pos = {e: i + 1 for i, e in enumerate(group.elements)}
    a_img = assignment.value("a")
    assert t.step(1, "a") == pos[a_img]


def _orbit_count_oracle(rows, index):
    """Oracle: the orbits on 1..index by union-find over the edges of every
    row and of its inverse."""
    parent = list(range(index + 1))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for row in rows:
        inverse = [0] * index
        for c, img in enumerate(row, start=1):
            inverse[img - 1] = c
        for c in range(1, index + 1):
            for d in (row[c - 1], inverse[c - 1]):
                parent[find(d)] = find(c)
    return len({find(c) for c in range(1, index + 1)})


def _random_table(rng, ngens):
    """A table on 1..n whose rows preserve a random split of the cosets
    into one or two intervals, so about half are not transitive."""
    n = rng.randint(1, 9)
    cut = rng.choice([n, rng.randint(1, n)])
    rows = []
    for _ in range(ngens):
        low, high = list(range(1, cut + 1)), list(range(cut + 1, n + 1))
        rng.shuffle(low)
        rng.shuffle(high)
        rows.append(tuple(low + high))
    gens = tuple("abc"[:ngens])
    return CosetTable(gens=gens, action=tuple(rows), index=n)


def _orbit_cases():
    trefoil = trefoil_presentation()
    for k in range(1, 9):
        t = cyclic_cover_table(trefoil, k)
        for words in ([TREFOIL_MERIDIAN], [TREFOIL_LONGITUDE],
                      [TREFOIL_MERIDIAN, TREFOIL_LONGITUDE]):
            yield t, words
    t = kernel_coset_table(trefoil, pinned_trefoil())
    yield t, [word("a")]
    yield t, [word("a"), word("b")]
    rng = random.Random(2024)
    for _ in range(300):
        t = _random_table(rng, rng.randint(1, 3))
        single = [Word(((g, 1),)) for g in t.gens]
        product = single[0]
        for w in single[1:]:
            product = product * w.inverse()
        yield t, [single[0]]
        yield t, single
        yield t, [product]


def test_forward_orbit_walk_matches_an_inverse_row_oracle():
    # the walk follows forward rows only; an inverse is a positive power
    outcomes = set()
    for t, words in _orbit_cases():
        for rows in ([t.word_action(w) for w in words], t.action):
            count = orbit_count(rows, t.index)
            assert count == _orbit_count_oracle(rows, t.index)
            outcomes.add("one" if count == 1
                         else "every coset" if count == t.index else "several")
    assert outcomes == {"one", "several", "every coset"}


def _verify_oracle(t, p):
    """The message verify must raise and None, or None and the paths it
    must return: each relator traced from each coset in turn on the raw
    action rows, recording the coset before each syllable; then
    the orbit oracle."""
    if tuple(p.generators) != t.gens:
        return "table generators do not match presentation", None
    rows = dict(zip(t.gens, t.action))
    paths = []
    for i, r in enumerate(p.relators):
        path = [[None] * t.index for _ in r]
        for c in range(1, t.index + 1):
            d = c
            for k, (sym, sign) in enumerate(r):
                path[k][c - 1] = d
                d = rows[sym][d - 1] if sign > 0 else rows[sym].index(d) + 1
            if d != c:
                return f"relator {p.relator_names[i]} moves coset {c}", None
        paths.append(path)
    orbits = _orbit_count_oracle(t.action, t.index)
    if orbits != 1:
        return f"coset action is not transitive: {orbits} orbits", None
    return None, paths


def test_table_checks_match_a_per_coset_oracle():
    # verify traces the paths that both Reidemeister-Schreier routes read;
    # each must raise exactly when the oracle finds a fault, with its
    # message, and verify must otherwise return the oracle's paths
    rng = random.Random(15)
    outcomes = set()
    for _ in range(300):
        t = _random_table(rng, rng.randint(1, 3))
        relators = tuple(
            reduce((rng.choice(t.gens), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3)))
        # now and then the same generators in another order
        gens = t.gens[::-1] if rng.random() < 0.1 else t.gens
        p = Presentation(generators=gens, relators=relators)
        expected, paths = _verify_oracle(t, p)
        outcomes.add(expected and expected.split()[0])
        for route in (t.verify, lambda p: reidemeister_schreier(p, t),
                      lambda p: cover_homology(p, t)):
            if expected is None:
                route(p)
            else:
                with pytest.raises(TableIntegrityError) as got:
                    route(p)
                assert str(got.value) == expected
        if expected is None:
            assert t.verify(p) == paths
    # no fault, then the generator, relator and transitivity messages
    assert outcomes == {None, "table", "relator", "coset"}


def test_word_action_matches_a_per_coset_trace():
    # word_action maps each syllable over all cosets at once; trace follows
    # one coset at a time through the same rows
    rng = random.Random(44)
    lengths = set()
    for t, words in _orbit_cases():
        syllables = [(g, sign) for g in t.gens for sign in (1, -1)]
        seeded = [reduce([rng.choice(syllables)
                          for _ in range(rng.randint(0, 8))])
                  for _ in range(3)]
        for w in words + seeded:
            for v in (w, w.inverse()):
                lengths.add(len(v))
                assert t.word_action(v) == tuple(
                    t.trace(c, v) for c in range(1, t.index + 1))
    assert set(range(9)) <= lengths


def test_single_generator_orbit_is_not_transitive_on_kernel():
    t = kernel_coset_table(trefoil_presentation(), pinned_trefoil())
    # image of a is a 5-cycle, so its orbits have size 5: 12 of them, not 1
    assert orbit_count([t.word_action(word("a"))], t.index) == 12
    assert orbit_count([t.word_action(word("a")), t.word_action(word("b"))],
                       t.index) == 1


# -- cyclic covers ------------------------------------------------------------

def test_cyclic_cover_action_is_rotation():
    t = cyclic_cover_table(trefoil_presentation(), 5)
    for row in t.action:
        assert row == (2, 3, 4, 5, 1)
    assert t.index == 5
    assert orbit_count([t.word_action(word("a"))], t.index) == 1


def test_one_fold_cover_is_the_identity_cover():
    t = cyclic_cover_table(trefoil_presentation(), 1)
    assert t.index == 1
    assert t.action == ((1,), (1,))


def test_cyclic_cover_requires_zero_total_exponent():
    unbalanced = Presentation(
        generators=("a",), relators=(word("a"),),
        relator_names=("kill",),
    )
    with pytest.raises(TableIntegrityError, match="kill"):
        cyclic_cover_table(unbalanced, 2)


def test_cyclic_cover_of_a_presentation_with_no_generators():
    # no generator maps onto the integers, so only the one-fold cover exists
    empty = Presentation(generators=(), relators=())
    assert cyclic_cover_table(empty, 1).index == 1
    with pytest.raises(TableIntegrityError, match="no generators"):
        cyclic_cover_table(empty, 3)


def test_cyclic_cover_rejects_nonpositive_fold():
    with pytest.raises(ValueError):
        cyclic_cover_table(trefoil_presentation(), 0)


def test_cyclic_cover_refuses_folds_above_the_coset_cap(monkeypatch):
    monkeypatch.setattr(cosets, "COSET_CAP", 7)
    assert cyclic_cover_table(trefoil_presentation(), 7).index == 7
    with pytest.raises(CapacityError) as e:
        cyclic_cover_table(trefoil_presentation(), 8)
    assert str(e.value) == "fold 8 exceeds the coset cap 7"


# -- Todd-Coxeter -------------------------------------------------------------

def test_enumeration_matches_permutation_count_for_s3():
    # independent route: the same group as a permutation closure
    t = todd_coxeter(S3)
    images = [parse_cycles("(1,2)"), parse_cycles("(2,3)")]
    assert t.index == closure(images).order == 6
    t.verify(S3)


def test_enumeration_of_quaternion_group():
    t = todd_coxeter(Q8)
    assert t.index == 8
    t.verify(Q8)


def test_whole_group_subgroup_gives_index_one():
    t = todd_coxeter(trefoil_presentation(), [word("a"), word("b")])
    assert t.index == 1


def test_killing_meridian_and_longitude_trivializes_the_group():
    p = trefoil_presentation()
    killed = Presentation(
        generators=p.generators,
        relators=p.relators + (word("a"), TREFOIL_LONGITUDE),
    )
    assert todd_coxeter(killed).index == 1


def test_even_exponent_subgroup_has_index_two():
    t = todd_coxeter(trefoil_presentation(), [word("a a"), word("a b")])
    assert t.index == 2
    t.verify(trefoil_presentation())


def test_subgroup_generators_fix_the_origin_coset():
    gens = [word("a a"), word("a b")]
    t = todd_coxeter(trefoil_presentation(), gens)
    for w in gens:
        assert t.trace(1, w) == 1


def test_a_subgroup_generator_that_moves_coset_1_is_refused(monkeypatch):
    # negative control for the closing check: the enumeration and verify
    # read the table's rows, so only that check calls the patched trace
    real_trace = CosetTable.trace
    monkeypatch.setattr(CosetTable, "trace", lambda self, coset, w:
                        real_trace(self, coset, w) % self.index + 1)
    with pytest.raises(TableIntegrityError,
                       match="subgroup generator does not fix coset 1"):
        todd_coxeter(trefoil_presentation(), [word("a a"), word("a b")])


def test_subgroup_generators_may_be_an_iterator(monkeypatch):
    # the closing check traces every word from coset 1, also when the words
    # come from a one-shot iterator
    traced = []
    real_trace = CosetTable.trace

    def trace(self, coset, w):
        traced.append((coset, w))
        return real_trace(self, coset, w)

    monkeypatch.setattr(CosetTable, "trace", trace)
    gens = [word("a a"), word("a b")]
    t = todd_coxeter(trefoil_presentation(), iter(gens))
    assert t.index == 2
    for w in gens:
        assert (1, w) in traced


def test_enumeration_agrees_with_kernel_table_index():
    # two independent constructions of the same subgroup for each fold:
    # the rotation table versus enumeration over the Schreier generators
    # of the exponent-sum kernel for the transversal 1, a, .., a^(k-1)
    p = trefoil_presentation()
    a, b = word("a"), word("b")
    for k in (2, 3, 4):
        by_cover = cyclic_cover_table(p, k)
        gens = [a**k] + [(a**i) * b * (a ** -(i + 1)) for i in range(k)]
        by_tc = todd_coxeter(p, gens)
        assert by_tc.index == by_cover.index == k


A5 = Presentation(
    generators=("a", "b"),
    relators=(word("a a"), word("b b b"), word("a b") ** 5),
)
A5_IMAGES = GenAssignment.from_names({"a": "(1,2)(3,4)", "b": "(1,3,5)"})


def _check_against_closure(words):
    # independent route: the subgroup's order as a permutation closure of
    # the words' images, so index * order is the order of A5
    t = todd_coxeter(A5, words)
    images = [eval_word(A5_IMAGES, w) for w in words]
    assert t.index * closure(images).order == 60
    for w in words:
        assert t.trace(1, w) == 1
    return t


def test_enumeration_closes_a_cycle_through_an_inverse_edge():
    # a deduction here finds its target already entered from another coset
    # through the inverse column; only the coincidence of the two makes the
    # word fix coset 1
    w = word("a b^-1 b^-1 a b^-1 a")
    t = _check_against_closure([w])
    assert t.index == 30
    assert closure([eval_word(A5_IMAGES, w)]).order == 2


def test_subgroup_index_times_order_is_the_group_order():
    rng = random.Random(5)
    for _ in range(400):
        words = [
            reduce((rng.choice("ab"), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(0, 3))
        ]
        _check_against_closure(words)


def test_capacity_error_on_infinite_index(monkeypatch):
    # the meridian alone generates an infinite-index subgroup, so the
    # enumeration must hit the cap rather than close
    monkeypatch.setattr(cosets, "COSET_CAP", 500)
    with pytest.raises(CapacityError, match="500") as e:
        todd_coxeter(trefoil_presentation(), [word("a")])
    # how far it got: cosets defined, live after coincidences, and where
    assert str(e.value) == ("coset enumeration exceeded cap of 500 cosets "
                            "(500 defined, 499 live, scanning coset 223)")
    monkeypatch.setattr(cosets, "COSET_CAP", 5)
    with pytest.raises(CapacityError) as e:
        todd_coxeter(trefoil_presentation(), [word("a") ** 9])
    assert str(e.value) == ("coset enumeration exceeded cap of 5 cosets "
                            "(5 defined, 5 live, tracing subgroup generators)")


def test_enumeration_is_deterministic():
    a = todd_coxeter(Q8)
    b = todd_coxeter(Q8)
    assert a == b


def _kernel_schreier_words(j):
    """kj_presentation(j) and the Schreier generators rep(c) g rep(c g)^-1
    of its kernel rewrite, as words in the base generators."""
    p = kj_presentation(j)
    table = kernel_coset_table(p, phi_tables(j))
    sub = reidemeister_schreier(p, table)
    reps = sub.transversal
    words = [
        reduce(reps[c - 1].syllables + ((g, 1),)
               + reps[table.step(c, g, 1) - 1].inverse().syllables)
        for c, g in sub.schreier_gens
    ]
    return p, words


def test_todd_coxeter_holds_no_encoded_copy_of_the_subgroup_words():
    # each word is encoded into columns as it is scanned from coset 1, so
    # the enumeration holds one encoded word at a time: 18.9 traced bytes
    # per syllable on Python 3.10-3.13 over the 4261 words (18520
    # syllables) of the j = 8 kernel, against 44.8 with every word
    # encoded up front
    p, words = _kernel_schreier_words(8)
    syllables = sum(map(len, words))
    assert (len(words), syllables) == (4261, 18520)
    todd_coxeter(p, words)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        todd_coxeter(p, words)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 30 * syllables, peak / syllables


def test_every_subgroup_word_is_checked_before_a_coset_is_defined(
        monkeypatch):
    # with no room for even coset 1, an unknown symbol in the last word
    # is still the error: the symbols are checked before any coset
    monkeypatch.setattr(cosets, "COSET_CAP", 0)
    words = [word("a a"), word("a b"), word("a c^-1")]
    with pytest.raises(InvalidArgumentError,
                       match="uses c, which is not a generator of the "
                             "presentation"):
        todd_coxeter(trefoil_presentation(), words)
    with pytest.raises(CapacityError):
        todd_coxeter(trefoil_presentation(), words[:2])


def _enumeration_cases():
    trefoil = trefoil_presentation()
    for k in (3, 4, 5):
        yield Presentation(trefoil.generators,
                           trefoil.relators + (word("a") ** k,)), []
    for k in range(1, 6):
        yield boundary_quotient(k), []
    for j in (3, 4, 5):
        yield _kernel_schreier_words(j)
    yield trefoil, [word("a a"), word("a b")]
    yield S3, [word("a")]
    # index 40, and its numbering depends on the order in which the
    # enumeration defines missing neighbours
    yield Presentation(("a", "b", "c"), (
        word("c a^-1 b^-1 a^-1 b^-1 c"), word("c^-1 c^-1 a^-1 b c^-1 a^-1"),
        word("c^-1 a a c^-1"))), []


# sha256 of the sorted-key JSON list of todd_coxeter(...).to_json_dict() over
# _enumeration_cases(): the coset numbering, not only the index
ENUMERATION_FINGERPRINT = (
    "47e042410e6248256ad3f2c46a46c9b36d0338a68f8375fc8046915aa28b39a6"
)


def test_enumeration_output_is_pinned():
    tables = [todd_coxeter(p, words).to_json_dict()
              for p, words in _enumeration_cases()]
    text = json.dumps(tables, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_FINGERPRINT
