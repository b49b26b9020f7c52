"""Acceptance criteria, one test per criterion, one printed line each.

The word suite shared by criteria 4, 5, 7 and 9 consists of the A2 anchor
word, a longest word per census type, the five grid words, and 20 seeded
random reduced words of length <= 10 per census type.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

from weyldiag import (
    CartanType,
    GridShape,
    Word,
    bruhat_leq_oracle,
    diagram_for,
    diagram_from_mask,
    enumerate_positive,
    grid_from_mask,
    group_elements,
    invert,
    is_le_diagram,
    is_positive,
    is_positive_by_ascents,
    is_positive_by_lengths,
    longest_word,
    longest_word_census,
    one_line,
    pipe_dream_permutation,
    positivity_obstruction,
    quantum_matrices_word,
    render_wiring,
    subword_products,
    trace_rendered_wiring,
    zeta,
    zeta_prime,
)
from weyldiag.diagrams import (
    _ascent_start,
    _ascent_step,
    _length_start,
    _length_step,
    _obstruction_start,
    _obstruction_step,
    _walk,
)
from weyldiag.roots import _orbit_point_of_columns

from conftest import (
    CENSUS_TYPES,
    REFLECTION_START,
    dense_orbit_point,
    obstruction_step_by_reflection,
    pack_image_columns,
    random_reduced_words,
    system_of,
)

GRID_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description} "
          f"[{time.perf_counter() - start:.2f}s]")


@lru_cache(maxsize=None)
def suite_words() -> tuple[Word, ...]:
    words = [Word(system_of("A", 2), (1, 2, 1))]
    for family, rank in CENSUS_TYPES:
        words.append(longest_word(system_of(family, rank)))
    for p, m in GRID_SHAPES:
        words.append(quantum_matrices_word(GridShape(p, m)))
    for index, (family, rank) in enumerate(CENSUS_TYPES):
        words.extend(random_reduced_words(system_of(family, rank), 20, 10,
                                          seed=100 + index))
    return tuple(words)


@lru_cache(maxsize=None)
def positives_of(word: Word):
    return tuple(enumerate_positive(word))


def test_criterion_1_a2_anchor():
    with criterion(1, "A2 anchor word (1,2,1)"):
        start = time.perf_counter()
        a2 = system_of("A", 2)
        word = Word(a2, (1, 2, 1))
        positives = positives_of(word)
        assert {d.positions for d in positives} == {
            (), (1,), (2,), (1, 2), (2, 3), (1, 2, 3),
        }
        images = [zeta(d) for d in positives]
        assert len(set(images)) == 6
        assert set(images) == group_elements(a2)
        for d, u in zip(positives, images):
            assert diagram_for(word, u) == d
        assert time.perf_counter() - start < 1.0


def test_criterion_2_longest_word_census():
    with criterion(2, "positive count equals |W| over a longest word, 9 types"):
        start = time.perf_counter()
        for family, rank in CENSUS_TYPES:
            result = longest_word_census(CartanType(family, rank))
            assert result.positive_count == result.group_order, (family, rank)
            # ok also needs the counts by size to be prod [e_i + 1]_q.
            assert result.ok, (family, rank, result.witness)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_le_equals_positive():
    with criterion(3, "Le condition equals positivity on five grid shapes"):
        start = time.perf_counter()
        for p, m in GRID_SHAPES:
            shape = GridShape(p, m)
            word = quantum_matrices_word(shape)
            le_count = 0
            for mask in range(1 << shape.size):
                le = is_le_diagram(grid_from_mask(shape, mask))
                assert le == is_positive(diagram_from_mask(word, mask)), (p, m, mask)
                le_count += le
            if (p, m) == (2, 2):
                assert le_count == 14
        assert time.perf_counter() - start < 30.0


def test_criterion_4_dual_positivity_tests_agree():
    with criterion(4, "ascent and length tests agree on the suite; walks match"):
        for word in suite_words():
            passed = []
            for mask in range(1 << word.t):
                d = diagram_from_mask(word, mask)
                by_ascents = is_positive_by_ascents(d)
                assert by_ascents == is_positive_by_lengths(d), (
                    word, d.positions,
                )
                if by_ascents:
                    passed.append(d.positions)
            # The pruned suffix walks against the per-mask reference, in order.
            assert [p for p, _ in _walk(word, _ascent_step, _ascent_start(word))] == passed, word
            assert [p for p, _ in _walk(word, _length_step, _length_start(word))] == passed, word


def test_criterion_5_bijection_and_oracle_agreement():
    with criterion(5, "zeta image equals the subword interval; oracle agrees"):
        for word in suite_words():
            positives = positives_of(word)
            images = [zeta(d) for d in positives]
            interval = subword_products(word)
            assert len(set(images)) == len(images)
            assert set(images) == interval
            # The length walk's leaf state is zeta(d) as packed image
            # columns, their packed heights and its length, which verify_word
            # reads its keys (u(2 rho), length) off; the ascent walk's is the
            # row sums of zeta'(d), the heights of the roots zeta'(d) sends
            # the simple roots to.
            by_lengths = dict(_walk(word, _length_step, _length_start(word)))
            by_ascents = dict(_walk(word, _ascent_step, _ascent_start(word)))
            for d, u in zip(positives, images):
                columns, packed_heights, n = by_lengths[d.positions]
                assert (columns, packed_heights) == pack_image_columns(word.system, u.matrix)
                key = (_orbit_point_of_columns(word.system, columns), n)
                assert key == (dense_orbit_point(word.system, u.matrix), u.length), (
                    word, d.positions,
                )
                assert u.length == d.size, (word, d.positions)
                heights = tuple(map(sum, zeta_prime(d).matrix))
                assert by_ascents[d.positions] == heights, (word, d.positions)
            # |W| <= 200 for every suite type, so the rank-4 sample covers W.
            for u in group_elements(word.system):
                present = diagram_for(word, u) is not None
                assert present == bruhat_leq_oracle(word, u)
                assert present == (u in interval)


def test_criterion_6_reduced_word_independence():
    with criterion(6, "braid-related longest words of A3 share the zeta image"):
        a3 = system_of("A", 3)
        words = [
            Word(a3, (1, 2, 1, 3, 2, 1)),
            Word(a3, (2, 1, 2, 3, 2, 1)),
            Word(a3, (1, 2, 3, 1, 2, 1)),
        ]
        assert words[0].element == words[1].element == words[2].element
        assert all(w.reduced for w in words)
        image_sets = [
            frozenset(zeta(d) for d in positives_of(w)) for w in words
        ]
        assert image_sets[0] == image_sets[1] == image_sets[2]


def _violated_pairs(diagram):
    for m in diagram.positions:
        for j in range(1, m):
            if positivity_obstruction(diagram, j, m).violated:
                yield j, m


def test_criterion_7_obstruction_soundness():
    with criterion(7, "obstruction-free diagrams are exactly the positive ones"):
        for word in suite_words():
            # Positive diagrams never trip the obstruction; gamma traces are
            # cross-checked against omitted products inside construction.
            found = [d.positions for d in positives_of(word)]
            for d in positives_of(word):
                assert not any(_violated_pairs(d)), (word, d.positions)
            start = _obstruction_start(word)
            assert [p for p, _ in _walk(word, _obstruction_step, start)] == found, word
            # The walk rule that reflects one root per member, the reference.
            by_reflection = _walk(word, obstruction_step_by_reflection, REFLECTION_START)
            assert [p for p, _ in by_reflection] == found, word
            # The per-mask reference for the converse, bounded to keep 2^t
            # small: the masks no pair trips, in order, are the walk's list.
            if word.t <= 9:
                free = []
                for mask in range(1 << word.t):
                    d = diagram_from_mask(word, mask)
                    if not any(_violated_pairs(d)):
                        free.append(d.positions)
                    else:
                        assert not is_positive(d), (word, d.positions)
                assert free == found, word


def test_criterion_8_pipe_dream_anchors_and_tracing():
    with criterion(8, "pipe dream anchors and wire tracing on 2x2 and 2x3"):
        for p, m in [(2, 2), (2, 3)]:
            shape = GridShape(p, m)
            word = quantum_matrices_word(shape)
            system = shape.system()
            empty = grid_from_mask(shape, 0)
            full = grid_from_mask(shape, (1 << shape.size) - 1)
            assert pipe_dream_permutation(empty) == tuple(range(1, shape.n + 2))
            assert pipe_dream_permutation(full) == one_line(
                system, invert(word.element)
            )
            for mask in range(1 << shape.size):
                filling = grid_from_mask(shape, mask)
                assert trace_rendered_wiring(render_wiring(filling)) == (
                    pipe_dream_permutation(filling)
                ), (p, m, mask)


def test_criterion_9_member_suffix_expressions_reduced():
    with criterion(9, "s_i times the member suffix is reduced for positives"):
        for word in suite_words():
            for d in positives_of(word):
                assert is_positive_by_lengths(d), (word, d.positions)
