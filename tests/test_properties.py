"""Property tests: carried lengths, extension to w0 and zeta' over many
types, reducedness by heights against the carried length, the inversion
count against its dot-product reference, the descent pairings against the
inverse matrix, the ascent walk's heights against dense matrix products, the
completion, obstruction and Le walks against the ascent walk, and
palindromic size distributions against Bruhat-regularity and pattern
avoidance."""

import sys
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weyldiag import (
    Diagram,
    GridShape,
    Word,
    diagram_for,
    element_of_word,
    extend_to_w0,
    group_elements,
    invert,
    one_line,
    quantum_matrices_word,
    reduced_word,
    reflect,
    subword_products,
    zeta,
    zeta_prime,
)
from weyldiag.diagrams import (
    _ascent_start,
    _ascent_step,
    _completion_start,
    _completion_step,
    _obstruction_start,
    _obstruction_step,
    _sizes,
    _walk,
)
from weyldiag.grid import _le_walk
from weyldiag.roots import _apply, _count_inversions, _identity_matrix

from conftest import (
    PROPERTY_TYPES,
    REFLECTION_START,
    count_inversions_by_dot_products,
    dense_right_mul,
    diagram_positions_by_inverse,
    obstruction_step_by_reflection,
    random_reduced_word,
    random_reduced_words,
    reduced_word_by_inverse,
    system_of,
)
from test_completion import check_sizes, mutant_sizes, same_leaves
from test_words import check_reduced_by_length, extend_by_inverse_formula

MAX_LEN = 14


@st.composite
def words(draw):
    """An arbitrary letter list and a reduced word (an ascent walk) over one type."""
    system = system_of(*draw(st.sampled_from(PROPERTY_TYPES)))
    letters = draw(st.lists(st.integers(1, system.rank), max_size=MAX_LEN))
    walk = random_reduced_word(system, draw(st.randoms(use_true_random=False)), MAX_LEN)
    return Word(system, letters), walk


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(words(), st.data())
def test_carried_length_extension_and_zeta_prime(pair, data):
    word, walk = pair
    system = word.system
    for w in (word.element, walk.element):
        assert w.length == _count_inversions(system, w.matrix)
    assert walk.reduced
    assert extend_to_w0(walk) == extend_by_inverse_formula(walk)
    inside = data.draw(st.lists(st.booleans(), min_size=walk.t, max_size=walk.t))
    d = Diagram(walk, tuple(p for p, keep in enumerate(inside, start=1) if keep))
    assert zeta_prime(d) == invert(zeta(d))


@settings(derandomize=True, database=None, deadline=None)
@given(words(), st.sampled_from([("A", 32), ("B", 32), ("C", 32), ("D", 32)]), st.data())
def test_reducedness_by_heights_equals_carried_length(pair, ctype, data):
    word, walk = pair
    system = system_of(*ctype)
    letters = data.draw(st.lists(st.integers(1, system.rank), max_size=4 * MAX_LEN))
    long_walk = random_reduced_word(system, data.draw(st.randoms(use_true_random=False)),
                                    4 * MAX_LEN)
    # One letter more: reduced exactly when it is a right ascent of the walk.
    tail = data.draw(st.integers(1, system.rank))
    for w in (word, walk, Word(system, letters), long_walk,
              Word(system, long_walk.letters + (tail,))):
        check_reduced_by_length(w.system, w.letters)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(PROPERTY_TYPES + [("B", 16), ("A", 32), ("B", 64), ("C", 64)]), st.data()
)
def test_packed_inversion_count_equals_dot_products_on_random_words(ctype, data):
    system = system_of(*ctype)
    letters = data.draw(st.lists(st.integers(1, system.rank), max_size=4 * MAX_LEN))
    m = element_of_word(system, letters).matrix
    assert _count_inversions(system, m) == count_inversions_by_dot_products(system, m)


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(PROPERTY_TYPES + [("B", 16), ("A", 32)]), st.data())
def test_descents_by_pairings_match_the_inverse_matrix(ctype, data):
    system = system_of(*ctype)
    letters = data.draw(st.lists(st.integers(1, system.rank), max_size=4 * MAX_LEN))
    walk = random_reduced_word(system, data.draw(st.randoms(use_true_random=False)), MAX_LEN)
    # An arbitrary element, and a subword product, which lies in the interval.
    inside = data.draw(st.lists(st.booleans(), min_size=walk.t, max_size=walk.t))
    subword = [i for i, keep in zip(walk.letters, inside) if keep]
    for u in (element_of_word(system, letters), element_of_word(system, subword)):
        found = diagram_for(walk, u)
        positions = None if found is None else found.positions
        assert positions == diagram_positions_by_inverse(walk, u)
        assert reduced_word(system, u).letters == reduced_word_by_inverse(system, u)


def ascent_walk(word):
    return [p for p, _ in _walk(word, _ascent_step, _ascent_start(word))]


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(PROPERTY_TYPES + [("B", 16)]), st.data())
def test_ascent_walk_leaves_are_heights_of_dense_products(ctype, data):
    # Each leaf is the row sums of zeta'(d): the members' letters multiplied
    # right to left in dense arithmetic, which shares no code with
    # _right_mul or the height update.  Products are kept per member suffix,
    # so each leaf costs one dense step.
    system = system_of(*ctype)
    walk = random_reduced_word(system, data.draw(st.randoms(use_true_random=False)), MAX_LEN)
    products = {(): _identity_matrix(system.rank)}

    def product(members):
        if members not in products:
            a0 = walk.letters[members[0] - 1] - 1
            products[members] = dense_right_mul(product(members[1:]), a0, system.cartan)
        return products[members]

    leaves = dict(_walk(walk, _ascent_step, _ascent_start(walk)))
    assert () in leaves
    for members, heights in leaves.items():
        assert heights == tuple(map(sum, product(members))), (walk, members)


@settings(derandomize=True, database=None, deadline=None)
@given(words())
def test_completion_walk_equals_ascent_walk(pair):
    # The seeded reduced word, a prefix of w0, and, up to 24 positive roots
    # (F4; E6 w0 has a test of its own, E7 and E8 w0 are out of reach), the
    # reduced word of w0 that extends it.
    _, walk = pair
    for word in [walk] + [extend_to_w0(walk)] * (walk.system.num_positive_roots <= 24):
        same_leaves(word)


@settings(derandomize=True, database=None, deadline=None)
@given(words())
def test_sizes_equal_the_ascent_walk_and_the_interval(pair):
    # The completion sweep's counts by size on the same words.
    _, walk = pair
    for word in [walk] + [extend_to_w0(walk)] * (walk.system.num_positive_roots <= 24):
        check_sizes(word)


@settings(derandomize=True, database=None, deadline=None)
@given(words())
def test_obstruction_walk_equals_ascent_walk(pair):
    _, walk = pair
    found = ascent_walk(walk)
    assert [p for p, _ in _walk(walk, _obstruction_step, _obstruction_start(walk))] == found
    assert [p for p, _ in _walk(walk, obstruction_step_by_reflection, REFLECTION_START)] == found


@st.composite
def grid_shapes(draw):
    p = draw(st.integers(1, 12))
    return GridShape(p, draw(st.integers(1, 12 // p)))


@settings(derandomize=True, database=None, deadline=None)
@given(grid_shapes())
def test_le_walk_equals_ascent_walk(shape):
    assert list(_le_walk(shape)) == ascent_walk(quantum_matrices_word(shape))


# -- palindromic size distributions --------------------------------------------
#
# zeta is a length-preserving bijection onto [e, w], so the sizes of the
# positive diagrams are the rank generating function of the interval.  It
# is palindromic exactly when the Bruhat graph on [e, w] is regular
# (Carrell-Peterson; Carrell, Proc. Symp. Pure Math. 56, 1994), and in type
# A exactly when w avoids 3412 and 4231 (Lakshmibai-Sandhya).  The weaker
# count #{t <= w} = l(w) is not enough outside type A.


def size_distribution(word):
    # The sizes of the positive diagrams, counted by the completion sweep.
    return _sizes(word, _completion_step, _completion_start(word))


def size_distribution_by_leaves(word):
    # The same, counted over the ascent walk's leaves: the sweep's check.
    counts = [0] * (word.t + 1)
    for positions in ascent_walk(word):
        counts[len(positions)] += 1
    return counts


def reflection_matrices(system):
    """s_beta for each positive root beta: row i is s_beta(alpha_i)."""
    return [
        tuple(reflect(system, beta, alpha) for alpha in system.simple_roots)
        for beta in system.positive_roots
    ]


def bruhat_regular(word, reflections):
    """Every u <= w has exactly l(w) reflections t with ut <= w, read off the
    subword products alone; row i of ut is u applied to t(alpha_i)."""
    below = {u.matrix for u in subword_products.__wrapped__(word)}
    return all(
        sum(tuple(_apply(u, row) for row in t) in below for t in reflections) == word.t
        for u in below
    )


def avoids_3412_and_4231(sigma):
    return all(
        tuple(sorted(sub).index(x) for x in sub) not in ((2, 3, 0, 1), (3, 1, 2, 0))
        for sub in combinations(sigma, 4)
    )


def word_mismatches(word, reflections, regularity=True, leaves=True):
    """What is wrong with one reduced word: a size distribution that is
    palindromic where [e, w] is not Bruhat-regular, or the other way round;
    in type A, one that is palindromic where w contains 3412 or 4231, or the
    other way round; and, with leaves, sizes from the sweep that differ from
    the ascent walk's."""
    system = word.system
    counts = size_distribution(word)
    palindromic = counts == counts[::-1]
    found = []
    if leaves and counts != size_distribution_by_leaves(word):
        found.append((str(word), counts, "leaf walk"))
    if regularity and palindromic != bruhat_regular(word, reflections):
        found.append((str(word), counts, "regularity"))
    if system.ctype.family == "A" and palindromic != avoids_3412_and_4231(
        one_line(system, word.element)
    ):
        found.append((str(word), counts, "patterns"))
    return found


def palindrome_mismatches(family, rank, regularity=True, leaves=True):
    """word_mismatches over a reduced word of every element of the group."""
    system = system_of(family, rank)
    reflections = reflection_matrices(system)
    found = []
    for w in sorted(group_elements(system), key=lambda w: (w.length, w.matrix)):
        found += word_mismatches(reduced_word(system, w), reflections, regularity, leaves)
    return found


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4), ("D", 4), ("B", 4), ("A", 5), ("A", 6),
])
def test_palindromic_iff_bruhat_regular_and_pattern_avoiding(family, rank):
    # A5 (720 elements) and A6 (5040) check the patterns alone, and A6 takes
    # its sizes from the sweep alone; F4 passes too, but takes about 8 s.
    assert palindrome_mismatches(
        family, rank, regularity=family != "A" or rank < 5, leaves=rank < 6
    ) == []


@pytest.mark.parametrize("family,rank", [("A", 7), ("B", 5), ("D", 5), ("F", 4), ("E", 6)])
def test_palindromic_iff_bruhat_regular_on_seeded_words(family, rank):
    # Seeded reduced words of up to 12 letters, beyond the types whose
    # every element is checked above; both verdicts occur.
    system = system_of(family, rank)
    reflections = reflection_matrices(system)
    verdicts = set()
    for word in random_reduced_words(system, 12, 12, seed=rank):
        assert word_mismatches(word, reflections) == []
        counts = size_distribution(word)
        verdicts.add(counts == counts[::-1])
    assert verdicts == {False, True}


def test_palindrome_check_fails_on_injected_defects(monkeypatch):
    here = sys.modules[__name__]
    real_walk, real_sizes, real_reflections = _walk, _sizes, reflection_matrices

    # The leaf walk without its top diagram, or with size 1 moved to size 0:
    # the sweep's check sees each.
    def dropping_the_top(word, step, start):
        return ((p, s) for p, s in real_walk(word, step, start) if len(p) < word.t)

    def shifting_size_one(word, step, start):
        return ((p[1:] if len(p) == 1 else p, s) for p, s in real_walk(word, step, start))

    for walk in (dropping_the_top, shifting_size_one):
        monkeypatch.setattr(here, "_walk", walk)
        assert palindrome_mismatches("A", 3, regularity=False)
        monkeypatch.undo()
    # The same defects in the sweep, and a joined child kept in its
    # parent's lane: the palindrome check alone sees each.
    def sweep_dropping_the_top(word, step, start):
        counts = real_sizes(word, step, start)
        return counts[:-1] + [0]

    def sweep_shifting_size_one(word, step, start):
        counts = real_sizes(word, step, start)
        return [counts[0] + counts[1], 0] + counts[2:] if word.t else counts

    for sizes in (sweep_dropping_the_top, sweep_shifting_size_one, mutant_sizes(shift=0)):
        monkeypatch.setattr(here, "_sizes", sizes)
        assert palindrome_mismatches("A", 3, leaves=False)
        monkeypatch.undo()
    # The highest root's reflection replaced by alpha_1's.
    monkeypatch.setattr(here, "reflection_matrices", lambda system: (
        real_reflections(system)[:-1] + real_reflections(system)[:1]
    ))
    assert palindrome_mismatches("A", 3)
