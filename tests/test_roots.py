import random
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import mul, neg

import pytest

import weyldiag.roots as roots_mod
import weyldiag.words as words_mod
from weyldiag import (
    CartanType,
    InvalidRankError,
    DomainError,
    NotReducedError,
    Word,
    WeylElement,
    apply_element,
    bilinear,
    compose,
    coroot_pairing,
    element_of_word,
    identity_element,
    invert,
    longest_word,
    reduced_word,
    reflect,
    root_sequence,
    simple_reflection,
    verify_word,
    zeta,
)
from weyldiag.roots import (
    MAX_CLASSICAL_RANK,
    RootSystem,
    _RANK_RULES,
    _count_inversions,
    _descent_pairings,
    _identity_matrix,
    _orbit_point,
    _orbit_point_of_columns,
    _pack,
    _simple_image,
    _simple_update,
)
from weyldiag.diagrams import (
    Diagram,
    _length_start,
    _length_step,
    _obstruction_start,
    _walk,
    diagram_for,
    is_positive_by_ascents,
    subword_products,
)
from weyldiag.verify import _rank_sizes, group_elements, group_order

from conftest import (
    PROPERTY_TYPES,
    _invert_matrix,
    count_inversions_by_dot_products,
    dense_bilinear,
    dense_form,
    dense_orbit_point,
    dense_right_mul,
    dense_simple_image,
    pack_image_columns,
    random_reduced_words,
    system_of,
)


# -- brute-force closure oracles, independent of the library internals --------

def _closure(simple_images):
    """Close the unit vectors under the given hand-written reflections."""
    n = len(simple_images)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        fresh = []
        for x in frontier:
            for refl in simple_images:
                y = refl(x)
                if y not in roots:
                    roots.add(y)
                    fresh.append(y)
        frontier = fresh
    return roots


def _a2_closure():
    # s1: (x1, x2) -> (-x1 + x2, x2);  s2: (x1, x2) -> (x1, x1 - x2).
    s1 = lambda x: (-x[0] + x[1], x[1])
    s2 = lambda x: (x[0], x[0] - x[1])
    return _closure([s1, s2])


def _g2_closure():
    # From the G2 Cartan matrix [[2,-3],[-1,2]]:
    # s1: (x1, x2) -> (-x1 + 3 x2, x2);  s2: (x1, x2) -> (x1, x1 - x2).
    s1 = lambda x: (-x[0] + 3 * x[1], x[1])
    s2 = lambda x: (x[0], x[0] - x[1])
    return _closure([s1, s2])


def test_a2_positive_roots_match_brute_force_closure():
    oracle = {x for x in _a2_closure() if all(c >= 0 for c in x)}
    assert oracle == {(1, 0), (0, 1), (1, 1)}
    system = system_of("A", 2)
    assert set(system.positive_roots) == oracle
    assert system.num_positive_roots == 3


def test_g2_positive_root_count_matches_brute_force_closure():
    oracle = {x for x in _g2_closure() if all(c >= 0 for c in x)}
    assert len(oracle) == 6
    system = system_of("G", 2)
    assert set(system.positive_roots) == oracle


def _orbit_closure(system):
    """Reference roots: the simple roots closed under every simple reflection,
    split by sign, with the positive ones in (height, lex) order."""
    n = system.rank
    all_roots = set(system.simple_roots)
    frontier = list(system.simple_roots)
    while frontier:
        fresh = []
        for x in frontier:
            for i0 in range(n):
                y = dense_simple_image(x, i0, system.cartan)
                if y not in all_roots:
                    all_roots.add(y)
                    fresh.append(y)
        frontier = fresh
    positive = [x for x in all_roots if all(c >= 0 for c in x)]
    negative = [x for x in all_roots if all(c <= 0 for c in x)]
    assert len(positive) == len(negative) == len(all_roots) // 2, "mixed-sign root"
    positive.sort(key=lambda x: (sum(x), x))
    return tuple(positive), frozenset(all_roots)


ORACLE_TYPES = [
    (f, r) for f, (lo, hi, _) in _RANK_RULES.items() for r in range(lo, min(hi, 8) + 1)
] + [(f, 32) for f in "ABCD"]


def _assert_edges_step_up(system):
    """Each non-simple positive root steps up from an earlier one: it is an
    earlier root plus one simple root.  The simple roots come first."""
    positive = system.positive_roots
    assert positive[: system.rank] == system.simple_roots[::-1]
    index = {beta: k for k, beta in enumerate(positive)}
    for k, beta in enumerate(positive[system.rank :], system.rank):
        parents = [
            index[down] for i, c in enumerate(beta)
            if c and (down := beta[:i] + (c - 1,) + beta[i + 1 :]) in index
        ]
        assert parents and min(parents) < k, beta


@pytest.mark.parametrize("family,rank", ORACLE_TYPES)
def test_roots_by_height_match_orbit_closure_and_edges_step_up(family, rank):
    system = RootSystem(CartanType(family, rank))
    positive, roots = _orbit_closure(system)
    assert system.positive_roots == positive
    assert system.roots == roots
    _assert_edges_step_up(system)


# The orbit closure is too slow at the rank cap, so there the checks are the
# classical counts and highest roots (Bourbaki, Plates I-VII).
RANK_CAP_TYPES = [
    ("A", 64, 2080, (1,) * 64),
    ("B", 64, 4096, (1,) + (2,) * 63),
    ("C", 64, 4096, (2,) * 63 + (1,)),
    ("D", 64, 4032, (1,) + (2,) * 61 + (1, 1)),
    ("E", 8, 120, (2, 3, 4, 6, 5, 4, 3, 2)),
]


@pytest.mark.parametrize("family,rank,count,highest", RANK_CAP_TYPES)
def test_rank_cap_root_counts_highest_roots_and_edges(family, rank, count, highest):
    system = system_of(family, rank)
    assert system.num_positive_roots == len(system.positive_roots) == count
    assert system.positive_roots[-1] == highest
    # Each root once, by height and then lexicographically: every output
    # that lists roots or words relies on that order.
    positive = system.positive_roots
    assert positive == tuple(sorted(set(positive), key=lambda x: (sum(x), x)))
    _assert_edges_step_up(system)


@pytest.mark.parametrize(
    "family,rank", ORACLE_TYPES + [(f, r) for f, r, _, _ in RANK_CAP_TYPES if r == 64]
)
def test_simple_coroots_pair_to_two_with_two_rho(family, rank):
    # <alpha_i^vee, 2 rho> = 2 for every i; one missing or extra positive
    # root beta moves some pairing, by <alpha_i^vee, beta> != 0.
    system = system_of(family, rank)
    assert [sum(map(mul, crow, system.two_rho)) for crow in system.cartan] == [2] * rank


def _sparse_mismatches(system, seed):
    """Names of the sparse-row operations that disagree with dense reference
    arithmetic from system.cartan (dense_form for bilinear), on seeded
    random (not always reduced) words and a random simple reflection and
    lattice vector for each."""
    cartan, n, form = system.cartan, system.rank, dense_form(system)
    rows, cols = system._cartan_rows, system._cartan_cols
    bad = set()
    if tuple(tuple(dict(row).get(j, 0) for j in range(n)) for row in rows) != cartan:
        bad.add("rows")
    transpose = tuple(zip(*cartan))
    if tuple(tuple(dict(col).get(i, 0) for i in range(n)) for col in cols) != transpose:
        bad.add("cols")
    rng = random.Random(seed)
    for _ in range(12):
        letters = [rng.randint(1, n) for _ in range(rng.randint(0, 2 * n))]
        m = _identity_matrix(n)
        for i in letters:
            m = dense_right_mul(m, i - 1, cartan)
        if element_of_word(system, letters).matrix != m:
            bad.add("element_of_word")
        a0 = rng.randrange(n)
        images = tuple(dense_simple_image(row, a0, cartan) for row in m)
        if any(_simple_image(row, a0, rows) != y for row, y in zip(m, images)):
            bad.add("_simple_image")
        x = tuple(sum(c * row[k] for c, row in zip(system.two_rho, m)) for k in range(n))
        if _orbit_point(system, m) != x:
            bad.add("_orbit_point")
        expected = [sum(a * v for a, v in zip(crow, x)) for crow in cartan]
        if _descent_pairings(system, x) != expected:
            bad.add("_descent_pairings")
        # The one sparse update, over the columns on descent pairings and
        # over the rows on heights.
        p = list(expected)
        _simple_update(p, a0, cols)
        if p != [v - crow[a0] * expected[a0] for v, crow in zip(expected, cartan)]:
            bad.add("_simple_update")
        h = list(map(sum, m))
        _simple_update(h, a0, rows)
        if h != list(map(sum, dense_right_mul(m, a0, cartan))):
            bad.add("_simple_update")
        y = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(bilinear(system, row, y) != dense_bilinear(row, y, form) for row in m):
            bad.add("bilinear")
    return bad


@pytest.mark.parametrize("family,rank", PROPERTY_TYPES + [(f, 32) for f in "ABCD"])
def test_sparse_cartan_lines_match_dense_arithmetic(family, rank):
    assert _sparse_mismatches(system_of(family, rank), seed=rank) == set()


@pytest.mark.parametrize("attr,entry,caught", [
    ("_cartan_rows", 1, {"rows", "element_of_word", "_simple_image",
                         "_descent_pairings", "_simple_update", "bilinear"}),
    ("_cartan_cols", 0, {"cols", "_simple_update"}),
])
def test_sparse_comparison_fails_on_a_dropped_entry(attr, entry, caught):
    # A fresh A3 system (not the cached one) with one nonzero Cartan entry
    # dropped from one line: every operation that reads the line disagrees.
    system = RootSystem(CartanType("A", 3))
    assert _sparse_mismatches(system, seed=3) == set()
    lines = list(getattr(system, attr))
    lines[1] = tuple(e for e in lines[1] if e[0] != entry)
    setattr(system, attr, tuple(lines))
    assert _sparse_mismatches(system, seed=3) == caught


def _product_words(system, seed):
    """t = 0 and every t = 1, where most rows stay the identity's; seeded
    reduced words, each also with one seeded letter doubled, which is
    reduced up to the double; seeded random words; and, up to 120 positive
    roots, the longest word, which reaches the highest root's coefficients
    (6 on E8)."""
    n = system.rank
    rng = random.Random(seed)
    words = [(), *((i,) for i in range(1, n + 1))]
    for word in random_reduced_words(system, 3, 2 * n, seed):
        k = rng.randint(1, word.t) if word.t else 0
        words += [word.letters, word.letters[:k] + word.letters[k - 1 :]]
    words += [tuple(rng.randint(1, n) for _ in range(rng.randint(2, 2 * n))) for _ in range(3)]
    if system.num_positive_roots <= 120:
        words.append(longest_word(system).letters)
    return words


def _product_mismatches(system, words):
    """Names of the word products that disagree with dense prefix products
    (conftest.dense_right_mul) on the words: element_of_word's matrix and
    carried length, and root_sequence's betas, or, for a word that is not
    reduced, the position and root its NotReducedError names.  The
    functions are read off their modules at each call, so a test can patch
    them."""
    n, cartan = system.rank, system.cartan
    bad = set()
    for letters in words:
        m, betas = _identity_matrix(n), []
        for i in letters:
            betas.append(m[i - 1])
            m = dense_right_mul(m, i - 1, cartan)
        u = roots_mod.element_of_word(system, letters)
        if u.matrix != m or u.length != sum(1 if sum(b) > 0 else -1 for b in betas):
            bad.add("element_of_word")
        first = next((k for k, b in enumerate(betas, 1) if sum(b) < 0), None)
        try:
            got = words_mod.root_sequence(Word(system, letters))
        except NotReducedError as e:
            tail = f"root {betas[first - 1]} at position {first} is negative" if first else None
            if tail is None or not str(e).endswith(tail):
                bad.add("root_sequence")
        else:
            if first is not None or got != tuple(betas):
                bad.add("root_sequence")
    return bad


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("G", 2), ("E", 8), *((f, MAX_CLASSICAL_RANK) for f in "ABCD"),
])
def test_word_products_match_dense_prefix_products(family, rank):
    system = system_of(family, rank)
    assert _product_mismatches(system, _product_words(system, seed=rank)) == set()


def _patch_everywhere(monkeypatch, name, value):
    # The library function roots.<name>, replaced in roots and in every
    # module that imported it under that name.
    real = getattr(roots_mod, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("weyldiag") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, value)


def _without_the_bias(system, x):
    # Unpacking without the 128 per byte: a negative coordinate borrows
    # from the next byte up.
    return system._signed_bytes.unpack(x.to_bytes(system.rank, "little", signed=True))


def _reusing_touched_identity_rows(real):
    # element_of_word as if only the rows of the letters themselves were
    # touched: a Cartan neighbour's row is left the identity's.
    def element(system, letters):
        u = real(system, letters)
        own = {i - 1 for i in letters}
        ident = _identity_matrix(system.rank)
        rows = tuple(row if j in own else ident[j] for j, row in enumerate(u.matrix))
        return WeylElement(rows, u.length)
    return element


@pytest.mark.parametrize("defect,caught", [
    ("unbiased unpack", {"element_of_word", "root_sequence"}),
    ("diagonal skipped", {"element_of_word", "root_sequence"}),
    ("touched identity row reused", {"element_of_word"}),
])
@pytest.mark.parametrize("family,rank", [("A", 3), ("G", 2)])
def test_product_comparison_fails_on_an_injected_defect(monkeypatch, defect, caught, family, rank):
    # A fresh system (not the cached one), so a dropped diagonal stays local.
    system = RootSystem(CartanType(family, rank))
    words = _product_words(system, seed=rank)
    assert _product_mismatches(system, words) == set()
    if defect == "unbiased unpack":
        _patch_everywhere(monkeypatch, "_unpack", _without_the_bias)
    elif defect == "diagonal skipped":
        system._cartan_rows = tuple(
            tuple((j, c) for j, c in row if j != i) for i, row in enumerate(system._cartan_rows)
        )
    else:
        monkeypatch.setattr(
            roots_mod, "element_of_word", _reusing_touched_identity_rows(element_of_word)
        )
    assert _product_mismatches(system, words) == caught


def test_right_mul_serves_the_oracles_alone(monkeypatch, a3):
    # Products of words share no kernel with the oracles that check them:
    # with _right_mul raising wherever it is bound, the point API on A3 w0
    # returns what it returns with it, and only the oracles fail.
    def point_api():
        word = longest_word(a3)
        u = element_of_word(a3, (1, 2, 1, 3))
        return (
            element_of_word(a3, word.letters),
            root_sequence(Word(a3, word.letters)),
            zeta(Diagram(word, (1, 3, 4, 6))),
            diagram_for(word, u),
            reduced_word(a3, u),
            invert(u),
            verify_word(word).to_dict(),
        )

    expected = point_api()

    def raising(*args):
        raise AssertionError("_right_mul called outside the oracles")

    _patch_everywhere(monkeypatch, "_right_mul", raising)
    assert point_api() == expected
    with pytest.raises(AssertionError, match="outside the oracles"):
        subword_products.__wrapped__(longest_word(a3))
    with pytest.raises(AssertionError, match="outside the oracles"):
        group_elements.__wrapped__(a3)


def test_a1_is_trivial():
    system = system_of("A", 1)
    assert system.positive_roots == ((1,),)


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4),
    ("A", 65), ("B", 65), ("C", 65), ("D", 400),
])
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(InvalidRankError) as info:
        CartanType(family, rank)
    assert family in str(info.value)
    if family in "ABCD":
        assert f"..{MAX_CLASSICAL_RANK}" in str(info.value)


def test_unknown_family_rejected():
    with pytest.raises(InvalidRankError):
        CartanType("H", 3)


def test_d3_accepted_with_warning():
    system = system_of("D", 3)
    assert system.warnings
    assert system.num_positive_roots == system_of("A", 3).num_positive_roots == 6


@pytest.mark.parametrize("family,rank,expected", [
    ("B", 2, ((2, -1), (-2, 2))),
    ("C", 2, ((2, -2), (-1, 2))),
    ("G", 2, ((2, -3), (-1, 2))),
])
def test_cartan_matrices(family, rank, expected):
    assert system_of(family, rank).cartan == expected


def test_f4_cartan_matrix():
    assert system_of("F", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )


@pytest.mark.parametrize("family,rank,count", [
    ("A", 4, 10), ("B", 3, 9), ("C", 3, 9), ("D", 4, 12),
    ("E", 6, 36), ("F", 4, 24),
])
def test_positive_root_counts(family, rank, count):
    assert system_of(family, rank).num_positive_roots == count


def _leading_minors_positive(form):
    n = len(form)
    for k in range(1, n + 1):
        sub = [[Fraction(form[i][j]) for j in range(k)] for i in range(k)]
        det = Fraction(1)
        for col in range(k):
            piv = next((r for r in range(col, k) if sub[r][col]), None)
            if piv is None:
                return False
            if piv != col:
                sub[col], sub[piv] = sub[piv], sub[col]
                det = -det
            det *= sub[col][col]
            for r in range(col + 1, k):
                f = sub[r][col] / sub[col][col]
                sub[r] = [a - f * b for a, b in zip(sub[r], sub[col])]
        if det <= 0:
            return False
    return True


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6),
])
def test_form_symmetric_positive_definite_with_small_diagonal(family, rank):
    system = system_of(family, rank)
    form = dense_form(system)
    assert all(form[i][j] == form[j][i] for i in range(rank) for j in range(rank))
    assert all(form[i][i] in (2, 4, 6) for i in range(rank))
    assert _leading_minors_positive(form)


def test_norm_six_only_in_g2():
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4)]:
        form = dense_form(system_of(family, rank))
        assert all(form[i][i] in (2, 4) for i in range(rank))
    g2 = dense_form(system_of("G", 2))
    assert [g2[i][i] for i in range(2)] == [2, 6]


def test_coroot_pairing_with_itself_is_two():
    for family, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2), ("F", 4)]:
        system = system_of(family, rank)
        for beta in system.positive_roots:
            assert coroot_pairing(system, beta, beta) == 2


def test_reflect_examples(a2):
    alpha1, alpha2 = (1, 0), (0, 1)
    assert reflect(a2, alpha1, alpha2) == (1, 1)
    assert reflect(a2, alpha1, alpha1) == (-1, 0)
    assert reflect(a2, (1, 1), alpha1) == (0, -1)


def test_reflect_rejects_non_roots(a2):
    # None of these is a root: without the membership check (0, 0) divides
    # by zero, and (2, 0) and (1, -1) each pair with (1, 0) to 1.
    for op in (reflect, coroot_pairing):
        for beta in [(0, 0), (2, 0), (1, -1)]:
            with pytest.raises(DomainError, match="is not a root of A2"):
                op(a2, beta, (1, 0))


def test_reflect_is_an_involution_on_roots():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        for beta in system.positive_roots:
            for x in system.roots:
                assert reflect(system, beta, reflect(system, beta, x)) == x


def test_element_of_word_examples(a2):
    ident = identity_element(a2)
    assert element_of_word(a2, ()) == ident
    assert element_of_word(a2, (1, 1)) == ident
    w0 = element_of_word(a2, (1, 2, 1))
    assert apply_element(w0, (1, 0)) == (0, -1)
    assert apply_element(w0, (0, 1)) == (-1, 0)


def test_element_of_word_rejects_bad_letters(a2):
    with pytest.raises(DomainError):
        element_of_word(a2, (0,))
    with pytest.raises(DomainError):
        element_of_word(a2, (3,))


def test_length_examples(a2):
    assert identity_element(a2).length == 0
    assert _count_inversions(a2, element_of_word(a2, (1, 2, 1)).matrix) == 3
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        for i in range(1, rank + 1):
            assert simple_reflection(system, i).length == 1


def test_invert_examples(a2):
    ident = identity_element(a2)
    assert invert(ident) == ident
    assert invert(element_of_word(a2, (1, 2))) == element_of_word(a2, (2, 1))
    w0 = element_of_word(a2, (1, 2, 1))
    assert invert(w0) == w0
    assert invert(w0).length == w0.length


def _assert_inverts(w):
    # The Bareiss reference inverse is exact (m inv == I), and invert
    # agrees with it.
    m = w.matrix
    inv = _invert_matrix(m)
    n = len(m)
    product = tuple(
        tuple(sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert product == _identity_matrix(n), m
    assert invert(w) == WeylElement(inv, w.length), m


@pytest.mark.parametrize("family,rank", [
    ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
])
def test_invert_matches_the_reference_inverse_on_all_of_w(family, rank):
    for w in group_elements(system_of(family, rank)):
        _assert_inverts(w)


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_invert_matches_the_reference_inverse_on_sampled_e_elements(rank):
    # Seeded random reduced words of any length up to w0; W(E7) and W(E8)
    # are too large to enumerate.
    system = system_of("E", rank)
    for word in random_reduced_words(system, 25, system.num_positive_roots, seed=rank):
        _assert_inverts(word.element)


def test_invert_refuses_a_wrong_carried_length_and_a_non_weyl_matrix():
    # invert reads a reduced word of w at its carried length, so a wrong
    # length is refused (the matrix inverse alone would keep it silently).
    for family, rank in [("A", 3), ("B", 3), ("G", 2), ("D", 32)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 4, 60, seed=17):
            w = word.element
            assert invert(w) == WeylElement(_invert_matrix(w.matrix), w.length)
            for length in (w.length - 1, w.length + 1):
                with pytest.raises(DomainError, match=f"at length {length}"):
                    invert(WeylElement(w.matrix, length))
    with pytest.raises(DomainError, match="no root system of rank 2"):
        invert(WeylElement(((1, 1), (0, 1)), 1))


def test_compose_matches_word_concatenation():
    # Arbitrary letters, so most concatenations are not reduced: the carried
    # length of the word is checked against compose's inversion count.
    rng = random.Random(29)
    for family, rank in PROPERTY_TYPES + [("A", 32), ("B", 16)]:
        system = system_of(family, rank)
        for _ in range(20):
            left = [rng.randint(1, rank) for _ in range(rng.randint(0, 12))]
            right = [rng.randint(1, rank) for _ in range(rng.randint(0, 12))]
            w, u = element_of_word(system, left), element_of_word(system, right)
            assert compose(system, w, u) == element_of_word(system, left + right), (
                family, rank, left, right,
            )


def test_vectors_of_another_length_are_rejected(a3):
    w = element_of_word(a3, (1, 2))
    for x in [(1, 0), (1, 0, 0, 0)]:
        with pytest.raises(DomainError, match=f"length {len(x)} does not match rank 3"):
            apply_element(w, x)
        with pytest.raises(DomainError, match=f"length {len(x)} does not match rank 3"):
            reflect(a3, (1, 0, 0), x)
        with pytest.raises(DomainError, match=f"length {len(x)} does not match rank 3"):
            coroot_pairing(a3, (1, 0, 0), x)
        other = element_of_word(system_of("A", len(x)), (1,))
        for pair in [(w, other), (other, w)]:
            with pytest.raises(DomainError, match=f"rank {len(x)} does not act on A3"):
                compose(a3, *pair)


def test_elements_permute_the_roots():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 15, 8, seed=11):
            w = word.element
            images = {apply_element(w, beta) for beta in system.roots}
            assert images == system.roots


def test_length_bounded_by_word_length_with_equality_iff_reduced():
    import random

    rng = random.Random(7)
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        system = system_of(family, rank)
        for _ in range(40):
            letters = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            word = Word(system, letters)
            w = word.element
            assert w.length == _count_inversions(system, w.matrix)
            assert w.length <= len(letters)
            assert (w.length == len(letters)) == word.reduced


def test_cached_length_matches_recount():
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 10, 9, seed=3):
            w = word.element
            assert _count_inversions(system, w.matrix) == w.length
    # The length carried along a canonical reduced word, against the
    # inversion count and the breadth-first depth, on all of W.
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        system = system_of(family, rank)
        for u in group_elements(system):
            carried = reduced_word(system, u).element.length
            assert carried == _count_inversions(system, u.matrix) == u.length
    # W(E6..E8) and the rank-32 classical groups are too large to
    # enumerate: seeded reduced words instead.
    for family, rank, count in [("E", 6, 25), ("E", 7, 25), ("E", 8, 25), ("A", 32, 8),
                                ("B", 32, 8), ("C", 32, 8), ("D", 32, 8)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, count, system.num_positive_roots, seed=rank):
            w = word.element
            assert w.length == _count_inversions(system, w.matrix) == word.t


# The packed inversion count at the rank cap and on the exceptional types:
# B64 and C64 send their highest root, of height 127, to one of height
# -127, the edge of a signed byte.
PACKED_COUNT_TYPES = [("A", 64), ("B", 64), ("C", 64), ("D", 64), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", PACKED_COUNT_TYPES)
def test_packed_inversion_count_matches_dot_products_at_the_rank_cap(family, rank):
    system = system_of(family, rank)
    w0 = longest_word(system).element
    highest = system.positive_roots[-1]
    assert sum(apply_element(w0, highest)) == -sum(highest)
    assert _count_inversions(system, w0.matrix) == system.num_positive_roots
    assert count_inversions_by_dot_products(system, w0.matrix) == system.num_positive_roots
    rng = random.Random(rank)
    for _ in range(30):
        letters = [rng.randint(1, rank) for _ in range(rng.randint(0, system.num_positive_roots))]
        m = element_of_word(system, letters).matrix
        assert _count_inversions(system, m) == count_inversions_by_dot_products(system, m)


def _length_leaf(diagram):
    """The leaf state of the length walk pinned to one diagram, or None
    when the length test refuses it."""
    inside = set(diagram.positions)

    def pinned(word, j, state):
        pair = _length_step(word, j, state)
        return pair and ((None, pair[1]) if j in inside else (pair[0], None))

    word = diagram.word
    return dict(_walk(word, pinned, _length_start(word))).get(diagram.positions)


@pytest.mark.parametrize("family,rank", PACKED_COUNT_TYPES)
def test_length_walk_leaves_decode_to_zeta_at_the_rank_cap(family, rank):
    system = system_of(family, rank)
    columns, heights, n = _length_start(Word(system, ()))
    assert _orbit_point_of_columns(system, columns) == system.two_rho and n == 0
    assert system.two_rho == dense_orbit_point(system, _identity_matrix(rank))
    assert heights == sum(columns)
    # The whole longest word: its leaf is w0, which negates every height,
    # 127 at B64 and C64 included.
    w0 = longest_word(system)
    diagrams = [Diagram(w0, tuple(range(1, w0.t + 1)))]
    rng = random.Random(rank)
    for word in random_reduced_words(system, 4, 3 * rank, seed=rank):
        inside = [rng.random() < 0.5 for _ in range(word.t)]
        diagrams.append(Diagram(word, tuple(k + 1 for k, keep in enumerate(inside) if keep)))
        # The positive diagram of a subword product, which the length test
        # must pass.
        subword = [i for i, keep in zip(word.letters, inside) if keep]
        diagrams.append(diagram_for(word, element_of_word(system, subword)))
    leaves = [_length_leaf(d) for d in diagrams]
    for d, leaf in zip(diagrams, leaves):
        assert (leaf is not None) == is_positive_by_ascents(d), d
        if leaf is None:
            continue
        columns, heights, n = leaf
        u = element_of_word(system, [d.word.letters[p - 1] for p in d.positions])
        x = _orbit_point_of_columns(system, columns)
        assert x == dense_orbit_point(system, u.matrix) == _orbit_point(system, u.matrix), d
        assert n == u.length == d.size and heights == sum(columns)
        # The columns themselves are those of the product; the dense packing
        # is too slow at rank 64.
        if rank <= 8:
            assert (columns, heights) == pack_image_columns(system, u.matrix)
    assert len(leaves) - leaves.count(None) >= 5
    top = _length_start(w0)[1]
    assert leaves[0][1] == -top
    assert _orbit_point_of_columns(system, leaves[0][0]) == tuple(map(neg, system.two_rho))
    assert top >> 8 * (system.num_positive_roots - 1) == sum(system.positive_roots[-1])


def _unpack(x, n):
    """The n signed-byte coordinates of a packed vector, lowest first."""
    out = []
    for _ in range(n):
        low = (x + 128) % 256 - 128
        out.append(low)
        x = (x - low) >> 8
    assert x == 0, "a packed vector has no coordinates beyond its rank"
    return tuple(out)


@pytest.mark.parametrize(
    "family,rank", ORACLE_TYPES + [(f, r) for f, r, _, _ in RANK_CAP_TYPES if r == 64]
)
def test_roots_pack_one_to_one_and_obstruction_start_rows_are_packed_inverse(family, rank):
    system = system_of(family, rank)
    packed = {}
    for beta in system.positive_roots:
        minus = tuple(-c for c in beta)
        assert _pack(minus) == -_pack(beta)
        for v in (beta, minus):
            packed[_pack(v)] = v
            assert _unpack(_pack(v), rank) == v
    assert len(packed) == 2 * system.num_positive_roots
    for word in random_reduced_words(system, 2, 2 * rank, seed=rank):
        rows, ys = _obstruction_start(word)
        backwards = element_of_word(system, word.letters[::-1]).matrix
        assert rows == tuple(map(_pack, backwards)) and ys == frozenset()
        assert tuple(_unpack(x, rank) for x in rows) == _invert_matrix(word.element.matrix)


@pytest.mark.parametrize("family,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("A", 4, 120),
    ("B", 2, 8), ("B", 3, 48), ("C", 3, 48), ("D", 4, 192), ("G", 2, 12),
])
def test_group_order_by_bfs_matches_classical_formula(family, rank, order):
    system = system_of(family, rank)
    assert len(group_elements(system)) == group_order(system) == order


# Every type whose group the closure builds in well under a second, |W| at
# most 5040 (A6).  Type A's heights form a staircase, its own dual
# partition, so only the other families catch a product that skips the
# dual; B3's heights hold 3, 2, 2, 1, 1 roots, its exponents are 5, 3, 1.
SMALL_GROUP_TYPES = (
    [("A", n) for n in range(1, 7)] + [(f, n) for f in "BC" for n in range(2, 6)]
    + [("D", n) for n in range(3, 6)] + [("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", SMALL_GROUP_TYPES)
def test_group_order_by_exponents_matches_the_closure(family, rank):
    # The order, and the number of elements of each length, which census
    # reads off prod [e_i + 1]_q.
    system = system_of(family, rank)
    group = group_elements(system)
    assert group_order(system) == len(group)
    lengths = Counter(u.length for u in group)
    assert _rank_sizes(system) == [lengths[k] for k in range(system.num_positive_roots + 1)]


def test_exponents_of_b3_are_the_dual_of_its_height_counts():
    system = system_of("B", 3)
    heights = [sum(x) for x in system.positive_roots]
    assert [heights.count(h) for h in range(1, max(heights) + 1)] == [3, 2, 2, 1, 1]
    assert system._exponents == (5, 3, 1)


def _classical_order(family, n):
    return {"A": factorial(n + 1), "B": 2**n * factorial(n), "C": 2**n * factorial(n),
            "D": 2 ** (n - 1) * factorial(n)}[family]


@pytest.mark.parametrize("family", "ABCD")
def test_group_order_by_exponents_matches_classical_formula_to_the_rank_cap(family):
    # Systems built outside the cache, so that 64 ranks are not all held.
    lo, hi, _ = _RANK_RULES[family]
    for n in range(lo, hi + 1):
        assert group_order(RootSystem(CartanType(family, n))) == _classical_order(family, n), n


@pytest.mark.parametrize("family,rank,order", [
    ("E", 6, 51_840), ("E", 7, 2_903_040), ("E", 8, 696_729_600),
])
def test_group_order_by_exponents_matches_exceptional_literature_values(family, rank, order):
    assert group_order(system_of(family, rank)) == order
