import pytest

from weyldiag import (
    DomainError,
    NotReducedError,
    Word,
    WeylElement,
    compose,
    coroot_pairing,
    element_of_word,
    extend_to_w0,
    format_word,
    invert,
    is_reduced,
    longest_element,
    longest_word,
    reduced_word,
    root_sequence,
)
from weyldiag.words import require_reduced

from conftest import CENSUS_TYPES, PROPERTY_TYPES, random_reduced_words, system_of


def extend_by_inverse_formula(word):
    """Reference for extend_to_w0: the prefix, then the canonical reduced
    word of w^{-1} w0."""
    system = word.system
    rest = compose(system, invert(word.element), longest_element(system))
    return Word(system, word.letters + reduced_word(system, rest).letters)


def check_reduced_by_length(system, letters):
    """Word.reduced, read off the height recursion, against the length that
    element_of_word carries with its matrix; for a reduced word, the
    carried heights against the matrix's row sums."""
    word = Word(system, letters)
    assert word.reduced == (element_of_word(system, letters).length == len(letters)), word
    if word.reduced:
        assert word._heights == tuple(map(sum, word.element.matrix)), word


def test_is_reduced_examples(a2):
    assert not is_reduced(Word(a2, (1, 1)))
    assert is_reduced(Word(a2, (1, 2, 1)))
    assert is_reduced(Word(a2, (2, 1, 2)))
    assert is_reduced(Word(a2, ()))


def test_word_rejects_bad_letters(a2):
    with pytest.raises(DomainError):
        Word(a2, (1, 0))
    with pytest.raises(DomainError):
        Word(a2, (5,))


def test_root_sequence_examples(a2, a3):
    a1 = system_of("A", 1)
    assert root_sequence(Word(a1, (1,))) == ((1,),)
    assert root_sequence(Word(a2, (1, 2, 1))) == ((1, 0), (1, 1), (0, 1))
    assert root_sequence(Word(a3, (2, 1, 3, 2))) == (
        (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1),
    )


def test_root_sequence_rejects_non_reduced_words(a2):
    with pytest.raises(NotReducedError) as info:
        root_sequence(Word(a2, (1, 1)))
    assert "position 2" in str(info.value)
    assert "negative" in str(info.value)


def test_root_sequence_of_longest_word_is_all_positive_roots():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        system = system_of(family, rank)
        betas = root_sequence(longest_word(system))
        assert set(betas) == set(system.positive_roots)
        assert len(betas) == len(set(betas))


def test_root_sequence_set_is_word_independent(a2, a3):
    # Braid-related reduced words of the same element share the beta set.
    assert set(root_sequence(Word(a2, (1, 2, 1)))) == set(root_sequence(Word(a2, (2, 1, 2))))
    w1 = Word(a3, (1, 2, 1, 3, 2, 1))
    w2 = Word(a3, (2, 1, 2, 3, 2, 1))
    w3 = Word(a3, (1, 2, 3, 1, 2, 1))
    assert w1.element == w2.element == w3.element
    assert set(root_sequence(w1)) == set(root_sequence(w2)) == set(root_sequence(w3))


def test_reduced_word_refuses_a_wrong_carried_length(a3):
    # The loop is bounded by the carried length, so a wrong one raises,
    # under python -O too, instead of looping or returning a wrong word.
    w = element_of_word(a3, (1, 2, 1, 3))
    assert reduced_word(a3, w).letters == (1, 2, 1, 3)
    for length in (w.length - 1, w.length + 1):
        with pytest.raises(AssertionError):
            reduced_word(a3, WeylElement(w.matrix, length))


def test_reduced_word_of_identity_is_empty(a2):
    assert reduced_word(a2, element_of_word(a2, ())).letters == ()


def test_reduced_word_round_trips(a2):
    w = element_of_word(a2, (1, 2))
    back = reduced_word(a2, w)
    assert back.element == w and back.t == 2
    w0 = element_of_word(a2, (1, 2, 1))
    back0 = reduced_word(a2, w0)
    assert back0.t == 3 and back0.element == w0


def test_reduced_word_round_trips_randomly():
    for family, rank in [("A", 3), ("B", 3), ("D", 4)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 15, 9, seed=5):
            w = word.element
            back = reduced_word(system, w)
            assert back.element == w
            assert back.t == w.length
            assert back.reduced


def test_reduced_word_is_deterministic(a2):
    w0 = element_of_word(a2, (2, 1, 2))
    assert reduced_word(a2, w0) == reduced_word(a2, element_of_word(a2, (1, 2, 1)))


def test_longest_word_properties():
    for family, rank in [("A", 2), ("B", 2), ("C", 3)] + PROPERTY_TYPES:
        system = system_of(family, rank)
        word = longest_word(system)
        assert word.t == system.num_positive_roots
        assert word.reduced
        w0 = word.element
        assert w0.length == word.t
        # w0 sends every simple root to a negative root.
        from weyldiag import apply_element

        for alpha in system.simple_roots:
            assert sum(apply_element(w0, alpha)) < 0
        # Greedy right ascents from e give w0's canonical word, greedy left
        # descents (the suffix formula of extend_to_w0 at the empty word).
        assert reduced_word(system, w0) == word


def test_extend_to_w0_examples(a2, a3):
    full = Word(a2, (1, 2, 1))
    assert extend_to_w0(full) == full

    extended = extend_to_w0(Word(a2, (1,)))
    assert extended.letters == (1, 2, 1)

    prefix = Word(a3, (2, 1, 3, 2))
    ext = extend_to_w0(prefix)
    assert ext.letters[:4] == prefix.letters
    assert ext.t == 6
    assert ext.reduced
    assert ext.element == longest_element(a3)

    for family, rank in CENSUS_TYPES + [("E", 6), ("F", 4)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 8, system.num_positive_roots, seed=rank):
            assert extend_to_w0(word) == extend_by_inverse_formula(word)


QUERY_TYPES = [("E", 7), ("E", 8), ("A", 16), ("B", 16), ("C", 16), ("D", 16), ("B", 32)]


@pytest.mark.parametrize("ctype", QUERY_TYPES, ids=[f"{f}{r}" for f, r in QUERY_TYPES])
def test_extend_to_w0_at_query_ranks(ctype):
    system = system_of(*ctype)
    for word in random_reduced_words(system, 3, 2 * system.rank, seed=system.rank):
        assert extend_to_w0(word) == extend_by_inverse_formula(word)


@pytest.mark.parametrize("family,rank", PROPERTY_TYPES + [(f, 32) for f in "ABCD"])
def test_coroot_rows_match_coroot_pairing(family, rank):
    system = system_of(family, rank)
    for word in random_reduced_words(system, 4, 2 * rank + 4, seed=rank):
        pairings = [[coroot_pairing(system, b, a) for a in system.simple_roots] for b in word.betas]
        expected = tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in pairings)
        assert word.coroot_rows == expected, word


def test_checks_fail_on_an_injected_height_update_defect(monkeypatch, a2):
    import weyldiag.words as words_mod

    # The height update without its diagonal entry, so h[a0] keeps its sign
    # where m s_a negates row a0: every letter then reads as an ascent.
    def skipping_the_diagonal(h, a0, rows):
        ha = h[a0]
        for j, c in rows[a0]:
            if j != a0:
                h[j] -= c * ha

    monkeypatch.setattr(words_mod, "_simple_update", skipping_the_diagonal)
    with pytest.raises(AssertionError):
        check_reduced_by_length(a2, (1, 1))
    require_reduced(Word(a2, (1, 1)))
    # The extension is bounded by l(w0) - t letters, so it raises, under
    # python -O too, where it would otherwise append ascents for ever.
    with pytest.raises(AssertionError, match="over A2 still has a right ascent"):
        extend_to_w0(Word(a2, ()))


def test_extend_to_w0_rejects_non_reduced(a2):
    with pytest.raises(NotReducedError):
        extend_to_w0(Word(a2, (2, 2)))


def test_extend_to_w0_from_empty_builds_longest_word():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        ext = extend_to_w0(Word(system, ()))
        assert ext == longest_word(system)


def test_format_word_round_trip(a2):
    from weyldiag.cli import parse_word

    for letters in [(), (1,), (1, 2, 1)]:
        word = Word(a2, letters)
        assert parse_word(a2, format_word(word)) == word


def test_inverse_of_word_element_reverses_the_word(a3):
    for word in random_reduced_words(a3, 10, 6, seed=9):
        reversed_word = Word(a3, tuple(reversed(word.letters)))
        assert invert(word.element) == reversed_word.element
