import pytest

from weyldiag import (
    Diagram,
    DomainError,
    NotReducedError,
    Word,
    bruhat_leq_oracle,
    diagram_for,
    diagram_from_mask,
    element_of_word,
    identity_element,
    invert,
    is_positive,
    is_positive_by_ascents,
    is_positive_by_lengths,
    positivity_obstruction,
    reduced_word,
    subexpression,
    subword_products,
    zeta,
    zeta_prime,
)

from weyldiag import extend_to_w0, longest_word
from weyldiag.diagrams import (
    _ascent_start,
    _ascent_step,
    _interval_points,
    _obstruction_start,
    _obstruction_step,
    _walk,
)

from conftest import (
    REFLECTION_START,
    diagram_positions_by_inverse,
    obstruction_step_by_reflection,
    random_reduced_words,
    reduced_word_by_inverse,
    system_of,
)


@pytest.fixture(scope="module")
def w121():
    return Word(system_of("A", 2), (1, 2, 1))


def all_diagrams(word):
    return [diagram_from_mask(word, mask) for mask in range(1 << word.t)]


def test_diagram_validation(w121):
    with pytest.raises(DomainError):
        Diagram(w121, (0,))
    with pytest.raises(DomainError):
        Diagram(w121, (4,))
    with pytest.raises(DomainError):
        Diagram(w121, (2, 2))
    with pytest.raises(DomainError, match=r"position 1\.0 is not an integer"):
        Diagram(w121, (1.0, 2))
    assert Diagram(w121, (3, 1)).positions == (1, 3)
    assert Diagram(w121, ()).positions == ()


def test_diagram_position_errors_are_pinned(w121):
    # Diagram's one check names the first position that is not an int in
    # 1..t, else the smallest repeat, in these messages, and keeps the
    # positions sorted.
    for positions, message in [
        ((2, 1, 1), "diagram position 1 repeated"),
        ((1, 1), "diagram position 1 repeated"),
        ((3, True), "diagram position True is not an integer in 1..3"),
        ((True, 2), "diagram position True is not an integer in 1..3"),
        ((0, 2), "diagram position 0 is not an integer in 1..3"),
        ((1, "2"), "diagram position '2' is not an integer in 1..3"),
        ((1, 2, 3, 4), "diagram position 4 is not an integer in 1..3"),
    ]:
        with pytest.raises(DomainError) as caught:
            Diagram(w121, positions)
        assert str(caught.value) == message, positions
    assert Diagram(w121, iter([1, 2, 3])).positions == (1, 2, 3)
    assert Diagram(w121, [2, 3]).positions == (2, 3)


def test_diagram_from_mask_rejects_masks_outside_the_word(w121):
    for mask in (-1, 1 << w121.t):
        with pytest.raises(DomainError):
            diagram_from_mask(w121, mask)
    assert diagram_from_mask(w121, 0b101).positions == (1, 3)


def test_positivity_requires_reduced_word(a2):
    bad = Word(a2, (1, 1))
    with pytest.raises(NotReducedError):
        is_positive(Diagram(bad, ()))


def test_subexpression_trace_examples(w121):
    a2 = w121.system
    ident = identity_element(a2)
    s1 = element_of_word(a2, (1,))
    s2 = element_of_word(a2, (2,))

    trace = subexpression(Diagram(w121, ()))
    assert trace.vs == (ident,) * 4

    trace = subexpression(Diagram(w121, (1, 2, 3)))
    assert trace.vs == (
        ident,
        s1,
        element_of_word(a2, (1, 2)),
        element_of_word(a2, (1, 2, 1)),
    )

    trace = subexpression(Diagram(w121, (2,)))
    assert trace.vs == (ident, ident, s2, s2)


def test_trace_lengths_are_cached_consistently(w121):
    from weyldiag.roots import _count_inversions

    for d in all_diagrams(w121):
        for v in subexpression(d).vs:
            assert v.length == _count_inversions(w121.system, v.matrix)


def test_zeta_examples(w121):
    a2 = w121.system
    assert zeta(Diagram(w121, ())) == identity_element(a2)
    assert zeta(Diagram(w121, (1, 2, 3))) == element_of_word(a2, (1, 2, 1))
    assert zeta(Diagram(w121, (2,))) == element_of_word(a2, (2,))


def test_zeta_prime_is_the_inverse_and_trace_end(w121):
    for d in all_diagrams(w121):
        zp = zeta_prime(d)
        assert zp == invert(zeta(d))
        assert zp == subexpression(d).vs[-1]


def test_positivity_examples(w121):
    assert is_positive(Diagram(w121, ()))
    assert is_positive(Diagram(w121, (1, 2, 3)))
    assert not is_positive(Diagram(w121, (1, 3)))
    assert is_positive(Diagram(w121, (2, 3)))


def test_empty_and_full_diagrams_always_positive():
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 8, 8, seed=13):
            assert is_positive(Diagram(word, ()))
            assert is_positive(Diagram(word, tuple(range(1, word.t + 1))))


def test_dual_positivity_tests_agree_exhaustively():
    words = [
        Word(system_of("A", 2), (1, 2, 1)),
        Word(system_of("B", 2), (1, 2, 1, 2)),
        Word(system_of("G", 2), (1, 2, 1, 2)),
        Word(system_of("A", 3), (2, 1, 3, 2)),
    ]
    for word in words:
        for d in all_diagrams(word):
            assert is_positive_by_ascents(d) == is_positive_by_lengths(d)


def test_positive_diagram_position_words_are_reduced():
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 6, 7, seed=17):
            for d in all_diagrams(word):
                if not is_positive(d):
                    continue
                sub = Word(system, tuple(word.letters[p - 1] for p in d.positions))
                assert sub.reduced
                assert zeta(d) == sub.element
                assert zeta(d).length == d.size


def test_prefix_truncation_preserves_positivity(a3):
    word = Word(a3, (2, 1, 3, 2))
    for p in range(1, word.t):
        prefix = Word(a3, word.letters[:p])
        for mask in range(1 << p):
            assert is_positive(diagram_from_mask(prefix, mask)) == is_positive(
                diagram_from_mask(word, mask)
            )


def test_distinct_diagrams_have_distinct_traces(a3):
    word = Word(a3, (2, 1, 3, 2))
    traces = {subexpression(d).vs for d in all_diagrams(word)}
    assert len(traces) == 1 << word.t


def test_diagram_for_examples(w121):
    a2 = w121.system
    assert diagram_for(w121, identity_element(a2)).positions == ()
    assert diagram_for(w121, element_of_word(a2, (2,))).positions == (2,)
    short = Word(a2, (1,))
    assert diagram_for(short, element_of_word(a2, (2,))) is None


def test_diagram_for_round_trips(w121):
    for d in all_diagrams(w121):
        if is_positive(d):
            assert diagram_for(w121, zeta(d)) == d
    for u in subword_products(w121):
        d = diagram_for(w121, u)
        assert d is not None and zeta(d) == u
        assert is_positive(d)


def test_zeta_is_a_bijection_onto_the_subword_interval():
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 6, 8, seed=23):
            positives = [d for d in all_diagrams(word) if is_positive(d)]
            images = [zeta(d) for d in positives]
            assert len(set(images)) == len(images)
            assert set(images) == subword_products(word)


def test_bruhat_oracle_examples(w121):
    a2 = w121.system
    assert bruhat_leq_oracle(w121, element_of_word(a2, (2,)))
    assert not bruhat_leq_oracle(Word(a2, (1, 2)), element_of_word(a2, (1, 2, 1)))
    assert bruhat_leq_oracle(Word(a2, ()), identity_element(a2))
    assert bruhat_leq_oracle(w121, identity_element(a2))


def test_diagram_for_presence_agrees_with_oracle():
    from weyldiag.verify import group_elements

    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 5, 6, seed=29):
            members = subword_products(word)
            for u in group_elements(system):
                found = diagram_for(word, u)
                assert (found is not None) == (u in members)
                assert (found is not None) == bruhat_leq_oracle(word, u)


@pytest.mark.parametrize("family,rank", [
    ("A", 5), ("B", 5), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6),
])
def test_interval_points_are_the_keys_of_the_subword_products(family, rank):
    from weyldiag.roots import _orbit_point

    # The scan of 2 rho against its slow oracle, the matrix set keyed as
    # verify keys it: w0 and its 2/3 prefix (E6: the prefix alone, t = 24),
    # and seeded random reduced words.
    system = system_of(family, rank)
    w0 = longest_word(system)
    prefix = Word(system, w0.letters[: 2 * w0.t // 3])
    words = [prefix] if family == "E" else [w0, prefix]
    words += random_reduced_words(system, 4, 2 * system.num_positive_roots // 3, seed=rank)
    for word in words:
        products = subword_products.__wrapped__(word)
        keys = {_orbit_point(system, u.matrix): u.length for u in products}
        assert _interval_points(word) == keys, word


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_descents_by_pairings_match_the_inverse_matrix_on_all_of_w(family, rank):
    from weyldiag.verify import group_elements

    system = system_of(family, rank)
    words = random_reduced_words(system, 3, system.num_positive_roots, seed=rank)
    for u in group_elements(system):
        assert reduced_word(system, u).letters == reduced_word_by_inverse(system, u)
        for word in words:
            found = diagram_for(word, u)
            positions = None if found is None else found.positions
            assert positions == diagram_positions_by_inverse(word, u)


def test_diagram_for_and_reduced_word_refuse_elements_of_another_rank(a3):
    word = Word(a3, (1, 2, 1))
    for rank in (2, 4):
        u = element_of_word(system_of("A", rank), (1, 2))
        for call in (lambda: diagram_for(word, u), lambda: reduced_word(a3, u)):
            with pytest.raises(DomainError) as info:
                call()
            assert f"rank {rank} " in str(info.value) and "(rank 3)" in str(info.value)


def test_obstruction_examples(w121):
    res = positivity_obstruction(Diagram(w121, (1, 3)), 1, 3)
    assert res.applicable and res.violated
    assert res.trace.complement_positions == (2,)
    assert res.trace.coefficients == (1,)
    assert res.trace.gammas[0] == (-1, 0)

    res = positivity_obstruction(Diagram(w121, (2, 3)), 1, 3)
    assert not res.applicable and not res.violated and res.trace is None

    res = positivity_obstruction(Diagram(w121, (1, 2, 3)), 2, 3)
    assert not res.applicable


def test_obstruction_preconditions(w121):
    with pytest.raises(DomainError):
        positivity_obstruction(Diagram(w121, (1, 3)), 3, 1)
    with pytest.raises(DomainError):
        positivity_obstruction(Diagram(w121, (1, 3)), 1, 2)


def test_obstruction_soundness_sweep():
    # violated == True certifies non-positivity; positive diagrams never trip it.
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        system = system_of(family, rank)
        for word in random_reduced_words(system, 5, 7, seed=31):
            for d in all_diagrams(word):
                positive = is_positive(d)
                for m in d.positions:
                    for j in range(1, m):
                        res = positivity_obstruction(d, j, m)
                        if res.violated:
                            assert not positive
                        if positive:
                            assert not res.violated


def test_obstruction_walk_equals_the_reflection_rule_on_f4_w0():
    # t = 24, so only the pruned walks reach it: the canonical longest word
    # and seeded words of w0 that extend a random reduced prefix.
    system = system_of("F", 4)
    prefixes = random_reduced_words(system, 2, 12, seed=13)
    for word in [longest_word(system)] + [extend_to_w0(p) for p in prefixes]:
        found = [p for p, _ in _walk(word, _ascent_step, _ascent_start(word))]
        assert len(found) == 1152
        obstructed = _walk(word, _obstruction_step, _obstruction_start(word))
        assert [p for p, _ in obstructed] == found, word
        by_reflection = _walk(word, obstruction_step_by_reflection, REFLECTION_START)
        assert [p for p, _ in by_reflection] == found, word


def check_gamma_traces(word):
    """Every applicable gamma trace over the word against products built
    letter by letter: gamma_i is row a_m of the first m-1 letters with
    l_i..l_p left out (gamma_{p+1} = beta_m, none left out), and the pair is
    violated exactly when gamma_1 = -beta_j.  positivity_obstruction asserts
    the first under __debug__ too, but this check runs under python -O."""
    for d in all_diagrams(word):
        for m in d.positions:
            for j in range(1, m):
                check = positivity_obstruction(d, j, m)
                if not check.applicable:
                    continue
                gammas, ls = check.trace.gammas, check.trace.complement_positions
                for i in range(1, len(ls) + 2):
                    kept = [word.letters[k - 1] for k in range(1, m) if k not in ls[i - 1:]]
                    row = element_of_word(word.system, kept).matrix[word.letters[m - 1] - 1]
                    assert gammas[i - 1] == row, (d.positions, j, m, i)
                minus_beta_j = tuple(-x for x in word.betas[j - 1])
                assert check.violated == (gammas[0] == minus_beta_j), (d.positions, j, m)


def test_walk_yields_each_leaf_as_it_is_reached(a3):
    # Depth-first, leaving each position out first, so the empty diagram is
    # the first leaf, after one step call per position; the whole walk over
    # A3 w0 makes 45 calls and reaches the 24 positive diagrams.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    calls = 0

    def counting(word, j, state):
        nonlocal calls
        calls += 1
        return _ascent_step(word, j, state)

    walk = _walk(word, counting, _ascent_start(word))
    assert calls == 0
    assert next(walk) == ((), _ascent_start(word))
    assert calls == 6
    assert sum(1 for _ in walk) == 23
    assert calls == 45


def test_gamma_traces_check_against_omitted_products(a3):
    word = Word(a3, (2, 1, 3, 2, 1, 3))
    assert word.reduced
    check_gamma_traces(word)


def test_gamma_trace_check_fails_on_an_injected_reflection_defect(monkeypatch, a3):
    import weyldiag.diagrams as diagrams

    # Every reflection inside positivity_obstruction adds k beta where it
    # should subtract it.  Under __debug__ the library's own recomputation,
    # one root carried by simple reflections, raises first; under python -O
    # only the explicit comparison sees it.
    real = diagrams._reflect_by
    monkeypatch.setattr(diagrams, "_reflect_by", lambda beta, k, x: real(beta, -k, x))
    with pytest.raises(AssertionError, match=r"gamma_\d+ mismatch" if __debug__ else None):
        check_gamma_traces(Word(a3, (2, 1, 3, 2, 1, 3)))
