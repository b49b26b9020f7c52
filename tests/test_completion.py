"""The completion rule (diagrams._completion_step), which enumerate walks:
its leaves against the ascent walk's, in order; every node it keeps has a
leaf below it; its table against roots reflected one at a time; the lemma
behind it by brute force; and three injected defects,
each caught.  And the sweep that counts a rule's leaves by size with equal
states merged (diagrams._sizes), over the completion rule as census runs
it: against the ascent walk's leaves, the interval scan's lengths, the
sweep of the ascent rule and prod [e_i + 1]_q on the longest word of every
type up to rank 8 but E8; four injected defects, each caught by each of
these."""

import random
from collections import Counter
from itertools import zip_longest

import pytest

import weyldiag.diagrams as diagrams
from weyldiag import (
    Word,
    apply_element,
    compose,
    coroot_pairing,
    diagram_from_mask,
    element_of_word,
    group_elements,
    is_positive_by_ascents,
    longest_word,
    simple_reflection,
)
from weyldiag.diagrams import _ascent_start, _ascent_step, _interval_points, _walk
from weyldiag.verify import _rank_sizes

from conftest import dense_simple_image, random_reduced_word, random_reduced_words, system_of
from test_acceptance import suite_words


def same_leaves(word):
    """The completion walk's leaves against the ascent walk's, in order, as
    both arrive: a rule that stops pruning fails at its first extra leaf,
    long before it would walk all 2^t diagrams.  Returns their number."""
    ascent = _walk(word, _ascent_step, _ascent_start(word))
    completion = _walk(word, diagrams._completion_step, diagrams._completion_start(word))
    count = 0
    for a, c in zip_longest(ascent, completion, fillvalue=(None, None)):
        assert a[0] == c[0], (word, a[0], c[0])
        count += 1
    return count


def check_completion_walk(word):
    """The completion walk's leaves are the ascent walk's, in order, and
    every node it keeps has at least one leaf below it."""
    found = same_leaves(word)

    def leaves_below(j, q):
        if not j:
            return 1
        out, joined = diagrams._completion_step(word, j, q)
        count = leaves_below(j - 1, joined)
        if out is not None:
            count += leaves_below(j - 1, out)
        assert count, (word, j)
        return count

    assert leaves_below(word.t, diagrams._completion_start(word)) == found, word


def signed_lanes(x, lanes):
    # The lanes of a packed int whose digits are small signed numbers.
    bias = int.from_bytes(b"\x80" * lanes, "little")
    return [b - 128 for b in (x + bias).to_bytes(lanes, "little")]


def check_completion_table(word):
    """Each lane of the table against roots reflected one simple reflection
    at a time in dense arithmetic: Phi(x_j) is alpha_{a_j} followed by
    s_{a_j} Phi(x_{j-1}), the roots x_j sends negative; K_j pairs them with
    alpha_{a_j}^vee, M_{j-1} marks the top bit of each lane of Phi(x_{j-1}),
    and the start packs the heights of Phi(w) raised by 128."""
    system = word.system
    start, steps = word.completion_table
    assert len(steps) == word.t
    phi = []
    for j, (i, (K, M)) in enumerate(zip(word.letters, steps), start=1):
        assert M == int.from_bytes(b"\x80" * (j - 1), "little"), (word, j)
        alpha = system.simple_roots[i - 1]
        phi = [alpha] + [dense_simple_image(d, i - 1, system.cartan) for d in phi]
        x_j = element_of_word(system, word.letters[:j])
        # j distinct positive roots that x_j sends negative: all of Phi(x_j),
        # which has l(x_j) = j of them.
        assert len(set(phi)) == j and all(min(d) >= 0 for d in phi), (word, j)
        assert all(sum(apply_element(x_j, d)) < 0 for d in phi), (word, j)
        assert signed_lanes(K, j) == [coroot_pairing(system, alpha, d) for d in phi], (word, j)
    assert start == sum((sum(d) + 128) << 8 * k for k, d in enumerate(phi)), word


def exact_words(system, count, t, seed):
    # Seeded reduced words of exactly t letters.
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = random_reduced_word(system, rng, t)
        if word.t == t:
            words.append(word)
    return words


def test_completion_walk_equals_ascent_walk_on_the_acceptance_words():
    for word in suite_words():
        check_completion_walk(word)
        check_completion_table(word)


@pytest.mark.parametrize("family,rank,order", [("F", 4, 1152), ("E", 6, 51840)])
def test_completion_walk_equals_ascent_walk_on_longest_words(family, rank, order):
    word = longest_word(system_of(family, rank))
    assert same_leaves(word) == order
    check_completion_table(word)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_completion_walk_equals_ascent_walk_at_the_rank_cap(family):
    # 16-letter words over rank 64: seeded ones, whose letters mostly
    # commute (up to 2^16 leaves), and the last 16 letters of w0.
    system = system_of(family, 64)
    tail = Word(system, longest_word(system).letters[-16:])
    for word in exact_words(system, 2, 16, seed=64) + [tail]:
        check_completion_walk(word)
    check_completion_table(tail)


def test_kept_nodes_are_the_live_nodes_by_brute_force():
    # The fact behind the rule, over every node that passes the ascent rule
    # at each position after j: with z the members after j, left to right,
    # and x_j the first j letters, a positive diagram extends the node
    # exactly when l(x_j z) = j + l(z).
    for family, rank in [("G", 2), ("A", 3), ("B", 3)]:
        system = system_of(family, rank)
        for word in [longest_word(system)] + random_reduced_words(system, 4, 7, seed=5):
            t, letters = word.t, word.letters
            positive = [
                d.positions for mask in range(1 << t)
                if is_positive_by_ascents(d := diagram_from_mask(word, mask))
            ]
            for j in range(t + 1):
                x_j = element_of_word(system, letters[:j])
                for mask in range(1 << (t - j)):
                    members = tuple(k for k in range(j + 1, t + 1) if mask >> (k - j - 1) & 1)

                    def z_after(k):
                        return element_of_word(system, [letters[m - 1] for m in members if m > k])

                    if not all(
                        compose(system, simple_reflection(system, letters[k - 1]),
                                z_after(k)).length == z_after(k).length + 1
                        for k in range(j + 1, t + 1)
                    ):
                        continue
                    z = z_after(j)
                    live = compose(system, x_j, z).length == j + z.length
                    below = any(tuple(m for m in p if m > j) == members for p in positive)
                    assert live == below, (word, j, members)


def test_length_additivity_lemma_by_brute_force():
    # If x s > x, s z > z and l(xz) = l(x) + l(z), then l(xsz) = l(x) + 1 + l(z).
    for family, rank in [("G", 2), ("A", 3), ("B", 3)]:
        system = system_of(family, rank)
        group = group_elements(system)
        checked = 0
        for i in range(1, rank + 1):
            s = simple_reflection(system, i)
            ascending = [u for u in group if compose(system, s, u).length > u.length]
            x_side = [u for u in group if compose(system, u, s).length > u.length]
            for z in ascending:
                for x in x_side:
                    if compose(system, x, z).length == x.length + z.length:
                        xsz = compose(system, compose(system, x, s), z)
                        assert xsz.length == x.length + 1 + z.length, (x, i, z)
                        checked += 1
        assert checked


def test_completion_walk_steps_only_live_nodes(a3):
    # Depth-first as the ascent walk, but a dead branch is never stepped:
    # on A3 w0 the ascent walk makes 45 step calls for its 24 leaves, the
    # completion walk 30.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    calls = 0

    def counting(word, j, state):
        nonlocal calls
        calls += 1
        return diagrams._completion_step(word, j, state)

    assert sum(1 for _ in _walk(word, counting, diagrams._completion_start(word))) == 24
    assert calls == 30


def skipping_the_out_test(word, j, q):
    # The completion step with every out child kept, M never tested.
    K = word.completion_table[1][j - 1][0]
    return (q - ((q & 255) - 128) * K) >> 8, q >> 8


def test_completion_checks_fail_on_injected_defects(monkeypatch, a3):
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    real_table = Word.completion_table.func

    # K_j without lane 0's 2: the leaves do not move, as lane 0 is shifted
    # away, but the table no longer pairs alpha_{a_j} with its coroot.
    monkeypatch.setattr(Word, "completion_table", property(
        lambda self: (real_table(self)[0], tuple((K - 2, M) for K, M in real_table(self)[1]))
    ))
    check_completion_walk(Word(a3, word.letters))
    with pytest.raises(AssertionError):
        check_completion_table(Word(a3, word.letters))
    monkeypatch.undo()

    def one_level_off(word, j, q):
        K, M = word.completion_table[1][j - 2]
        out = (q - ((q & 255) - 128) * K) >> 8
        return (out if out & M == M else None), q >> 8

    for mutant in (skipping_the_out_test, one_level_off):
        monkeypatch.setattr(diagrams, "_completion_step", mutant)
        with pytest.raises(AssertionError):
            check_completion_walk(word)
        monkeypatch.undo()
    check_completion_walk(word)


# -- counting by size with merged states ---------------------------------------


def completion_sizes(word):
    return diagrams._sizes(word, diagrams._completion_step, diagrams._completion_start(word))


def leaf_sizes(word):
    # The ascent walk's leaves counted by size, one at a time.
    counts = [0] * (word.t + 1)
    for positions, _ in _walk(word, _ascent_step, _ascent_start(word)):
        counts[len(positions)] += 1
    return counts


def interval_sizes(word):
    # The interval scan's points counted by length: zeta keeps lengths.
    lengths = Counter(_interval_points(word).values())
    return [lengths[k] for k in range(word.t + 1)]


def check_sizes(word):
    """The completion sweep's counts by size against the ascent walk's
    leaves, the interval scan's lengths, and the sweep of the ascent rule,
    whose state, the heights of zeta'(d) so far, merges too."""
    sizes = completion_sizes(word)
    assert sizes == leaf_sizes(word), word
    assert sizes == interval_sizes(word), word
    assert sizes == diagrams._sizes(word, _ascent_step, _ascent_start(word)), word


# Every type up to rank 8 but E8, whose t = 120 sweep is a CI step of its own.
RANK_8_TYPES = (
    [("A", n) for n in range(1, 9)] + [(f, n) for f in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)] + [("E", 6), ("E", 7), ("F", 4), ("G", 2)]
)


def test_sizes_equal_the_walk_and_the_interval_on_the_acceptance_words():
    for word in suite_words():
        check_sizes(word)


@pytest.mark.parametrize("family,rank", RANK_8_TYPES)
def test_sizes_on_longest_words_are_kostants_product(family, rank):
    system = system_of(family, rank)
    assert completion_sizes(longest_word(system)) == _rank_sizes(system)


def mutant_sizes(shift=1, carry=False):
    """diagrams._sizes with a joined child shifted by shift lanes, and, with
    carry, each level's dict carried over into the next."""

    def sizes(word, step, start):
        width = word.t + 1
        level = {start: 1}
        for j in range(word.t, 0, -1):
            below = dict(level) if carry else {}
            for state, counts in level.items():
                if (pair := step(word, j, state)) is not None:
                    out, joined = pair
                    if out is not None:
                        below[out] = below.get(out, 0) + counts
                    if joined is not None:
                        below[joined] = below.get(joined, 0) + (counts << shift * width)
            level = below
        packed = sum(level.values())
        return [packed >> width * k & (1 << width) - 1 for k in range(width)]

    return sizes


def test_sizes_checks_fail_on_injected_defects(monkeypatch, a3):
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    check_sizes(word)
    references = (leaf_sizes(word), interval_sizes(word), _rank_sizes(a3))
    assert len(set(map(tuple, references))) == 1
    real = diagrams._sizes
    defects = [
        (mutant_sizes(shift=2), diagrams._completion_step),
        (mutant_sizes(shift=0), diagrams._completion_step),
        (mutant_sizes(carry=True), diagrams._completion_step),
        (real, skipping_the_out_test),
    ]
    for sizes, step in defects:
        monkeypatch.setattr(diagrams, "_sizes", sizes)
        monkeypatch.setattr(diagrams, "_completion_step", step)
        found = completion_sizes(word)
        # Each reference alone sees the defect.
        assert all(found != reference for reference in references), (sizes, step, found)
        with pytest.raises(AssertionError):
            check_sizes(word)
        monkeypatch.undo()
    assert mutant_sizes()(word, _ascent_step, _ascent_start(word)) == references[0]
