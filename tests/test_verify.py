import dataclasses
import itertools
import json
import re

import pytest

from weyldiag import (
    CartanType,
    Diagram,
    NotReducedError,
    SizeCapError,
    UsageError,
    Word,
    bruhat_interval,
    detect_grid_shape,
    enumerate_positive,
    format_word,
    group_elements,
    group_order,
    longest_word,
    longest_word_census,
    quantum_matrices_word,
    reduced_word,
    subword_products,
    verify_word,
    zeta,
    GridShape,
)
from weyldiag.verify import SWEEP_CAP_ENV, VerificationReport, sweep_cap

from conftest import (
    REFLECTION_START,
    obstruction_step_by_reflection,
    pack_image_columns,
    random_reduced_words,
    system_of,
    unpack_image_columns,
)
from test_completion import mutant_sizes


def test_enumerate_positive_a2_exactly(a2):
    word = Word(a2, (1, 2, 1))
    found = {d.positions for d in enumerate_positive(word)}
    assert found == {(), (1,), (2,), (1, 2), (2, 3), (1, 2, 3)}


def test_enumerate_positive_is_in_ascending_mask_order(a2):
    word = Word(a2, (1, 2, 1))
    masks = [sum(1 << (k - 1) for k in d.positions) for d in enumerate_positive(word)]
    assert masks == sorted(masks)


def test_enumerate_positive_a1():
    word = Word(system_of("A", 1), (1,))
    assert [d.positions for d in enumerate_positive(word)] == [(), (1,)]


def test_enumerate_positive_qm_2x2_has_14():
    word = quantum_matrices_word(GridShape(2, 2))
    assert len(enumerate_positive(word)) == 14


def test_leaf_diagrams_behave_as_checked_ones():
    from test_acceptance import suite_words

    # enumerate_positive sets each leaf's fields without Diagram's check;
    # a leaf must be indistinguishable from the Diagram the check builds.
    for word in suite_words():
        for leaf in enumerate_positive(word):
            checked = Diagram(word, leaf.positions)
            assert leaf == checked and hash(leaf) == hash(checked), leaf
            assert (repr(leaf), str(leaf)) == (repr(checked), str(checked))
            assert type(leaf.positions) is tuple and leaf.positions == checked.positions
    # Slotted and still frozen; test_diagram_position_errors_are_pinned
    # keeps the messages of bad positions.
    assert not hasattr(leaf, "__dict__") and Diagram.__slots__ == ("word", "positions")
    with pytest.raises(dataclasses.FrozenInstanceError):
        leaf.positions = ()


# Leaf defects that Diagram's check refuses or mends, each applied to every
# walk leaf of two or more positions, with the fault debug enumerate names.
SPOILED_LEAVES = {
    "a position 0": (lambda p: (0,) + p[1:], "diagram position 0 is not an integer in 1..6"),
    "a repeated position": (lambda p: p[:1] + p, "diagram position 1 repeated"),
    "positions out of order": (lambda p: p[::-1], "Diagram makes it (1, 2)"),
}


@pytest.mark.parametrize("name", list(SPOILED_LEAVES))
def test_debug_enumerate_checks_each_walk_leaf(monkeypatch, a3, name):
    import weyldiag.verify as verify_mod

    spoil, fault = SPOILED_LEAVES[name]
    real = verify_mod._walk

    def spoiling(word, step, start):
        for p, state in real(word, step, start):
            yield (spoil(p) if len(p) > 1 else p), state

    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = [d.positions for d in enumerate_positive(word)]
    monkeypatch.setattr(verify_mod, "_walk", spoiling)
    if __debug__:
        # The first spoiled leaf is (1, 2)'s: the leaf and the fault are named.
        first = spoil((1, 2))
        with pytest.raises(AssertionError, match=re.escape(f"walk leaf {first} over ")) as caught:
            enumerate_positive(word)
        assert str(caught.value).endswith(f": {fault}")
    else:
        # Under python -O leaves are not checked, as enumerate_positive's
        # docstring says: the spoiled positions come back as they are.
        spoiled = enumerate_positive(word)
        assert [d.positions for d in spoiled] == [spoil(p) if len(p) > 1 else p for p in clean]


def test_bruhat_interval_counts(a2, a3):
    assert len(bruhat_interval(Word(a2, (1, 2, 1)))) == 6
    assert bruhat_interval(Word(a2, ())) == frozenset({Word(a2, ()).element})
    assert len(bruhat_interval(quantum_matrices_word(GridShape(2, 2)))) == 14


def test_interval_of_longest_word_is_whole_group(a2):
    word = longest_word(a2)
    assert bruhat_interval(word) == group_elements(a2)


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 2, (3, 6, 6)),
    ("B", 2, (4, 8, 8)),
    ("A", 3, (6, 24, 24)),
    ("G", 2, (6, 12, 12)),
    ("F", 4, (24, 1152, 1152)),
])
def test_census_values(family, rank, expected):
    res = longest_word_census(CartanType(family, rank))
    assert (res.positive_root_count, res.positive_count, res.group_order) == expected
    assert res.ok


def test_verify_word_a2(a2):
    report = verify_word(Word(a2, (1, 2, 1)))
    assert report.positive_count == 6
    assert report.interval_count == 6
    assert report.total_diagrams == 8
    assert report.all_ok()
    assert report.le_equivalence_ok is None


def test_verify_word_g2_longest():
    system = system_of("G", 2)
    report = verify_word(longest_word(system))
    assert report.positive_count == 12
    assert report.all_ok()


def test_verify_word_qm_2x3():
    report = verify_word(quantum_matrices_word(GridShape(2, 3)))
    assert report.le_equivalence_ok is True
    assert report.positive_count == report.interval_count
    assert report.all_ok()


def test_detect_grid_shape():
    assert detect_grid_shape(quantum_matrices_word(GridShape(2, 3))) == GridShape(2, 3)
    assert detect_grid_shape(quantum_matrices_word(GridShape(3, 1))) == GridShape(3, 1)
    a2 = system_of("A", 2)
    assert detect_grid_shape(Word(a2, (1, 2, 1))) is None
    assert detect_grid_shape(Word(a2, ())) is None


def test_report_json_shape(a2):
    report = verify_word(Word(a2, (1, 2, 1)))
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "type", "word", "total_diagrams", "positive_count", "interval_count",
        "bijection_ok", "roundtrip_ok", "dual_ok", "obstruction_ok",
    ]
    assert "elapsed" not in payload
    with_elapsed = json.loads(report.to_json(include_elapsed=True))
    assert "elapsed" in with_elapsed

    qm = verify_word(quantum_matrices_word(GridShape(2, 2)))
    assert "le_equivalence_ok" in qm.to_dict()


def test_report_json_is_deterministic(a2):
    first = verify_word(Word(a2, (1, 2, 1))).to_json()
    second = verify_word(Word(a2, (1, 2, 1))).to_json()
    assert first == second


def test_order_stats_reported_not_asserted(a2):
    word = Word(a2, (1, 2, 1))
    report = verify_word(word, include_order_stats=True)
    stats = report.order_stats
    assert set(stats) == {
        "inclusion_pairs", "inclusion_and_bruhat", "bruhat_pairs", "bruhat_and_inclusion",
    }
    assert all(isinstance(v, int) and v >= 0 for v in stats.values())
    assert stats["inclusion_and_bruhat"] <= stats["inclusion_pairs"]
    assert stats["bruhat_and_inclusion"] <= stats["bruhat_pairs"]
    assert "order_stats" in report.to_dict()


def test_order_stats_leave_the_interval_cache_alone(a3):
    from weyldiag.diagrams import subword_products

    # The stats scan one below-set per positive diagram (24 here) from
    # 2 rho; verify keys the word's own interval by its points and builds
    # no matrix set for it.
    subword_products.cache_clear()
    verify_word(longest_word(a3), include_order_stats=True)
    assert subword_products.cache_info().currsize == 0


def _full_report(**changes):
    report = VerificationReport(
        ctype="A3", word="2,1,3,2", total_diagrams=16, positive_count=14,
        interval_count=14, bijection_ok=True, roundtrip_ok=True, dual_ok=True,
        obstruction_ok=True, le_equivalence_ok=True,
        order_stats={"inclusion_pairs": 1}, elapsed=0.5,
    )
    return dataclasses.replace(report, **changes)


@pytest.mark.parametrize("check", [
    "bijection_ok", "roundtrip_ok", "dual_ok", "obstruction_ok", "le_equivalence_ok",
])
def test_all_ok_fails_on_any_one_failed_check(check):
    assert _full_report().all_ok()
    assert not _full_report(**{check: False}).all_ok()
    if check != "le_equivalence_ok":
        assert not _full_report(**{check: False, "le_equivalence_ok": None}).all_ok()


def test_all_ok_ignores_a_check_that_did_not_run():
    assert _full_report(le_equivalence_ok=None).all_ok()


def test_report_dict_keeps_the_field_order():
    assert list(_full_report().to_dict(include_elapsed=True)) == [
        "type", "word", "total_diagrams", "positive_count", "interval_count",
        "bijection_ok", "roundtrip_ok", "dual_ok", "obstruction_ok",
        "le_equivalence_ok", "order_stats", "elapsed",
    ]


def test_order_stats_shared_pairs_agree(a3):
    stats = verify_word(longest_word(a3), include_order_stats=True).order_stats
    assert stats["inclusion_and_bruhat"] == stats["bruhat_and_inclusion"] > 0


def _order_stats_by_subword_products(word):
    """The order stats by the slow oracle: each zeta image's interval as the
    uncached subword products of its canonical reduced word, and the other
    images looked up in it as matrices."""
    images = {d.positions: zeta(d) for d in enumerate_positive(word)}
    inclusion = bruhat = both = 0
    for pos2, u2 in images.items():
        below = subword_products.__wrapped__(reduced_word(word.system, u2))
        for pos1, u1 in images.items():
            if pos1 != pos2:
                included, leq = set(pos1) <= set(pos2), u1 in below
                inclusion += included
                bruhat += leq
                both += included and leq
    return {
        "inclusion_pairs": inclusion,
        "inclusion_and_bruhat": both,
        "bruhat_pairs": bruhat,
        "bruhat_and_inclusion": both,
    }


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "A4", "D4", "B4", "grid2x3", "grid3x3"])
def test_order_stats_match_the_subword_product_oracle(name):
    # verify_word scans each positive diagram's letters from 2 rho and looks
    # the scan's points up among the other images' orbit points; the oracle
    # multiplies out matrices for every subword of a reduced word of each
    # image, and tests every ordered pair.
    if name.startswith("grid"):
        word = quantum_matrices_word(GridShape(int(name[4]), int(name[6])))
    else:
        word = longest_word(system_of(name[0], int(name[1:])))
    stats = verify_word(word, include_order_stats=True).order_stats
    oracle = _order_stats_by_subword_products(word)
    assert stats == oracle
    assert 0 < stats["inclusion_and_bruhat"] < stats["bruhat_pairs"]
    # Inclusion implies Bruhat order: when d1 lies inside d2, the letters of
    # d1 are a subword of those of d2, a reduced word of zeta(d2) (the
    # subword property, Bjorner-Brenti 2.2.2).  The report counts nested
    # pairs among the scan's points alone, so this half is checked by the
    # oracle, which counts inclusion over all pairs.  The converse fails.
    assert oracle["inclusion_and_bruhat"] == oracle["inclusion_pairs"]
    assert oracle["bruhat_pairs"] > oracle["inclusion_pairs"]


def test_interval_and_group_caches_are_bounded():
    from weyldiag.diagrams import SUBWORD_CACHE_SIZE, subword_products
    from weyldiag.verify import GROUP_CACHE_SIZE

    assert group_elements.cache_info().maxsize == GROUP_CACHE_SIZE == 16
    words = list(dict.fromkeys(random_reduced_words(system_of("A", 4), 400, 8, seed=5)))
    words = words[:SUBWORD_CACHE_SIZE + 1]
    assert len(words) == SUBWORD_CACHE_SIZE + 1
    assert subword_products.cache_info().maxsize == SUBWORD_CACHE_SIZE == 64
    subword_products.cache_clear()
    for word in words:
        subword_products(word)
    filled = subword_products.cache_info()
    assert filled.currsize == SUBWORD_CACHE_SIZE
    subword_products(words[1])  # the oldest entry left is still cached
    assert subword_products.cache_info().hits == filled.hits + 1
    subword_products(words[0])  # the 65th word evicted the first
    assert subword_products.cache_info().misses == filled.misses + 1
    subword_products.cache_clear()


def test_sweep_cap_guard(monkeypatch):
    monkeypatch.setenv(SWEEP_CAP_ENV, "4")
    assert sweep_cap() == 4
    b2 = system_of("B", 2)
    enumerate_positive(longest_word(b2))  # t = 4, at the cap
    a3 = system_of("A", 3)
    with pytest.raises(SizeCapError):
        enumerate_positive(longest_word(a3))  # t = 6, beyond it
    with pytest.raises(SizeCapError):
        verify_word(longest_word(a3))
    with pytest.raises(SizeCapError):
        longest_word_census(CartanType("A", 3))
    with pytest.raises(NotReducedError):
        enumerate_positive(Word(b2, (1, 1)))
    monkeypatch.setenv(SWEEP_CAP_ENV, "junk")
    with pytest.raises(UsageError, match=r"WEYLDIAG_SWEEP_CAP='junk'"):
        sweep_cap()

    from weyldiag.cli import run

    empty = ["verify", "--type", "A", "--rank", "2", "--word", ""]
    one_letter = ["verify", "--type", "A", "--rank", "2", "--word", "1"]
    not_reduced = ["verify", "--type", "A", "--rank", "2", "--word", "1,1"]
    for bad in ["junk", "-1", "-0", "\u0662"]:
        monkeypatch.setenv(SWEEP_CAP_ENV, bad)
        res = run(empty)
        assert res.exit_code == 2
        assert res.stderr == (
            f"error: WEYLDIAG_SWEEP_CAP={bad!r} is not a non-negative integer\n"
        )
    # A cap is read like any integer token, so a "+" sign is accepted.
    for cap in ["0", " +0 "]:
        monkeypatch.setenv(SWEEP_CAP_ENV, cap)
        assert run(empty).exit_code == 0
        assert run(one_letter).exit_code == 4
        assert run(not_reduced).exit_code == 3  # reducedness before the cap


def test_positive_count_is_word_independent(a3):
    words = [
        Word(a3, (1, 2, 1, 3, 2, 1)),
        Word(a3, (2, 1, 2, 3, 2, 1)),
        Word(a3, (1, 2, 3, 1, 2, 1)),
    ]
    assert words[0].element == words[1].element == words[2].element
    image_sets = []
    for word in words:
        positives = enumerate_positive(word)
        image_sets.append(frozenset(zeta(d) for d in positives))
        assert len(positives) == 24
    assert image_sets[0] == image_sets[1] == image_sets[2]


def test_group_order_never_hardcoded_matches_factorials():
    assert group_order(system_of("A", 4)) == 120
    assert group_order(system_of("D", 4)) == 192


def test_dual_check_fails_on_an_injected_length_defect(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # Over-count the inversions of w0 alone: the length rule refuses the
    # candidate whose packed image heights are the identity's negated, as
    # only w0 sends every positive root to a negative root of the same
    # height.  Only the length step at position 1 over members 2..6 counts
    # that candidate, so the two diagrams with those members fail the length
    # test, and the first of them in mask order is named.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    real = diagrams._length_step
    start = diagrams._length_start(word)
    top = start[1]
    assert dict(diagrams._walk(word, real, start))[(1, 2, 3, 4, 5, 6)][1] == -top
    # The interval oracle counts inversions too, but through
    # roots._count_inversions, which the patch does not reach, so the defect
    # reaches the length walk alone.
    clean = _verify_flags(verify_word(word))
    unpatched = enumerate_positive(word), longest_word_census(CartanType("A", 3))

    def over_counting_w0(word, j, state):
        pair = real(word, j, state)
        return None if pair and pair[1][1] == -top else pair

    monkeypatch.setattr(verify_mod, "_length_step", over_counting_w0)

    # The zeta images are the length walk's leaves, so the two pruned
    # diagrams leave two interval elements without an image; the descent
    # recursion still round-trips every element it is given.
    assert _verify_flags(verify_word(word)) == {
        **clean, "dual_ok": False, "bijection_ok": False,
    }
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "dual_ok false" in res.stdout.splitlines()
    # enumerate and census read the completion rule alone, not the length
    # rule, so their results stay clean.
    assert (enumerate_positive(word), longest_word_census(CartanType("A", 3))) == unpatched


def test_checks_fail_on_an_injected_height_update_defect(monkeypatch, a2):
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # The ascent step's height update without its diagonal entry, so h[a0]
    # keeps its sign where m s_a negates row a0.  Over A2 1,2,1 the
    # non-positive (3,) then passes.  The update read along the transposed
    # row (_cartan_cols) would be no mutant to test with: it computes coroot
    # heights, which have the same signs as the heights, so B3, C3, G2 and
    # F4 pass all the same.
    word = Word(a2, (1, 2, 1))
    clean = _verify_flags(verify_word(word))

    def skipping_the_diagonal(word, j, h):
        a0 = word.letters[j - 1] - 1
        if h[a0] < 0:
            return None
        joined = list(h)
        for k, c in word.system._cartan_rows[a0]:
            if k != a0:
                joined[k] -= c * h[a0]
        return h, tuple(joined)

    monkeypatch.setattr(verify_mod, "_ascent_step", skipping_the_diagonal)
    assert _verify_flags(verify_word(word)) == {
        **clean, "dual_ok": False, "obstruction_ok": False, "bijection_ok": False,
    }
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    assert "dual_ok false" in res.stdout.splitlines()
    # census walks the completion rule, not the ascent rule, so the defect
    # leaves it clean.  The completion rule's out child with the lanes left
    # unlowered by h K_j keeps every branch, (3,) and (1, 3) among them.
    assert longest_word_census(CartanType("A", 2)).ok

    def unlowered(word, j, q):
        M = word.completion_table[1][j - 1][1]
        out = q >> 8
        return (out if out & M == M else None), q >> 8

    monkeypatch.setattr(verify_mod, "_completion_step", unlowered)
    census = longest_word_census(CartanType("A", 2))
    assert (census.positive_count, census.ok) == (8, False)


def test_checks_fail_on_an_injected_height_table_defect(monkeypatch):
    import weyldiag.roots as roots
    from weyldiag.cli import run

    # A fresh A3 (so no cached interval or group is reused) whose packed
    # height table holds the alpha_2 coefficient of the top root (1,1,1) as
    # 2, so the inversion count reads the height of (1,2,1) for it.  The
    # CLI finds the same system through the root-system cache.
    ctype = CartanType("A", 3)
    system = roots.RootSystem(ctype)
    top = system.positive_roots.index((1, 1, 1))
    columns, mask = system._height_table
    assert columns[1] >> 8 * top & 255 == 1
    columns = (columns[0], columns[1] + (1 << 8 * top), columns[2])
    monkeypatch.setattr(system, "_height_table", (columns, mask))
    monkeypatch.setitem(roots._SYSTEMS, ctype, system)

    # The length walk and the interval oracle both count inversions; the
    # ascent and obstruction walks never read the table.
    assert _verify_flags(verify_word(Word(system, (1, 2, 1, 3, 2, 1)))) == {
        "bijection_ok": False, "roundtrip_ok": False, "dual_ok": False, "obstruction_ok": True,
    }
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "dual_ok false" in res.stdout.splitlines()


def _verify_flags(report):
    return {k: v for k, v in report.to_dict().items() if k.endswith("_ok")}


def test_roundtrip_check_fails_on_an_injected_descent_defect(monkeypatch, a3):
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # The descent recursion loses the last position of every non-empty diagram.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = verify_mod._descent_positions

    def dropping_last(word, x):
        positions = real(word, x)
        return positions and positions[:-1]

    monkeypatch.setattr(verify_mod, "_descent_positions", dropping_last)
    flags = _verify_flags(verify_word(word))
    assert flags["roundtrip_ok"] is False
    assert flags == {**clean, "roundtrip_ok": False}
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "roundtrip_ok false" in res.stdout.splitlines()


def test_roundtrip_check_fails_on_an_injected_two_rho_defect(monkeypatch, a3):
    import weyldiag.roots as roots
    from weyldiag import reduced_word
    from weyldiag.cli import run

    # A fresh A3 (so no cached interval or group is reused) whose 2 rho is
    # (1,1,1), not dominant regular: <alpha_2^vee, .> reads 0 on it, so the
    # identity's descent pairings are (1,0,1), never all 2.  The CLI finds
    # the same system through the root-system cache.
    letters = (1, 2, 1, 3, 2, 1)
    clean = _verify_flags(verify_word(Word(a3, letters)))
    ctype = CartanType("A", 3)
    system = roots.RootSystem(ctype)
    assert system.two_rho == (3, 4, 3)
    monkeypatch.setattr(system, "two_rho", (1, 1, 1))
    monkeypatch.setitem(roots._SYSTEMS, ctype, system)
    identity = roots._identity_matrix(3)
    assert roots._descent_pairings(system, roots._orbit_point(system, identity)) == [1, 0, 1]

    # The descent recursion and the interval's keys read 2 rho; the leaf
    # keys are byte sums of the walk's columns and do not.  A key by a
    # point that is not regular is not one-to-one, so the bijection fails
    # too.
    assert _verify_flags(verify_word(Word(system, letters))) == {
        **clean, "bijection_ok": False, "roundtrip_ok": False,
    }
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert "bijection_ok false" in lines and "roundtrip_ok false" in lines
    # Bounded by the carried length: it raises rather than loop.
    for u in (Word(system, ()).element, Word(system, letters).element):
        with pytest.raises(AssertionError):
            reduced_word(system, u)


def test_obstruction_check_fails_on_an_injected_sweep_defect(monkeypatch, a2):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # A joining member k puts x = -y_k in the set instead of y_k, so the rule
    # prunes where y_j = y_k.  Over this word no y_j equals the y_k of a
    # member after it, so the rule never trips, and the diagrams (3,) and
    # (1, 3), where y_1 = -y_3, come through.
    word = Word(a2, (1, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = diagrams._obstruction_step

    def plus_keyed(word, j, state):
        pair = real(word, j, state)
        if pair is None:
            return None
        out, (rows, ys) = pair
        x = sum(c * rows[i] for i, c in word.sparse_betas[j - 1])
        return out, (rows, state[1] | {x})

    found = dict(diagrams._walk(word, plus_keyed, diagrams._obstruction_start(word)))
    assert len(found) == 8
    monkeypatch.setattr(verify_mod, "_obstruction_step", plus_keyed)
    flags = _verify_flags(verify_word(word))
    assert flags["obstruction_ok"] is False
    assert flags == {**clean, "obstruction_ok": False}
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    assert "obstruction_ok false" in res.stdout.splitlines()


def test_obstruction_check_fails_when_the_rule_never_trips(monkeypatch, a2):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # The rule looks x up in an empty set, so it passes all 2^t diagrams.
    # No positive diagram trips the real rule either, so only a check that
    # the obstruction-free diagrams are exactly the positive ones can notice.
    word = Word(a2, (1, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = diagrams._obstruction_step

    def never_trips(word, j, state):
        return real(word, j, (state[0], frozenset()))

    monkeypatch.setattr(verify_mod, "_obstruction_step", never_trips)
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, "obstruction_ok": False}
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    assert "obstruction_ok false" in res.stdout.splitlines()


def test_obstruction_prune_of_an_unviolated_pair_fails(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.roots import _pack

    # The real rule, but a joining member j also puts -beta_j in the set, a
    # root of the wrong frame, so a later position whose x is -beta_j is
    # pruned against it: a pair the beta-reflection recursion does not
    # violate.  Positive diagrams go missing, under python and python -O.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = diagrams._obstruction_step

    def adding_minus_beta(word, j, state):
        pair = real(word, j, state)
        if pair is None:
            return None
        out, (rows, ys) = pair
        return out, (rows, ys | {-_pack(word.betas[j - 1])})

    start = diagrams._obstruction_start(word)
    found = {p for p, _ in diagrams._walk(word, adding_minus_beta, start)}
    assert found < {p for p, _ in diagrams._walk(word, real, start)}
    monkeypatch.setattr(verify_mod, "_obstruction_step", adding_minus_beta)
    assert _verify_flags(verify_word(word)) == {**clean, "obstruction_ok": False}


# Words of t <= 6 over A2, A3, B2 and G2, so that pairings of 2 and 3 are
# read.  A rule that stops pruning walks all 2^t diagrams, which is out of
# reach on F4 w0 (t = 24): keep mutant words this short.
BETA_FRAME_WORDS = [
    (("A", 2), (1, 2, 1)),
    (("A", 3), (1, 2, 1, 3, 2, 1)),
    (("B", 2), (1, 2, 1, 2)),
    (("G", 2), (1, 2, 1, 2, 1, 2)),
]


def _only_obstruction_fails(monkeypatch, target, name, mutant):
    # Only the obstruction walk reads the coroot rows or runs
    # _obstruction_step, so every other check must come out as it was.
    words = [Word(system_of(*ctype), letters) for ctype, letters in BETA_FRAME_WORDS]
    clean = [_verify_flags(verify_word(w)) for w in words]
    monkeypatch.setattr(target, name, mutant)
    for word, flags in zip(words, clean):
        assert _verify_flags(verify_word(word)) == {**flags, "obstruction_ok": False}, word


def test_obstruction_check_fails_on_an_injected_coroot_sign_defect(monkeypatch):
    from weyldiag.cli import run

    # The coroot row of position 2 has its first entry's sign flipped.  Row 1
    # would be no mutant to test with: the leave-out update at j = 1 builds a
    # matrix that no position reads.
    real = Word.coroot_rows.func

    def flipped(word):
        rows = list(real(word))
        (k, c), *rest = rows[1]
        rows[1] = ((k, -c), *rest)
        return tuple(rows)

    _only_obstruction_fails(monkeypatch, Word, "coroot_rows", property(flipped))
    res = run(["verify", "--type", "G", "--rank", "2", "--word", "1,2,1,2,1,2"])
    assert res.exit_code == 1
    assert "obstruction_ok false" in res.stdout.splitlines()


def test_obstruction_check_fails_on_an_injected_skipped_reflection(monkeypatch):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod

    # Leaving j out keeps the rows of M_j^{-1} where they should be
    # reflected in beta_j.
    real = diagrams._obstruction_step

    def skipping_the_reflection(word, j, state):
        pair = real(word, j, state)
        return None if pair is None else (state, pair[1])

    _only_obstruction_fails(monkeypatch, verify_mod, "_obstruction_step", skipping_the_reflection)


def test_reflection_oracle_comparison_fails_on_an_injected_defect(a2):
    from weyldiag.diagrams import _obstruction_start, _obstruction_step, _walk

    # The reference rule reflects the members' roots at member positions as
    # well as at the omitted ones.  The positive diagram (2, 3) then reaches
    # g = -beta_1 at (j, m) = (1, 3) before any gamma recomputation
    # disagrees, so the reference loses it and no longer matches the walk.
    word = Word(a2, (1, 2, 1))

    def reflecting_members(word, j, state):
        pair = obstruction_step_by_reflection(word, j, state)
        if pair is None:
            return None
        (out, rows), (joined, joined_rows) = pair
        return (out, rows), (out + joined[-1:], joined_rows)

    found = [p for p, _ in _walk(word, _obstruction_step, _obstruction_start(word))]
    assert found == [(), (1,), (2,), (1, 2), (2, 3), (1, 2, 3)]
    assert [p for p, _ in _walk(word, obstruction_step_by_reflection, REFLECTION_START)] == found
    reflected = _walk(word, reflecting_members, REFLECTION_START)
    assert [p for p, _ in reflected] == [(), (1,), (2,), (1, 2)]


def test_le_check_fails_on_an_injected_rule_defect(monkeypatch):
    import weyldiag.grid as grid_mod
    from weyldiag.cli import run

    # The Le rule arms every row below an empty box, filled there or not, so
    # the empty filling, a Le filling, goes missing.
    word = quantum_matrices_word(GridShape(2, 2))
    clean = _verify_flags(verify_word(word))
    assert clean["le_equivalence_ok"] is True

    def arms_unfilled_rows(word, j, state):
        filled, armed = state
        p = word.letters[0]
        r = (j - 1) % p
        joined = filled | 1 << (j - 1), armed
        if armed >> r & 1:
            return None, joined
        return (filled, armed | (1 << p) - (2 << r)), joined  # rows r+1..p-1

    monkeypatch.setattr(grid_mod, "_le_step", arms_unfilled_rows)
    assert () not in list(grid_mod._le_walk(GridShape(2, 2)))
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, "le_equivalence_ok": False}
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "2,1,3,2"])
    assert res.exit_code == 1
    assert "le_equivalence_ok false" in res.stdout.splitlines()


@pytest.mark.parametrize("p,m", [(2, 2), (3, 3)])
def test_le_check_fails_on_a_rule_that_never_arms_a_row(monkeypatch, p, m):
    import weyldiag.grid as grid_mod
    from weyldiag.cli import run

    # Without armed rows nothing is pruned: the walk yields every filling,
    # the non-Le ones too, such as {(2,2)} alone (position p + 2).
    shape = GridShape(p, m)
    word = quantum_matrices_word(shape)
    clean = _verify_flags(verify_word(word))
    assert clean["le_equivalence_ok"] is True

    def never_arms(word, j, state):
        filled, armed = state
        return state, (filled | 1 << (j - 1), armed)

    monkeypatch.setattr(grid_mod, "_le_step", never_arms)
    leaves = list(grid_mod._le_walk(shape))
    assert len(leaves) == 1 << shape.size and (p + 2,) in leaves
    assert _verify_flags(verify_word(word)) == {**clean, "le_equivalence_ok": False}
    res = run(["verify", "--type", "A", "--rank", str(shape.n),
               "--word", ",".join(map(str, word.letters))])
    assert res.exit_code == 1
    assert "le_equivalence_ok false" in res.stdout.splitlines()


def test_checks_fail_on_an_injected_length_count_defect(monkeypatch, a2):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # The length rule joins with the count n where it should carry n + 1, so
    # the next joining letter's product, of length n + 2, fails the test and
    # every diagram of two or more members goes missing.  The leaves that
    # are left carry lengths one short, so their images leave the interval
    # too; the round trip reads matrices only and the other walks never run
    # the length rule.
    word = Word(a2, (1, 2, 1))
    clean = _verify_flags(verify_word(word))
    unpatched = enumerate_positive(word), longest_word_census(CartanType("A", 2))
    real = diagrams._length_step

    def keeping_the_count(word, j, state):
        pair = real(word, j, state)
        return pair and (pair[0], (*pair[1][:2], state[2]))

    monkeypatch.setattr(verify_mod, "_length_step", keeping_the_count)
    assert _verify_flags(verify_word(word)) == {**clean, "dual_ok": False, "bijection_ok": False}
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert "dual_ok false" in lines and "bijection_ok false" in lines
    # enumerate and census read the completion rule alone, not the length
    # rule, so their results stay clean.
    assert (enumerate_positive(word), longest_word_census(CartanType("A", 2))) == unpatched


def test_checks_fail_when_the_length_step_joins_with_the_parent(monkeypatch, a2):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    real = diagrams._length_step

    def joining_the_parent(word, j, state):
        pair = real(word, j, state)
        return pair and (pair[0], (*state[:2], pair[1][2]))

    # The length rule counts s_a m as before but joins with the columns and
    # heights of m, not with the candidate's, so a member's letter never
    # reaches the leaf.  The count n + 1 travels on, and once a letter has
    # joined, every candidate before it has length 1, not n + 1: only () and
    # (1,) pass.  The leaf of (1,) holds the identity at length 1, an element
    # of no interval, which the descent recursion does not send back to (1,).
    word = Word(a2, (1, 2, 1))
    walk = diagrams._walk(word, joining_the_parent, diagrams._length_start(word))
    assert [p for p, _ in walk] == [(), (1,)]
    clean = _verify_flags(verify_word(word))
    monkeypatch.setattr(verify_mod, "_length_step", joining_the_parent)
    flags = _verify_flags(verify_word(word))
    assert flags["bijection_ok"] is False
    assert flags == {**clean, "bijection_ok": False, "roundtrip_ok": False, "dual_ok": False}
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    assert "bijection_ok false" in res.stdout.splitlines()


def test_checks_fail_when_the_length_step_lowers_the_heights_alone(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    real = diagrams._length_step

    def heights_alone(word, j, state):
        pair = real(word, j, state)
        return pair and (pair[0], (state[0], *pair[1][1:]))

    # The join lowers the packed heights and the count but leaves column a
    # as it was, so every pairing is read off the identity's columns and the
    # heights drift from any product's: once a letter has joined, every
    # position before it fails the test, and only () and (1,) pass, the
    # latter with the identity's columns at length 1.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    walk = diagrams._walk(word, heights_alone, diagrams._length_start(word))
    assert [p for p, _ in walk] == [(), (1,)]
    clean = _verify_flags(verify_word(word))
    monkeypatch.setattr(verify_mod, "_length_step", heights_alone)
    flags = _verify_flags(verify_word(word))
    assert flags["bijection_ok"] is False
    assert flags == {**clean, "bijection_ok": False, "roundtrip_ok": False, "dual_ok": False}
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "bijection_ok false" in res.stdout.splitlines()


def test_verify_and_enumerate_walk_the_diagrams_once(monkeypatch, a3):
    import weyldiag.verify as verify_mod

    # verify_word starts one walk per word, the three rules in lockstep,
    # and enumerate_positive one, the completion rule alone, under python
    # and python -O alike.
    calls = []
    real = verify_mod._walk

    def counting(word, step, start):
        calls.append(step)
        return real(word, step, start)

    monkeypatch.setattr(verify_mod, "_walk", counting)
    word = longest_word(a3)
    assert verify_word(word, include_order_stats=True).all_ok()
    assert len(calls) == 1
    calls.clear()
    assert len(enumerate_positive(word)) == 24
    assert len(calls) == 1


def test_enumerate_and_census_read_the_completion_rule_alone(monkeypatch):
    import weyldiag.verify as verify_mod
    from test_acceptance import suite_words

    # The lockstep's rules are verify_word's alone: with each of them
    # raising, enumerate and census return what they return unpatched,
    # under python and python -O alike.
    types = [CartanType(f, r) for f, r in
             [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4)]]
    words = suite_words()
    unpatched = [enumerate_positive(w) for w in words], [longest_word_census(c) for c in types]

    def raising(*args):
        raise AssertionError("enumerate or census stepped a lockstep rule")

    for name in ("_ascent_step", "_length_step", "_obstruction_step", "_lockstep_step"):
        monkeypatch.setattr(verify_mod, name, raising)
    patched = [enumerate_positive(w) for w in words], [longest_word_census(c) for c in types]
    assert patched == unpatched
    assert all(census.ok for census in patched[1])


def test_the_three_rules_prune_together_at_every_node():
    from weyldiag.diagrams import _walk
    from weyldiag.verify import _lockstep_start, _lockstep_step
    from test_acceptance import suite_words

    # Not only at the leaves: at every node the lockstep walk visits, each
    # branch is kept by all three rules or by none.
    def agreeing(word, j, node):
        members, states = node
        out, joined = _lockstep_step(word, j, states)
        for branch in (out, joined):
            assert branch is None or None not in branch, (
                f"rules split at j={j} over members {members} of {word}"
            )
        return out and (members, out), joined and ((j,) + members, joined)

    for word in suite_words() + (longest_word(system_of("F", 4)),):
        leaves = _walk(word, agreeing, ((), _lockstep_start(word)))
        assert sum(1 for _ in leaves) == len(subword_products(word)), word


def test_checks_fail_on_a_walk_that_drops_its_last_leaf(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # A defect in the walk itself is shared by every rule, so the walks
    # still agree with each other and every image still round-trips; only
    # the count against the interval, an independent oracle, sees the top
    # diagram go missing: 23 positives against 24 interval elements.
    real = diagrams._walk

    def dropping_the_last_leaf(word, step, start):
        yield from list(real(word, step, start))[:-1]

    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = _verify_flags(verify_word(word))
    assert all(clean.values())
    monkeypatch.setattr(verify_mod, "_walk", dropping_the_last_leaf)
    report = verify_word(word)
    assert (report.positive_count, report.interval_count) == (23, 24)
    assert _verify_flags(report) == {**clean, "bijection_ok": False}
    # enumerate walks the completion rule through the same _walk, and loses
    # the top diagram too.
    assert len(enumerate_positive(word)) == 23
    # census does not walk, so the walk's defect leaves it clean; a defect
    # of the sweep does not.  A joined child left in its parent's lane puts
    # every diagram at size 0: the total is still |W|, and only the sizes
    # show it.
    assert longest_word_census(CartanType("A", 3)).ok
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_sizes", mutant_sizes(shift=0))
        census = longest_word_census(CartanType("A", 3))
    assert (census.positive_count, census.group_order, census.ok) == (24, 24, False)
    assert census.witness == {"size": 0, "count": 24, "expected": 1}
    # The order stats look the scans' points up among the leaves the walk
    # gave, and count over those without raising: of 156 nested pairs and
    # 189 Bruhat pairs, the 23 with the top diagram above go.
    report = verify_word(word, include_order_stats=True)
    assert _verify_flags(report) == {**clean, "bijection_ok": False}
    assert report.order_stats == {
        "inclusion_pairs": 133, "inclusion_and_bruhat": 133,
        "bruhat_pairs": 166, "bruhat_and_inclusion": 133,
    }
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "bijection_ok false" in res.stdout.splitlines()
    # Without the first leaf, the empty diagram, every scan reaches a point,
    # 2 rho, that is no leaf's key; the 23 pairs with it below go.
    monkeypatch.setattr(verify_mod, "_walk", lambda *args: itertools.islice(real(*args), 1, None))
    report = verify_word(word, include_order_stats=True)
    assert _verify_flags(report) == {**clean, "bijection_ok": False}
    assert report.order_stats == {
        "inclusion_pairs": 133, "inclusion_and_bruhat": 133,
        "bruhat_pairs": 166, "bruhat_and_inclusion": 133,
    }


def test_verify_takes_each_leaf_key_out_of_the_interval_dict(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.roots import _orbit_point, element_of_word

    # verify_word keeps no copy of the interval: each leaf takes its key out
    # of the dict the scan returned, so what is left is the points no leaf
    # took.
    handed = []

    def recording(word):
        handed.append(diagrams._interval_points(word))
        return handed[-1]

    monkeypatch.setattr(verify_mod, "_interval_points", recording)
    word = longest_word(a3)
    assert verify_word(word).all_ok()
    assert handed == [{}]

    real = diagrams._walk
    monkeypatch.setattr(verify_mod, "_walk", lambda *args: list(real(*args))[:-1])
    top = element_of_word(a3, word.letters)
    handed.clear()
    assert not verify_word(word).bijection_ok
    assert handed == [{_orbit_point(a3, top.matrix): top.length}]


def _read_off_without_the_offset(system, columns):
    # Leaves each byte's bias of 128 in the sum.
    mask = system._height_table[1]
    return tuple([sum((f + mask).to_bytes(system.num_positive_roots, "little")) for f in columns])


def _read_off_the_simple_roots(system, columns):
    # The first n positive roots are the simple roots, so this is
    # u(alpha_1 + ... + alpha_n), which is not regular.
    n = system.rank
    mask = system._height_table[1]
    return tuple([sum((f + mask).to_bytes(system.num_positive_roots, "little")[:n]) - 128 * n
                  for f in columns])


def _interval_scan(word, lines, up):
    # diagrams._interval_points written out again, reading p off lines[a]
    # and carrying n + up where p > 0.
    points = {word.system.two_rho: 0}
    for i in reversed(word.letters):
        a0 = i - 1
        fresh = {}
        for v, n in points.items():
            p = sum(c * v[j] for j, c in lines[a0])
            if p > 0:
                fresh[v[:a0] + (v[a0] - p,) + v[a0 + 1:]] = n + up
        points.update(fresh)
    return points


def _interval_lengths_by_the_wrong_sign(word):
    return _interval_scan(word, word.system._cartan_rows, -1)


def _interval_pairings_by_columns(word):
    # Cartan column a in place of row a: the same matrix on A and D.
    return _interval_scan(word, word.system._cartan_cols, 1)


def _descent_pairings_by_columns(system, x):
    # Cartan column i in place of row i.
    return [sum(c * x[j] for j, c in col) for col in system._cartan_cols]


@pytest.mark.parametrize("family,rank", [("G", 2), ("B", 3)])
@pytest.mark.parametrize("module,name,mutant,failing", [
    ("verify", "_orbit_point_of_columns", _read_off_without_the_offset,
     {"bijection_ok", "roundtrip_ok"}),
    ("verify", "_orbit_point_of_columns", _read_off_the_simple_roots,
     {"bijection_ok", "roundtrip_ok"}),
    ("verify", "_interval_points", _interval_lengths_by_the_wrong_sign,
     {"bijection_ok", "roundtrip_ok"}),
    ("verify", "_interval_points", _interval_pairings_by_columns,
     {"bijection_ok", "roundtrip_ok"}),
    ("diagrams", "_descent_pairings", _descent_pairings_by_columns, {"roundtrip_ok"}),
], ids=["leaf-no-offset", "leaf-simple-roots", "oracle-wrong-sign", "oracle-columns",
        "pairings-columns"])
def test_key_checks_fail_on_an_injected_key_defect(monkeypatch, family, rank, module, name,
                                                   mutant, failing):
    import importlib
    from weyldiag.cli import run
    from weyldiag.diagrams import _interval_points

    # Each key is read one wrong way over the longest word: the leaf keys
    # (the walk's byte sums), the interval's keys (the scan of 2 rho) or the
    # descent pairings the round trip starts from.  Rows and columns of the
    # Cartan matrix differ on B and G (and C and F), not on A and D.
    word = longest_word(system_of(family, rank))
    clean = _verify_flags(verify_word(word))
    assert all(clean.values())
    assert _interval_scan(word, word.system._cartan_rows, 1) == _interval_points(word)
    monkeypatch.setattr(importlib.import_module(f"weyldiag.{module}"), name, mutant)
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, **dict.fromkeys(failing, False)}
    res = run(["verify", "--type", family, "--rank", str(rank), "--word", format_word(word)])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert all(f"{check} false" in lines for check in failing)


def test_bijection_check_fails_on_an_injected_carried_length_defect(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag import WeylElement
    from weyldiag.cli import run

    # The length rule tests s_a m at position 1 as before, but carries the
    # product built on the wrong side, m s_a, packed as image columns.  It
    # passes the same diagrams, yet the leaves holding position 1, the zeta
    # images, are other elements.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = diagrams._length_step

    def wrong_side_at_1(word, j, state):
        pair = real(word, j, state)
        if j != 1 or pair is None:
            return pair
        system = word.system
        m = unpack_image_columns(system, state[0])
        wrong = diagrams._right_mul(m, word.letters[0] - 1, system._cartan_rows)
        return state, (*pack_image_columns(system, wrong), state[2] + 1)

    monkeypatch.setattr(verify_mod, "_length_step", wrong_side_at_1)
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, "bijection_ok": False, "roundtrip_ok": False}
    assert flags["dual_ok"] and flags["obstruction_ok"]
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert "bijection_ok false" in lines and "roundtrip_ok false" in lines

    # zeta carries lengths through element_of_word; make it report 4 for every
    # product of length 3.  The interval's lengths are counted, so the zeta
    # images leave it, and bruhat_interval's cross-check refuses them.
    monkeypatch.undo()
    real_element = diagrams.element_of_word

    def miscounting(system, letters):
        u = real_element(system, letters)
        return WeylElement(u.matrix, 4) if u.length == 3 else u

    monkeypatch.setattr(diagrams, "element_of_word", miscounting)
    if __debug__:  # the zeta cross-check in bruhat_interval is an assert
        with pytest.raises(AssertionError, match="zeta image disagrees"):
            verify_mod.bruhat_interval(word)
