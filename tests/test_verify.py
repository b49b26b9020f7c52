import dataclasses
import json

import pytest

from weyldiag import (
    CartanType,
    SizeCapError,
    UsageError,
    Word,
    bruhat_interval,
    detect_grid_shape,
    enumerate_positive,
    group_elements,
    group_order,
    longest_word,
    longest_word_census,
    quantum_matrices_word,
    verify_word,
    zeta,
    GridShape,
)
from weyldiag.verify import SWEEP_CAP_ENV, VerificationReport, sweep_cap

from conftest import random_reduced_words, system_of


def test_enumerate_positive_a2_exactly(a2):
    word = Word(a2, (1, 2, 1))
    found = {d.positions for d in enumerate_positive(word)}
    assert found == {(), (1,), (2,), (1, 2), (2, 3), (1, 2, 3)}


def test_enumerate_positive_is_in_ascending_mask_order(a2):
    word = Word(a2, (1, 2, 1))
    masks = [d.mask for d in enumerate_positive(word)]
    assert masks == sorted(masks)


def test_enumerate_positive_a1():
    word = Word(system_of("A", 1), (1,))
    assert [d.positions for d in enumerate_positive(word)] == [(), (1,)]


def test_enumerate_positive_qm_2x2_has_14():
    word = quantum_matrices_word(GridShape(2, 2))
    assert len(enumerate_positive(word)) == 14


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

    # The stats compute one below-set per positive diagram (24 here); only
    # the word's own interval may stay cached.
    subword_products.cache_clear()
    verify_word(longest_word(a3), include_order_stats=True)
    assert subword_products.cache_info().currsize <= 1


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


def test_interval_and_group_caches_are_bounded():
    from weyldiag.diagrams import SUBWORD_CACHE_SIZE, subword_products
    from weyldiag.verify import GROUP_CACHE_SIZE

    assert subword_products.cache_info().maxsize == SUBWORD_CACHE_SIZE == 64
    assert group_elements.cache_info().maxsize == GROUP_CACHE_SIZE == 16
    words = list(dict.fromkeys(random_reduced_words(system_of("A", 4), 400, 8, seed=5)))
    words = words[:SUBWORD_CACHE_SIZE + 1]
    assert len(words) == SUBWORD_CACHE_SIZE + 1
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
    monkeypatch.setenv(SWEEP_CAP_ENV, "junk")
    with pytest.raises(UsageError, match=r"WEYLDIAG_SWEEP_CAP='junk'"):
        sweep_cap()

    from weyldiag.cli import run

    empty = ["verify", "--type", "A", "--rank", "2", "--word", ""]
    one_letter = ["verify", "--type", "A", "--rank", "2", "--word", "1"]
    for bad in ["junk", "-1"]:
        monkeypatch.setenv(SWEEP_CAP_ENV, bad)
        res = run(empty)
        assert res.exit_code == 2
        assert res.stderr == (
            f"error: WEYLDIAG_SWEEP_CAP={bad!r} is not a non-negative integer\n"
        )
    monkeypatch.setenv(SWEEP_CAP_ENV, "0")
    assert run(empty).exit_code == 0
    assert run(one_letter).exit_code == 4


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
    from weyldiag.cli import run

    # Over-count the inversions of w0 alone. Only the length step at position 1
    # over members 2..6 builds that matrix, so the two diagrams with those
    # members fail the length test, and the first of them in mask order is named.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    w0 = word.element.matrix
    # The interval oracle counts inversions too; build (and cache) it first so
    # that the defect reaches the length walk alone.
    diagrams.subword_products(word)
    real = diagrams._count_inversions
    monkeypatch.setattr(diagrams, "_count_inversions",
                        lambda system, m: real(system, m) + (m == w0))

    report = verify_word(word)
    assert report.dual_ok is False
    assert report.bijection_ok and report.roundtrip_ok and report.obstruction_ok
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "dual_ok false" in res.stdout.splitlines()
    if __debug__:  # the walk comparison in enumerate_positive is an assert
        with pytest.raises(AssertionError, match=r"disagree on \(2, 3, 4, 5, 6\) over"):
            enumerate_positive(word)


def test_checks_fail_on_an_injected_root_edge_defect(monkeypatch):
    import weyldiag.roots as roots
    from weyldiag.cli import run

    # A fresh A3 (so no cached interval or group is reused) whose top root
    # (1,1,1) claims the parent (0,1,1) with alpha_2 in place of alpha_1, so
    # the inversion count reads the height of (0,2,1) for it.  The CLI finds
    # the same system through the root-system cache.
    ctype = CartanType("A", 3)
    system = roots.RootSystem(ctype)
    top = system.positive_roots.index((1, 1, 1))
    parent, i = system.root_edges[top]
    assert (parent, i) == (system.positive_roots.index((0, 1, 1)), 0)
    edges = list(system.root_edges)
    edges[top] = (parent, 1)
    monkeypatch.setattr(system, "root_edges", tuple(edges))
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
    from weyldiag import Diagram
    from weyldiag.cli import run

    # The descent recursion loses the last position of every non-empty diagram.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = verify_mod.diagram_for

    def dropping_last(word, u):
        d = real(word, u)
        if d is None or not d.positions:
            return d
        return Diagram(word, d.positions[:-1])

    monkeypatch.setattr(verify_mod, "diagram_for", dropping_last)
    flags = _verify_flags(verify_word(word))
    assert flags["roundtrip_ok"] is False
    assert flags == {**clean, "roundtrip_ok": False}
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    assert "roundtrip_ok false" in res.stdout.splitlines()


def test_obstruction_check_fails_on_an_injected_sweep_defect(monkeypatch, a2):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag.cli import run

    # The rule reflects the members' roots at member positions as well as at
    # the omitted ones.  The positive diagram (2, 3) then reaches
    # g = -beta_1 at (j, m) = (1, 3) before any gamma recomputation disagrees.
    word = Word(a2, (1, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = diagrams._obstruction_step

    def reflecting_members(word, j, state, size):
        pair = real(word, j, state, size)
        if pair is None:
            return None
        (out, rows), (joined, joined_rows) = pair
        return (out, rows), (out + joined[-1:], joined_rows)

    assert diagrams._walk(word, reflecting_members, ((), ())) == [(), (1,), (2,), (1, 2)]
    monkeypatch.setattr(verify_mod, "_obstruction_step", reflecting_members)
    flags = _verify_flags(verify_word(word))
    assert flags["obstruction_ok"] is False
    assert flags == {**clean, "obstruction_ok": False}
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    assert "obstruction_ok false" in res.stdout.splitlines()


def test_obstruction_check_fails_when_the_rule_never_trips(monkeypatch, a2):
    import weyldiag.verify as verify_mod
    from weyldiag import reflect
    from weyldiag.cli import run

    # The rule without its g == -beta_j test passes all 2^t diagrams.  No
    # positive diagram trips the real rule either, so only a check that the
    # obstruction-free diagrams are exactly the positive ones can notice.
    word = Word(a2, (1, 2, 1))
    clean = _verify_flags(verify_word(word))

    def never_trips(word, j, state, size):
        gs, _ = state
        beta = word.betas[j - 1]
        return (tuple(reflect(word.system, beta, g) for g in gs), ()), (gs + (beta,), ())

    monkeypatch.setattr(verify_mod, "_obstruction_step", never_trips)
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, "obstruction_ok": False}
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1
    assert "obstruction_ok false" in res.stdout.splitlines()


def test_le_check_fails_on_an_injected_rule_defect(monkeypatch):
    import weyldiag.grid as grid_mod
    from weyldiag.cli import run

    # The Le rule without its "row to the left" branch: a box in row 2 may
    # join only below a filled box, so the Le filling {(2,1)} (position 2)
    # goes missing.
    word = quantum_matrices_word(GridShape(2, 2))
    clean = _verify_flags(verify_word(word))
    assert clean["le_equivalence_ok"] is True

    def above_only(shape, word, j, filled, size):
        c, r = divmod(shape.size - j, shape.p)
        above = ((1 << r) - 1) << (c * shape.p)
        return filled, (filled | 1 << (shape.size - j) if filled & above == above else None)

    monkeypatch.setattr(grid_mod, "_le_step", above_only)
    assert (2,) not in grid_mod._le_walk(GridShape(2, 2))
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, "le_equivalence_ok": False}
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "2,1,3,2"])
    assert res.exit_code == 1
    assert "le_equivalence_ok false" in res.stdout.splitlines()


def test_bijection_check_fails_on_an_injected_carried_length_defect(monkeypatch, a3):
    import weyldiag.diagrams as diagrams
    from weyldiag import WeylElement
    from weyldiag.cli import run

    # zeta carries lengths through element_of_word; make it report 4 for every
    # product of length 3.  The interval's lengths are counted, so those
    # images leave the interval, and the round trip of the interval elements
    # of length 3 comes back with the wrong length.
    word = Word(a3, (1, 2, 1, 3, 2, 1))
    clean = _verify_flags(verify_word(word))
    real = diagrams.element_of_word

    def miscounting(system, letters):
        u = real(system, letters)
        return WeylElement(u.matrix, 4) if u.length == 3 else u

    monkeypatch.setattr(diagrams, "element_of_word", miscounting)
    flags = _verify_flags(verify_word(word))
    assert flags == {**clean, "bijection_ok": False, "roundtrip_ok": False}
    assert flags["dual_ok"] and flags["obstruction_ok"]
    res = run(["verify", "--type", "A", "--rank", "3", "--word", "1,2,1,3,2,1"])
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert "bijection_ok false" in lines and "roundtrip_ok false" in lines
