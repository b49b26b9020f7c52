"""Diagram walks, counts, and machine-readable verification reports.

verify_word walks the diagrams once (diagrams._walk), with the ascent,
length and obstruction rules side by side (_lockstep_step), and checks each
leaf as it arrives, in ascending bitmask order: the rules must pass the
same leaves, and each length leaf's key (u(2 rho), length) is taken out of
the interval's, a dict diagrams._interval_points builds afresh from 2 rho
under left multiplication without any matrix, and sent back to its
diagram.  Letters are multiplied out only for interval points no leaf
took.  On a grid word the Le rule walks beside it (grid._le_walk), and
each of its leaves is compared with the next positive leaf as both arrive.
Only the order stats keep the keys, each with its leaf's bitmask; they
scan one interval per positive diagram the same way and look each point
up among the keys, with no loop over pairs of diagrams.
enumerate_positive makes the positive leaves Diagram objects without
re-checking their positions (diagrams._leaf_diagram), read off the
completion rule alone, which passes the same leaves in the same order as
the ascent rule but steps only the branches that have one below them.  census
counts the completion rule's leaves by size without visiting them
(diagrams._sizes, equal states merged level by level) and compares the
sizes with the rank generating function prod [e_i + 1]_q of W, and their
sum with |W| = prod (e_i + 1), the e_i the exponents that group_order
reads off the numbers of positive roots of each height.  Both read the
completion rule alone, under python and python -O alike.  group_elements,
the closure of the whole group, is the tests' oracle for that product and
for the interval of w0; no command builds it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import lru_cache
from math import prod

from .errors import SizeCapError, UsageError
from .roots import (
    CartanType,
    IntMatrix,
    RootSystem,
    WeylElement,
    _identity_matrix,
    _orbit_point,
    _orbit_point_of_columns,
    _right_mul,
    build_root_system,
    element_of_word,
)
from .words import Word, _parse_int, format_word, longest_word, require_reduced
from .diagrams import (
    Diagram,
    _ascent_start,
    _ascent_step,
    _completion_start,
    _completion_step,
    _descent_positions,
    _interval_points,
    _leaf_diagram,
    _length_start,
    _length_step,
    _obstruction_start,
    _obstruction_step,
    _sizes,
    _walk,
    subword_products,
    zeta,
)
from . import grid as grid_mod

DEFAULT_SWEEP_CAP = 24
SWEEP_CAP_ENV = "WEYLDIAG_SWEEP_CAP"
# Groups kept by group_elements, which no command calls: the tests read the
# same small groups over and over as their reference, and the bound keeps
# memory flat when they sweep more types than it holds.
GROUP_CACHE_SIZE = 16


def sweep_cap() -> int:
    raw = os.environ.get(SWEEP_CAP_ENV, str(DEFAULT_SWEEP_CAP))
    # A cap is an integer token without a minus sign.
    with suppress(UsageError):
        if not raw.lstrip().startswith("-"):
            return _parse_int(raw)
    raise UsageError(f"{SWEEP_CAP_ENV}={raw!r} is not a non-negative integer")


def _guard_sweep(word: Word) -> None:
    """The checks before any 2^t sweep of the word: reduced (exit 3 in the
    command line), then t within the cap (exit 4)."""
    require_reduced(word)
    cap = sweep_cap()
    if word.t > cap:
        raise SizeCapError(
            f"2^{word.t} diagram sweep exceeds the cap of 2^{cap} "
            f"(override with {SWEEP_CAP_ENV})"
        )


def _lockstep_start(word: Word) -> tuple:
    return _ascent_start(word), _length_start(word), _obstruction_start(word)


def _lockstep_step(word: Word, j: int, states: tuple):
    # The ascent, length and obstruction rules side by side on (a, n, o),
    # each looked up in this module at every call.  An entry turns None
    # where its rule prunes and stays None below; a branch is dropped only
    # when all three have pruned, so each leaf carries the states of exactly
    # the rules that pass it.  A rule's pair is never empty, so a and a[0]
    # is None exactly where the rule has pruned.
    a, n, o = states
    a = None if a is None else _ascent_step(word, j, a)
    n = None if n is None else _length_step(word, j, n)
    o = None if o is None else _obstruction_step(word, j, o)
    out = a and a[0], n and n[0], o and o[0]
    joined = a and a[1], n and n[1], o and o[1]
    return (out if out != (None,) * 3 else None), (joined if joined != (None,) * 3 else None)


def enumerate_positive(word: Word) -> list[Diagram]:
    """All positive diagrams of a reduced word, in ascending bitmask order.

    The completion rule walks alone: the ascent rule's tree cut to the
    branches with a positive leaf below them (the tests compare its leaves
    with the ascent rule's, which verify_word checks against the length and
    obstruction rules).  Each leaf becomes a Diagram through
    diagrams._leaf_diagram, which sets its fields without Diagram's check;
    under __debug__ it asserts that the check would keep the positions as
    they are, and under python -O nothing checks that the walk's positions
    are strictly increasing ints in 1..t."""
    _guard_sweep(word)
    leaves = _walk(word, _completion_step, _completion_start(word))
    return [_leaf_diagram(word, p) for p, _ in leaves]


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def group_elements(system: RootSystem) -> frozenset[WeylElement]:
    """The whole Weyl group by breadth-first closure of the generators: a
    slow oracle for the tests, which the library itself never calls."""
    # seen maps each matrix to its depth, the length; the queue grows as it
    # is read, in breadth-first order.
    seen: dict[IntMatrix, int] = {_identity_matrix(system.rank): 0}
    queue = list(seen)
    for m in queue:
        for i0 in range(system.rank):
            nxt = _right_mul(m, i0, system._cartan_rows)
            if nxt not in seen:
                seen[nxt] = seen[m] + 1
                queue.append(nxt)
    return frozenset(WeylElement(m, d) for m, d in seen.items())


def group_order(system: RootSystem) -> int:
    """|W| = prod (e_i + 1) over the exponents of W, read off the numbers of
    positive roots of each height (RootSystem._exponents); no group is built."""
    return prod(e + 1 for e in system._exponents)


def bruhat_interval(word: Word) -> frozenset[WeylElement]:
    """{u : u <= w} as subword products; cross-checked against the zeta image
    of the positive diagrams when __debug__ is set."""
    _guard_sweep(word)
    interval = subword_products(word)
    if __debug__:
        images = {zeta(d) for d in enumerate_positive(word)}
        assert images == interval, "zeta image disagrees with subword products"
    return interval


@dataclass
class VerificationReport:
    ctype: str
    word: str
    total_diagrams: int
    positive_count: int
    interval_count: int
    bijection_ok: bool
    roundtrip_ok: bool
    dual_ok: bool
    obstruction_ok: bool
    le_equivalence_ok: bool | None
    order_stats: dict | None
    elapsed: float

    def all_ok(self) -> bool:
        """Every check that ran passed; a None check did not run."""
        checks = (getattr(self, f.name) for f in fields(self) if f.name.endswith("_ok"))
        return all(ok for ok in checks if ok is not None)

    def to_dict(self, include_elapsed: bool = False) -> dict:
        """The fields in declaration order, ctype as "type", None fields left
        out, elapsed only on request."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            "type" if key == "ctype" else key: value
            for key, value in values
            if value is not None and (include_elapsed or key != "elapsed")
        }

    def to_json(self, include_elapsed: bool = False) -> str:
        return json.dumps(self.to_dict(include_elapsed=include_elapsed), indent=2) + "\n"


def detect_grid_shape(word: Word) -> grid_mod.GridShape | None:
    """Recognize the m-run grid word, if the word is one.  It opens with the
    run p, p-1, ..., 1, so its first letter is p."""
    if word.system.ctype.family != "A" or word.t == 0:
        return None
    p = word.letters[0]
    m, rest = divmod(word.t, p)
    if rest or p + m - 1 != word.system.rank:
        return None
    shape = grid_mod.GridShape(p, m)
    return shape if grid_mod.quantum_matrices_word(shape).letters == word.letters else None


def order_preservation_stats(word: Word, keys: dict) -> dict:
    """Counts over ordered pairs of distinct positive diagrams of the word,
    relating inclusion of the diagrams to Bruhat comparability of their
    zeta images.  keys is {u(2 rho): bitmask} with u the zeta image of the
    diagram whose positions the bitmask holds (bit k-1 for position k), as
    verify_word keeps it.  zeta keeps lengths on positive diagrams, so the
    letters at a diagram's positions are a reduced word of its image u2,
    and diagrams._interval_points scans from those letters the points
    u1(2 rho) of the interval [e, u2].  Each point that is another
    diagram's key is one Bruhat pair, and a nested one when that diagram's
    bitmask lies inside the scanned one.  Inclusion implies Bruhat order:
    the letters of pos1 inside pos2 are a subword of a reduced word of u2
    (the subword property, Bjorner-Brenti 2.2.2), so every nested pair is
    among the scan's points, and the nested count is reported as
    inclusion_pairs, inclusion_and_bruhat and bruhat_and_inclusion.  The
    converse fails: on A3 w0 there are 189 Bruhat pairs against 156
    inclusions.  The work is one scan per positive diagram and one lookup
    per scan point, bruhat_pairs + P lookups in all.  The counts are
    reported as data; the tests count inclusion over all pairs, by the
    slow oracle, and so check both halves."""
    system, letters = word.system, word.letters
    bruhat_pairs = nested = 0
    for x2, mask2 in keys.items():
        # Dropped after this pass: one interval at a time.
        below = _interval_points(
            Word(system, [a for k, a in enumerate(letters) if mask2 >> k & 1])
        )
        for x1 in below:
            # .get: a report whose bijection failed is counted over the
            # leaves it has.
            mask1 = keys.get(x1)
            if mask1 is not None and x1 != x2:
                bruhat_pairs += 1
                nested += mask1 | mask2 == mask2
    return {
        "inclusion_pairs": nested,
        "inclusion_and_bruhat": nested,
        "bruhat_pairs": bruhat_pairs,
        "bruhat_and_inclusion": nested,
    }


def _multiplies_out(word: Word, x: tuple[int, ...], n: int) -> bool:
    # The letters at the descent positions of the interval point x must
    # multiply out to its key (x, n).
    positions = _descent_positions(word, x)
    if positions is None:
        return False
    u = element_of_word(word.system, [word.letters[k - 1] for k in positions])
    return (_orbit_point(word.system, u.matrix), u.length) == (x, n)


def verify_word(word: Word, include_order_stats: bool = False) -> VerificationReport:
    """Run every diagram-level check over one reduced word.

    Elements are keyed by (u(2 rho), length), one-to-one as 2 rho is
    regular, along two paths that share no arithmetic: a zeta image by the
    byte sums of its leaf's packed columns, a left product, with the length
    the popcounts passed; an interval element by diagrams._interval_points,
    a scan of the single point 2 rho under left multiplication, with the
    length carried by the sign of one pairing.  bijection_ok asks for one
    distinct key per positive diagram and for the leaf keys to be the
    interval's.  On a grid word the Le rule's leaves, in the same order, must
    be the positive leaves.  No matrix is built for the interval, and
    bitmasks are kept only for the order stats: subword_products, the
    slow oracle of the scan and of the order stats, serves bruhat_interval
    and the tests.
    """
    _guard_sweep(word)
    start = time.perf_counter()

    # Each verdict below is an AND over j of a rule on j and the members
    # after j, so each rule's entry survives to exactly the leaves it
    # passes, and each leaf is checked as it arrives.  The obstruction rule
    # reads the betas and their coroot rows, the ascent rule the Cartan
    # rows alone, so each checks the other: exactly the positive diagrams
    # trip no root-sum obstruction pair.
    system = word.system
    # The leaves take their keys out of the interval dict, so what is left
    # at the end is the points no leaf took.
    unmatched = _interval_points(word)
    interval_count = len(unmatched)
    shape = detect_grid_shape(word)
    # On a grid word the Le rule walks on its own, and one of its leaves is
    # taken per positive leaf; elsewhere the check stays None and reads none.
    le = None if shape is None else grid_mod._le_walk(shape)
    le_equivalence_ok = None if le is None else True
    keys = {} if include_order_stats else None
    positive_count = 0
    bijection_ok = roundtrip_ok = dual_ok = obstruction_ok = True
    for p, (a, n, o) in _walk(word, _lockstep_step, _lockstep_start(word)):
        if a is not None:
            positive_count += 1
            le_equivalence_ok = le_equivalence_ok and next(le, None) == p
        dual_ok &= (a is None) == (n is None)
        obstruction_ok &= (a is None) == (o is None)
        if n is not None:
            x = _orbit_point_of_columns(system, n[0])
            if unmatched.get(x) == n[2]:
                del unmatched[x]
            else:
                bijection_ok = False
            roundtrip_ok = roundtrip_ok and _descent_positions(word, x) == p
            if keys is not None:
                keys[x] = sum(1 << (k - 1) for k in p)
    bijection_ok = bijection_ok and not unmatched and interval_count == positive_count

    # The interval points no leaf took, of which there are none when the
    # bijection holds, are sent back as well.
    roundtrip_ok = roundtrip_ok and all(_multiplies_out(word, x, n) for x, n in unmatched.items())

    le_equivalence_ok = le_equivalence_ok and next(le, None) is None

    stats = None if keys is None else order_preservation_stats(word, keys)

    return VerificationReport(
        ctype=str(word.system.ctype),
        word=format_word(word),
        total_diagrams=1 << word.t,
        positive_count=positive_count,
        interval_count=interval_count,
        bijection_ok=bijection_ok,
        roundtrip_ok=roundtrip_ok,
        dual_ok=dual_ok,
        obstruction_ok=obstruction_ok,
        le_equivalence_ok=le_equivalence_ok,
        order_stats=stats,
        elapsed=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class CensusResult:
    positive_root_count: int
    positive_count: int
    group_order: int
    # The first size k whose count differs from the coefficient of q^k in
    # prod [e_i + 1]_q, as {"size", "count", "expected"}; None when none does.
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.positive_count == self.group_order and self.witness is None


def _rank_sizes(system: RootSystem) -> list[int]:
    # The coefficients of prod_i [e_i + 1]_q = prod_i (1 + q + ... + q^e_i),
    # the number of elements of W of each length (Humphreys, Reflection
    # Groups and Coxeter Groups, ch. 3): each factor turns a coefficient
    # list into its sums over windows of e_i + 1.
    sizes = [1]
    for e in system._exponents:
        padded = [0] * e + sizes + [0] * e
        sizes = [sum(padded[k : k + e + 1]) for k in range(len(sizes) + e)]
    return sizes


def longest_word_census(ctype: CartanType) -> CensusResult:
    """Count the positive diagrams of a reduced word of w0 by size and
    compare them with W: zeta maps them one-to-one onto [e, w0] = W and
    keeps lengths, so the counts by size are prod [e_i + 1]_q and their sum
    is |W|, both read off the root heights.  No group element is built.

    The counts come from diagrams._sizes over the completion rule: equal
    states are merged level by level and no leaf is visited.  The witness
    names the first size whose count is wrong."""
    system = build_root_system(ctype)
    word = longest_word(system)
    _guard_sweep(word)
    sizes = _sizes(word, _completion_step, _completion_start(word))
    witness = next((
        {"size": k, "count": c, "expected": e}
        for k, (c, e) in enumerate(zip(sizes, _rank_sizes(system)))
        if c != e
    ), None)
    return CensusResult(
        positive_root_count=system.num_positive_roots,
        positive_count=sum(sizes),
        group_order=group_order(system),
        witness=witness,
    )


__all__ = [
    "enumerate_positive",
    "group_elements",
    "group_order",
    "bruhat_interval",
    "VerificationReport",
    "CensusResult",
    "detect_grid_shape",
    "verify_word",
    "longest_word_census",
]
