"""Diagram walks, counts, and machine-readable verification reports."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import SizeCapError, UsageError
from .roots import (
    CartanType,
    IntMatrix,
    RootSystem,
    WeylElement,
    _identity_matrix,
    _right_mul,
    build_root_system,
)
from .words import Word, format_word, longest_word, reduced_word, require_reduced
from .diagrams import (
    Diagram,
    _ascent_step,
    _length_step,
    _obstruction_step,
    _walk,
    diagram_for,
    subword_products,
    zeta,
)
from . import grid as grid_mod

DEFAULT_SWEEP_CAP = 24
SWEEP_CAP_ENV = "WEYLDIAG_SWEEP_CAP"
# Groups kept by group_elements; each benchmark pass builds at most 9.
GROUP_CACHE_SIZE = 16


def sweep_cap() -> int:
    raw = os.environ.get(SWEEP_CAP_ENV)
    if raw is None:
        return DEFAULT_SWEEP_CAP
    if not raw.strip().isdecimal():
        raise UsageError(f"{SWEEP_CAP_ENV}={raw!r} is not a non-negative integer")
    return int(raw)


def _guard_sweep(t: int) -> None:
    cap = sweep_cap()
    if t > cap:
        raise SizeCapError(
            f"2^{t} diagram sweep exceeds the cap of 2^{cap} "
            f"(override with {SWEEP_CAP_ENV})"
        )


def enumerate_positive(word: Word) -> list[Diagram]:
    """All positive diagrams of a reduced word, in ascending bitmask order."""
    require_reduced(word)
    _guard_sweep(word.t)
    ident = _identity_matrix(word.system.rank)
    found = _walk(word, _ascent_step, ident)
    if __debug__:
        differ = set(found) ^ set(_walk(word, _length_step, ident))
        assert not differ, (
            f"positivity tests disagree on "
            f"{min(differ, key=lambda p: Diagram(word, p).mask)} over {word}"
        )
    return [Diagram(word, p) for p in found]


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def group_elements(system: RootSystem) -> frozenset[WeylElement]:
    """The whole Weyl group by breadth-first closure of the generators."""
    cartan = system.cartan
    ident = _identity_matrix(system.rank)
    seen: dict[IntMatrix, int] = {ident: 0}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        fresh = []
        for m in frontier:
            for i0 in range(system.rank):
                nxt = _right_mul(m, i0, cartan)
                if nxt not in seen:
                    seen[nxt] = depth
                    fresh.append(nxt)
        frontier = fresh
    return frozenset(WeylElement(m, d) for m, d in seen.items())


def group_order(system: RootSystem) -> int:
    return len(group_elements(system))


def bruhat_interval(word: Word) -> frozenset[WeylElement]:
    """{u : u <= w} as subword products; cross-checked against the zeta image
    of the positive diagrams when __debug__ is set."""
    require_reduced(word)
    _guard_sweep(word.t)
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
    """Recognize the m-run grid word, if the word is one."""
    t = word.t
    if word.system.ctype.family != "A" or t == 0:
        return None
    for p in range(1, t + 1):
        if t % p:
            continue
        m = t // p
        if p + m - 1 != word.system.rank:
            continue
        shape = grid_mod.GridShape(p, m)
        if grid_mod.quantum_matrices_word(shape).letters == word.letters:
            return shape
    return None


def order_preservation_stats(word: Word, images: dict) -> dict:
    """Counts over ordered pairs of distinct positive diagrams, given as
    {positions: zeta image}, relating inclusion of the diagrams to Bruhat
    comparability of their images.  A pair both included and Bruhat-below
    is counted once and reported under both inclusion_and_bruhat and
    bruhat_and_inclusion.  Reported as data only; no claim is asserted."""
    # Uncached: one interval per positive would otherwise stay in the cache.
    below = {pos: subword_products.__wrapped__(reduced_word(word.system, u))
             for pos, u in images.items()}
    inclusion_pairs = bruhat_pairs = both = 0
    for pos1, u1 in images.items():
        set1 = set(pos1)
        for pos2 in images:
            if pos1 != pos2:
                included = set1 <= set(pos2)
                leq = u1 in below[pos2]
                inclusion_pairs += included
                bruhat_pairs += leq
                both += included and leq
    return {
        "inclusion_pairs": inclusion_pairs,
        "inclusion_and_bruhat": both,
        "bruhat_pairs": bruhat_pairs,
        "bruhat_and_inclusion": both,
    }


def verify_word(word: Word, include_order_stats: bool = False) -> VerificationReport:
    """Run every diagram-level check over one reduced word."""
    require_reduced(word)
    _guard_sweep(word.t)
    start = time.perf_counter()

    # Each verdict below is an AND over j of a rule on j and the members
    # after j, so each walk returns exactly the diagrams its rule passes.
    ident = _identity_matrix(word.system.rank)
    found = _walk(word, _ascent_step, ident)
    dual_ok = found == _walk(word, _length_step, ident)
    positives = [Diagram(word, p) for p in found]

    interval = subword_products(word)
    images = {d.positions: zeta(d) for d in positives}
    image_set = set(images.values())
    bijection_ok = len(image_set) == len(positives) and image_set == interval

    roundtrip_ok = all(
        diagram_for(word, u) == d for d, u in zip(positives, images.values())
    )
    if roundtrip_ok:
        # Every image already round-trips, so only elements outside the
        # image can fail; when the bijection holds there are none.
        for u in interval - image_set:
            d = diagram_for(word, u)
            if d is None or zeta(d) != u:
                roundtrip_ok = False
                break

    # Exactly the positive diagrams trip no root-sum obstruction pair.
    obstruction_ok = _walk(word, _obstruction_step, ((), ())) == found

    shape = detect_grid_shape(word)
    le_equivalence_ok = None if shape is None else grid_mod._le_walk(shape) == found

    stats = order_preservation_stats(word, images) if include_order_stats else None

    return VerificationReport(
        ctype=str(word.system.ctype),
        word=format_word(word),
        total_diagrams=1 << word.t,
        positive_count=len(positives),
        interval_count=len(interval),
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

    @property
    def ok(self) -> bool:
        return self.positive_count == self.group_order


def longest_word_census(ctype: CartanType) -> CensusResult:
    """Count positive diagrams over a reduced word of w0 and compare with |W|."""
    system = build_root_system(ctype)
    positives = enumerate_positive(longest_word(system))
    return CensusResult(
        positive_root_count=system.num_positive_roots,
        positive_count=len(positives),
        group_order=group_order(system),
    )


__all__ = [
    "DEFAULT_SWEEP_CAP",
    "SWEEP_CAP_ENV",
    "sweep_cap",
    "enumerate_positive",
    "group_elements",
    "group_order",
    "bruhat_interval",
    "VerificationReport",
    "CensusResult",
    "detect_grid_shape",
    "order_preservation_stats",
    "verify_word",
    "longest_word_census",
]
