"""Diagrams over a reduced word and their positivity combinatorics.

A diagram is a subset of the positions 1..t of a fixed reduced word.  The
module provides the right-to-left subexpression trace, the two classical
characterizations of positivity (the ascent test on the trace and the
length test on per-position products), the maps zeta / zeta' onto the
Bruhat intervals below w and w^{-1}, the left-to-right recursion that
reconstructs the unique positive diagram of an interval element, an
independent subword-product Bruhat oracle, and the root-sum obstruction
that certifies non-positivity.  The obstruction comes in two forms:
positivity_obstruction checks one pair (j, m) and returns its gamma trace,
and _obstruction_step is the same verdict as a walk rule, so one walk lists
the diagrams no pair trips; verify_word checks that they are exactly the
positive ones.

Positive diagrams coincide with the admissible (Cauchon) diagrams of the
quantum nilpotent algebra attached to the word; user-facing names here say
"positive" throughout.

Each positivity test, and the obstruction, is a rule at one position j
that reads only the members after j, so one pruned walk over suffixes finds
the diagrams a rule passes at a cost that grows with their number, not with
2^t.  The per-diagram tests (is_positive and its two halves) are that same
walk pinned to one diagram, so _walk is the only reader of the rules.  Both
positivity tests run and are compared whenever __debug__ is set (the normal
interpreter and pytest); under python -O, enumerate_positive walks with the
ascent test alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .roots import (
    IntMatrix,
    RootVector,
    WeylElement,
    _apply,
    _count_inversions,
    _identity_matrix,
    _invert_matrix,
    _left_mul,
    _right_mul,
    _simple_image,
    coroot_pairing,
    element_of_word,
    reflect,
)
from .words import Word, require_reduced


@dataclass(frozen=True)
class Diagram:
    """A subset of word positions, stored sorted and 1-based."""

    word: Word
    positions: tuple[int, ...]

    def __post_init__(self):
        positions = tuple(sorted(self.positions))
        t = self.word.t
        for k, pos in enumerate(positions):
            if not 1 <= pos <= t:
                raise DomainError(f"diagram position {pos} out of range 1..{t}")
            if k and positions[k - 1] == pos:
                raise DomainError(f"diagram position {pos} repeated")
        object.__setattr__(self, "positions", positions)

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def mask(self) -> int:
        # Bit k-1 set for each position k.
        return sum(1 << (pos - 1) for pos in self.positions)

    def __str__(self) -> str:
        return format_diagram(self)

    def __repr__(self) -> str:
        return f"Diagram({self.word!r}, {self.positions})"


def format_diagram(diagram: Diagram) -> str:
    return ",".join(str(p) for p in diagram.positions)


def diagram_from_mask(word: Word, mask: int) -> Diagram:
    """Positions of set bits, bit k-1 meaning position k."""
    if not 0 <= mask < 1 << word.t:
        raise DomainError(f"mask {mask} outside 0..2^{word.t}-1")
    return Diagram(word, tuple(k for k in range(1, word.t + 1) if mask >> (k - 1) & 1))


@dataclass(frozen=True)
class SubexpressionTrace:
    """The t+1 partial products v_0, ..., v_t read off the word right to left."""

    vs: tuple[WeylElement, ...]


def subexpression(diagram: Diagram) -> SubexpressionTrace:
    word = diagram.word
    require_reduced(word)
    system = word.system
    cartan = system.cartan
    inside = set(diagram.positions)
    m = _identity_matrix(system.rank)
    ell = 0
    vs = [WeylElement(m, 0)]
    for pos in range(word.t, 0, -1):
        if pos in inside:
            a0 = word.letters[pos - 1] - 1
            ell += 1 if sum(m[a0]) > 0 else -1
            m = _right_mul(m, a0, cartan)
        vs.append(WeylElement(m, ell))
    return SubexpressionTrace(tuple(vs))


def zeta(diagram: Diagram) -> WeylElement:
    """Product of the word's letters at the diagram's positions, left to right."""
    word = diagram.word
    require_reduced(word)
    return element_of_word(word.system, [word.letters[p - 1] for p in diagram.positions])


def zeta_prime(diagram: Diagram) -> WeylElement:
    """Product of the same letters right to left.  Each simple reflection is
    an involution, so this is the inverse of zeta; it is built on its own,
    not by inverting zeta, so the two can be compared."""
    word = diagram.word
    require_reduced(word)
    letters = [word.letters[p - 1] for p in diagram.positions]
    return element_of_word(word.system, letters[::-1])


def _ascent_step(word: Word, j: int, m: IntMatrix, size: int):
    # Marsh-Rietsch positivity: the trace ascends at every position, member or
    # not, i.e. m (the members after j, right to left) keeps alpha_{a_j} positive.
    a0 = word.letters[j - 1] - 1
    if sum(m[a0]) < 0:
        return None
    return m, _right_mul(m, a0, word.system.cartan)


def _length_step(word: Word, j: int, m: IntMatrix, size: int):
    # Length characterization: s_{alpha_j} times the product m of the size
    # member letters after j must have length 1 + size, by inversion counting.
    candidate = _left_mul(m, word.letters[j - 1] - 1, word.system.cartan)
    if _count_inversions(word.system, candidate) != 1 + size:
        return None
    return m, candidate


def _walk(word: Word, step, start) -> list[tuple[int, ...]]:
    """Positions of every diagram that passes step at all t positions, in
    ascending bitmask order.

    step(word, j, state, size) sees the state built from the members after j
    (size of them, start when there are none) and returns None when j fails
    either way, else (state if j is left out, state if j joins); a None
    entry drops that branch alone.  Depth-first from position t, leaving j
    out before putting it in.  This is the one reader of that protocol: a
    test of a single diagram is the walk with a step pinned to it (_passes).
    """
    found = []
    stack = [(word.t, start, ())]
    while stack:
        j, state, members = stack.pop()
        if not j:
            found.append(members)
        elif (pair := step(word, j, state, len(members))) is not None:
            out, joined = pair
            if joined is not None:
                stack.append((j - 1, joined, (j,) + members))
            if out is not None:
                stack.append((j - 1, out, members))
    return found


def _passes(diagram: Diagram, step) -> bool:
    # The walk with step pinned to the diagram: only the branch it takes.
    inside = set(diagram.positions)

    def pinned(word, j, state, size):
        pair = step(word, j, state, size)
        if pair is None:
            return None
        return (None, pair[1]) if j in inside else (pair[0], None)

    return bool(_walk(diagram.word, pinned, _identity_matrix(diagram.word.system.rank)))


def _positive_by_ascents(diagram: Diagram) -> bool:
    return _passes(diagram, _ascent_step)


def _positive_by_lengths(diagram: Diagram) -> bool:
    return _passes(diagram, _length_step)


def is_positive_by_ascents(diagram: Diagram) -> bool:
    require_reduced(diagram.word)
    return _positive_by_ascents(diagram)


def is_positive_by_lengths(diagram: Diagram) -> bool:
    require_reduced(diagram.word)
    return _positive_by_lengths(diagram)


def is_positive(diagram: Diagram) -> bool:
    """Positivity verdict for a diagram over a reduced word."""
    require_reduced(diagram.word)
    verdict = _positive_by_ascents(diagram)
    if __debug__:
        assert _positive_by_lengths(diagram) == verdict, (
            f"positivity tests disagree on {diagram.positions} "
            f"over {diagram.word}"
        )
    return verdict


def diagram_for(word: Word, u: WeylElement) -> Diagram | None:
    """The unique positive diagram with zeta image u, or None when u is not
    below the word's element in Bruhat order.

    Left-to-right recursion: include position i+1 exactly when the running
    residual u_i has the word's next simple root as a left descent; u is in
    the interval exactly when the final residual is the identity.
    """
    require_reduced(word)
    system = word.system
    cartan = system.cartan
    ident = _identity_matrix(system.rank)
    inv = _invert_matrix(u.matrix)
    positions = []
    for pos, i in enumerate(word.letters, start=1):
        if sum(inv[i - 1]) < 0:
            positions.append(pos)
            inv = _right_mul(inv, i - 1, cartan)
    if inv != ident:
        return None
    return Diagram(word, tuple(positions))


# Entries kept by subword_products; each benchmark pass fills at most 14.
SUBWORD_CACHE_SIZE = 64


@lru_cache(maxsize=SUBWORD_CACHE_SIZE)
def subword_products(word: Word) -> frozenset[WeylElement]:
    """All elements reachable as products of subwords, i.e. {u : u <= w}.

    Independent of the diagram machinery: a left-to-right dynamic scan over
    the set of reachable matrices.  Lengths are counted as inversions, not
    carried, so comparing this set with the zeta images also checks the
    carried lengths.
    """
    require_reduced(word)
    system = word.system
    cartan = system.cartan
    reachable: set[IntMatrix] = {_identity_matrix(system.rank)}
    for i in word.letters:
        reachable |= {_right_mul(m, i - 1, cartan) for m in reachable}
    return frozenset(WeylElement(m, _count_inversions(system, m)) for m in reachable)


def bruhat_leq_oracle(word: Word, u: WeylElement) -> bool:
    """Subword test for u <= element_of(word), via the reachable-product set."""
    return u in subword_products(word)


# -- the root-sum obstruction ------------------------------------------------


@dataclass(frozen=True)
class GammaTrace:
    """Reflection recursion over the complement positions between j and m.

    gammas[p] is beta_m; gammas[i-1] = s_{beta_{l_i}}(gammas[i]); and
    coefficients[i-1] = (beta_{l_i}^vee, gammas[i]), so that
    gammas[0] = beta_m - sum_i coefficients[i-1] * beta_{l_i}.
    """

    j: int
    m: int
    complement_positions: tuple[int, ...]
    gammas: tuple[RootVector, ...]
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class ObstructionCheck:
    applicable: bool
    violated: bool
    trace: GammaTrace | None


def _gamma_trace(diagram: Diagram, j: int, m: int) -> GammaTrace:
    word = diagram.word
    system = word.system
    betas = word.betas
    inside = set(diagram.positions)
    ls = tuple(k for k in range(j + 1, m) if k not in inside)
    p = len(ls)
    gammas: list[RootVector] = [()] * (p + 1)
    coeffs: list[int] = [0] * p
    gammas[p] = betas[m - 1]
    for i in range(p, 0, -1):
        beta_l = betas[ls[i - 1] - 1]
        coeffs[i - 1] = coroot_pairing(system, beta_l, gammas[i])
        gammas[i - 1] = reflect(system, beta_l, gammas[i])
    trace = GammaTrace(j, m, ls, tuple(gammas), tuple(coeffs))
    if __debug__:
        _assert_gammas_match_omitted_products(trace, word)
    return trace


def _assert_gammas_match_omitted_products(trace: GammaTrace, word: Word) -> None:
    # Independent recomputation: gamma_i must equal the image of the m-th
    # letter's simple root under the product of the first m-1 letters with
    # the letters at positions l_i..l_p omitted.
    system = word.system
    cartan = system.cartan
    letters = word.letters
    m, ls = trace.m, trace.complement_positions
    p = len(ls)
    prefixes = word.prefix_matrices
    alpha_m0 = letters[m - 1] - 1
    tail = _identity_matrix(system.rank)
    upper = m
    for i in range(p, 0, -1):
        for k in range(upper - 1, ls[i - 1], -1):
            tail = _left_mul(tail, letters[k - 1] - 1, cartan)
        upper = ls[i - 1]
        head = prefixes[ls[i - 1] - 1]
        image = _apply(head, tail[alpha_m0])
        assert image == trace.gammas[i - 1], (
            f"gamma_{i} mismatch at (j={trace.j}, m={m}) over {word}"
        )


def positivity_obstruction(diagram: Diagram, j: int, m: int) -> ObstructionCheck:
    """Root-sum obstruction at a pair j < m with m in the diagram.

    Applicable when some position strictly between j and m lies outside the
    diagram; violated means beta_j + beta_m equals the accumulated multiple
    sum of the complement betas, which certifies that the diagram is not
    positive.
    """
    word = diagram.word
    require_reduced(word)
    t = word.t
    if not (1 <= j < m <= t):
        raise DomainError(f"need 1 <= j < m <= {t}, got j={j}, m={m}")
    if m not in diagram.positions:
        raise DomainError(f"position m={m} must belong to the diagram")
    inside = set(diagram.positions)
    if all(k in inside for k in range(j + 1, m)):
        return ObstructionCheck(False, False, None)
    trace = _gamma_trace(diagram, j, m)
    betas = word.betas
    beta_m = betas[m - 1]
    accumulated = [0] * word.system.rank
    for a, l in zip(trace.coefficients, trace.complement_positions):
        bl = betas[l - 1]
        for k in range(len(accumulated)):
            accumulated[k] += a * bl[k]
    assert tuple(b - a for b, a in zip(beta_m, accumulated)) == trace.gammas[0], (
        "telescoping identity for gamma_1"
    )
    violated = tuple(accumulated) == tuple(a + b for a, b in zip(betas[j - 1], beta_m))
    return ObstructionCheck(True, violated, trace)


def _obstruction_step(word: Word, j: int, state, size: int):
    """The root-sum obstruction as a walk rule; start the walk at ((), ()).

    state is (gs, rows), one entry per member m after j.  g starts at beta_m
    and is reflected in beta_k at each position k between j and m outside
    the diagram, so it is gamma_0 of the pair (j, m).  The accumulated sum
    telescopes to beta_m - g, so the pair is violated exactly when
    g == -beta_j; that needs g negative, hence an omitted position already
    passed, which is when the obstruction applies.  Under __debug__ a row
    carries alpha_{a_m} through the members passed, and every reflected g is
    recomputed as that row under the prefix before j, an omitted product as
    in positivity_obstruction; under python -O rows stay empty.
    """
    gs, rows = state
    beta = word.betas[j - 1]
    if tuple(-x for x in beta) in gs:
        return None
    coroot = word.coroot_rows[j - 1]
    out = []
    for g in gs:
        c = sum(a * x for a, x in zip(coroot, g) if a)
        out.append(tuple(x - c * b for x, b in zip(g, beta)) if c else g)
    joined_rows = ()
    if __debug__:
        head = word.prefix_matrices[j - 1]
        for g, row in zip(out, rows):
            assert _apply(head, row) == g, f"gamma mismatch at position {j} over {word}"
        a0 = word.letters[j - 1] - 1
        cartan = word.system.cartan
        joined_rows = tuple(_simple_image(row, a0, cartan) for row in rows)
        joined_rows += (word.system.simple_roots[a0],)
    return (tuple(out), rows), (gs + (beta,), joined_rows)


__all__ = [
    "Diagram",
    "SubexpressionTrace",
    "GammaTrace",
    "ObstructionCheck",
    "format_diagram",
    "diagram_from_mask",
    "subexpression",
    "zeta",
    "zeta_prime",
    "is_positive",
    "is_positive_by_ascents",
    "is_positive_by_lengths",
    "diagram_for",
    "subword_products",
    "bruhat_leq_oracle",
    "positivity_obstruction",
]
