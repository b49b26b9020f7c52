"""Diagrams over a reduced word and their positivity combinatorics.

A diagram is a subset of the positions 1..t of a fixed reduced word.  The
module provides the right-to-left subexpression trace, the two classical
characterizations of positivity (the ascent test on the trace and the
length test on per-position products), the maps zeta / zeta' onto the
Bruhat intervals below w and w^{-1}, the left-to-right recursion that
reconstructs the unique positive diagram of an interval element, an
independent subword-product Bruhat oracle, the scan of the interval's
orbit points u(2 rho) (_interval_points, checked against subword_products
in the tests), in which verify_word and the order stats look up the zeta
images, and the root-sum obstruction that certifies non-positivity.
positivity_obstruction checks one pair (j, m) and returns its gamma
trace; _obstruction_step is the same verdict as a walk rule in the frame
of the betas, which reads only w^{-1}, the betas and their coroot rows,
never the members' simple reflections, so it shares no arithmetic with the
ascent rule and comparing the two checks the theorem both ways, under
python and python -O alike.

Positive diagrams coincide with the admissible (Cauchon) diagrams of the
quantum nilpotent algebra attached to the word; user-facing names here say
"positive" throughout.

Each positivity test, and the obstruction, is a rule step(word, j, state)
at one position j that reads only the state built from the members after
j, and returns the pair (out, joined): the state if j is left out and the
state if j joins, None for a branch the rule prunes, (None, None) for
both.  The function that builds its start state from the word sits beside
it (_ascent_start, _length_start, _obstruction_start, _completion_start).
One pruned walk over suffixes (_walk) finds the diagrams a step passes at
a cost that grows with their number, not with 2^t, and yields each one's
positions with the state it ends with as it is reached; verify_word walks
the ascent rule's tree with the length and obstruction rules stepped at its
nodes as followers (verify._lockstep_step), which must keep the children
the ascent rule keeps at each node, so a leaf carries the state of each
rule that kept every branch down to it.  The per-diagram tests
(is_positive and its two halves) follow one rule along the one branch a
diagram takes (_passes).  The length rule's leaf is zeta(d) as packed
image columns with len(d), which verify_word turns into its key u(2 rho)
on arrival and looks up among _interval_points; the other rules' leaf
states it does not read.  Under __debug__ is_positive compares the two
positivity tests.  enumerate_positive walks the completion rule alone
(_completion_step), under python and python -O alike: the ascent rule's
tree cut to the branches with a positive leaf below them, by length
additivity, one packed int per node.  It makes each leaf a Diagram with
_leaf_diagram, which sets the two slots without Diagram's one check, as a
walk builds its positions strictly increasing in 1..t; only under
__debug__ is each leaf run through that check, Diagram(word, positions).
census counts the completion rule's leaves by size with _sizes, which
sweeps the levels of any rule whose step reads only (j, state), merging
equal states, and visits no leaf.

The length and obstruction rules work on packed integers, with no loop
over the positive roots.  The length rule carries its product m as packed
image columns, F_k holding the k-th coefficient of m(beta) for every
positive root beta, one byte per root (roots._height_table), and their
sum, the packed image heights.  A letter lowers every image by its
pairing with alpha_a^vee, itself packed from at most four columns, so a
node costs a few big-int operations and one popcount whatever the rank.
The obstruction rule keeps its rows and its set as roots packed one
signed byte per coordinate (roots._pack).  The completion rule packs one
height per byte, over the roots the prefix of the word sends negative,
and a step is a shift, one multiply-subtract and a mask test
(Word.completion_table).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import DomainError
from .roots import (
    IntMatrix,
    RootVector,
    WeylElement,
    _coroot_pairing,
    _count_inversions,
    _descent_pairings,
    _identity_matrix,
    _orbit_point,
    _packed_product,
    _reflect_by,
    _require_ints,
    _right_mul,
    _simple_image,
    _simple_update,
    element_of_word,
)
from .words import Word, require_reduced


@dataclass(frozen=True, slots=True)
class Diagram:
    """A subset of word positions, stored sorted and 1-based."""

    word: Word
    positions: tuple[int, ...]

    def __post_init__(self):
        # The one check of API and command-line input: every position an int
        # in 1..t, the first that is not named, then sorted, the smallest
        # repeat named.  A walk builds its leaves without it (_leaf_diagram),
        # which runs it on each leaf under __debug__ alone.
        positions = tuple(self.positions)
        _require_ints(positions, 1, self.word.t, "diagram position")
        positions = tuple(sorted(positions))
        if len(set(positions)) < len(positions):
            pos = next(a for a, b in zip(positions, positions[1:]) if a == b)
            raise DomainError(f"diagram position {pos} repeated")
        object.__setattr__(self, "positions", positions)

    @property
    def size(self) -> int:
        return len(self.positions)

    def __str__(self) -> str:
        return format_diagram(self)

    def __repr__(self) -> str:
        return f"Diagram({self.word!r}, {self.positions})"


# _leaf_diagram sets the two slots through their descriptors, past the
# frozen __setattr__ and __post_init__.
_new_diagram = object.__new__
_set_word = Diagram.word.__set__
_set_positions = Diagram.positions.__set__


def _leaf_diagram(word: Word, positions: tuple[int, ...]) -> Diagram:
    """The Diagram of a walk's leaf, its two fields set without
    __post_init__: _walk builds positions as the check keeps them, a tuple
    of strictly increasing ints.  Under __debug__ each leaf must still pass
    Diagram(word, positions) unchanged; under python -O nothing checks that
    the walk's positions are strictly increasing ints in 1..t."""
    diagram = _new_diagram(Diagram)
    _set_word(diagram, word)
    _set_positions(diagram, positions)
    assert not (fault := _leaf_fault(word, positions)), (
        f"walk leaf {positions} over {word}: {fault}"
    )
    return diagram


def _leaf_fault(word: Word, positions) -> str:
    # Why Diagram(word, positions) would refuse or change positions, or ""
    # when it keeps them as they are.
    try:
        kept = Diagram(word, positions).positions
    except DomainError as exc:
        return str(exc)
    return "" if kept == positions else f"Diagram makes it {kept}"


def format_diagram(diagram: Diagram) -> str:
    return ",".join(map(str, diagram.positions))


def diagram_from_mask(word: Word, mask: int) -> Diagram:
    """Positions of set bits, bit k-1 meaning position k."""
    _require_ints((mask,), 0, (1 << word.t) - 1, "mask")
    return Diagram(word, tuple(k for k in range(1, word.t + 1) if mask >> (k - 1) & 1))


@dataclass(frozen=True)
class SubexpressionTrace:
    """The t+1 partial products v_0, ..., v_t read off the word right to left."""

    vs: tuple[WeylElement, ...]


def subexpression(diagram: Diagram) -> SubexpressionTrace:
    """v_k multiplies out the member letters after position t - k, highest
    position first."""
    word = diagram.word
    require_reduced(word)
    t = word.t
    members = [(pos, word.letters[pos - 1]) for pos in reversed(diagram.positions)]
    return SubexpressionTrace(tuple(
        element_of_word(word.system, [a for pos, a in members if pos > t - k])
        for k in range(t + 1)
    ))


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


def _ascent_start(word: Word) -> tuple[int, ...]:
    # The heights of the simple roots.
    return (1,) * word.system.rank


def _ascent_step(word: Word, j: int, h: tuple[int, ...]):
    # Marsh-Rietsch positivity: the trace ascends at every position, member or
    # not, i.e. m (the members after j, right to left) keeps alpha_{a_j}
    # positive.  Only the heights h[k] = sum(m[k]) are carried, and a joining
    # letter updates them as m s_a updates the rows; the leaf is the row sums
    # of zeta'(d), the letters right to left.
    a0 = word.letters[j - 1] - 1
    if h[a0] < 0:
        return None, None
    joined = list(h)
    _simple_update(joined, a0, word.system._cartan_rows)
    return h, tuple(joined)


def _completion_start(word: Word) -> int:
    # The heights of Phi(w) themselves (no members), each raised by 128.
    return word.completion_table[0]


def _completion_step(word: Word, j: int, q: int):
    """The ascent rule cut to live nodes: a branch is kept exactly when some
    positive diagram lies below it.  Start the walk at _completion_start.

    Let z be the product of the members after j, left to right, x_j =
    s_{a_1} ... s_{a_j}, and call the node at j live when l(x_j z) =
    j + l(z).  Additivity l(xy) = l(x) + l(y) holds exactly when no root
    lies in both Phi(x) = {delta > 0 : x delta < 0} and N(y) = {gamma > 0 :
    y^{-1} gamma < 0} (Humphreys, Reflection Groups and Coxeter Groups,
    1.6-1.7; Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 1).

    Lemma: if x s > x, s z > z and l(xz) = l(x) + l(z), then l(xsz) =
    l(x) + 1 + l(z).  N(sz) is alpha_s with s N(z), and x(alpha_s) > 0 as
    x s > x.  Take gamma in N(z), with k = <gamma, alpha_s^vee>.  If k > 0,
    then z^{-1}(s gamma) = z^{-1} gamma - k z^{-1} alpha_s < 0, a negative
    root less a multiple of the positive root z^{-1} alpha_s, and s gamma >
    0 as gamma is not alpha_s; so s gamma lies in N(z) and x(s gamma) > 0.
    If k <= 0, then x(s gamma) = x(gamma) - k x(alpha_s) > 0.

    Every node above a positive leaf is live, by induction on j from the
    leaf (j = 0, x_0 = e).  With z_k the members after k, the ascent rule
    holds there at every k: s_{a_k} z_k > z_k.  If j joins, z_{j-1} =
    s_{a_j} z and x_j z = x_{j-1} z_{j-1}, of length j - 1 + l(z) + 1; if j
    is left out, z_{j-1} = z and the lemma, with x = x_{j-1} and s =
    s_{a_j} (x s > x as the word is reduced), gives l(x_j z) = j + l(z).
    Conversely l(x_j z) <= l(x_{j-1}) + l(s_{a_j} z) <= j + l(z), so at a
    live node s_{a_j} z > z: the ascent holds at j whichever child is
    taken, and the joined child (x_{j-1}, s_{a_j} z) is live.  The root
    (x_t = w, z = e) is live as the word is reduced.  So a walk that keeps
    exactly the live children keeps every node above a positive leaf and
    no other: each node it keeps passes the ascent at every k > j, and its
    joined children lead down to a positive leaf.  It tests no ascent,
    keeps every joined child, and keeps the out child (x_{j-1}, z) exactly
    when z^{-1}(delta) > 0 for every delta in Phi(x_{j-1}).

    q packs the heights of z^{-1}(delta) over Phi(x_j), each raised by
    128, in the lanes of word.completion_table; lane 0 holds alpha_{a_j},
    whose height h is the ascent rule's own h[a_j].  The joined child's
    z^{-1} s_{a_j} reads Phi(x_{j-1}) off lanes 1 on: q >> 8.  The out
    child's z^{-1}(delta) is z^{-1}(s_{a_j} delta) + <delta,
    alpha_{a_j}^vee> h, so it subtracts h K_j before the shift, and each
    lane keeps its top bit exactly where its height is positive.
    """
    K, M = word.completion_table[1][j - 1]
    out = (q - ((q & 255) - 128) * K) >> 8
    return (out if out & M == M else None), q >> 8


def _length_start(word: Word) -> tuple[tuple[int, ...], int, int]:
    # The identity's image columns (the height table's own), its packed
    # heights and its length.
    columns = word.system._height_table[0]
    return columns, sum(columns), 0


def _length_step(word: Word, j: int, state: tuple[tuple[int, ...], int, int]):
    # Length characterization: s_{alpha_j} times the product m of the n
    # member letters after j must have n + 1 inversions.  state is (F, H, n):
    # the packed image columns of m, their sum H, the packed heights of the
    # images m(beta), and n.  s_a m(beta) is m(beta) less p alpha_a, where
    # p packs the pairings of the images with alpha_a^vee, so the candidate's
    # heights are H - p, and joining lowers column a and H by p.  A
    # diagram's leaf is its zeta image in that form (the letters left to
    # right) with its size.
    F, H, n = state
    system = word.system
    a0 = word.letters[j - 1] - 1
    p = 0
    for k, c in system._cartan_rows[a0]:
        p += c * F[k]
    H -= p
    mask = system._height_table[1]
    if system.num_positive_roots - ((mask + H) & mask).bit_count() != n + 1:
        return None, None
    return state, (F[:a0] + (F[a0] - p,) + F[a0 + 1 :], H, n + 1)


def _walk(word: Word, step, start) -> Iterator[tuple[tuple[int, ...], object]]:
    """Yield (positions, leaf state) for every diagram that passes step at
    all t positions, in ascending bitmask order, one leaf as it is reached.

    step(word, j, state) sees the state built from the members after j
    (start when there are none) and returns the pair (state if j is left
    out, state if j joins), a None entry dropping that branch alone and
    (None, None) both.  Depth-first from position t, leaving j out before
    putting it in: where both children pass, the joined one is pushed and
    the walk goes straight on down the out child, kept in hand, and where
    one passes, straight down it, so only the joined children of two-way
    nodes are pushed and popped.  The leaf state is the one built from all
    the members.
    A test of a single diagram reads the same protocol along the one branch
    the diagram takes (_passes).
    """
    stack = [(word.t, start, ())]
    while stack:
        j, state, members = stack.pop()
        while j:
            out, joined = step(word, j, state)
            if out is not None:
                if joined is not None:
                    stack.append((j - 1, joined, (j,) + members))
                state = out
            elif joined is not None:
                state, members = joined, (j,) + members
            else:
                break
            j -= 1
        else:
            yield members, state


def _sizes(word: Word, step, start) -> list[int]:
    """The number of diagrams of each size 0..t that pass step at all t
    positions, the leaves _walk would yield counted by len(positions),
    without visiting one.

    step reads only j and the state, so the leaves below a node, and their
    sizes, depend on (j, state) alone, and equal states at one level can be
    merged.  The sweep keeps one dict per level j = t, ..., 1 of {state:
    packed counts}, lane k counting the paths from position t down to that
    state with k members; an out child keeps its counts, a joined child
    shifts them up one lane, and equal states add theirs.  At j = 0 the
    lanes of the states left (the completion rule leaves one) are the
    counts by size.  A lane is t + 1 bits wide: the paths with k members
    down to any level number at most C(t, k) < 2^(t+1), whatever the rule,
    so no lane carries into the next.
    """
    width = word.t + 1
    level = {start: 1}
    for j in range(word.t, 0, -1):
        below = {}
        get = below.get
        for state, counts in level.items():
            out, joined = step(word, j, state)
            if out is not None:
                below[out] = get(out, 0) + counts
            if joined is not None:
                below[joined] = get(joined, 0) + (counts << width)
        level = below
    packed = sum(level.values())
    lane = (1 << width) - 1
    return [packed >> width * k & lane for k in range(width)]


def _passes(diagram: Diagram, step, start) -> bool:
    # _walk along the one branch the diagram takes, from position t down.
    word = diagram.word
    inside = set(diagram.positions)
    state = start
    for j in range(word.t, 0, -1):
        if (state := step(word, j, state)[j in inside]) is None:
            return False
    return True


def _positive_by_ascents(diagram: Diagram) -> bool:
    return _passes(diagram, _ascent_step, _ascent_start(diagram.word))


def _positive_by_lengths(diagram: Diagram) -> bool:
    return _passes(diagram, _length_step, _length_start(diagram.word))


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

    Left-to-right recursion on the residual u_k (u_0 = u): position k joins
    exactly when s_{a_k} is a left descent of u_{k-1}, and then
    u_k = s_{a_k} u_{k-1}.  The descent is read off the pairing
    p_i = <alpha_i^vee, u_{k-1}(2 rho)>, which is negative exactly for the
    left descents (Humphreys, Reflection Groups and Coxeter Groups,
    1.6-1.7); u is in the interval exactly when every final p_i is 2, i.e.
    the final residual fixes 2 rho and so is the identity.
    """
    require_reduced(word)
    positions = _descent_positions(word, _orbit_point(word.system, u.matrix))
    return None if positions is None else Diagram(word, positions)


def _descent_positions(word: Word, x: RootVector) -> tuple[int, ...] | None:
    # diagram_for's recursion, positions only, from x = u(2 rho): a descent
    # at letter a lowers each p_k by a[k][a] p_a (roots._simple_update).
    system = word.system
    cols = system._cartan_cols
    p = _descent_pairings(system, x)
    positions = []
    for pos, i in enumerate(word.letters, start=1):
        pa = p[i - 1]
        if pa < 0:
            positions.append(pos)
            for k, c in cols[i - 1]:
                p[k] -= c * pa
    return tuple(positions) if p == [2] * system.rank else None


def _interval_points(word: Word) -> dict[RootVector, int]:
    """{u(2 rho): l(u)} over the interval {u : u <= w}, a fresh dict the
    caller owns: the keys verify_word takes the zeta images out of.  The
    order stats scan each positive diagram's own letters the same way.

    A right-to-left scan over the letters from {2 rho: 0}.  Letter a takes
    each point v so far to s_a v, which is v with coordinate a lowered by
    p = <alpha_a^vee, v>, read over sparse Cartan row a.  2 rho is regular,
    so u -> u(2 rho) is one-to-one, and l(s_a u) = l(u) + 1 exactly when
    p > 0 (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7 and
    1.12), so the length is carried by that sign.  Where p < 0, s_a u is
    below u and so already in the interval of the letters scanned, which is
    closed downward; only the p > 0 points are added.  So after letter a
    the points are closed under s_a: a point with p > 0 has had its image
    added, each image added has p < 0 and its preimage present, and a
    point with p < 0 had its image already.  The next letter a then pairs
    only the points added since: where[a] counts the points it has seen,
    and the images of the earlier ones are present with the same lengths,
    so the dict, its order included, is the one a scan of every point
    builds.  The scan acts on the left, on one vector, and shares no
    arithmetic with the length rule (packed image columns and a popcount)
    or the ascent rule (row sums under right multiplication).
    subword_products is its slow oracle in the tests.
    """
    system = word.system
    rows = system._cartan_rows
    points = {system.two_rho: 0}
    where = [0] * system.rank
    for i in reversed(word.letters):
        a0 = i - 1
        row = rows[a0]
        fresh = {}
        for v, n in islice(points.items(), where[a0], None):
            p = 0
            for j, c in row:
                p += c * v[j]
            if p > 0:
                fresh[v[:a0] + (v[a0] - p,) + v[a0 + 1 :]] = n + 1
        points.update(fresh)
        where[a0] = len(points)
    return points


# Entries kept by subword_products, which bruhat_leq_oracle asks for the
# same few words again and again; each benchmark pass fills at most 14.
SUBWORD_CACHE_SIZE = 64


@lru_cache(maxsize=SUBWORD_CACHE_SIZE)
def subword_products(word: Word) -> frozenset[WeylElement]:
    """All elements reachable as products of subwords, i.e. {u : u <= w}.

    Independent of the diagram machinery: a left-to-right dynamic scan over
    the set of reachable matrices.  Lengths are counted as inversions, not
    carried.  It serves bruhat_interval and bruhat_leq_oracle.  In the
    tests it is the slow oracle of the order stats, and of _interval_points
    keyed by (u(2 rho), length): 2 rho dotted with the columns of each
    matrix, and _count_inversions, which multiplies the height table by its
    row sums.  verify_word builds no matrix for the interval.  The carried
    lengths of element_of_word are checked by bruhat_interval under
    __debug__ and by the tests.
    """
    require_reduced(word)
    system = word.system
    reachable: set[IntMatrix] = {_identity_matrix(system.rank)}
    for i in word.letters:
        reachable |= {_right_mul(m, i - 1, system._cartan_rows) for m in reachable}
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


def _assert_gammas_match_omitted_products(trace: GammaTrace, word: Word) -> None:
    # Independent recomputation: gamma_i must equal the image of the m-th
    # letter's simple root under the product of the first m-1 letters with
    # the letters at positions l_i..l_p omitted.  That one root is carried
    # by simple reflections, right to left: tail through the kept letters
    # between l_i and m, then a copy of it through the letters before l_i.
    letters = word.letters
    rows = word.system._cartan_rows
    m, ls = trace.m, trace.complement_positions
    tail = word.system.simple_roots[letters[m - 1] - 1]
    upper = m
    for i in range(len(ls), 0, -1):
        for k in range(upper - 1, ls[i - 1], -1):
            tail = _simple_image(tail, letters[k - 1] - 1, rows)
        upper, image = ls[i - 1], tail
        for k in range(upper - 1, 0, -1):
            image = _simple_image(image, letters[k - 1] - 1, rows)
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
    _require_ints((j,), 1, word.t - 1, "position j")
    _require_ints((m,), j + 1, word.t, "position m")
    if m not in diagram.positions:
        raise DomainError(f"position m={m} must belong to the diagram")
    inside = set(diagram.positions)
    ls = tuple(k for k in range(j + 1, m) if k not in inside)
    if not ls:
        return ObstructionCheck(False, False, None)
    system = word.system
    betas = word.betas
    beta_m = betas[m - 1]
    p = len(ls)
    gammas: list[RootVector] = [()] * (p + 1)
    coeffs: list[int] = [0] * p
    accumulated = [0] * system.rank
    gammas[p] = beta_m
    for i in range(p, 0, -1):
        beta_l = betas[ls[i - 1] - 1]
        coeffs[i - 1] = a = _coroot_pairing(system, beta_l, gammas[i])
        gammas[i - 1] = _reflect_by(beta_l, a, gammas[i])
        accumulated = [x + a * b for x, b in zip(accumulated, beta_l)]
    trace = GammaTrace(j, m, ls, tuple(gammas), tuple(coeffs))
    if __debug__:
        _assert_gammas_match_omitted_products(trace, word)
    assert tuple(b - a for b, a in zip(beta_m, accumulated)) == gammas[0], (
        "telescoping identity for gamma_1"
    )
    violated = tuple(accumulated) == tuple(a + b for a, b in zip(betas[j - 1], beta_m))
    return ObstructionCheck(True, violated, trace)


def _obstruction_start(word: Word):
    # (w^{-1} packed row by row, no members): the word's letters reversed,
    # multiplied out.
    return tuple(_packed_product(word.system, word.letters[::-1])[0]), frozenset()


def _obstruction_step(word: Word, j: int, state):
    """The root-sum obstruction as a walk rule in the frame of the betas;
    start the walk at _obstruction_start(word).

    Let P_j be the product of the first j letters and Z_j that of the
    members after j, left to right, and M_j = P_j Z_j.  For a member k let
    y_k = Z_k^{-1}(alpha_{a_k}).  Since beta_j = P_{j-1}(alpha_{a_j}) =
    -P_j(alpha_{a_j}), M_k^{-1}(beta_k) = -y_k.  The gamma_0 of a pair
    (j, k), beta_k reflected in beta_l at each omitted l between j and k as
    in positivity_obstruction, telescopes to -M_j(y_k), so the pair is
    violated, gamma_0 = -beta_j, exactly when y_k = M_j^{-1}(beta_j).
    M_t = w.  When j joins, P_{j-1} Z_{j-1} = P_j s_{a_j} s_{a_j} Z_j, so
    M_{j-1} = M_j; when j is left out, P_{j-1} = s_{beta_j} P_j, so
    M_{j-1} = s_{beta_j} M_j.

    So state is (rows, ys), every vector in it a root packed into one int
    (roots._pack), which keeps sums and multiples exact: rows[i] is
    M_j^{-1}(alpha_i), from w^{-1}, and ys the set of y_k over the members
    after j.  At j the rule computes x = M_j^{-1}(beta_j), the sum of
    beta_j[i] rows[i] over word.sparse_betas, and prunes when x is in ys.
    Joining adds -x = y_j and keeps rows; leaving j out reflects them in
    beta_j, so rows[i] loses (beta_j^vee, alpha_i) x, for the nonzero
    entries of word.coroot_rows.
    """
    rows, ys = state
    x = 0
    for i, c in word.sparse_betas[j - 1]:
        x += c * rows[i]
    if x in ys:
        return None, None
    out = list(rows)
    for i, c in word.coroot_rows[j - 1]:
        out[i] -= c * x
    return (tuple(out), ys), (rows, ys | {-x})


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
