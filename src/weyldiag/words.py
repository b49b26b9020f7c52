"""Words in simple reflections: reducedness, root sequences, canonical words.

A word is reduced exactly when its root sequence
beta_i = s_{alpha_1} ... s_{alpha_{i-1}}(alpha_i) consists of positive
roots, in which case the beta_i are automatically distinct and their set
depends only on the group element.  root_sequence exploits this to report
the precise position at which a non-reduced word fails.

beta_i is row a_i of the prefix product s_{a_1} ... s_{a_{i-1}}, so its
sign is the sign of that row's sum (its height), and the row sums of
m s_a follow from those of m alone (roots._simple_update).  So
reducedness and the extension to w0 carry n heights, from (1,) * n, and
multiply out no matrix; Word.element builds the word's matrix only when a
caller reads it.  root_sequence runs one product of the letters with each
row packed into one int and its height beside it (roots._packed_product),
and unpacks the betas once, at the end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import NotReducedError, UsageError
from .roots import (
    RootSystem,
    RootVector,
    SparseLines,
    WeylElement,
    _left_descents,
    _packed_product,
    _require_ints,
    _simple_update,
    _unpack,
    element_of_word,
)


@dataclass(frozen=True)
class Word:
    system: RootSystem
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _require_ints(self.letters, 1, self.system.rank, "simple-root index")

    @property
    def t(self) -> int:
        return len(self.letters)

    @cached_property
    def element(self) -> WeylElement:
        """The product s_{a_1} ... s_{a_t}, its matrix built on first read."""
        return element_of_word(self.system, self.letters)

    @cached_property
    def _heights(self) -> tuple[int, ...] | None:
        # Row sums of the word's matrix, or None at the first letter whose
        # root beta_i has negative height: the word is then not reduced.
        h = [1] * self.system.rank
        rows = self.system._cartan_rows
        for i in self.letters:
            if h[i - 1] < 0:
                return None
            _simple_update(h, i - 1, rows)
        return tuple(h)

    @cached_property
    def reduced(self) -> bool:
        """Whether every beta_i is positive, read off the heights alone."""
        return self._heights is not None

    @cached_property
    def betas(self) -> tuple[RootVector, ...]:
        return root_sequence(self)

    @cached_property
    def sparse_betas(self) -> SparseLines:
        """Row l lists the nonzero (k, beta_l[k]); the obstruction rule
        reads them at every position."""
        return tuple(tuple((k, c) for k, c in enumerate(b) if c) for b in self.betas)

    @cached_property
    def coroot_rows(self) -> SparseLines:
        """Row l lists the nonzero (k, (beta_l^vee, alpha_k)), so its dot
        product with x is (beta_l^vee, x) by linearity.  The obstruction rule
        reads them at every position it leaves out, so they are built on
        first read: t * n coroot pairings, at most 24 * 64 for a word that
        verify accepts (t <= 24 by default) at the rank cap 64.  The form values
        (beta_l, alpha_k) come off the sparse Cartan columns scaled by the
        symmetrizer, and the norm ||beta_l||^2 = sum_k beta_l[k] (beta_l,
        alpha_k) from them, so a row costs O(n) and no bilinear call."""
        cols, sym = self.system._cartan_cols, self.system.symmetrizer
        rows = []
        for b in self.betas:
            form = [sum(sym[i] * c * b[i] for i, c in col) for col in cols]
            d = sum(map(mul, b, form)) // 2
            assert all(v % d == 0 for v in form), "coroot pairings must be integral"
            rows.append(tuple((k, v // d) for k, v in enumerate(form) if v))
        return tuple(rows)

    @cached_property
    def completion_table(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(start, steps) for the completion rule (diagrams._completion_step).

        Phi(x_j) = {delta > 0 : x_j(delta) < 0} for the prefix product
        x_j = s_{a_1} ... s_{a_j} is {alpha_{a_j}} with s_{a_j} Phi(x_{j-1}),
        laid out one byte lane per root: alpha_{a_j} in lane 0, and lane i
        the root of lane i - 1 of Phi(x_{j-1}) reflected in alpha_{a_j}.
        steps[j - 1] is (K_j, M_{j-1}): K_j packs <delta, alpha_{a_j}^vee>
        over those lanes (2 in lane 0), M_{j-1} the top bit of each of the
        j - 1 lanes of Phi(x_{j-1}); start packs the heights of Phi(w), each
        raised by 128.  n packed coordinate columns C_k carry the lanes:
        per letter a, p = sum of c C_k over Cartan row a packs the pairings
        of Phi(x_{j-1}) with alpha_a^vee, reflecting lowers C_a by p, and a
        shift makes room for alpha_a.  Every lane is a positive root, and
        heights fit a signed byte (RootSystem._height_table), so no lane
        borrows from the next.  Built on first read, in O(t deg) big-int
        operations.
        """
        system = self.system
        assert sum(system.positive_roots[-1]) < 128, "root heights must fit a signed byte"
        rows = system._cartan_rows
        columns = [0] * system.rank
        mask = 0
        steps = []
        for i in self.letters:
            a0 = i - 1
            p = 0
            for k, c in rows[a0]:
                p += c * columns[k]
            columns[a0] -= p
            columns = [c << 8 for c in columns]
            columns[a0] += 1
            steps.append(((-p << 8) + 2, mask))
            mask = mask << 8 | 0x80
        return sum(columns) + mask, tuple(steps)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({self.system.ctype}, {self.letters})"


def format_word(word: Word) -> str:
    return ",".join(str(i) for i in word.letters)


# An optional sign and ASCII digits: int() alone also reads "1_0" as 10,
# and digits of other scripts.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _parse_int(token: str) -> int:
    """One integer read from text, surrounding whitespace ignored.  Every
    integer the user types goes through here: the command line's words,
    diagrams, grid boxes, --rank, --p and --m, and WEYLDIAG_SWEEP_CAP."""
    token = token.strip()
    if not _INT_TOKEN.fullmatch(token):
        raise UsageError(f"bad token {token!r}, expected an integer")
    return int(token)


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers: a word's letters, a diagram's positions or
    a grid box; the empty string is the empty tuple."""
    text = text.strip()
    return tuple(map(_parse_int, text.split(","))) if text else ()


def is_reduced(word: Word) -> bool:
    return word.reduced


def require_reduced(word: Word) -> None:
    if not word.reduced:
        raise NotReducedError(
            f"word {format_word(word) or '(empty)'} over {word.system.ctype} is not reduced"
        )


def root_sequence(word: Word) -> tuple[RootVector, ...]:
    """The roots (beta_1, ..., beta_t) attached to a reduced word's positions.

    beta_k is row a_k of the product of the first k-1 letters, read off one
    running product of packed rows as each letter joins it, with its sign
    from the height carried beside it; the first negative root is reported.
    A repeat needs no test of its own: while every root so far is positive,
    the prefix is reduced and its roots are distinct.
    """
    system = word.system
    steps = _packed_product(system, word.letters)[1]
    for pos, (x, h) in enumerate(steps, start=1):
        if h < 0:
            raise NotReducedError(
                f"word {format_word(word)} is not reduced: "
                f"root {_unpack(system, x)} at position {pos} is negative"
            )
    return tuple([_unpack(system, x) for x, _ in steps])


def reduced_word(system: RootSystem, w: WeylElement) -> Word:
    """Canonical reduced word of w: greedy left descents, smallest index first.

    s_i is a left descent of the residual u exactly when
    p_i = <alpha_i^vee, u(2 rho)> < 0, and u is the identity exactly when
    every p_i is 2 (Humphreys, Reflection Groups and Coxeter Groups,
    1.6-1.7).  Each step strips the smallest descent, u <- s_i u; there are
    exactly l(w) of them, so the loop runs at most w.length times and any
    other outcome (a wrong carried length, a corrupt pairing) raises.
    """
    letters, p = _left_descents(system, w.matrix, w.length)
    if len(letters) != w.length or p != [2] * system.rank:
        raise AssertionError(
            f"carried length {w.length} disagrees with the left descents over "
            f"{system.ctype}: {len(letters)} stripped, pairings left {p}, "
            f"all 2 only at the identity"
        )
    return Word(system, tuple(letters))


def longest_word(system: RootSystem) -> Word:
    """A reduced word of w0 by greedy right ascents, smallest index first."""
    return extend_to_w0(Word(system, ()))


def longest_element(system: RootSystem) -> WeylElement:
    return longest_word(system).element


def extend_to_w0(word: Word) -> Word:
    """Extend a reduced word of w to a reduced word of w0 sharing its prefix.

    Appends the smallest right ascent of the running product until none is
    left.  s_i is a right ascent of m exactly when row i of m has positive
    height, so only the heights are carried (no matrix is built).  The
    suffix is the canonical reduced_word of w^{-1} w0: with N = l(w0),
    l(s_i w^{-1} w0) = N - l(w s_i), so s_i is a left descent of w^{-1} w0
    exactly when it is a right ascent of w, and each greedy step keeps this
    correspondence for the shorter remainder.  There are exactly N - t
    steps, so the loop runs at most that many times and an ascent left
    after them (corrupt arithmetic) raises.
    """
    require_reduced(word)
    system = word.system
    rows = system._cartan_rows
    left = system.num_positive_roots - word.t
    h = list(word._heights)
    letters = list(word.letters)
    for _ in range(left):
        i0 = next((i for i, v in enumerate(h) if v > 0), -1)
        if i0 < 0:
            break
        letters.append(i0 + 1)
        _simple_update(h, i0, rows)
    if any(v > 0 for v in h):
        raise AssertionError(
            f"extension to w0 over {system.ctype} still has a right ascent after "
            f"l(w0) - t = {left} letters: heights {h}"
        )
    extended = Word(system, tuple(letters))
    assert extended.t == system.num_positive_roots and extended.reduced
    return extended


__all__ = [
    "Word",
    "format_word",
    "is_reduced",
    "root_sequence",
    "reduced_word",
    "longest_word",
    "longest_element",
    "extend_to_w0",
]
