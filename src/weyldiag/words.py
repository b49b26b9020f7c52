"""Words in simple reflections: reducedness, root sequences, canonical words.

A word is reduced exactly when its root sequence
beta_i = s_{alpha_1} ... s_{alpha_{i-1}}(alpha_i) consists of positive
roots, in which case the beta_i are automatically distinct and their set
depends only on the group element.  root_sequence exploits this to report
the precise position at which a non-reduced word fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotReducedError
from .roots import (
    IntMatrix,
    RootSystem,
    RootVector,
    WeylElement,
    _identity_matrix,
    _invert_matrix,
    _right_mul,
    coroot_pairing,
    element_of_word,
)


@dataclass(frozen=True)
class Word:
    system: RootSystem
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for i in self.letters:
            self.system.check_letter(i)

    @property
    def t(self) -> int:
        return len(self.letters)

    @cached_property
    def element(self) -> WeylElement:
        return element_of_word(self.system, self.letters)

    @cached_property
    def reduced(self) -> bool:
        return self.element.length == self.t

    @cached_property
    def prefix_matrices(self) -> tuple[IntMatrix, ...]:
        """Matrices of s_{alpha_1} ... s_{alpha_k} for k = 0..t."""
        m = _identity_matrix(self.system.rank)
        out = [m]
        for i in self.letters:
            m = _right_mul(m, i - 1, self.system.cartan)
            out.append(m)
        return tuple(out)

    @cached_property
    def betas(self) -> tuple[RootVector, ...]:
        return root_sequence(self)

    @cached_property
    def coroot_rows(self) -> tuple[RootVector, ...]:
        """Row l holds (beta_l^vee, alpha_k) for k = 1..n, so its dot product
        with x is (beta_l^vee, x) by linearity."""
        simple = self.system.simple_roots
        return tuple(
            tuple(coroot_pairing(self.system, beta, alpha) for alpha in simple)
            for beta in self.betas
        )

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({self.system.ctype}, {self.letters})"


def format_word(word: Word) -> str:
    return ",".join(str(i) for i in word.letters)


def is_reduced(word: Word) -> bool:
    return word.reduced


def require_reduced(word: Word) -> None:
    if not word.reduced:
        raise NotReducedError(
            f"word {format_word(word) or '(empty)'} over {word.system.ctype} is not reduced"
        )


def root_sequence(word: Word) -> tuple[RootVector, ...]:
    """The roots (beta_1, ..., beta_t) attached to a reduced word's positions.

    beta_k is row a_k of the word's (k-1)-th prefix product, read from
    Word.prefix_matrices; the first negative or repeated root is reported.
    """
    betas: list[RootVector] = []
    seen: set[RootVector] = set()
    for pos, (i, m) in enumerate(zip(word.letters, word.prefix_matrices), start=1):
        beta = m[i - 1]
        if sum(beta) < 0:
            raise NotReducedError(
                f"word {format_word(word)} is not reduced: "
                f"root {beta} at position {pos} is negative"
            )
        if beta in seen:
            raise NotReducedError(
                f"word {format_word(word)} is not reduced: "
                f"root {beta} at position {pos} repeats"
            )
        seen.add(beta)
        betas.append(beta)
    return tuple(betas)


def reduced_word(system: RootSystem, w: WeylElement) -> Word:
    """Canonical reduced word of w: greedy left descents, smallest index first."""
    ident = _identity_matrix(system.rank)
    inv = _invert_matrix(w.matrix)
    letters: list[int] = []
    while inv != ident:
        for i0 in range(system.rank):
            if sum(inv[i0]) < 0:
                break
        else:  # pragma: no cover - impossible for a genuine group element
            raise AssertionError("no descent found for a non-identity element")
        letters.append(i0 + 1)
        inv = _right_mul(inv, i0, system.cartan)
    word = Word(system, tuple(letters))
    assert len(letters) == w.length
    return word


def longest_word(system: RootSystem) -> Word:
    """A reduced word of w0 by greedy right ascents, smallest index first."""
    return extend_to_w0(Word(system, ()))


def longest_element(system: RootSystem) -> WeylElement:
    return longest_word(system).element


def extend_to_w0(word: Word) -> Word:
    """Extend a reduced word of w to a reduced word of w0 sharing its prefix.

    Appends the smallest right ascent of the running product until none is
    left.  The suffix is the canonical reduced_word of w^{-1} w0: with
    N = l(w0), l(s_i w^{-1} w0) = N - l(w s_i), so s_i is a left descent of
    w^{-1} w0 exactly when it is a right ascent of w, and each greedy step
    keeps this correspondence for the shorter remainder.
    """
    require_reduced(word)
    system = word.system
    m = word.element.matrix
    letters = list(word.letters)
    while True:
        for i0 in range(system.rank):
            if sum(m[i0]) > 0:
                letters.append(i0 + 1)
                m = _right_mul(m, i0, system.cartan)
                break
        else:
            break
    extended = Word(system, tuple(letters))
    assert extended.t == system.num_positive_roots and extended.reduced
    return extended


__all__ = [
    "Word",
    "format_word",
    "is_reduced",
    "require_reduced",
    "root_sequence",
    "reduced_word",
    "longest_word",
    "longest_element",
    "extend_to_w0",
]
