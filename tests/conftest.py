import random

import pytest

from weyldiag import CartanType, Word, build_root_system
from weyldiag.roots import _identity_matrix, _invert_matrix, _right_mul

CENSUS_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
]

# At least one type of each family, for the property tests and the others
# that range over every family.
PROPERTY_TYPES = [
    ("A", 1), ("A", 3), ("B", 3), ("C", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


def system_of(family, rank):
    return build_root_system(CartanType(family, rank))


def random_reduced_word(system, rng, max_len):
    """Seeded random ascent walk; the result is reduced by construction."""
    target = rng.randint(0, min(max_len, system.num_positive_roots))
    m = _identity_matrix(system.rank)
    letters = []
    while len(letters) < target:
        ascents = [i0 for i0 in range(system.rank) if sum(m[i0]) > 0]
        if not ascents:
            break
        i0 = rng.choice(ascents)
        letters.append(i0 + 1)
        m = _right_mul(m, i0, system.cartan)
    return Word(system, tuple(letters))


def random_reduced_words(system, count, max_len, seed):
    rng = random.Random(seed)
    return [random_reduced_word(system, rng, max_len) for _ in range(count)]


def diagram_positions_by_inverse(word, u):
    """Reference for diagram_for: the descent recursion on the inverse
    matrix, where s_i is a left descent of u when row i of u^{-1}, the
    image u^{-1}(alpha_i), has a negative sum.  Positions, or None."""
    system = word.system
    inv = _invert_matrix(u.matrix)
    positions = []
    for pos, i in enumerate(word.letters, start=1):
        if sum(inv[i - 1]) < 0:
            positions.append(pos)
            inv = _right_mul(inv, i - 1, system.cartan)
    return tuple(positions) if inv == _identity_matrix(system.rank) else None


def reduced_word_by_inverse(system, u):
    """Reference for reduced_word: smallest left descent first, read off
    the inverse matrix as in diagram_positions_by_inverse."""
    ident = _identity_matrix(system.rank)
    inv = _invert_matrix(u.matrix)
    letters = []
    while inv != ident:
        i0 = next(i0 for i0 in range(system.rank) if sum(inv[i0]) < 0)
        letters.append(i0 + 1)
        inv = _right_mul(inv, i0, system.cartan)
    return tuple(letters)


@pytest.fixture(scope="session")
def a2():
    return system_of("A", 2)


@pytest.fixture(scope="session")
def a3():
    return system_of("A", 3)
