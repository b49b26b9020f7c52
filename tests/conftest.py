import random
from functools import cache
from operator import add

import pytest

from weyldiag import CartanType, Word, build_root_system
from weyldiag.roots import _apply, _identity_matrix, _reflect_by, element_of_word

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


# -- dense reference arithmetic, independent of the library's sparse rows ------

def dense_right_mul(m, a0, cartan):
    """Matrix of (elem . s_a): every row j becomes row j - a[a0][j] * row a0."""
    arow = m[a0]
    return tuple(
        tuple(v - cartan[a0][j] * w for v, w in zip(row, arow)) for j, row in enumerate(m)
    )


def dense_simple_image(x, i0, cartan):
    """s_i(x): coordinate i0 loses the full dot product of Cartan row i0 with x."""
    out = list(x)
    out[i0] -= sum(c * v for c, v in zip(cartan[i0], x))
    return tuple(out)


def dense_form(system):
    """The symmetrized form, symmetrizer[i] * a[i][j], as a dense matrix."""
    d, cartan = system.symmetrizer, system.cartan
    return tuple(tuple(d[i] * c for c in crow) for i, crow in enumerate(cartan))


def dense_bilinear(x, y, form):
    """x . form . y over whole rows of the dense form."""
    return sum(xi * f * yj for xi, frow in zip(x, form) for f, yj in zip(frow, y))


def count_inversions_by_dot_products(system, m):
    """Reference inversion count: each positive root's image height is its
    dot product with the row sums of m."""
    sums = [sum(row) for row in m]
    return sum(
        1 for beta in system.positive_roots
        if sum(b * s for b, s in zip(beta, sums) if b) < 0
    )


def pack_image_columns(system, m):
    """(F, H) for the matrix m, as the length walk carries it: F[k] holds the
    k-th coefficient of the image of every positive root, one signed byte
    per root in the order of system.positive_roots, and H their sum, the
    packed image heights.  Built from dense images, not from the height
    table."""
    images = [
        [sum(b * row[k] for b, row in zip(beta, m) if b) for k in range(system.rank)]
        for beta in system.positive_roots
    ]
    columns = tuple(
        sum(image[k] << 8 * b for b, image in enumerate(images)) for k in range(system.rank)
    )
    return columns, sum(columns)


def unpack_image_columns(system, columns):
    """The matrix whose packed image columns (as pack_image_columns builds
    them) are columns: row i is the image of alpha_i, read off the byte
    where system.positive_roots holds alpha_i.  Adding 128 to every byte
    keeps a negative byte from borrowing from the next."""
    bias = sum(128 << 8 * b for b in range(system.num_positive_roots))
    return tuple(
        tuple(((f + bias) >> 8 * b & 255) - 128 for f in columns)
        for b in map(system.positive_roots.index, system.simple_roots)
    )


@cache
def _root_steps(system):
    """(k, i) for each positive root in order: it is positive_roots[k] plus
    alpha_i, or alpha_i itself when k is -1.  Roots come in order of
    height, so k is always an earlier index."""
    index = {beta: k for k, beta in enumerate(system.positive_roots)}
    index[(0,) * system.rank] = -1
    return tuple(
        next(
            (index[lower], i)
            for i, b in enumerate(beta)
            if b and (lower := beta[:i] + (b - 1,) + beta[i + 1 :]) in index
        )
        for beta in system.positive_roots
    )


def dense_orbit_point(system, m):
    """u(2 rho) for the matrix m of u, as the sum of the images of the
    positive roots, each image an earlier root's image plus a row of m."""
    images = []
    for k, i in _root_steps(system):
        images.append(tuple(map(add, images[k], m[i])) if k >= 0 else m[i])
    return tuple(map(sum, zip(*images)))


def _invert_matrix(m):
    """Inverse of an integer matrix with determinant +-1, in integers only.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [m | I]: each update
    is an exact integer division by the previous pivot, and after the last
    column the left block is d * I and the right block d * m^{-1}, where d is
    the final pivot, +-det(m).  Asserting d = +-1 is the check that a Weyl
    matrix inverts integrally; the inverse is then the right block times d.
    """
    n = len(m)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        pv = prow[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and (f or pv != prev):
                aug[r] = [(pv * v - f * w) // prev for v, w in zip(aug[r], prow)]
        prev = pv
    assert prev in (1, -1), "Weyl matrices invert integrally"
    return tuple(tuple(prev * v for v in row[n:]) for row in aug)


# The start state of obstruction_step_by_reflection: no members, no rows.
REFLECTION_START = ((), ())


def obstruction_step_by_reflection(word, j, state):
    """Reference for diagrams._obstruction_step, the walk rule that reflects
    one root per member; start the walk at REFLECTION_START.

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
        return None, None
    coroot = word.coroot_rows[j - 1]
    out = []
    for g in gs:
        c = sum(a * g[k] for k, a in coroot)
        out.append(_reflect_by(beta, c, g))
    joined_rows = ()
    if __debug__:
        head = element_of_word(word.system, word.letters[: j - 1]).matrix
        for g, row in zip(out, rows):
            assert _apply(head, row) == g, f"gamma mismatch at position {j} over {word}"
        a0 = word.letters[j - 1] - 1
        joined_rows = tuple(dense_simple_image(row, a0, word.system.cartan) for row in rows)
        joined_rows += (word.system.simple_roots[a0],)
    return (tuple(out), rows), (gs + (beta,), joined_rows)


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
        m = dense_right_mul(m, i0, system.cartan)
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
            inv = dense_right_mul(inv, i - 1, system.cartan)
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
        inv = dense_right_mul(inv, i0, system.cartan)
    return tuple(letters)


@pytest.fixture(scope="session")
def a2():
    return system_of("A", 2)


@pytest.fixture(scope="session")
def a3():
    return system_of("A", 3)
