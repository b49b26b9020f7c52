"""Finite irreducible root systems with exact integer Weyl-group arithmetic.

Roots are integer coefficient vectors over the simple-root basis.  The
symmetrized bilinear form is normalized so that short roots have squared
norm 2; with that normalization every form value on the root lattice is an
integer and so is every coroot pairing (beta^vee, x) = (beta, x) / d_beta,
where d_beta = ||beta||^2 / 2 lies in {1, 2, 3}.  Integrality is asserted
at runtime rather than trusted.

A Weyl group element is stored as the n x n integer matrix whose row i
holds the coefficients of the image of the i-th simple root.  The action
on a coefficient vector x is the row-vector product x @ M, so the matrix
of a composition w . u ("u first, then w") is M_u @ M_w.  Multiplying an
element by a simple reflection on either side is a sparse row or column
update driven by one row of the Cartan matrix, which keeps sweeps over
many diagrams cheap.

The Coxeter length travels with the matrix.  element_of_word carries it
by the ascent rule, one step of +-1 per letter, and invert keeps it;
compose, the one product not built from letters, counts it as the number
of positive roots sent negative.  That inversion count is otherwise left
to the checks, as the independent length oracle.

Simple roots are numbered 1..n following Bourbaki:

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n          (alpha_n short)
    C_n   1 - 2 - ... - (n-1) <= n          (alpha_n long)
    D_n   chain 1 .. n-1, with n attached to n-2
    E_n   chain 1 - 3 - 4 - ... - n, with 2 attached to 4
    F_4   1 - 2 => 3 - 4                    (alpha_3, alpha_4 short)
    G_2   1 <= 2                            (alpha_1 short)

The Cartan matrix convention is a[i][j] = (alpha_i^vee, alpha_j), so the
simple reflection acts by s_i(alpha_j) = alpha_j - a[i][j] alpha_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InvalidRankError

RootVector = tuple[int, ...]
IntMatrix = tuple[RootVector, ...]

FAMILIES = "ABCDEFG"

_RANK_RULES: dict[str, tuple[int, int | None, str]] = {
    "A": (1, None, "rank >= 1"),
    "B": (2, None, "rank >= 2"),
    "C": (2, None, "rank >= 2"),
    "D": (3, None, "rank >= 3"),
    "E": (6, 8, "rank in {6, 7, 8}"),
    "F": (4, 4, "rank = 4"),
    "G": (2, 2, "rank = 2"),
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        rule = _RANK_RULES.get(self.family)
        if rule is None:
            raise InvalidRankError(self.family, self.rank, f"a family letter in {FAMILIES}")
        lo, hi, allowed = rule
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRankError(self.family, self.rank, allowed)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_and_symmetrizer(ctype: CartanType) -> tuple[IntMatrix, tuple[int, ...]]:
    n, fam = ctype.rank, ctype.family
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int) -> None:
        a[i][j] = a[j][i] = -1

    if fam in "ABC":
        for i in range(n - 1):
            link(i, i + 1)
        if fam == "B":
            a[n - 1][n - 2] = -2
        elif fam == "C":
            a[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for x, y in zip(chain, chain[1:]):
            link(x - 1, y - 1)
        link(1, 3)
    elif fam == "F":
        link(0, 1)
        link(1, 2)
        link(2, 3)
        a[2][1] = -2
    else:  # G
        a[0][1] = -3
        a[1][0] = -1

    if fam in "ADE":
        d = [1] * n
    elif fam == "B":
        d = [2] * (n - 1) + [1]
    elif fam == "C":
        d = [1] * (n - 1) + [2]
    elif fam == "F":
        d = [2, 2, 1, 1]
    else:  # G
        d = [1, 3]
    return tuple(tuple(row) for row in a), tuple(d)


def _simple_image(x: tuple[int, ...], i0: int, cartan: IntMatrix) -> RootVector:
    # s_i(x): only coordinate i0 changes, by the coroot pairing with x.
    crow = cartan[i0]
    delta = sum(c * v for c, v in zip(crow, x) if c)
    if not delta:
        return tuple(x)
    out = list(x)
    out[i0] -= delta
    return tuple(out)


class RootSystem:
    """Immutable root-system data for one Cartan type.

    Positive roots are generated by closing the simple roots under all
    simple reflections and keeping the nonnegative orbit; they are ordered
    by height, then lexicographically, so every downstream output is
    reproducible bit for bit.
    """

    def __init__(self, ctype: CartanType):
        cartan, symmetrizer = _cartan_and_symmetrizer(ctype)
        n = ctype.rank
        self.ctype = ctype
        self.rank = n
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        self.form: IntMatrix = tuple(
            tuple(symmetrizer[i] * cartan[i][j] for j in range(n)) for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                assert self.form[i][j] == self.form[j][i], "form must be symmetric"
        self.simple_roots: tuple[RootVector, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )

        all_roots: set[RootVector] = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            fresh = []
            for x in frontier:
                for i0 in range(n):
                    y = _simple_image(x, i0, cartan)
                    if y not in all_roots:
                        all_roots.add(y)
                        fresh.append(y)
            frontier = fresh

        positive = [x for x in all_roots if all(c >= 0 for c in x)]
        negative = [x for x in all_roots if all(c <= 0 for c in x)]
        assert len(positive) + len(negative) == len(all_roots), "mixed-sign root"
        assert len(positive) == len(negative)
        positive.sort(key=lambda x: (sum(x), x))
        self.positive_roots: tuple[RootVector, ...] = tuple(positive)
        self.num_positive_roots = len(positive)
        self.roots: frozenset[RootVector] = frozenset(all_roots)
        self.warnings: tuple[str, ...] = ()
        if ctype.family == "D" and ctype.rank == 3:
            self.warnings = ("D3 is isomorphic to A3; accepted for cross-checks only",)

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype})"

    def check_letter(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise DomainError(f"simple-root index {i} out of range 1..{self.rank}")


_SYSTEMS: dict[CartanType, RootSystem] = {}


def build_root_system(ctype: CartanType) -> RootSystem:
    """Return the (cached, immutable) root system for a valid Cartan type."""
    system = _SYSTEMS.get(ctype)
    if system is None:
        system = _SYSTEMS[ctype] = RootSystem(ctype)
    return system


def root_system(family: str, rank: int) -> RootSystem:
    return build_root_system(CartanType(family, rank))


def bilinear(system: RootSystem, x: RootVector, y: RootVector) -> int:
    form = system.form
    return sum(xi * sum(f * yj for f, yj in zip(frow, y)) for xi, frow in zip(x, form) if xi)


def coroot_pairing(system: RootSystem, beta: RootVector, x: RootVector) -> int:
    """(beta^vee, x) for beta in the root system and x in the root lattice."""
    num = bilinear(system, beta, x)
    d = bilinear(system, beta, beta) // 2
    assert num % d == 0, "coroot pairing must be integral on the root lattice"
    return num // d


def reflect(system: RootSystem, beta: RootVector, x: RootVector) -> RootVector:
    """Image of x under the reflection in beta: x - (beta^vee, x) beta."""
    beta = tuple(beta)
    if beta not in system.roots:
        raise DomainError(f"{beta} is not a root of {system.ctype}")
    k = coroot_pairing(system, beta, x)
    if not k:
        return tuple(x)
    return tuple(xi - k * bi for xi, bi in zip(x, beta))


# -- Weyl group elements ----------------------------------------------------


@dataclass(frozen=True)
class WeylElement:
    """Group element as its action matrix plus cached Coxeter length."""

    matrix: IntMatrix
    length: int


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def _right_mul(m: IntMatrix, a0: int, cartan: IntMatrix) -> IntMatrix:
    # Matrix of (elem . s_a): new row j = row j - a[a0][j] * row a0.
    crow = cartan[a0]
    arow = m[a0]
    return tuple(
        tuple(v - c * w for v, w in zip(row, arow)) if (c := crow[j]) else row
        for j, row in enumerate(m)
    )


def _left_mul(m: IntMatrix, a0: int, cartan: IntMatrix) -> IntMatrix:
    # Matrix of (s_a . elem): apply s_a to every row vector (coordinate a0 update).
    crow = cartan[a0]
    out = []
    for row in m:
        delta = sum(c * v for c, v in zip(crow, row) if c)
        if delta:
            row = row[:a0] + (row[a0] - delta,) + row[a0 + 1 :]
        out.append(row)
    return tuple(out)


def _apply(m: IntMatrix, x: RootVector) -> RootVector:
    n = len(x)
    acc = [0] * n
    for xi, row in zip(x, m):
        if xi:
            for k in range(n):
                acc[k] += xi * row[k]
    return tuple(acc)


def _count_inversions(system: RootSystem, m: IntMatrix) -> int:
    # Image of a root is a root, so the sign of the coefficient sum decides;
    # that sum is the root's dot product with the row sums of m.
    sums = [sum(row) for row in m]
    return sum(
        1 for beta in system.positive_roots
        if sum(b * s for b, s in zip(beta, sums) if b) < 0
    )


def _invert_matrix(m: IntMatrix) -> IntMatrix:
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


def identity_element(system: RootSystem) -> WeylElement:
    return WeylElement(_identity_matrix(system.rank), 0)


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    return element_of_word(system, (i,))


def element_of_word(system: RootSystem, letters) -> WeylElement:
    """Product s_{alpha_1} . ... . s_{alpha_t}; the empty word is the identity.

    The length is carried letter by letter: l(m s_i) = l(m) + 1 when
    m(alpha_i) > 0 and l(m) - 1 otherwise, which is exact for any word,
    reduced or not.
    """
    m = _identity_matrix(system.rank)
    ell = 0
    for i in letters:
        system.check_letter(i)
        ell += 1 if sum(m[i - 1]) > 0 else -1
        m = _right_mul(m, i - 1, system.cartan)
    return WeylElement(m, ell)


def apply_element(w: WeylElement, x: RootVector) -> RootVector:
    return _apply(w.matrix, x)


def invert(w: WeylElement) -> WeylElement:
    return WeylElement(_invert_matrix(w.matrix), w.length)


def compose(system: RootSystem, w: WeylElement, u: WeylElement) -> WeylElement:
    """w . u, with u applied first."""
    mu, mw = u.matrix, w.matrix
    n = len(mu)
    prod = tuple(
        tuple(sum(mu[i][k] * mw[k][j] for k in range(n) if mu[i][k]) for j in range(n))
        for i in range(n)
    )
    return WeylElement(prod, _count_inversions(system, prod))
