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
element by a simple reflection on the right updates only the rows listed
in one row of the Cartan matrix, and the simple reflection of one vector
(_simple_image) changes one coordinate by a pairing read off that row,
which keeps sweeps over many diagrams cheap.  No left product of matrices
is built: a caller that acts on the left carries one vector.  RootSystem
keeps the Cartan matrix sparse as well: _cartan_rows[i] lists the nonzero
(j, a[i][j]) of row i and _cartan_cols[j] the nonzero (i, a[i][j]) of
column j, and every product, simple image and descent update reads only
those, at most four entries, never a whole row.

The Coxeter length travels with the matrix.  element_of_word carries it
by the ascent rule, one step of +-1 per letter, and invert keeps it;
compose, the one product not built from letters, counts it as the number
of positive roots sent negative.  That inversion count (_count_inversions)
serves only compose and the subword-product oracle, which verify does not
call: its interval carries its lengths by the sign of a pairing
(diagrams._interval_points), the length rule keeps its own packed heights
and popcount, and the tests compare the oracle with both.
invert reads a reduced word of the element off its left descents and
multiplies it out backwards, so no matrix is ever inverted by elimination.
The ascent rule reads only the heights (row sums) of the matrix, and
height is linear, so a caller that needs the rule and not the element
carries the n heights alone (_simple_update): reducedness and the
extension to w0 in words do, and the matrix is built only for a caller
that reads it.

The inversion count reads the row sums s too: the image height of a root
is its dot product with s.  So the image heights of all N positive roots
are sum_i s_i E_i, where E_i packs the i-th coefficients of the positive
roots into one int, one byte per root (_pack, _height_table).  Every
image height lies in -127..127 (the highest root of B64 and C64 has
height 127, which each RootSystem asserts when it is built), so each
byte holds its height exactly, and adding 128 to every byte sets its top
bit exactly where the height is positive: n big-int products and one
popcount, no loop over the roots.  A caller that carries the packed
image columns of an element, F_k = sum_i m[i][k] E_i (the k-th
coefficients of the images of all N roots), has the packed heights as
sum_k F_k and needs no product at all.

Left descents are read without inverting the matrix.  s_i is a left
descent of u exactly when u^{-1}(alpha_i) < 0, and since 2 rho (the sum of
the positive roots) is regular dominant, that holds exactly when
p_i = <alpha_i^vee, u(2 rho)> < 0; u is the identity exactly when every
p_i equals <alpha_i^vee, 2 rho> = 2 (Humphreys, Reflection Groups and
Coxeter Groups, 1.6-1.7).  Passing from u to s_a u reflects u(2 rho) in
alpha_a, so each p_i drops by a[i][a] p_a: one Cartan column per letter.
By regularity u(2 rho) is a one-to-one key of u (ibid. 1.12): 2 rho dotted
with the columns of the matrix (_orbit_point), or the byte sums of packed
image columns, the images of all N roots summed (_orbit_point_of_columns).

Products of letters carry the same packing row by row: each row of the
matrix, a root, packed one signed byte per coordinate (_pack), beside its
height (_packed_product).  No root coefficient exceeds the highest root's,
at most 6 in absolute value (E8), and each RootSystem asserts that a byte
holds them, so a letter updates each row listed in its Cartan row with one
big-int multiply-subtract and builds no tuple.  element_of_word and
words.root_sequence unpack the rows to tuples once, at the end (_unpack),
and a row no letter touched stays the identity's own tuple.  _right_mul,
the product on tuples, serves only the oracles (diagrams.subword_products,
verify.group_elements), so they share no kernel with what they check.

The positive roots are the closure of the simple roots under raising
reflections: if <alpha_i^vee, beta> = k < 0, then s_i(beta) = beta - k
alpha_i is a higher positive root, and every positive root beta that is
not simple has some i with <alpha_i^vee, beta> > 0, so it is raised from
the lower positive root s_i(beta) (Humphreys, Introduction to Lie Algebras
and Representation Theory, 10.2, Lemmas A and B).  Each root carries its n
pairings and the negative ones among them; s_i(beta) has beta's less k
times one sparse Cartan column.  The closure has no height cap, so it
asserts that it stops within max(n^2, 120) roots: B_n and C_n have n^2
positive roots, the most of any type of rank n, and E8 has 120.

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

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from math import inf
from operator import add, mul, neg
from struct import Struct

from .errors import DomainError, InvalidRankError

RootVector = tuple[int, ...]
IntMatrix = tuple[RootVector, ...]
# The nonzero (index, entry) pairs of each row, or of each column, of a matrix.
SparseLines = tuple[tuple[tuple[int, int], ...], ...]

FAMILIES = "ABCDEFG"

# Classical ranks stop at 64: B64 and C64 (4096 positive roots) build in
# 25-38 ms (Python 3.11.7, 2-core Xeon), one sparse Cartan column per root,
# and a rank far beyond is refused, not left to build without bound.
MAX_CLASSICAL_RANK = 64

_RANK_RULES: dict[str, tuple[int, int, str]] = {
    "A": (1, MAX_CLASSICAL_RANK, f"rank in 1..{MAX_CLASSICAL_RANK}"),
    "B": (2, MAX_CLASSICAL_RANK, f"rank in 2..{MAX_CLASSICAL_RANK}"),
    "C": (2, MAX_CLASSICAL_RANK, f"rank in 2..{MAX_CLASSICAL_RANK}"),
    "D": (3, MAX_CLASSICAL_RANK, f"rank in 3..{MAX_CLASSICAL_RANK}"),
    "E": (6, 8, "rank in {6, 7, 8}"),
    "F": (4, 4, "rank = 4"),
    "G": (2, 2, "rank = 2"),
}


def _require_ints(values, lo: int, hi: int, name: str) -> None:
    """Refuse, with DomainError naming it, any value that is not an int in lo..hi.

    The test is type(x) is int, so a bool (an int subclass) is refused too.
    """
    for x in values:
        if type(x) is not int or not lo <= x <= hi:
            raise DomainError(f"{name} {x!r} is not an integer in {lo}..{hi}")


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        rule = _RANK_RULES.get(self.family)
        if rule is None:
            raise InvalidRankError(self.family, self.rank, f"a family letter in {FAMILIES}")
        lo, hi, allowed = rule
        try:
            _require_ints((self.rank,), lo, hi, "rank")
        except DomainError:
            raise InvalidRankError(self.family, self.rank, allowed) from None

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


def _pack(v: RootVector) -> int:
    # sum_k v[k] << 8k, one signed byte per coordinate.  Packing is linear,
    # so packed vectors add and scale coordinate by coordinate, and it is
    # one-to-one on vectors whose coordinates lie in -128..127, as those of
    # every root do.
    return sum(c << 8 * k for k, c in enumerate(v))


def _simple_image(x: tuple[int, ...], i0: int, rows: SparseLines) -> RootVector:
    # s_i(x): only coordinate i0 changes, by the coroot pairing with x.
    delta = 0
    for j, c in rows[i0]:
        delta += c * x[j]
    if not delta:
        return tuple(x)
    out = list(x)
    out[i0] -= delta
    return tuple(out)


class RootSystem:
    """Immutable root-system data for one Cartan type.

    Positive roots are the closure of the simple roots under raising
    reflections (see the module docstring), ordered by height, then
    lexicographically, so every downstream output is reproducible bit for
    bit; the simple roots come first, alpha_n to alpha_1.  roots, the
    positive roots and their negatives, is built on first read.
    """

    def __init__(self, ctype: CartanType):
        cartan, symmetrizer = _cartan_and_symmetrizer(ctype)
        n = ctype.rank
        self.ctype = ctype
        self.rank = n
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        # The symmetrized form symmetrizer[i] * a[i][j], which _bilinear reads
        # row by row off the sparse Cartan rows, must be symmetric.
        form = [tuple(d * c for c in crow) for d, crow in zip(symmetrizer, cartan)]
        assert form == list(zip(*form)), "form must be symmetric"
        self.simple_roots: tuple[RootVector, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )

        self._cartan_rows: SparseLines = tuple(
            tuple((j, c) for j, c in enumerate(crow) if c) for crow in cartan
        )
        self._cartan_cols: SparseLines = tuple(
            tuple((i, crow[j]) for i, crow in enumerate(cartan) if crow[j]) for j in range(n)
        )
        # Every product reads these, so checks built on products would all
        # agree with one another over a wrong entry: compare them here, once.
        assert (
            sorted((i, j, c) for i, row in enumerate(self._cartan_rows) for j, c in row)
            == sorted((i, j, c) for j, col in enumerate(self._cartan_cols) for i, c in col)
            == [(i, j, c) for i, crow in enumerate(cartan) for j, c in enumerate(crow) if c]
        ), "sparse Cartan rows and columns must rebuild the Cartan matrix"

        # Raising reflections (see the module docstring).  Each frontier root
        # x carries its height, its n pairings <alpha_j^vee, x> and {i: k}
        # for the negative ones; s_i(x) = x - k alpha_i is a higher root,
        # and its pairings are x's less k times Cartan column i.  levels[h]
        # lists the roots of height h, each once, so that the order by
        # height, then lexicographically, sorts each height on its own.
        cols = self._cartan_cols
        bound = max(n * n, 120)
        found = set(self.simple_roots)
        levels: dict[int, list[RootVector]] = {1: list(self.simple_roots)}
        frontier = [
            (x, 1, list(col), {j: c for j, c in enumerate(col) if c < 0})
            for x, col in zip(self.simple_roots, zip(*cartan))
        ]
        while frontier:
            x, h, pair, negative = frontier.pop()
            for i, k in negative.items():
                up = x[:i] + (x[i] - k,) + x[i + 1 :]
                if up in found:
                    continue
                found.add(up)
                assert len(found) <= bound, "raising reflections must close within the bound"
                levels.setdefault(h - k, []).append(up)
                up_pair, up_negative = pair.copy(), negative.copy()
                _simple_update(up_pair, i, cols)
                for j, _ in cols[i]:
                    if up_pair[j] < 0:
                        up_negative[j] = up_pair[j]
                    else:
                        up_negative.pop(j, None)
                frontier.append((up, h - k, up_pair, up_negative))
        positive = [x for h in sorted(levels) for x in sorted(levels[h])]

        # Products carry each row packed one signed byte per coordinate
        # (_packed_product); every row is a root, and the highest root bounds
        # the coefficients of every root, 6 at most (E8).  The packed image
        # heights (_height_table) and the completion rule's lanes
        # (Word.completion_table) hold one root height per signed byte, and
        # the highest root's height bounds them all, 127 at most (B64, C64).
        assert max(positive[-1]) < 128, "root coefficients must fit a signed byte"
        assert sum(positive[-1]) < 128, "root heights must fit a signed byte"
        self._packed_identity = tuple(map(_pack, self.simple_roots))
        self._byte_bias = int.from_bytes(b"\x80" * n, "little")
        self._signed_bytes = Struct(f"<{n}b")
        self.positive_roots: tuple[RootVector, ...] = tuple(positive)
        self.num_positive_roots = len(positive)
        self.two_rho: RootVector = tuple(map(sum, zip(*positive)))
        self.warnings: tuple[str, ...] = ()
        if ctype.family == "D" and ctype.rank == 3:
            self.warnings = ("D3 is isomorphic to A3; accepted for cross-checks only",)

    @cached_property
    def roots(self) -> frozenset[RootVector]:
        """The positive roots and their negatives, read only by
        coroot_pairing to reject a beta that is not a root."""
        positive = self.positive_roots
        return frozenset(positive).union(tuple(map(neg, x)) for x in positive)

    @cached_property
    def _height_table(self) -> tuple[tuple[int, ...], int]:
        """(E, mask) for the inversion count (see the module docstring):
        E[i] packs the i-th coefficients of the positive roots, one byte per
        root, and mask holds the top bit of every byte."""
        columns = tuple(int.from_bytes(bytes(col), "little") for col in zip(*self.positive_roots))
        return columns, int.from_bytes(b"\x80" * self.num_positive_roots, "little")

    @cached_property
    def _exponents(self) -> tuple[int, ...]:
        """The exponents e_1 >= ... >= e_n of the Weyl group, so that
        |W| = prod (e_i + 1): the dual partition of the numbers of positive
        roots of each height, e_j being the number of heights that hold at
        least j roots (Kostant; Humphreys, Reflection Groups and Coxeter
        Groups, 3.20).  Read by verify.group_order."""
        counts = Counter(map(sum, self.positive_roots)).values()
        return tuple(sum(c >= j for c in counts) for j in range(1, self.rank + 1))

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype})"


_SYSTEMS: dict[CartanType, RootSystem] = {}


def build_root_system(ctype: CartanType) -> RootSystem:
    """Return the (cached, immutable) root system for a valid Cartan type."""
    system = _SYSTEMS.get(ctype)
    if system is None:
        system = _SYSTEMS[ctype] = RootSystem(ctype)
    return system


def root_system(family: str, rank: int) -> RootSystem:
    return build_root_system(CartanType(family, rank))


def _require_rank(x: RootVector, rank: int) -> None:
    # zip would silently truncate a vector of another length, and the
    # arithmetic would carry a float or a bool coordinate along.
    if len(x) != rank:
        raise DomainError(f"vector of length {len(x)} does not match rank {rank}")
    _require_ints(x, -inf, inf, "coordinate")


def bilinear(system: RootSystem, x: RootVector, y: RootVector) -> int:
    _require_rank(x, system.rank)
    _require_rank(y, system.rank)
    return _bilinear(system, x, y)


def _bilinear(system: RootSystem, x: RootVector, y: RootVector) -> int:
    # x . form . y, where form[i][j] = symmetrizer[i] * a[i][j]: row i of the
    # form is sparse Cartan row i scaled.  Unchecked: for vectors the
    # library built.
    rows, d = system._cartan_rows, system.symmetrizer
    return sum(xi * d[i] * sum(c * y[j] for j, c in rows[i]) for i, xi in enumerate(x) if xi)


def coroot_pairing(system: RootSystem, beta: RootVector, x: RootVector) -> int:
    """(beta^vee, x) for beta in the root system and x in the root lattice."""
    beta = tuple(beta)
    if beta not in system.roots:
        raise DomainError(f"{beta} is not a root of {system.ctype}")
    _require_rank(beta, system.rank)
    _require_rank(x, system.rank)
    return _coroot_pairing(system, beta, x)


def _coroot_pairing(system: RootSystem, beta: RootVector, x: RootVector) -> int:
    # coroot_pairing without its checks, for a beta the library built as a
    # root; the integrality is still asserted.
    num = _bilinear(system, beta, x)
    d = _bilinear(system, beta, beta) // 2
    assert num % d == 0, "coroot pairing must be integral on the root lattice"
    return num // d


def reflect(system: RootSystem, beta: RootVector, x: RootVector) -> RootVector:
    """Image of x under the reflection in beta: x - (beta^vee, x) beta."""
    return _reflect_by(beta, coroot_pairing(system, beta, x), x)


def _reflect_by(beta: RootVector, k: int, x: RootVector) -> RootVector:
    # x - k beta, for a caller that already holds k = (beta^vee, x).
    return tuple([xi - k * bi for xi, bi in zip(x, beta)]) if k else tuple(x)


# -- Weyl group elements ----------------------------------------------------


@dataclass(frozen=True)
class WeylElement:
    """Group element as its action matrix plus cached Coxeter length."""

    matrix: IntMatrix
    length: int


@cache
def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def _right_mul(m: IntMatrix, a0: int, rows: SparseLines) -> IntMatrix:
    # Matrix of (elem . s_a): new row j = row j - a[a0][j] * row a0, so only
    # the rows listed in Cartan row a0 change; the others stay shared.  The
    # entry is 2 only on the diagonal, where the new row is -row a0; off it
    # the entry is most often -1, and the new row a plain sum.  Only the
    # oracles (subword_products, group_elements) multiply by it: products of
    # words go through _packed_product, so the two share no kernel.
    arow = m[a0]
    out = list(m)
    for j, c in rows[a0]:
        if c == -1:
            out[j] = tuple(map(add, m[j], arow))
        elif c == 2:
            out[j] = tuple(map(neg, arow))
        else:
            out[j] = tuple([v - c * w for v, w in zip(m[j], arow)])
    return tuple(out)


def _packed_product(system: RootSystem, letters) -> tuple[list[int], list[tuple[int, int]]]:
    # The rows of s_{a_1} ... s_{a_t}, each packed into one int (_pack),
    # beside their heights.  Letter a takes row j to row j - c * row a for
    # each (j, c) in Cartan row a, as _right_mul does, with one big-int
    # multiply-subtract and no tuple built.  Returns the packed rows and,
    # for each letter, row a and its height before the letter joins: the
    # packed beta_k and its sign.
    rows = system._cartan_rows
    packed = list(system._packed_identity)
    heights = [1] * system.rank
    steps = []
    for i in letters:
        x, h = packed[i - 1], heights[i - 1]
        steps.append((x, h))
        for j, c in rows[i - 1]:
            packed[j] -= c * x
            heights[j] -= c * h
    return packed, steps


def _unpack(system: RootSystem, x: int) -> RootVector:
    # The n coordinates of a packed vector.  Adding 128 to each byte leaves
    # no negative byte to borrow from the next, the xor takes each byte back
    # to its coordinate mod 256, and n signed bytes read it.
    bias = system._byte_bias
    return system._signed_bytes.unpack(((x + bias) ^ bias).to_bytes(system.rank, "little"))


def _apply(m: IntMatrix, x: RootVector) -> RootVector:
    n = len(x)
    acc = [0] * n
    for xi, row in zip(x, m):
        if xi:
            for k in range(n):
                acc[k] += xi * row[k]
    return tuple(acc)


def _count_inversions(system: RootSystem, m: IntMatrix) -> int:
    # Image of a root is a root, so the sign of its height (coefficient sum)
    # decides, and that height is linear in the root, with the row sums of
    # m as weights: mask + sum_i s_i E_i holds each image height plus 128 in
    # its own byte (see the module docstring).
    columns, mask = system._height_table
    heights = sum(map(mul, map(sum, m), columns), mask)
    return system.num_positive_roots - (heights & mask).bit_count()


def _require_acts_on(system: RootSystem, m: IntMatrix) -> None:
    # The products read m by system's Cartan indices, which would silently
    # truncate or overrun a matrix of another size.
    if len(m) != system.rank:
        raise DomainError(
            f"element of rank {len(m)} does not act on {system.ctype} (rank {system.rank})"
        )


def _orbit_point(system: RootSystem, m: IntMatrix) -> RootVector:
    # u(2 rho) for the element u with matrix m: coordinate k is 2 rho dotted
    # with column k of m.
    _require_acts_on(system, m)
    two_rho = system.two_rho
    return tuple([sum(map(mul, two_rho, col)) for col in zip(*m)])


def _orbit_point_of_columns(system: RootSystem, columns) -> RootVector:
    # u(2 rho) from the packed image columns of u: coordinate k sums the
    # signed bytes of F_k over the images of all N roots, each byte raised
    # by 128 so that a negative one borrows nothing from the next.
    nbytes = system.num_positive_roots
    mask = system._height_table[1]
    return tuple([sum((f + mask).to_bytes(nbytes, "little")) - 128 * nbytes for f in columns])


def _descent_pairings(system: RootSystem, x: RootVector) -> list[int]:
    # p_i = <alpha_i^vee, x> over sparse Cartan row i.  At x = u(2 rho) it is
    # negative exactly when s_i is a left descent of u, and all 2 exactly
    # when u = e (see the module docstring).
    p = []
    for row in system._cartan_rows:
        v = 0
        for j, c in row:
            v += c * x[j]
        p.append(v)
    return p


def _simple_update(v: list[int], a0: int, lines: SparseLines) -> None:
    # v[k] -= c * v[a0] in place for each (k, c) in lines[a0].  Over the
    # Cartan rows it takes the heights (row sums) of m to those of m s_a:
    # height is linear, and row k of m s_a is row k - a[a0][k] * row a0.
    # Over the Cartan columns it takes the descent pairings of u to those of
    # s_a u: u(2 rho) loses p_a alpha_a, so p_i drops by a[i][a0] p_a.
    va = v[a0]
    for k, c in lines[a0]:
        v[k] -= c * va


def _left_descents(system: RootSystem, m: IntMatrix, bound: int) -> tuple[list[int], list[int]]:
    # Strips the smallest left descent, u <- s_i u, at most bound times (see
    # the module docstring).  Returns the letters stripped and the pairings
    # left, which are all 2 exactly when the residual is the identity.
    p = _descent_pairings(system, _orbit_point(system, m))
    letters: list[int] = []
    for _ in range(bound):
        i0 = next((i for i, v in enumerate(p) if v < 0), -1)
        if i0 < 0:
            break
        letters.append(i0 + 1)
        _simple_update(p, i0, system._cartan_cols)
    return letters, p


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
    letters = tuple(letters)
    _require_ints(letters, 1, system.rank, "simple-root index")
    packed, steps = _packed_product(system, letters)
    # A row no letter's Cartan row lists is still the identity's own.
    m = list(_identity_matrix(system.rank))
    rows = system._cartan_rows
    for j in {j for i in set(letters) for j, _ in rows[i - 1]}:
        m[j] = _unpack(system, packed[j])
    return WeylElement(tuple(m), sum(1 if h > 0 else -1 for _, h in steps))


def apply_element(w: WeylElement, x: RootVector) -> RootVector:
    _require_rank(x, len(w.matrix))
    return _apply(w.matrix, x)


def invert(w: WeylElement) -> WeylElement:
    """w^{-1}: a reduced word of w, multiplied out backwards.

    A WeylElement does not name its root system, but its inverse is a fact
    about the matrix alone, so any system of its rank whose group holds w at
    its carried length gives it.  The word is the greedy left-descent word
    of w in such a system, at most w.length letters long; a system qualifies
    when that word multiplies out to w, length included, which proves
    w = s_{i_1} ... s_{i_l} there with l = w.length.  Systems already built
    are tried first, so the usual call builds none.
    """
    n = len(w.matrix)
    types = [CartanType(f, n) for f, (lo, hi, _) in _RANK_RULES.items() if lo <= n <= hi]
    for ctype in sorted(types, key=lambda ctype: ctype not in _SYSTEMS):
        system = build_root_system(ctype)
        letters = _left_descents(system, w.matrix, w.length)[0]
        if element_of_word(system, letters) == w:
            return element_of_word(system, letters[::-1])
    raise DomainError(f"no root system of rank {n} holds this matrix at length {w.length}")


def compose(system: RootSystem, w: WeylElement, u: WeylElement) -> WeylElement:
    """w . u, with u applied first: row i is w applied to u(alpha_i)."""
    _require_acts_on(system, w.matrix)
    _require_acts_on(system, u.matrix)
    prod = tuple(_apply(w.matrix, row) for row in u.matrix)
    return WeylElement(prod, _count_inversions(system, prod))


__all__ = [
    "CartanType",
    "RootSystem",
    "RootVector",
    "WeylElement",
    "apply_element",
    "bilinear",
    "build_root_system",
    "compose",
    "coroot_pairing",
    "element_of_word",
    "identity_element",
    "invert",
    "reflect",
    "root_system",
    "simple_reflection",
]
