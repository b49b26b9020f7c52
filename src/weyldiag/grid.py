"""Type-A grids: the quantum-matrices word, Le-diagrams, and pipe dreams.

A p x m grid sits over the type A_{p+m-1} word made of m descending runs,
run c being (p+c-1, p+c-2, ..., c).  Box (r, c), row 1 at the top, carries
the linear position (c-1)p + r (column-major) and the letter p + c - r.

Wiring model.  Folding the braid diagram of that word into the grid puts
the two braid levels (p+c-r, p+c-r+1) into box (r, c): the upper level
enters through the north side and leaves east, the lower level enters west
and leaves south.  A filled box keeps its crossing (west-east and
north-south pass straight through); an empty box turns both wires (the
north wire exits east, the west wire exits south).  That forces the
boundary labels

    left edge, row r:     p + 1 - r        (wire entries)
    top edge, column c:   p + c
    right edge, row r:    p + m + 1 - r    (wire exits)
    bottom edge, column c: c

and makes the traced permutation of any filled subset equal to the product
of its letters' transpositions taken from the highest position down, which
is exactly zeta' of the linearized diagram.  The empty grid traces to the
identity and the full grid to the inverse of the word's element.

Rendering: each box is a 3x3 character tile, '+' at the center for a
crossing, '.' for the double turn, with '|' and '-' stubs on all four
sides (every box carries two wires either way); labels are printed along
all four edges.  render_wiring alone states that layout, in _render:
trace_rendered_wiring accepts exactly the text it writes, by reading the
crossings back and rendering them again through _render, which takes the
boxes as read and checks none (the trace placed each inside the grid), and
then walks the wires.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import inf

from .errors import DomainError, UsageError
from .roots import (
    CartanType,
    RootSystem,
    WeylElement,
    _require_acts_on,
    _require_ints,
    root_system,
)
from .words import Word, _parse_ints
from .diagrams import Diagram, _walk


@dataclass(frozen=True)
class GridShape:
    p: int
    m: int

    def __post_init__(self):
        _require_ints((self.p, self.m), 1, inf, "grid side")
        CartanType("A", self.n)  # the rank bound holds for grid words too

    @property
    def n(self) -> int:
        return self.p + self.m - 1

    @property
    def size(self) -> int:
        return self.p * self.m

    @property
    def degenerate(self) -> bool:
        # Single row or column: the word formula still gives a reduced word,
        # but the shape lies outside the usual quantum-matrices range.
        return self.p == 1 or self.m == 1

    def system(self) -> RootSystem:
        return root_system("A", self.n)


@dataclass(frozen=True)
class GridDiagram:
    shape: GridShape
    boxes: frozenset[tuple[int, int]]

    def __post_init__(self):
        # Each box once, as Diagram checks positions: a pair of integers
        # inside the grid, not repeated.
        boxes = set()
        for box in self.boxes:
            try:
                r, c = box
            except (TypeError, ValueError):
                raise DomainError(f"box {box!r} is not a pair") from None
            box_position(self.shape, r, c)
            if (r, c) in boxes:
                raise DomainError(f"box {r},{c} repeated")
            boxes.add((r, c))
        object.__setattr__(self, "boxes", frozenset(boxes))

    def __str__(self) -> str:
        return format_grid(self)


def box_position(shape: GridShape, r: int, c: int) -> int:
    """Column-major linear position of box (r, c), 1-based."""
    _require_ints((r,), 1, shape.p, "box row")
    _require_ints((c,), 1, shape.m, "box column")
    return (c - 1) * shape.p + r


def position_box(shape: GridShape, k: int) -> tuple[int, int]:
    _require_ints((k,), 1, shape.size, "grid position")
    c, r = divmod(k - 1, shape.p)
    return r + 1, c + 1


def quantum_matrices_word(shape: GridShape) -> Word:
    """The m-run word (p+c-1, ..., c for c = 1..m) over A_{p+m-1}."""
    letters = []
    for c in range(1, shape.m + 1):
        letters.extend(range(shape.p + c - 1, c - 1, -1))
    word = Word(shape.system(), tuple(letters))
    assert word.reduced
    return word


def linearize(grid: GridDiagram) -> Diagram:
    word = quantum_matrices_word(grid.shape)
    return Diagram(word, tuple(box_position(grid.shape, r, c) for r, c in grid.boxes))


def grid_from_mask(shape: GridShape, mask: int) -> GridDiagram:
    _require_ints((mask,), 0, (1 << shape.size) - 1, "mask")
    boxes = []
    for k in range(1, shape.size + 1):
        if mask >> (k - 1) & 1:
            boxes.append(position_box(shape, k))
    return GridDiagram(shape, boxes)


def is_le_diagram(grid: GridDiagram) -> bool:
    """Every filled box must have its column filled above it or its row
    filled to its left."""
    boxes = grid.boxes
    for u, v in boxes:
        misses_above = any((i, v) not in boxes for i in range(1, u))
        misses_left = any((u, j) not in boxes for j in range(1, v))
        if misses_above and misses_left:
            return False
    return True


def _le_step(word: Word, j: int, state: tuple[int, int]):
    # Box (r, c), 0-based, sits at position j, so the members after j are
    # the boxes below it in column c and every box to its right.  state is
    # (filled, armed): bit k-1 of filled per member k, and bit r' of armed
    # per row r' that holds a filled box with an empty box above it.  A
    # filling breaks the Le rule where such a row also has an empty box to
    # the left of that filled box.  The box to the left has the smallest
    # position of the three, so it is decided last: j may not be left out of
    # an armed row.  Leaving j out arms the rows below r whose box in column
    # c is filled; joining sets j's bit.  The grid word opens with the run
    # p, ..., 1, so p is its first letter.  The walk starts at (0, 0), the
    # empty filling.
    filled, armed = state
    p = word.letters[0]
    c, r = divmod(j - 1, p)
    joined = filled | 1 << (j - 1), armed
    if armed >> r & 1:
        return None, joined
    return (filled, armed | filled >> c * p & (1 << p) - 1), joined


def _le_walk(shape: GridShape) -> Iterator[tuple[int, ...]]:
    """Linear positions of every Le filling of the grid, in ascending
    bitmask order, one as it is reached, by a pruned walk over suffixes
    (see _le_step) instead of is_le_diagram per mask."""
    return (p for p, _ in _walk(quantum_matrices_word(shape), _le_step, (0, 0)))


def pipe_dream_permutation(grid: GridDiagram) -> tuple[int, ...]:
    """One-line permutation of 1..n+1 built from the filled positions.

    The letters of the filled positions, taken in increasing position
    order (column-major box order), are applied as transpositions (i, i+1)
    from the right; the result is zeta' of the linearized diagram.
    """
    shape = grid.shape
    sigma = list(range(1, shape.n + 2))
    for r, c in sorted(grid.boxes, key=lambda box: box[::-1]):
        e = shape.p + c - r
        i, k = sigma.index(e), sigma.index(e + 1)
        sigma[i], sigma[k] = e + 1, e
    return tuple(sigma)


def one_line(system: RootSystem, w: WeylElement) -> tuple[int, ...]:
    """One-line notation of a type-A element acting on 1..n+1.

    Row i of the matrix is w(alpha_i) = e_{sigma(i)} - e_{sigma(i+1)} in
    the standard basis, recovered by differencing the coefficients.
    """
    if system.ctype.family != "A":
        raise DomainError("one-line notation needs a type A system")
    _require_acts_on(system, w.matrix)
    n = system.rank
    sigma = [0] * (n + 1)
    prev_minus = None
    for i in range(n):
        row = w.matrix[i]
        diffs = [row[0]] + [row[k] - row[k - 1] for k in range(1, n)] + [-row[n - 1]]
        plus = diffs.index(1)
        minus = diffs.index(-1)
        assert sorted(diffs) == [-1] + [0] * (n - 1) + [1]
        if prev_minus is not None:
            assert plus == prev_minus
        sigma[i] = plus + 1
        prev_minus = minus
    sigma[n] = prev_minus + 1
    return tuple(sigma)


# -- text formats -------------------------------------------------------------


def format_grid(grid: GridDiagram) -> str:
    return " ".join(f"{r},{c}" for r, c in sorted(grid.boxes))


def parse_grid(shape: GridShape, text: str) -> GridDiagram:
    boxes = []
    for token in text.split():
        box = _parse_ints(token)
        if len(box) != 2:
            raise UsageError(f"bad grid box {token!r}, expected 'row,col'")
        boxes.append(box)
    return GridDiagram(shape, boxes)


# -- rendering and wire tracing ----------------------------------------------


def render_wiring(grid: GridDiagram) -> str:
    return _render(grid.shape, grid.boxes)


def _render(shape: GridShape, boxes) -> str:
    # render_wiring for boxes already known to lie in the shape, each once.
    p, m = shape.p, shape.m
    gut = len(str(shape.n + 1)) + 1
    # Column c's labels and stubs sit over its tile's center, gut + 3c - 2.
    pad = " " * (gut + 1)
    stub = pad + "|  " * m
    lines = [pad + "".join(str(p + c).ljust(3) for c in range(1, m + 1))]
    for r in range(1, p + 1):
        tiles = "".join("-+-" if (r, c) in boxes else "-.-" for c in range(1, m + 1))
        lines += [stub, f"{str(p + 1 - r).rjust(gut - 1)} {tiles} {p + m + 1 - r}", stub]
    lines.append(pad + "".join(str(c).ljust(3) for c in range(1, m + 1)))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def trace_rendered_wiring(text: str) -> tuple[int, ...]:
    """Walk the wires of a rendering and return the entry-to-exit permutation.

    Accepts exactly the text render_wiring writes: the shape is read off
    the line count (p) and the first row of tiles (m), the crossings off
    the '+' at the tile centers, and the text must then equal the rendering
    of that filling line for line, or UsageError names the first line that
    differs and the line expected there.  A text whose shape lies beyond
    the rank cap cannot be a rendering: GridShape raises InvalidRankError.
    The wires are then walked over the crossings alone: '+' passes both
    wires straight through, '.' turns the north wire east and the west
    wire south.
    """
    lines = text.splitlines(keepends=True)
    if len(lines) < 5 or (len(lines) - 2) % 3:
        raise UsageError("not a wiring rendering")
    p = (len(lines) - 2) // 3
    mids = lines[2::3]  # the rows of tiles, line numbers 3, 6, ...
    gut = mids[0].find("-")
    m = 0
    while mids[0][gut + 3 * m : gut + 3 * m + 3] in ("-+-", "-.-"):
        m += 1
    if gut < 0 or not m:
        raise UsageError("not a wiring rendering")
    boxes = {
        (r, c)
        for r in range(1, p + 1)
        for c in range(1, m + 1)
        if mids[r - 1][gut + 3 * c - 2 : gut + 3 * c - 1] == "+"
    }
    rendered = _render(GridShape(p, m), boxes).splitlines(keepends=True)
    for k, (line, expected) in enumerate(zip(lines, rendered), start=1):
        if line != expected:
            raise UsageError(f"line {k} is {line!r}, expected {expected!r}")

    # Sweep the tiles row by row, carrying the entry label of the wire on
    # each tile's west and north side (row r enters at p + 1 - r, column c
    # at p + c): a turn swaps the two, a crossing passes both straight on.
    # Row r's wire leaves east at p + m + 1 - r, column c's south at c.
    sigma = [0] * (p + m)
    north = list(range(p + 1, p + m + 1))
    for r in range(1, p + 1):
        west = p + 1 - r
        for c in range(1, m + 1):
            if (r, c) not in boxes:
                west, north[c - 1] = north[c - 1], west
        sigma[west - 1] = p + m + 1 - r
    for c, entry in enumerate(north, start=1):
        sigma[entry - 1] = c
    assert sorted(sigma) == list(range(1, p + m + 1))
    return tuple(sigma)


__all__ = [
    "GridShape",
    "GridDiagram",
    "box_position",
    "position_box",
    "quantum_matrices_word",
    "linearize",
    "grid_from_mask",
    "is_le_diagram",
    "pipe_dream_permutation",
    "one_line",
    "format_grid",
    "parse_grid",
    "render_wiring",
    "trace_rendered_wiring",
]
