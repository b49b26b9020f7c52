import re
from math import factorial

import pytest

from weyldiag import (
    DomainError,
    GridDiagram,
    GridShape,
    InvalidRankError,
    UsageError,
    box_position,
    element_of_word,
    format_grid,
    grid_from_mask,
    invert,
    is_le_diagram,
    is_positive,
    linearize,
    one_line,
    parse_grid,
    pipe_dream_permutation,
    position_box,
    quantum_matrices_word,
    render_wiring,
    trace_rendered_wiring,
    zeta_prime,
)
from weyldiag.grid import _le_walk

from conftest import system_of


def grid(p, m, *boxes):
    return GridDiagram(GridShape(p, m), frozenset(boxes))


def all_grids(shape):
    return [grid_from_mask(shape, mask) for mask in range(1 << shape.size)]


@pytest.mark.parametrize("p,m,letters", [
    (2, 2, (2, 1, 3, 2)),
    (2, 3, (2, 1, 3, 2, 4, 3)),
    (3, 2, (3, 2, 1, 4, 3, 2)),
    (1, 3, (1, 2, 3)),
    (3, 1, (3, 2, 1)),
])
def test_quantum_matrices_word(p, m, letters):
    word = quantum_matrices_word(GridShape(p, m))
    assert word.letters == letters
    assert word.system.ctype.rank == p + m - 1
    assert word.reduced


def test_shape_validation():
    with pytest.raises(DomainError):
        GridShape(0, 2)
    with pytest.raises(InvalidRankError):
        GridShape(40, 26)  # A65
    with pytest.raises(InvalidRankError):
        GridShape(65, 1)  # the sides have no upper bound of their own
    assert GridShape(40, 25).n == 64
    assert GridShape(1, 4).degenerate
    assert not GridShape(2, 2).degenerate


def test_column_major_label_map():
    shape = GridShape(3, 2)
    assert box_position(shape, 1, 1) == 1
    assert box_position(shape, 3, 1) == 3
    assert box_position(shape, 1, 2) == 4
    assert box_position(shape, 3, 2) == 6
    for k in range(1, shape.size + 1):
        assert box_position(shape, *position_box(shape, k)) == k
    with pytest.raises(DomainError):
        box_position(shape, 4, 1)


def test_grid_box_validation():
    with pytest.raises(DomainError):
        grid(2, 2, (3, 1))
    # Each box is checked as given: int() would read (1.9, 2) as (1, 2),
    # a frozenset would drop the repeat, and a box must be a pair.
    for boxes in ([(1, 2), (1, 2)], [(1.9, 2)], [("2", "2")], [(1, 2, 3)], [1]):
        with pytest.raises(DomainError):
            GridDiagram(GridShape(2, 2), boxes)


def test_le_examples():
    assert not is_le_diagram(grid(2, 2, (2, 2)))
    assert is_le_diagram(grid(2, 2, (2, 2), (1, 2)))
    assert is_le_diagram(grid(2, 2))
    assert is_le_diagram(grid(2, 2, (1, 1), (1, 2), (2, 1), (2, 2)))


def test_le_count_2x2_is_14():
    shape = GridShape(2, 2)
    assert sum(is_le_diagram(g) for g in all_grids(shape)) == 14


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (1, 4), (3, 3)])
def test_le_walk_lists_the_le_fillings_in_mask_order(p, m):
    shape = GridShape(p, m)
    expected = [linearize(g).positions for g in all_grids(shape) if is_le_diagram(g)]
    assert list(_le_walk(shape)) == expected


def stirling2(n, k):
    table = [[1] + [0] * k]
    for i in range(1, n + 1):
        prev = table[-1]
        table.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, k + 1)])
    return table[n][k]


def poly_bernoulli(p, m):
    """B_p^(-m) = sum_k (k!)^2 S(p+1, k+1) S(m+1, k+1), with S the Stirling
    numbers of the second kind (Kaneko 1997)."""
    return sum(
        factorial(k) ** 2 * stirling2(p + 1, k + 1) * stirling2(m + 1, k + 1)
        for k in range(min(p, m) + 1)
    )


def test_le_walk_counts_are_poly_bernoulli_numbers():
    # The p x m Le-diagrams number B_p^(-m) (Launois, J. Algebra 2007).
    assert poly_bernoulli(2, 2) == 14 and poly_bernoulli(4, 5) == 41506
    for p in range(1, 5):
        for m in range(1, 6):
            assert len(list(_le_walk(GridShape(p, m)))) == poly_bernoulli(p, m), (p, m)


def test_grid_from_mask_rejects_masks_outside_the_grid():
    shape = GridShape(2, 2)
    for mask in (-1, 1 << shape.size):
        with pytest.raises(DomainError):
            grid_from_mask(shape, mask)
    full = grid(2, 2, (1, 1), (1, 2), (2, 1), (2, 2))
    assert grid_from_mask(shape, (1 << shape.size) - 1) == full


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (1, 4)])
def test_le_equals_positive_exhaustively(p, m):
    shape = GridShape(p, m)
    for g in all_grids(shape):
        assert is_le_diagram(g) == is_positive(linearize(g))


def test_pipe_dream_anchor_values():
    shape = GridShape(2, 2)
    assert pipe_dream_permutation(grid(2, 2)) == (1, 2, 3, 4)
    assert pipe_dream_permutation(
        grid(2, 2, (1, 1), (1, 2), (2, 1), (2, 2))
    ) == (3, 4, 1, 2)
    assert pipe_dream_permutation(grid(2, 2, (2, 1))) == (2, 1, 3, 4)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_pipe_dream_full_grid_is_inverse_of_word_element(p, m):
    shape = GridShape(p, m)
    word = quantum_matrices_word(shape)
    full = grid_from_mask(shape, (1 << shape.size) - 1)
    assert pipe_dream_permutation(full) == one_line(shape.system(), invert(word.element))
    empty = grid_from_mask(shape, 0)
    assert pipe_dream_permutation(empty) == tuple(range(1, shape.n + 2))


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_pipe_dream_matches_zeta_prime_for_all_subsets(p, m):
    shape = GridShape(p, m)
    system = shape.system()
    for g in all_grids(shape):
        assert pipe_dream_permutation(g) == one_line(system, zeta_prime(linearize(g)))


def test_one_line_basics(a3):
    assert one_line(a3, element_of_word(a3, ())) == (1, 2, 3, 4)
    assert one_line(a3, element_of_word(a3, (2,))) == (1, 3, 2, 4)
    with pytest.raises(DomainError):
        one_line(system_of("B", 2), element_of_word(system_of("B", 2), ()))


@pytest.mark.parametrize("rank,letters", [(4, (4,)), (2, (1,)), (4, (3, 4))])
def test_one_line_rejects_an_element_of_another_rank(a3, rank, letters):
    # Read by A3's rows, s_4 of A4 looks like the identity, an A2 element
    # runs out of rows, and A4 (3, 4) has a row with no +1 coefficient.
    w = element_of_word(system_of("A", rank), letters)
    message = rf"^element of rank {rank} does not act on A3 \(rank 3\)$"
    with pytest.raises(DomainError, match=message):
        one_line(a3, w)


def test_one_line_matches_transposition_composition(a3):
    # Independent route: the word's last letter acts first, so compose the
    # (i, i+1) swaps over the reversed word.
    from conftest import random_reduced_words

    def perm_of_word(letters, size):
        sigma = list(range(1, size + 1))
        for e in reversed(letters):
            sigma = [e + 1 if v == e else e if v == e + 1 else v for v in sigma]
        return tuple(sigma)

    for word in random_reduced_words(a3, 12, 6, seed=41):
        assert one_line(a3, word.element) == perm_of_word(word.letters, 4)


GOLDEN_EMPTY_1X1 = (
    "   2\n"
    "   |\n"
    "1 -.- 2\n"
    "   |\n"
    "   1\n"
)

GOLDEN_FULL_1X1 = (
    "   2\n"
    "   |\n"
    "1 -+- 2\n"
    "   |\n"
    "   1\n"
)

GOLDEN_FULL_2X2 = (
    "   3  4\n"
    "   |  |\n"
    "2 -+--+- 4\n"
    "   |  |\n"
    "   |  |\n"
    "1 -+--+- 3\n"
    "   |  |\n"
    "   1  2\n"
)

# 11 wires: two-digit labels on the top and right edges, and a left gutter
# wide enough for them.
GOLDEN_3X8 = (
    "    4  5  6  7  8  9  10 11\n"
    "    |  |  |  |  |  |  |  |\n"
    " 3 -+--.--.--.--+--.--.--+- 11\n"
    "    |  |  |  |  |  |  |  |\n"
    "    |  |  |  |  |  |  |  |\n"
    " 2 -.--+--+--.--.--.--.--.- 10\n"
    "    |  |  |  |  |  |  |  |\n"
    "    |  |  |  |  |  |  |  |\n"
    " 1 -.--.--.--.--.--+--.--+- 9\n"
    "    |  |  |  |  |  |  |  |\n"
    "    1  2  3  4  5  6  7  8\n"
)


def test_render_golden_files():
    assert render_wiring(grid(1, 1)) == GOLDEN_EMPTY_1X1
    assert render_wiring(grid(1, 1, (1, 1))) == GOLDEN_FULL_1X1
    assert render_wiring(
        grid(2, 2, (1, 1), (1, 2), (2, 1), (2, 2))
    ) == GOLDEN_FULL_2X2
    filled = grid(3, 8, (1, 1), (2, 2), (2, 3), (1, 5), (3, 6), (1, 8), (3, 8))
    assert render_wiring(filled) == GOLDEN_3X8
    assert pipe_dream_permutation(filled) == (1, 2, 3, 5, 4, 7, 9, 6, 8, 11, 10)


def test_render_charset_and_trailing_newline():
    for mask in range(16):
        text = render_wiring(grid_from_mask(GridShape(2, 2), mask))
        assert text.endswith("\n")
        assert set(text) <= set("|-+. \n0123456789")


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (1, 3), (3, 1)])
def test_trace_of_rendering_reproduces_permutation(p, m):
    shape = GridShape(p, m)
    for g in all_grids(shape):
        assert trace_rendered_wiring(render_wiring(g)) == pipe_dream_permutation(g)


def test_trace_handles_two_digit_labels():
    import random

    rng = random.Random(47)
    # 11 wires, and the rank-cap shape: 65 wires, labels up to 65.
    for shape in (GridShape(5, 6), GridShape(32, 33)):
        masks = [0, (1 << shape.size) - 1] + [rng.randrange(1 << shape.size) for _ in range(10)]
        for mask in masks:
            g = grid_from_mask(shape, mask)
            assert trace_rendered_wiring(render_wiring(g)) == pipe_dream_permutation(g)


@pytest.mark.parametrize("p,m", [(1, 4), (4, 1), (5, 6), (32, 33)])
def test_render_labels_each_edge_as_the_module_docstring_says(p, m):
    # The trace checks a text by rendering it again, so the labels are
    # checked against the docstring's formulas here: row r shows p + 1 - r
    # on the left and p + m + 1 - r on the right, column c shows p + c on
    # top and c at the bottom.
    lines = render_wiring(grid_from_mask(GridShape(p, m), 5)).splitlines()
    mids = lines[2::3]
    gut = mids[0].find("-")
    assert lines[0].split() == [str(p + c) for c in range(1, m + 1)]
    assert [line[:gut].strip() for line in mids] == [str(p + 1 - r) for r in range(1, p + 1)]
    assert [line[gut + 3 * m + 1 :].strip() for line in mids] == [
        str(p + m + 1 - r) for r in range(1, p + 1)
    ]
    assert lines[-1].split() == [str(c) for c in range(1, m + 1)]


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@pytest.mark.parametrize("defect", [
    "other script", "wrong number", "missing", "swapped",
    "top spread", "top shifted", "bottom spread", "right padded", "right spaced",
])
@pytest.mark.parametrize("p,m", [(2, 2), (3, 4)])
def test_trace_requires_the_labels_the_shape_forces(p, m, defect):
    lines = render_wiring(grid_from_mask(GridShape(p, m), 5)).splitlines()
    last = str(p + m)  # the last top label and the top row's right label
    edits = {  # defect: (line number, that line as edited)
        "other script": (3, lines[2].removesuffix(last) + last.translate(ARABIC_INDIC)),
        "wrong number": (1, lines[0].removesuffix(last) + str(p + m + 1)),
        "missing": (len(lines), lines[-1].removesuffix(str(m)).rstrip()),
        "swapped": (1, lines[0].replace(f"{p + 1}  {p + 2}", f"{p + 2}  {p + 1}")),
        # The right labels in the wrong place: a reading of the label rows
        # with split() or strip() would take these.
        "top spread": (1, lines[0].replace(f"{p + 1}  ", f"{p + 1}     ")),
        "top shifted": (1, " " + lines[0].lstrip()),
        "bottom spread": (len(lines), lines[-1].replace("1  ", "1    ")),
        "right padded": (3, lines[2] + "   "),
        "right spaced": (len(lines) - 2, lines[-3].replace("- ", "-  ")),
    }
    k, lines[k - 1] = edits[defect]
    with pytest.raises(UsageError, match=f"^line {k} is "):
        trace_rendered_wiring("\n".join(lines) + "\n")


@pytest.mark.parametrize("line,text,defect", [
    (6, "1 -x--x- 3", "not a row of 2 tiles"),
    (6, "1 -.- 3", "not a row of 2 tiles"),
    (3, "2 -+--+-x4", "not a row of 2 tiles"),
    (3, "2 -+--+-4", "not a row of 2 tiles"),
    (2, "garbage", "not the stub row"),
    (4, "   |  |  ", "not the stub row"),
])
def test_trace_requires_every_tile_and_stub_row(line, text, defect):
    # Defects where the walk does not look: it reads only '+' at the tile
    # centers, so with line 6 as "1 -x--x- 3", or line 2 as "garbage", it
    # would still trace mask 5 to (1, 4, 2, 3).  The error shows the line
    # the rendering has there.
    lines = render_wiring(grid_from_mask(GridShape(2, 2), 5)).splitlines()
    expected = repr(lines[line - 1] + "\n")
    lines[line - 1] = text
    with pytest.raises(UsageError, match=f"^line {line} is .*, expected {re.escape(expected)}$"):
        trace_rendered_wiring("\n".join(lines) + "\n")


@pytest.mark.parametrize("text", ["a\nb\nc\nd\ne\n", "3  4\n\n2 -\n\n\n"])
def test_trace_refuses_a_text_with_no_tiles(text):
    with pytest.raises(UsageError, match="^not a wiring rendering$"):
        trace_rendered_wiring(text)


@pytest.mark.parametrize("p,m", [(1, 65), (33, 33)])
def test_trace_refuses_a_shape_beyond_the_rank_cap(p, m):
    # The shape is read off the line count and the first row of tiles
    # before any line is compared, and GridShape refuses a grid word beyond
    # A64: no rendering has that shape.
    lines = [""] * (3 * p + 2)
    lines[2] = "1 " + "-.-" * m
    with pytest.raises(InvalidRankError):
        trace_rendered_wiring("\n".join(lines) + "\n")


def test_grid_text_round_trip():
    shape = GridShape(2, 2)
    for g in all_grids(shape):
        assert parse_grid(shape, format_grid(g)) == g
    assert parse_grid(shape, "2,2 1,2").boxes == frozenset({(2, 2), (1, 2)})
    assert parse_grid(shape, "").boxes == frozenset()


def test_parse_grid_errors():
    from weyldiag import UsageError

    shape = GridShape(2, 2)
    with pytest.raises(UsageError):
        parse_grid(shape, "1")
    with pytest.raises(UsageError):
        parse_grid(shape, "a,b")
    with pytest.raises(DomainError):
        parse_grid(shape, "1,1 1,1")
    with pytest.raises(DomainError):
        parse_grid(shape, "5,1")
