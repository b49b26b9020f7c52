"""The package's public names, and non-integer arguments refused where they
enter the library."""

import re
from types import ModuleType

import pytest

import weyldiag
from weyldiag import (
    DomainError,
    Diagram,
    GridDiagram,
    GridShape,
    Word,
    apply_element,
    bilinear,
    box_position,
    coroot_pairing,
    diagram_from_mask,
    element_of_word,
    grid_from_mask,
    position_box,
    positivity_obstruction,
    quantum_matrices_word,
    reflect,
    root_system,
)
from weyldiag import diagrams, errors, grid, roots, verify, words

PUBLIC_NAMES = {
    "CartanType", "CensusResult", "Diagram", "DomainError", "GammaTrace",
    "GridDiagram", "GridShape", "InvalidRankError", "NotReducedError",
    "ObstructionCheck", "RootSystem", "RootVector", "SizeCapError",
    "SubexpressionTrace", "UsageError", "VerificationReport", "WeylDiagError",
    "WeylElement", "Word", "apply_element", "bilinear", "box_position",
    "bruhat_interval", "bruhat_leq_oracle", "build_root_system", "compose",
    "coroot_pairing", "detect_grid_shape", "diagram_for", "diagram_from_mask",
    "element_of_word", "enumerate_positive", "extend_to_w0", "format_diagram",
    "format_grid", "format_word", "grid_from_mask", "group_elements",
    "group_order", "identity_element", "invert", "is_le_diagram", "is_positive",
    "is_positive_by_ascents", "is_positive_by_lengths", "is_reduced",
    "linearize", "longest_element", "longest_word", "longest_word_census",
    "one_line", "parse_grid", "pipe_dream_permutation", "position_box",
    "positivity_obstruction", "quantum_matrices_word", "reduced_word",
    "reflect", "render_wiring", "root_sequence", "root_system",
    "simple_reflection", "subexpression", "subword_products",
    "trace_rendered_wiring", "verify_word", "zeta", "zeta_prime",
}


def test_public_names_are_pinned_and_listed_once():
    exported = {
        name for name, value in vars(weyldiag).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(PUBLIC_NAMES) == 68
    assert exported == PUBLIC_NAMES
    # Each module's __all__ is the package's list; errors exports the
    # exceptions it defines.
    listed = [name for module in (roots, words, diagrams, grid, verify) for name in module.__all__]
    exceptions = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert len(listed) == len(set(listed))
    assert set(listed) | exceptions == PUBLIC_NAMES


A2 = root_system("A", 2)
W121 = Word(A2, (1, 2, 1))

NON_INTEGERS = {
    "diagram position": (lambda: Diagram(W121, ("2", 1)), "'2'"),
    "word letter": (lambda: Word(A2, ("1",)), "'1'"),
    "word letter stored": (lambda: Word(A2, (1.0, 2)), "1.0"),
    "element letter": (lambda: element_of_word(A2, [1.0]), "1.0"),
    "rank": (lambda: root_system("B", 3.0), "3.0"),
    "rank equal to a cached one": (lambda: root_system("A", 2.0), "2.0"),
    "grid shape": (lambda: quantum_matrices_word(GridShape(2.0, 2)), "2.0"),
    "diagram mask": (lambda: diagram_from_mask(W121, 1.5), "1.5"),
    "grid mask": (lambda: grid_from_mask(GridShape(2, 2), 1.5), "1.5"),
    "obstruction pair": (lambda: positivity_obstruction(Diagram(W121, (2, 3)), 1.0, 3), "1.0"),
    # A bool is an int subclass, and is refused all the same.
    "rank bool": (lambda: root_system("A", True), "True"),
    "word letter bool": (lambda: Word(A2, (True, 2)), "True"),
    "element letter bool": (lambda: element_of_word(A2, [True]), "True"),
    "diagram position bool": (lambda: Diagram(W121, (True,)), "True"),
    "diagram mask bool": (lambda: diagram_from_mask(W121, True), "True"),
    "grid mask bool": (lambda: grid_from_mask(GridShape(2, 2), True), "True"),
    "grid shape bool": (lambda: GridShape(2, True), "True"),
    "grid box bool": (lambda: GridDiagram(GridShape(2, 2), [(True, 1)]), "True"),
    "box position bool": (lambda: box_position(GridShape(2, 3), 1, True), "True"),
    "grid position bool": (lambda: position_box(GridShape(2, 3), True), "True"),
    "obstruction pair bool": (lambda: positivity_obstruction(Diagram(W121, (2, 3)), True, 3), "True"),
    # A grid box or position that is not an int.
    "box position float": (lambda: box_position(GridShape(2, 3), 1.0, 1), "1.0"),
    "grid position float": (lambda: position_box(GridShape(2, 3), 1.5), "1.5"),
    "grid position str": (lambda: position_box(GridShape(2, 3), "1"), "'1'"),
    # A root vector's coordinates, wherever a vector enters.
    "applied vector": (lambda: apply_element(element_of_word(A2, (1,)), (1.0, True)), "1.0"),
    "reflected vector": (lambda: reflect(A2, (1.0, 0), (0, 1)), "1.0"),
    "paired vector": (lambda: coroot_pairing(A2, (True, 0), (0.5, 1)), "True"),
    "bilinear vector": (lambda: bilinear(A2, (1, 0), (0, 2.0)), "2.0"),
}


@pytest.mark.parametrize("case", NON_INTEGERS)
def test_non_integers_are_refused_where_they_enter(case):
    build, shown = NON_INTEGERS[case]
    with pytest.raises(DomainError, match=re.escape(shown)):
        build()
