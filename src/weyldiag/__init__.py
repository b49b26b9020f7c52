"""Positive/admissible diagrams over reduced words in finite Weyl groups.

Library layout: roots (root systems and exact Weyl arithmetic), words
(reduced words and root sequences), diagrams (positivity, the zeta maps,
Bruhat oracles, the root-sum obstruction), grid (the type-A quantum
matrices specialization with Le-diagrams and pipe dreams), verify
(exhaustive sweeps and reports), cli (command line front end).
"""

from .errors import (
    DomainError,
    InvalidRankError,
    NotReducedError,
    SizeCapError,
    UsageError,
    WeylDiagError,
)
from .roots import (
    CartanType,
    RootSystem,
    RootVector,
    WeylElement,
    apply_element,
    bilinear,
    build_root_system,
    compose,
    coroot_pairing,
    element_of_word,
    identity_element,
    invert,
    reflect,
    root_system,
    simple_reflection,
)
from .words import (
    Word,
    extend_to_w0,
    format_word,
    is_reduced,
    longest_element,
    longest_word,
    reduced_word,
    root_sequence,
)
from .diagrams import (
    Diagram,
    GammaTrace,
    ObstructionCheck,
    SubexpressionTrace,
    bruhat_leq_oracle,
    diagram_for,
    diagram_from_mask,
    format_diagram,
    is_positive,
    is_positive_by_ascents,
    is_positive_by_lengths,
    positivity_obstruction,
    subexpression,
    subword_products,
    zeta,
    zeta_prime,
)
from .grid import (
    GridDiagram,
    GridShape,
    box_position,
    format_grid,
    grid_from_mask,
    is_le_diagram,
    linearize,
    one_line,
    parse_grid,
    pipe_dream_permutation,
    position_box,
    quantum_matrices_word,
    render_wiring,
    trace_rendered_wiring,
)
from .verify import (
    CensusResult,
    VerificationReport,
    bruhat_interval,
    detect_grid_shape,
    enumerate_positive,
    group_elements,
    group_order,
    longest_word_census,
    verify_word,
)

__version__ = "0.1.0"
