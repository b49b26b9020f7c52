"""Property test: carried lengths, extension to w0 and zeta' over many types."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weyldiag import Diagram, Word, extend_to_w0, invert, zeta, zeta_prime
from weyldiag.roots import _count_inversions

from conftest import random_reduced_word, system_of
from test_words import extend_by_inverse_formula

TYPES = [
    ("A", 1), ("A", 3), ("B", 3), ("C", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]
MAX_LEN = 14


@st.composite
def words(draw):
    """An arbitrary letter list and a reduced word (an ascent walk) over one type."""
    system = system_of(*draw(st.sampled_from(TYPES)))
    letters = draw(st.lists(st.integers(1, system.rank), max_size=MAX_LEN))
    walk = random_reduced_word(system, draw(st.randoms(use_true_random=False)), MAX_LEN)
    return Word(system, letters), walk


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(words(), st.data())
def test_carried_length_extension_and_zeta_prime(pair, data):
    word, walk = pair
    system = word.system
    for w in (word.element, walk.element):
        assert w.length == _count_inversions(system, w.matrix)
    assert walk.reduced
    assert extend_to_w0(walk) == extend_by_inverse_formula(walk)
    inside = data.draw(st.lists(st.booleans(), min_size=walk.t, max_size=walk.t))
    d = Diagram(walk, tuple(p for p, keep in enumerate(inside, start=1) if keep))
    assert zeta_prime(d) == invert(zeta(d))
