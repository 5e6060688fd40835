"""The witness checker's cover test against the conjugate pairs listed by ``unit_classes``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from reidtai.roots import unit_classes
from reidtai.witness import covers_conjugate_pairs


@st.composite
def _modulus_and_residues(draw):
    """A modulus d and one side of most of its conjugate pairs, plus a few integers that may be non-units."""
    d = draw(st.integers(2, 300))
    sides = [draw(st.sampled_from(pair)) for pair in unit_classes(d).pairs]
    dropped = set(draw(st.lists(st.integers(0, len(sides) - 1), max_size=2)))
    extra = draw(st.lists(st.integers(-d, 2 * d), max_size=2))
    return d, [u for i, u in enumerate(sides) if i not in dropped] + extra


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_modulus_and_residues())
def test_cover_matches_the_listed_pairs(case):
    d, residues = case
    classes = unit_classes(d)
    chosen = set(residues)
    expected = chosen <= set(classes.units) and all(chosen.intersection(pair) for pair in classes.pairs)
    assert covers_conjugate_pairs(d, residues) == expected
