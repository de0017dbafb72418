import itertools

import pytest
from hypothesis import strategies as st

from resilsim.behavior import BehaviorClass, BehaviorDescriptor, FigureSpec

UNIVERSE_FIGURES = ("f1", "f2", "f3", "f4")


def descriptor_universe():
    """All 160 descriptors over 5 classes x 16 figure subsets x 2 flags."""
    subsets = []
    for r in range(len(UNIVERSE_FIGURES) + 1):
        subsets.extend(itertools.combinations(UNIVERSE_FIGURES, r))
    return [
        BehaviorDescriptor(klass, FigureSpec(names=subset), social)
        for klass in BehaviorClass
        for subset in subsets
        for social in (False, True)
    ]


@pytest.fixture(scope="session")
def universe():
    return descriptor_universe()


figure_names = st.sampled_from(["speed", "luminosity", "t", "gas", "noise", "x"])

figure_specs = st.one_of(
    st.builds(FigureSpec, names=st.frozensets(figure_names, max_size=5)),
    st.builds(FigureSpec, count=st.integers(min_value=0, max_value=10_000)),
)

descriptors = st.builds(
    BehaviorDescriptor,
    st.sampled_from(BehaviorClass),
    figure_specs,
    st.booleans(),
)
