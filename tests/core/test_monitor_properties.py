"""Property-based tests for the workload drift monitor.

Hypothesis-checked invariants the unit tests only spot-check:

- within one window, the drift verdict depends on the *distribution*
  of observed shapes, not their order,
- ``reset()`` restores a clean slate: a reset monitor is
  indistinguishable from a freshly built one with the same reference,
- total-variation distance is a bounded symmetric divergence,
- the reference profile is scale-invariant under normalisation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD_SETTINGS

from ext.monitor import WorkloadMonitor, total_variation

SHAPES = [
    ("star", 2),
    ("star", 3),
    ("chain", 2),
    ("chain", 3),
    ("tree", 4),
]

#: Shorter than the monitors' window below, so no observation is ever
#: evicted — eviction is (intentionally) order-dependent.
shape_sequences = st.lists(
    st.sampled_from(SHAPES), min_size=1, max_size=60
)

shape_distributions = st.dictionaries(
    st.sampled_from(SHAPES),
    st.floats(0.01, 1.0),
    min_size=1,
    max_size=len(SHAPES),
)


def make_monitor():
    monitor = WorkloadMonitor(
        window_size=100, threshold=0.2, min_queries=1, hot_share=0.1
    )
    monitor.set_reference({("star", 2): 0.5, ("chain", 2): 0.5})
    return monitor


def feed(monitor, shapes):
    for shape in shapes:
        monitor.observe(shape)


@STANDARD_SETTINGS
@given(shapes=shape_sequences, seed=st.integers(0, 2**32 - 1))
def test_drift_verdict_is_permutation_invariant(shapes, seed):
    shuffled = list(shapes)
    random.Random(seed).shuffle(shuffled)
    ordered, permuted = make_monitor(), make_monitor()
    feed(ordered, shapes)
    feed(permuted, shuffled)
    assert ordered.window_shares() == pytest.approx(
        permuted.window_shares()
    )
    first, second = ordered.check(), permuted.check()
    assert (first is None) == (second is None)
    if first is not None:
        assert first.distance == pytest.approx(second.distance)
        assert first.emerging == second.emerging
        assert first.fading == second.fading


@STANDARD_SETTINGS
@given(before=shape_sequences, after=shape_sequences)
def test_reset_restores_a_clean_slate(before, after):
    monitor = make_monitor()
    feed(monitor, before)
    monitor.reset()
    assert monitor.window_shares() == {}
    assert monitor.check() is None
    # After reset, the monitor behaves exactly like a fresh one fed
    # the same observations under the same reference.
    fresh = make_monitor()
    feed(monitor, after)
    feed(fresh, after)
    assert monitor.window_shares() == fresh.window_shares()
    assert monitor.check() == fresh.check()


@settings(max_examples=100, deadline=None)
@given(a=shape_distributions, b=shape_distributions)
def test_total_variation_is_a_bounded_symmetric_divergence(a, b):
    distance = total_variation(a, b)
    assert total_variation(a, a) == pytest.approx(0.0)
    assert distance == pytest.approx(total_variation(b, a))
    # Bounded by the distributions' masses (= 1 when normalised).
    bound = 0.5 * (sum(a.values()) + sum(b.values()))
    assert 0.0 <= distance <= bound + 1e-9


@STANDARD_SETTINGS
@given(
    shares=shape_distributions,
    factor=st.floats(0.1, 100.0),
)
def test_reference_is_scale_invariant(shares, factor):
    plain, scaled = WorkloadMonitor(), WorkloadMonitor()
    plain.set_reference(shares)
    scaled.set_reference(
        {shape: share * factor for shape, share in shares.items()}
    )
    assert plain.reference == pytest.approx(scaled.reference)
    assert sum(plain.reference.values()) == pytest.approx(1.0)
