"""The two-sample KS statistic behind ``SampleQuality.degree_ks``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import DETERMINISM_SETTINGS

from repro.sampling.strategies import _ks_statistic


def naive_ks(a, b):
    """max |ECDF_a(x) - ECDF_b(x)| over every observed x, O(n * m)."""
    return max(
        abs(
            sum(v <= x for v in a) / len(a)
            - sum(v <= x for v in b) / len(b)
        )
        for x in list(a) + list(b)
    )


class TestWorkedCases:
    def test_identical_samples(self):
        assert _ks_statistic([3, 1, 2, 2], [2, 3, 2, 1]) == 0.0

    def test_disjoint_supports(self):
        assert _ks_statistic([1, 2, 3], [10, 11]) == 1.0
        assert _ks_statistic([10, 11], [1, 2, 3]) == 1.0

    def test_half(self):
        # ECDF_a is 1/2 at 1 and 1 at 2; ECDF_b is 0 until 2, 1/2 at 2
        # and 1 at 3: the gap peaks at 1/2 (at x = 1 and at x = 2).
        assert _ks_statistic([1, 2], [2, 3]) == 0.5

    def test_unequal_sizes(self):
        # at x = 2: 2/4 against 0/2; at x = 3: 3/4 against 1/2
        assert _ks_statistic([1, 2, 3, 4], [3, 4]) == 0.5
        # at x = 1: 1/3 against 0; at x = 5: 2/3 against 1
        assert _ks_statistic([1, 5, 9], [5]) == pytest.approx(1 / 3)
        # at x = 2: 2/5 against 0; at x = 9: 1 against 1/2
        assert _ks_statistic([1, 2, 7, 8, 9], [3, 10]) == 0.5

    def test_ties_across_samples(self):
        # every mass sits on one tied value: the ECDFs step together
        assert _ks_statistic([2, 2, 2], [2, 2]) == 0.0
        # at x = 1: 3/4 against 1/4
        assert _ks_statistic([1, 1, 1, 2], [1, 2, 2, 2]) == 0.5

    def test_symmetric_and_accepts_floats(self):
        a, b = [0.5, 1.5, 1.5, 4.0], [1.5, 2.5, 7.0]
        assert _ks_statistic(a, b) == _ks_statistic(b, a)
        assert _ks_statistic(a, b) == pytest.approx(naive_ks(a, b))


_samples = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=40
)


@DETERMINISM_SETTINGS
@given(a=_samples, b=_samples)
def test_matches_naive_ecdf_loop(a, b):
    statistic = _ks_statistic(a, b)
    assert 0.0 <= statistic <= 1.0
    assert statistic == pytest.approx(naive_ks(a, b), abs=1e-12)
