"""Tests for term-level one-hot and binary encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoders import (
    TermEncoder,
    binary_width,
    decode_binary,
    encode_binary,
    encode_one_hot,
    make_encoders,
    one_hot_width,
)
from repro.rdf.terms import Variable


class TestWidths:
    def test_one_hot_width_is_domain(self):
        assert one_hot_width(7) == 7

    def test_binary_width_examples(self):
        # Paper example: 3 unique subjects -> 2 bits.
        assert binary_width(3) == 2
        assert binary_width(1) == 1
        assert binary_width(7) == 3
        assert binary_width(8) == 4

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            binary_width(0)
        with pytest.raises(ValueError):
            one_hot_width(0)


class TestOneHot:
    def test_paper_example(self):
        # "one-hot encoding for the subject with id 2 will be [010]".
        assert np.array_equal(encode_one_hot(2, 3), [0.0, 1.0, 0.0])

    def test_variable_is_zero_vector(self):
        assert np.array_equal(encode_one_hot(Variable("x"), 3), [0, 0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_one_hot(4, 3)
        with pytest.raises(ValueError):
            encode_one_hot(0, 3)


class TestBinary:
    def test_paper_example(self):
        # "the binary encoding of the subject with id 2 will be [10]"
        # (LSB-first here: 2 = 0b10 -> [0, 1]).
        vec = encode_binary(2, 3)
        assert decode_binary(vec) == 2

    def test_variable_is_zero_vector(self):
        vec = encode_binary(Variable("x"), 100)
        assert np.all(vec == 0)
        assert decode_binary(vec) == 0

    @given(st.integers(1, 500))
    @settings(max_examples=60)
    def test_roundtrip(self, term_id):
        vec = encode_binary(term_id, 500)
        assert decode_binary(vec) == term_id

    @given(st.integers(1, 499), st.integers(1, 499))
    @settings(max_examples=60)
    def test_injective(self, a, b):
        if a == b:
            return
        assert not np.array_equal(
            encode_binary(a, 500), encode_binary(b, 500)
        )

    def test_zero_never_collides_with_term(self):
        """The all-zero (unbound) vector differs from every real id."""
        for term_id in range(1, 32):
            assert decode_binary(encode_binary(term_id, 31)) != 0


class TestTermEncoder:
    def test_kind_dispatch(self):
        assert TermEncoder(10, "binary").width == binary_width(10)
        assert TermEncoder(10, "one_hot").width == 10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TermEncoder(10, "gray_code")

    def test_make_encoders(self):
        nodes, preds = make_encoders(100, 20, "binary")
        assert nodes.domain == 100
        assert preds.domain == 20

    def test_binary_much_smaller_than_one_hot(self):
        """The size argument for binary encoding on heterogeneous KGs."""
        binary = TermEncoder(1_000_000, "binary")
        assert binary.width <= 20

    @pytest.mark.parametrize("kind", ["binary", "one_hot"])
    def test_encode_ids_matches_scalar_over_whole_domain(self, kind):
        """Every id of the domain, in scattered slots of a padded grid,
        reads as the scalar encoding; untouched slots stay zero."""
        encoder = TermEncoder(37, kind)
        ids = np.arange(1, 38)
        positions = 2 * np.arange(37) + 1
        rows = encoder.encode_ids(80, positions, ids)
        assert rows.shape == (80, encoder.width)
        assert rows.dtype == np.float64
        for position, term in zip(positions, ids):
            assert np.array_equal(rows[position], encoder.encode(int(term)))
        untouched = np.setdiff1d(np.arange(80), positions)
        assert not rows[untouched].any()

    @pytest.mark.parametrize("bad", [0, -1, 38])
    def test_encode_ids_rejects_ids_outside_domain(self, bad):
        encoder = TermEncoder(37, "binary")
        with pytest.raises(ValueError, match=f"term id {bad} outside"):
            encoder.encode_ids(3, [0, 2], [5, bad])
