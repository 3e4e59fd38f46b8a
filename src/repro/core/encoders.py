"""Term-level encodings: one-hot and binary (paper §V).

Terms are dictionary-encoded ids in ``[1, domain]``; id 0 means unbound.
The one-hot encoding sets the term's position to 1 (all-zero for unbound);
the binary encoding writes the id in base 2 (all-zero for unbound), using
``ceil(log2(domain + 1))`` bits so every id including ``domain`` fits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.rdf.terms import PatternTerm, Variable


def one_hot_width(domain: int) -> int:
    """Vector width of the one-hot encoding for ids in [1, domain]."""
    if domain < 1:
        raise ValueError("domain must be >= 1")
    return domain


def binary_width(domain: int) -> int:
    """Vector width of the binary encoding for ids in [1, domain]."""
    if domain < 1:
        raise ValueError("domain must be >= 1")
    return max(1, math.ceil(math.log2(domain + 1)))


def encode_one_hot(term: PatternTerm, domain: int) -> np.ndarray:
    """One-hot encode a term id; variables become the zero vector."""
    vec = np.zeros(one_hot_width(domain))
    if isinstance(term, Variable):
        return vec
    if not 1 <= term <= domain:
        raise ValueError(f"term id {term} outside [1, {domain}]")
    vec[term - 1] = 1.0
    return vec


def encode_binary(term: PatternTerm, domain: int) -> np.ndarray:
    """Binary encode a term id (LSB first); variables become zeros."""
    width = binary_width(domain)
    vec = np.zeros(width)
    if isinstance(term, Variable):
        return vec
    if not 1 <= term <= domain:
        raise ValueError(f"term id {term} outside [1, {domain}]")
    value = int(term)
    for bit in range(width):
        vec[bit] = (value >> bit) & 1
    return vec


def decode_binary(vec: np.ndarray) -> int:
    """Invert :func:`encode_binary`; returns 0 for the all-zero vector."""
    value = 0
    for bit, flag in enumerate(np.asarray(vec)):
        if flag >= 0.5:
            value |= 1 << bit
    return value


class TermEncoder:
    """Fixed-width encoder for one term domain (nodes or predicates).

    :meth:`write_ids` is what the query encoders use: it writes the rows
    of a whole batch of bound terms into the caller's feature block
    with array operations (:meth:`encode_ids` is the same on a fresh
    ``(slots, width)`` grid).  The scalar :func:`encode_binary` /
    :func:`encode_one_hot` above define the same rows one term at a
    time; the tests compare against them, and :meth:`encode` keeps
    them for the MSCN baseline, which featurises one triple pattern at
    a time.
    """

    def __init__(self, domain: int, kind: str = "binary") -> None:
        if kind not in ("binary", "one_hot"):
            raise ValueError(f"unknown encoding kind {kind!r}")
        self.domain = domain
        self.kind = kind
        self.width = (
            binary_width(domain) if kind == "binary" else one_hot_width(domain)
        )
        #: column k of a binary row holds bit k of the id
        self._bits = np.arange(self.width)

    def write_ids(
        self, out: np.ndarray, starts: Sequence[int], ids: Sequence[int]
    ) -> None:
        """Write the rows of the bound terms *ids* into the flat *out*.

        The row of ``ids[k]`` is ``out[starts[k]:starts[k] + width]``,
        which the caller has zeroed; nothing else is touched, so an
        unbound slot (a variable, or padding) stays the zero row.
        Raises :class:`ValueError`, before anything is written, when an
        id lies outside ``[1, domain]``.
        """
        if not len(ids):
            return
        if min(ids) < 1 or max(ids) > self.domain:
            outside = next(i for i in ids if not 1 <= i <= self.domain)
            raise ValueError(
                f"term id {outside} outside [1, {self.domain}]"
            )
        count = len(ids)
        ids = np.fromiter(ids, np.int64, count)
        starts = np.fromiter(starts, np.intp, count)
        if self.kind == "binary":
            out[starts[:, None] + self._bits] = (
                ids[:, None] >> self._bits
            ) & 1
        else:
            out[starts + (ids - 1)] = 1.0

    def encode_ids(
        self, slots: int, positions: Sequence[int], ids: Sequence[int]
    ) -> np.ndarray:
        """Feature rows of *slots* term slots, as ``(slots, width)``.

        Slot ``positions[k]`` holds the bound term ``ids[k]``; every
        other slot is unbound (a variable, or padding) and stays the
        zero row.  Raises :class:`ValueError`, before any row is built,
        when an id lies outside ``[1, domain]``.
        """
        rows = np.zeros((slots, self.width))
        self.write_ids(
            rows.reshape(-1),
            np.asarray(positions, dtype=np.intp) * self.width,
            ids,
        )
        return rows

    def encode(self, term: PatternTerm) -> np.ndarray:
        if self.kind == "binary":
            return encode_binary(term, self.domain)
        return encode_one_hot(term, self.domain)

    def __repr__(self) -> str:
        return f"TermEncoder({self.kind}, domain={self.domain})"


def make_encoders(
    num_nodes: int, num_predicates: int, kind: str = "binary"
) -> "tuple[TermEncoder, TermEncoder]":
    """(node encoder, predicate encoder) for one knowledge graph."""
    return (
        TermEncoder(num_nodes, kind),
        TermEncoder(num_predicates, kind),
    )
