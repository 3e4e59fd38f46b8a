"""Unit tests for terms, variables, and triple patterns."""

import pickle

import pytest

from repro.rdf.pattern import QueryPattern
from repro.rdf.terms import (
    TriplePattern,
    Variable,
    is_bound,
    pattern,
    term_key,
)


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_question_mark_normalised(self):
        assert Variable("?x") == Variable("x")

    def test_hashable_and_usable_as_key(self):
        bindings = {Variable("x"): 5}
        assert bindings[Variable("?x")] == 5

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_repr(self):
        assert repr(Variable("x")) == "?x"


class TestTermKey:
    def test_equal_terms_have_equal_keys(self):
        # Distinct objects that share a name are one variable.
        assert term_key(Variable("x")) == term_key(Variable("?x"))
        assert term_key(7) == term_key(7)

    def test_distinct_terms_have_distinct_keys(self):
        assert term_key(Variable("x")) != term_key(Variable("y"))
        assert term_key(Variable("1")) != term_key(1)

    def test_slotted_patterns_survive_pickling(self):
        # The pool workers receive queries pickled.
        query = QueryPattern(
            [pattern("s", 3, "o"), pattern("o", 4, 9)]
        )
        restored = pickle.loads(pickle.dumps(query))
        assert restored == query
        assert restored.topology() is query.topology()
        assert not hasattr(restored.triples[0], "__dict__")


class TestTriplePattern:
    def test_fully_bound(self):
        tp = TriplePattern(1, 2, 3)
        assert tp.is_fully_bound
        assert tp.variables == ()

    def test_partially_bound(self):
        tp = TriplePattern(Variable("x"), 2, Variable("y"))
        assert not tp.is_fully_bound
        assert tp.variables == (Variable("x"), Variable("y"))

    def test_is_bound_helper(self):
        assert is_bound(7)
        assert not is_bound(Variable("x"))

    def test_bind_replaces_known_variables(self):
        tp = TriplePattern(Variable("x"), 2, Variable("y"))
        bound = tp.bind({Variable("x"): 9})
        assert bound.s == 9
        assert bound.o == Variable("y")

    def test_bind_leaves_constants(self):
        tp = TriplePattern(1, 2, 3)
        assert tp.bind({Variable("x"): 9}) == tp

    def test_as_triple_roundtrip(self):
        assert TriplePattern(1, 2, 3).as_triple() == (1, 2, 3)

    def test_as_triple_rejects_variables(self):
        with pytest.raises(ValueError):
            TriplePattern(Variable("x"), 2, 3).as_triple()

    def test_iteration_order(self):
        tp = TriplePattern(1, 2, 3)
        assert list(tp) == [1, 2, 3]

    def test_repeated_variable_listed_twice(self):
        tp = TriplePattern(Variable("x"), 2, Variable("x"))
        assert tp.variables == (Variable("x"), Variable("x"))


class TestPatternHelper:
    def test_strings_become_variables(self):
        tp = pattern("x", 1, "y")
        assert tp.s == Variable("x")
        assert tp.p == 1
        assert tp.o == Variable("y")

    def test_ints_stay_terms(self):
        tp = pattern(1, 2, 3)
        assert tp.is_fully_bound
