"""Unit tests for tuples, composites, and the global ranking function."""

from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, SchemaError
from repro.model.attributes import AttributePath
from repro.model.tuples import (
    CompositeTuple,
    RankingFunction,
    ServiceTuple,
    freeze_value,
)


def make_tuple(**values):
    return ServiceTuple(values=values, score=0.8, source="S", position=0)


class TestServiceTuple:
    def test_rejects_out_of_range_score(self):
        with pytest.raises(SchemaError):
            ServiceTuple(values={}, score=1.5)
        with pytest.raises(SchemaError):
            ServiceTuple(values={}, score=-0.1)

    def test_flat_value_access(self):
        tup = make_tuple(Title="Up")
        assert tup.value_at(AttributePath("Title")) == "Up"

    def test_missing_attribute_raises(self):
        tup = make_tuple(Title="Up")
        with pytest.raises(QueryError):
            tup.value_at(AttributePath("Nope"))

    def test_nested_value_access_returns_all_witnesses(self):
        tup = make_tuple(R=({"A": 1, "B": "x"}, {"A": 2, "B": "y"}))
        assert tup.value_at(AttributePath("R", "A")) == (1, 2)

    def test_group_members(self):
        tup = make_tuple(R=({"A": 1}, {"A": 2}))
        members = tup.group_members("R")
        assert members == ({"A": 1}, {"A": 2})

    def test_group_members_missing_group_raises(self):
        with pytest.raises(QueryError):
            make_tuple(X=1).group_members("R")

    def test_values_are_frozen_and_hashable(self):
        tup = make_tuple(R=[{"A": 1}, {"A": 2}], X=[1, 2, 3])
        assert hash(tup) == hash(tup)
        assert isinstance(tup.values["X"], tuple)

    def test_equal_tuples_hash_equal(self):
        a = make_tuple(X=1)
        b = make_tuple(X=1)
        assert a == b
        assert hash(a) == hash(b)


class TestCompositeTuple:
    def test_component_access(self):
        t = make_tuple(X=1)
        comp = CompositeTuple({"M": t}, 0.5)
        assert comp.component("M") is not None
        assert comp.aliases == ("M",)
        with pytest.raises(QueryError):
            comp.component("T")

    def test_merged_with_rejects_duplicate_alias(self):
        comp = CompositeTuple({"M": make_tuple(X=1)}, 0.5)
        with pytest.raises(QueryError):
            comp.merged_with("M", make_tuple(X=2), 0.6)

    def test_merged_with_extends(self):
        comp = CompositeTuple({"M": make_tuple(X=1)}, 0.5)
        bigger = comp.merged_with("T", make_tuple(Y=2), 0.7)
        assert set(bigger.aliases) == {"M", "T"}
        assert bigger.score == 0.7
        assert comp.aliases == ("M",)  # original untouched


class TestRankingFunction:
    def test_weights_are_normalised(self):
        rf = RankingFunction({"M": 3.0, "T": 1.0})
        assert rf.weight("M") == pytest.approx(0.75)
        assert rf.weight("T") == pytest.approx(0.25)

    def test_rejects_negative_weights(self):
        with pytest.raises(QueryError):
            RankingFunction({"M": -1.0})

    def test_unknown_alias_weighs_zero(self):
        rf = RankingFunction({"M": 1.0})
        assert rf.weight("ZZZ") == 0.0

    def test_score_is_weighted_sum(self):
        rf = RankingFunction({"M": 0.3, "T": 0.5, "R": 0.2}, normalise=False)
        score = rf.score({"M": 1.0, "T": 0.5, "R": 0.0})
        assert score == pytest.approx(0.3 * 1.0 + 0.5 * 0.5)

    def test_unranked_service_contributes_nothing(self):
        # Section 3.1: "the weight of unranked services is set equal to 0".
        rf = RankingFunction({"M": 1.0, "W": 0.0})
        score = rf.score({"M": 0.8, "W": 1.0})
        assert score == pytest.approx(0.8)

    def test_combine_builds_scored_composite(self):
        rf = RankingFunction({"M": 1.0})
        composite = rf.combine({"M": ServiceTuple({}, score=0.6)})
        assert composite.score == pytest.approx(0.6)

    def test_uniform(self):
        rf = RankingFunction.uniform(["A", "B"])
        assert rf.weight("A") == pytest.approx(0.5)
        assert RankingFunction.uniform([]).weights == {}

    def test_composite_score_stays_in_unit_interval(self):
        rf = RankingFunction({"A": 5.0, "B": 7.0})
        score = rf.score({"A": 1.0, "B": 1.0})
        assert score <= 1.0 + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.dictionaries(
            st.sampled_from("ABCDEFG"),
            st.floats(0.0, 1e6, allow_nan=False) | st.integers(0, 50),
            max_size=6,
        ),
        scores=st.lists(
            st.tuples(st.sampled_from("ABCDEFGH"), st.floats(0.0, 1.0)),
            max_size=8,
            unique_by=lambda pair: pair[0],
        ),
        normalise=st.booleans(),
    )
    def test_score_composite_is_bitwise_score(self, weights, scores, normalise):
        # Component order, aliases without a weight, and (un)normalised
        # weights: the direct sum must equal score() to the last bit.
        rf = RankingFunction(weights, normalise=normalise)
        components = {
            alias: ServiceTuple({}, score=score, source=alias)
            for alias, score in scores
        }
        direct = rf.score_composite(components)
        via_score = rf.score({alias: t.score for alias, t in components.items()})
        assert type(direct) is type(via_score)
        assert float(direct).hex() == float(via_score).hex()
        assert rf.combine(components).score == direct


def abc_freeze(value):
    """``freeze_value`` as it was: ABC checks only, Mapping first."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, abc_freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set)):
        return tuple(abc_freeze(v) for v in value)
    return value


class Label(str):
    """A str subclass: takes the fallback path, unchanged."""


ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=16),
    st.text(max_size=3),
    st.text(max_size=3).map(Label),
)


def wrapped_mappings(children):
    items = st.dictionaries(st.text(max_size=2), children, max_size=3)
    return st.one_of(
        items,
        items.map(OrderedDict),
        items.map(MappingProxyType),
    )


FREEZABLE = st.recursive(
    ATOMS,
    lambda children: st.one_of(
        wrapped_mappings(children),
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.sets(ATOMS, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(FREEZABLE)
def test_freeze_value_matches_abc_only_path(value):
    frozen = freeze_value(value)
    assert frozen == abc_freeze(value)
    assert type(frozen) is type(abc_freeze(value))


def test_freeze_value_concrete_and_abc_mappings_agree():
    members = [{"b": 2, "a": [1, (2, {3})]}, OrderedDict(z=None)]
    expected = abc_freeze(members)
    assert freeze_value(members) == expected
    assert freeze_value(tuple(members)) == expected
    assert freeze_value([MappingProxyType(m) for m in members]) == expected
    assert freeze_value({3, 1}) == abc_freeze({3, 1})
