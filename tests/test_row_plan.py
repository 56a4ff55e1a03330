"""Oracle tests: the compiled row plan against the interpreted per-value path.

``_reference_*`` below is the generator's original, interpreted data path
kept verbatim as the oracle: ``domain_value`` per attribute, a dict per
group member, and a :class:`ServiceTuple` built through its freezing
constructor.  The compiled :class:`~repro.services.datagen.RowPlan` must
produce equal tuples and leave the RNG in the same state, so recorded
digests keep reproducing.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SchemaError
from repro.model.attributes import Attribute, DataType, Domain, RepeatingGroup
from repro.model.scoring import LinearScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)
from repro.model.tuples import ServiceTuple, freeze_value
from repro.query.ast import AttrRef, Comparator, SelectionPredicate
from repro.query.predicates import satisfies
from repro.services.datagen import TupleGenerator, derive_seed, domain_value


def _reference_domain_value(attribute, rng):
    domain = attribute.domain
    size = domain.size or 1_000_000
    index = rng.randrange(size)
    dtype = domain.dtype
    if dtype is DataType.INTEGER:
        return index
    if dtype is DataType.FLOAT:
        return round(rng.uniform(0.0, float(size)), 3)
    if dtype is DataType.BOOLEAN:
        return index % 2 == 0
    if dtype is DataType.DATE:
        day = index % 365
        month, dom = divmod(day, 31)
        return f"2009-{month % 12 + 1:02d}-{dom + 1:02d}"
    return f"{domain.name}#{index}"


def _reference_group_value(group, inputs, rng, low=1, high=3):
    if group.avg_members is not None:
        members = group.avg_members
    else:
        members = rng.randint(low, high)
    out = []
    for index in range(members):
        member = {}
        for sub in group.sub_attributes:
            bound = inputs.get(f"{group.name}.{sub.name}")
            if bound is not None and index == 0:
                member[sub.name] = bound
            else:
                member[sub.name] = _reference_domain_value(sub, rng)
        out.append(member)
    return out


def _reference_tuple_values(mart, inputs, rng, low=1, high=3):
    values = {}
    for attr in mart.attributes:
        if isinstance(attr, RepeatingGroup):
            values[attr.name] = _reference_group_value(attr, inputs, rng, low, high)
        else:
            bound = inputs.get(attr.name)
            values[attr.name] = (
                bound if bound is not None else _reference_domain_value(attr, rng)
            )
    return values


def _reference_generate(generator, inputs, constraints=()):
    """The original eager loop, rejection sampling through ``satisfies``."""
    interface = generator.interface
    rng = random.Random(derive_seed(generator.global_seed, interface.name, inputs))
    total = generator.result_size(rng)
    results = []
    attempts = 0
    while len(results) < total and attempts < max(20, total * 20):
        attempts += 1
        position = len(results)
        candidate = ServiceTuple(
            values=_reference_tuple_values(interface.mart, inputs, rng),
            score=min(1.0, max(0.0, interface.scoring.score_at(position))),
            source=interface.name,
            position=position,
        )
        if constraints and not satisfies({"S": candidate}, constraints):
            continue
        results.append(candidate)
    return results


DTYPES = list(DataType)

#: One sized and one unsized attribute per data type, a pinned group and
#: a free-size group whose sub-attributes are declared out of name order.
MART = ServiceMart(
    "Everything",
    tuple(
        Attribute(f"{dtype.name.title()}{suffix}", Domain(dtype.value, dtype, size))
        for dtype in DTYPES
        for suffix, size in (("Sized", 37), ("Unsized", None))
    )
    + (
        RepeatingGroup(
            "Pinned",
            (
                Attribute("Zeta", Domain("zeta", DataType.STRING, 9)),
                Attribute("Alpha", Domain("day", DataType.DATE, 365)),
                Attribute("Mid", Domain("mid", DataType.FLOAT, 4)),
            ),
            avg_members=2,
        ),
        RepeatingGroup(
            "Free",
            (
                Attribute("Yes", Domain("flag", DataType.BOOLEAN, 2)),
                Attribute("Any", Domain("blob", DataType.ANY)),
                Attribute("Count", Domain("count", DataType.INTEGER, 1)),
            ),
        ),
    ),
)


def _interface(inputs=(), chunk_size=4, avg=25):
    return ServiceInterface(
        name="Every1",
        mart=MART,
        access_pattern=AccessPattern.from_spec({path: "I" for path in inputs}),
        kind=ServiceKind.SEARCH,
        stats=ServiceStats(avg_cardinality=avg, chunk_size=chunk_size),
        scoring=LinearScoring(horizon=avg),
    )


BINDINGS = {
    "free": {},
    "atomic": {"IntegerSized": 5, "StringUnsized": "string#x", "DateSized": "2009-02-03"},
    "group": {"Pinned.Alpha": "2009-12-31", "Free.Any": "blob#7"},
    "both": {"FloatSized": 1.5, "Pinned.Zeta": "zeta#1", "Free.Yes": False},
}


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("seed", [0, 1, 2009, 4099])
def test_compiled_rows_equal_reference(binding, seed):
    inputs = BINDINGS[binding]
    generator = TupleGenerator(_interface(inputs), global_seed=seed)
    expected = _reference_generate(generator, inputs)
    got = generator.generate(inputs)
    assert len(got) == len(expected) > 0
    for new, old in zip(got, expected):
        assert new.values == old.values
        assert list(new.values) == list(old.values)
        assert new.score == old.score
        assert new.position == old.position
        assert new.source == old.source
        assert hash(new) == hash(old)
        assert new == old


CONSTRAINTS = {
    "atomic": (SelectionPredicate(AttrRef.parse("S.IntegerSized"), Comparator.GE, 20),),
    "witness": (
        SelectionPredicate(AttrRef.parse("S.Pinned.Zeta"), Comparator.EQ, "zeta#3"),
        SelectionPredicate(AttrRef.parse("S.Pinned.Mid"), Comparator.LT, 2.0),
    ),
    "unsatisfiable": (
        SelectionPredicate(AttrRef.parse("S.DateSized"), Comparator.LIKE, "2010-%"),
    ),
}


@pytest.mark.parametrize("constraint", sorted(CONSTRAINTS))
@pytest.mark.parametrize("seed", [0, 2009])
def test_constrained_pages_equal_reference(constraint, seed):
    # Rejection sampling: same candidates, same survivors, positions
    # renumbered over survivors, and the same attempt cap.
    generator = TupleGenerator(_interface(), global_seed=seed)
    constraints = CONSTRAINTS[constraint]
    expected = _reference_generate(generator, {}, constraints)
    assert generator.generate({}, constraints) == expected
    assert [t.position for t in expected] == list(range(len(expected)))
    if constraint == "unsatisfiable":
        assert expected == []
    else:
        assert expected


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_row_function_makes_the_same_rng_calls(binding):
    inputs = BINDINGS[binding]
    generator = TupleGenerator(_interface(inputs))
    row = generator.row_plan.bind(inputs)
    ours, theirs = random.Random(99), random.Random(99)
    for _ in range(200):
        expected = _reference_tuple_values(MART, inputs, theirs)
        assert row(ours) == {k: freeze_value(v) for k, v in expected.items()}
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
@pytest.mark.parametrize("size", [1, 2, 7, 64, 365, 1000, None])
def test_domain_value_matches_reference(dtype, size):
    attribute = Attribute("A", Domain("d", dtype, size))
    ours, theirs = random.Random(repr(size)), random.Random(repr(size))
    for _ in range(300):
        assert domain_value(attribute, ours) == _reference_domain_value(
            attribute, theirs
        )
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("low, high", [(1, 3), (0, 2), (2, 5), (4, 4)])
def test_group_sizes_follow_generator_bounds(low, high):
    generator = TupleGenerator(
        _interface(), min_group_members=low, max_group_members=high
    )
    row = generator.row_plan.bind({})
    ours, theirs = random.Random(low), random.Random(low)
    sizes = set()
    for _ in range(100):
        values = row(ours)
        expected = _reference_tuple_values(MART, {}, theirs, low, high)
        assert values == {k: freeze_value(v) for k, v in expected.items()}
        assert len(values["Pinned"]) == 2
        sizes.add(len(values["Free"]))
    assert sizes == set(range(low, high + 1))


def test_inverted_group_bounds_rejected():
    with pytest.raises(ValueError):
        TupleGenerator(_interface(), min_group_members=3, max_group_members=2)


def test_bound_sub_attributes_echo_in_first_member_only():
    inputs = BINDINGS["group"]
    generator = TupleGenerator(_interface(inputs), global_seed=3)
    tuples = generator.generate(inputs)
    assert all(dict(t.values["Pinned"][0])["Alpha"] == "2009-12-31" for t in tuples)
    assert any(
        dict(member)["Alpha"] != "2009-12-31"
        for t in tuples
        for member in t.values["Pinned"][1:]
    )


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_generated_values_are_already_frozen(binding):
    inputs = BINDINGS[binding]
    for tup in TupleGenerator(_interface(inputs), global_seed=8).generate(inputs):
        assert freeze_value(tup.values) == tuple(sorted(tup.values.items()))
        for value in tup.values.values():
            assert freeze_value(value) == value
        assert type(tup.values) is dict


def test_unfrozen_bound_input_is_frozen_once():
    inputs = {"AnyUnsized": ["a", {"b": 1}]}
    tup = TupleGenerator(_interface(inputs)).generate(inputs)[0]
    assert tup.values["AnyUnsized"] == freeze_value(inputs["AnyUnsized"])


class TestFromFrozen:
    def test_equals_freezing_constructor(self):
        values = {"A": 1, "G": ((("x", 1), ("y", "z")),)}
        trusted = ServiceTuple.from_frozen(dict(values), 0.5, "S", 3)
        frozen = ServiceTuple(values, 0.5, "S", 3)
        assert trusted == frozen
        assert hash(trusted) == hash(frozen)

    @pytest.mark.parametrize("score", [-0.01, 1.01, float("inf")])
    def test_rejects_score_outside_unit_interval(self, score):
        with pytest.raises(SchemaError):
            ServiceTuple.from_frozen({"A": 1}, score, "S", 0)

    def test_is_frozen(self):
        tup = ServiceTuple.from_frozen({"A": 1}, 1.0, "S", 0)
        with pytest.raises(AttributeError):
            tup.score = 0.5  # type: ignore[misc]
