"""Predicate evaluation with repeating-group witness semantics.

Section 3.1 defines query semantics carefully for repeating groups: a
composite tuple satisfies the predicate set ``P`` iff there exists a single
mapping ``M`` sending every repeating-group occurrence ``si.R`` mentioned
in ``P`` to *one* member sub-tuple of ``ti.R`` such that every predicate in
``P`` holds under that mapping.  The chapter's example: with
``t2 = ({<2,x>, <1,y>})`` the query ``S1.R.A=1 AND S1.R.B=x`` does *not*
select ``t2`` — although each conjunct is satisfied by *some* member, no
single member satisfies both.

This module implements that joint-witness evaluation for arbitrary
mixtures of selection and join predicates over composite tuples, plus the
single-service specialisation used when predicates are pushed down to a
service invocation.

:func:`satisfies` is the reference interpreter of that rule.  Hot paths
call :func:`compile_predicates` instead, which does the per-predicate-set
work (witness slots, accessors, operands, LIKE patterns) once and returns
a closure that answers exactly as :func:`satisfies` does.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import QueryError
from repro.model.attributes import AttributePath
from repro.model.tuples import CompositeTuple, ServiceTuple
from repro.query.ast import (
    AttrRef,
    Comparator,
    InputRef,
    JoinPredicate,
    SelectionPredicate,
    like_regex,
)

__all__ = [
    "group_occurrences",
    "satisfies",
    "compile_predicates",
    "tuple_satisfies_selections",
    "filter_tuples",
]

#: A repeating-group occurrence: (alias, group name).
GroupKey = tuple[str, str]


def group_occurrences(
    selections: Iterable[SelectionPredicate],
    joins: Iterable[JoinPredicate] = (),
) -> tuple[GroupKey, ...]:
    """All repeating-group occurrences mentioned by the predicates.

    The result is ordered deterministically (sorted) so that witness
    enumeration is reproducible.
    """
    keys: set[GroupKey] = set()
    for sel in selections:
        if sel.attr.path.is_nested:
            keys.add((sel.attr.alias, sel.attr.path.group or ""))
    for join in joins:
        for ref in (join.left, join.right):
            if ref.path.is_nested:
                keys.add((ref.alias, ref.path.group or ""))
    return tuple(sorted(keys))


def _resolve(
    components: Mapping[str, ServiceTuple],
    witnesses: Mapping[GroupKey, Mapping[str, Any]],
    ref: AttrRef,
) -> Any:
    """Value of ``ref`` under the current witness assignment."""
    tup = components[ref.alias]
    path: AttributePath = ref.path
    if path.is_nested:
        witness = witnesses[(ref.alias, path.group or "")]
        return witness.get(path.name)
    return tup.values.get(path.name)


def satisfies(
    components: Mapping[str, ServiceTuple] | CompositeTuple,
    selections: Sequence[SelectionPredicate] = (),
    joins: Sequence[JoinPredicate] = (),
    inputs: Mapping[str, Any] | None = None,
) -> bool:
    """Joint-witness satisfaction of all predicates by a composite tuple.

    Parameters
    ----------
    components:
        Mapping alias → service tuple (or a :class:`CompositeTuple`), which
        must cover every alias referenced by the predicates.
    selections, joins:
        The predicate set ``P``.
    inputs:
        Bindings for INPUT variables occurring in selections.
    """
    if isinstance(components, CompositeTuple):
        components = components.components
    inputs = dict(inputs or {})

    occurrences = group_occurrences(selections, joins)
    member_choices: list[tuple[Mapping[str, Any], ...]] = []
    for alias, group in occurrences:
        members = components[alias].group_members(group)
        if not members:
            # An empty repeating group cannot supply a witness, so any
            # predicate over it is unsatisfiable.
            return False
        member_choices.append(members)

    for assignment in itertools.product(*member_choices):
        witnesses = dict(zip(occurrences, assignment))
        ok = True
        for sel in selections:
            left = _resolve(components, witnesses, sel.attr)
            right = sel.resolved_operand(inputs)
            if not sel.comparator.apply(left, right):
                ok = False
                break
        if ok:
            for join in joins:
                left = _resolve(components, witnesses, join.left)
                right = _resolve(components, witnesses, join.right)
                if not join.comparator.apply(left, right):
                    ok = False
                    break
        if ok:
            return True
    return False


#: One compiled predicate: ``(components, witnesses) -> bool``, where
#: ``witnesses`` holds one member per witness slot.
_Test = Callable[[Mapping[str, ServiceTuple], tuple], bool]


def _accessor(ref: AttrRef, slots: Mapping[GroupKey, int]) -> Callable:
    """:func:`_resolve` for one ``ref``, with its lookups bound up front."""
    name = ref.path.name
    if ref.path.is_nested:
        slot = slots[(ref.alias, ref.path.group or "")]
        return lambda components, witnesses: witnesses[slot].get(name)
    alias = ref.alias
    return lambda components, witnesses: components[alias].values.get(name)


def _selection_test(
    sel: SelectionPredicate,
    slots: Mapping[GroupKey, int],
    inputs: Mapping[str, Any],
) -> _Test:
    get = _accessor(sel.attr, slots)
    comparator = sel.comparator
    if isinstance(sel.operand, InputRef) and sel.operand.name not in inputs:
        # Raised where satisfies raises: after the attribute resolves, and
        # only if evaluation reaches this predicate.
        message = f"missing binding for {sel.operand.name}"

        def missing(components, witnesses):
            get(components, witnesses)
            raise QueryError(message)

        return missing
    right = sel.resolved_operand(inputs)
    if right is None:

        def never(components, witnesses):
            get(components, witnesses)
            return False

        return never
    if comparator is Comparator.EQ:

        def equal(components, witnesses):
            left = get(components, witnesses)
            return left is not None and left == right

        return equal
    if comparator is Comparator.LIKE:
        match = like_regex(right).fullmatch

        def like(components, witnesses):
            left = get(components, witnesses)
            return left is not None and match(str(left)) is not None

        return like
    apply = comparator.apply
    return lambda components, witnesses: apply(get(components, witnesses), right)


def _join_test(join: JoinPredicate, slots: Mapping[GroupKey, int]) -> _Test:
    get_left = _accessor(join.left, slots)
    get_right = _accessor(join.right, slots)
    if join.comparator is Comparator.EQ:

        def equal(components, witnesses):
            left = get_left(components, witnesses)
            right = get_right(components, witnesses)
            return left is not None and right is not None and left == right

        return equal
    apply = join.comparator.apply
    return lambda components, witnesses: apply(
        get_left(components, witnesses), get_right(components, witnesses)
    )


def compile_predicates(
    selections: Sequence[SelectionPredicate] = (),
    joins: Sequence[JoinPredicate] = (),
    inputs: Mapping[str, Any] | None = None,
) -> Callable[[Mapping[str, ServiceTuple] | CompositeTuple], bool]:
    """:func:`satisfies` for one fixed predicate set, compiled once.

    Returns ``check(components)``, equal to ``satisfies(components,
    selections, joins, inputs)`` on every composite: the witness slots
    are the same sorted :func:`group_occurrences`, assignments are tried
    in the same ``itertools.product`` order, an empty group answers
    ``False`` before any predicate runs, and predicates run in the same
    order, so each error (a missing INPUT binding, an incomparable pair)
    is raised exactly where :func:`satisfies` raises it.  Compiling never
    raises.  ``inputs`` is read at compile time.
    """
    inputs = dict(inputs or {})
    occurrences = group_occurrences(selections, joins)
    slots = {occurrence: slot for slot, occurrence in enumerate(occurrences)}
    tests = [_selection_test(sel, slots, inputs) for sel in selections]
    tests += [_join_test(join, slots) for join in joins]

    def check(components: Mapping[str, ServiceTuple] | CompositeTuple) -> bool:
        if isinstance(components, CompositeTuple):
            components = components.components
        member_choices = []
        for alias, group in occurrences:
            members = components[alias].group_members(group)
            if not members:
                return False
            member_choices.append(members)
        for witnesses in itertools.product(*member_choices):
            for test in tests:
                if not test(components, witnesses):
                    break
            else:
                return True
        return False

    return check


def tuple_satisfies_selections(
    tup: ServiceTuple,
    alias: str,
    selections: Sequence[SelectionPredicate],
    inputs: Mapping[str, Any] | None = None,
) -> bool:
    """Single-service specialisation of :func:`satisfies`.

    Used when selection predicates are pushed down to the service node that
    makes them evaluable (Section 3.2: each predicate is "independently
    evaluated ... immediately after the service call that makes the
    selection or join predicates evaluable").
    """
    return satisfies({alias: tup}, selections=selections, inputs=inputs)


def filter_tuples(
    tuples: Iterable[ServiceTuple],
    alias: str,
    selections: Sequence[SelectionPredicate],
    inputs: Mapping[str, Any] | None = None,
) -> list[ServiceTuple]:
    """Filter a tuple stream through pushed-down selection predicates."""
    predicates = list(selections)
    if not predicates:
        return list(tuples)
    check = compile_predicates(predicates, (), inputs)
    return [tup for tup in tuples if check({alias: tup})]
