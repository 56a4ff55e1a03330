"""Deterministic synthetic data generation for simulated services.

The chapter evaluates its framework over live Web sources (movie, theatre,
restaurant, flight services...).  Those are unavailable and irreproducible,
so this module synthesises result lists with the *statistical* properties
the optimizer and join methods actually depend on:

* values of join attributes are drawn uniformly from their declared
  :class:`~repro.model.attributes.Domain` — an equijoin over a domain of
  size ``n`` then matches with probability ``1/n``, which is how example
  schemas encode the chapter's pattern selectivities (e.g. ``Shows`` = 2%
  via a 50-title domain);
* input bindings are echoed into result tuples, so pipe joins are
  consistent by construction (asking a restaurant service for city X
  yields restaurants in city X);
* scores follow the interface's scoring function, so results arrive in
  ranking order with the declared decay shape;
* everything is a pure function of ``(seed, interface, inputs,
  constraints)`` — the same invocation always returns the same tuples,
  however many of them a caller pulls.

Rows come from a :class:`RowPlan` compiled once per interface: one drawer
per attribute, specialised by type and domain size, emitting values
already in :func:`~repro.model.tuples.freeze_value`'s canonical form.
:meth:`TupleGenerator.iter_results` yields them one at a time, so a
caller that consumes only a prefix of the ranked list pays only for it.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.ast import SelectionPredicate

from repro.errors import ServiceInvocationError
from repro.model.attributes import Attribute, DataType, RepeatingGroup
from repro.model.service import ServiceInterface
from repro.model.tuples import ServiceTuple, freeze_value

__all__ = ["derive_seed", "domain_value", "RowPlan", "TupleGenerator"]

#: Value universe of an unsized domain (join selectivity effectively 0).
_UNSIZED = 1_000_000

#: Day-of-year index -> date string.  Dates fall in 2009, the venue year.
_DATES = tuple(
    f"2009-{month % 12 + 1:02d}-{dom + 1:02d}"
    for month, dom in (divmod(day, 31) for day in range(365))
)


def derive_seed(global_seed: int, interface_name: str, inputs: Mapping[str, Any]) -> int:
    """Stable 64-bit seed for one invocation.

    Uses blake2b over a canonical rendering so the same (seed, service,
    inputs) triple regenerates identical results across processes —
    ``hash()`` would not, because of string-hash randomisation.
    """
    canonical = f"{global_seed}|{interface_name}|" + "|".join(
        f"{key}={inputs[key]!r}" for key in sorted(inputs)
    )
    digest = hashlib.blake2b(canonical.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# A drawer is a tuple ``(function, a, b, c)``; ``function(rng, a, b, c)``
# draws one value.  The functions are shared module-level code and the
# parameters plain data, so a compiled plan costs one small tuple per
# attribute: every simulated service keeps its plan for its lifetime, and
# serving keeps one service per interface alive in every open session.
#
# Index draws inline ``rng.randrange(n)``'s algorithm — rejection sampling
# over ``n.bit_length()`` bits — so they make the very ``getrandbits``
# calls it makes, and leave the RNG in the same state.


def _draw_integer(rng: random.Random, n: int, bits: int, _: Any) -> int:
    index = rng.getrandbits(bits)
    while index >= n:
        index = rng.getrandbits(bits)
    return index


def _draw_float(rng: random.Random, n: int, bits: int, span: float) -> float:
    index = rng.getrandbits(bits)
    while index >= n:
        index = rng.getrandbits(bits)
    # The index is dropped: it is drawn only to keep the RNG stream that
    # recorded digests depend on.  rng.uniform(0.0, span) is
    # 0.0 + span * random(), the same float; quantised for reproducible
    # display.
    return round(span * rng.random(), 3)


def _draw_boolean(rng: random.Random, n: int, bits: int, _: Any) -> bool:
    index = rng.getrandbits(bits)
    while index >= n:
        index = rng.getrandbits(bits)
    return index % 2 == 0


def _draw_date(rng: random.Random, n: int, bits: int, _: Any) -> str:
    index = rng.getrandbits(bits)
    while index >= n:
        index = rng.getrandbits(bits)
    return _DATES[index % 365]


def _draw_text(rng: random.Random, n: int, bits: int, prefix: str) -> str:
    index = rng.getrandbits(bits)
    while index >= n:
        index = rng.getrandbits(bits)
    return f"{prefix}{index}"


def _echo(rng: random.Random, _: Any, __: Any, value: Any) -> Any:
    """A bound input: echoed, no RNG call."""
    return value


_TYPED_DRAWS = {
    DataType.INTEGER: _draw_integer,
    DataType.FLOAT: _draw_float,
    DataType.BOOLEAN: _draw_boolean,
    DataType.DATE: _draw_date,
}


def _drawer(attribute: Attribute) -> tuple:
    """The uniform value drawer for an attribute's domain.

    Sized domains enumerate ``size`` distinct values; unsized domains fall
    back to a large universe (join selectivity then effectively zero,
    suitable for payload attributes like URLs).  STRING and ANY values
    render as ``domain#index``.
    """
    domain = attribute.domain
    n = domain.size or _UNSIZED
    draw = _TYPED_DRAWS.get(domain.dtype, _draw_text)
    if draw is _draw_float:
        extra: Any = float(n)
    elif draw is _draw_text:
        extra = sys.intern(f"{domain.name}#")
    else:
        extra = None
    return (draw, n, n.bit_length(), extra)


def domain_value(attribute: Attribute, rng: random.Random) -> Any:
    """Draw one uniform value from an attribute's domain."""
    draw, n, bits, extra = _drawer(attribute)
    return draw(rng, n, bits, extra)


def _draw_member(rng: random.Random, subs: tuple, names: tuple, order: tuple | None) -> tuple:
    """One group member in :func:`freeze_value`'s form.

    Sub-values are drawn in declared order and emitted as ``(name,
    value)`` pairs sorted by name; ``order`` maps sorted to declared
    positions (None when they coincide).
    """
    values = [draw(rng, n, bits, extra) for draw, n, bits, extra in subs]
    if order is not None:
        values = [values[i] for i in order]
    return tuple(zip(names, values))


def _draw_group(rng: random.Random, fixed: int | None, count: tuple, members: tuple) -> tuple:
    """A repeating group's members, as a tuple.

    ``fixed`` is the group's ``avg_members``; without it the count is
    drawn first, as ``rng.randint(low, high)`` would: ``low`` plus an
    index below ``high + 1 - low`` (``count`` holds ``low``, that bound
    and its bit length).  ``members`` holds the sub drawers of the first
    member (which may echo bound sub-attributes) and of the others, the
    name order, and the sub-attributes' input paths.
    """
    first, rest, names, order, _ = members
    if fixed is None:
        low, n, bits = count
        index = rng.getrandbits(bits)
        while index >= n:
            index = rng.getrandbits(bits)
        fixed = low + index
    if fixed <= 0:
        return ()
    out = [_draw_member(rng, first, names, order)]
    for _ in range(fixed - 1):
        out.append(_draw_member(rng, rest, names, order))
    return tuple(out)


class RowPlan:
    """Per-attribute drawers for one mart, compiled once per generator.

    :meth:`bind` specialises the plan to one invocation's inputs and
    returns the row function: each call draws one tuple's values, in
    attribute order, with the exact RNG calls of the interpreted
    per-value path, and returns them frozen — atomic values as drawn,
    a repeating group as a tuple of members, each member a tuple of
    ``(sub-attribute, value)`` pairs sorted by name.
    """

    def __init__(
        self,
        attributes: Sequence[Attribute | RepeatingGroup],
        min_group_members: int = 1,
        max_group_members: int = 3,
    ) -> None:
        width = max_group_members + 1 - min_group_members
        if width <= 0:
            raise ValueError(
                f"min_group_members {min_group_members} exceeds "
                f"max_group_members {max_group_members}"
            )
        count = (min_group_members, width, width.bit_length())
        steps = []
        for attr in attributes:
            if isinstance(attr, RepeatingGroup):
                subs = tuple(_drawer(sub) for sub in attr.sub_attributes)
                names = tuple(sub.name for sub in attr.sub_attributes)
                order = tuple(sorted(range(len(names)), key=names.__getitem__))
                members = (
                    subs,
                    subs,
                    tuple(names[i] for i in order),
                    None if order == tuple(range(len(names))) else order,
                    tuple(sys.intern(f"{attr.name}.{name}") for name in names),
                )
                steps.append((attr.name, _draw_group, attr.avg_members, count, members))
            else:
                steps.append((attr.name, *_drawer(attr)))
        #: ``(name, function, a, b, c)`` per attribute, in mart order.
        self.steps = tuple(steps)

    def bind(self, inputs: Mapping[str, Any]) -> Callable[[random.Random], dict[str, Any]]:
        """The row function for one invocation's input bindings.

        A bound attribute echoes its (frozen) binding instead of drawing.
        A bound ``Group.Sub`` is echoed by the group's first member only —
        the service was asked for objects whose group contains that
        value — and the remaining members are random.
        """
        steps = list(self.steps)
        for index, (name, draw, a, b, c) in enumerate(steps):
            if draw is _draw_group:
                subs, rest, names, order, paths = c
                bound = [inputs.get(path) for path in paths]
                if any(value is not None for value in bound):
                    first = tuple(
                        sub if value is None else (_echo, None, None, freeze_value(value))
                        for sub, value in zip(subs, bound)
                    )
                    steps[index] = (name, draw, a, b, (first, rest, names, order, paths))
                continue
            value = inputs.get(name)
            if value is not None:
                steps[index] = (name, _echo, None, None, freeze_value(value))

        def row(rng: random.Random) -> dict[str, Any]:
            return {name: draw(rng, a, b, c) for name, draw, a, b, c in steps}

        return row


@dataclass(frozen=True)
class TupleGenerator:
    """Generates the ranked result list of one simulated invocation."""

    interface: ServiceInterface
    global_seed: int = 0
    min_group_members: int = 1
    max_group_members: int = 3
    row_plan: RowPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "row_plan",
            RowPlan(
                self.interface.mart.attributes,
                self.min_group_members,
                self.max_group_members,
            ),
        )

    def result_size(self, rng: random.Random) -> int:
        """Invocation cardinality around the declared average.

        Selective services (average below one) return one tuple with the
        average as probability; proliferative ones draw uniformly within
        +/-25% of the average, at least one tuple.
        """
        avg = self.interface.stats.avg_cardinality
        if avg <= 0:
            return 0
        if avg < 1.0:
            return 1 if rng.random() < avg else 0
        spread = max(1, round(avg * 0.25))
        return max(1, round(avg) + rng.randint(-spread, spread))

    def generate(
        self,
        inputs: Mapping[str, Any],
        constraints: "Sequence[SelectionPredicate]" = (),
    ) -> list[ServiceTuple]:
        """Full ranked result list for one invocation."""
        return list(self.iter_results(inputs, constraints))

    def iter_results(
        self,
        inputs: Mapping[str, Any],
        constraints: "Sequence[SelectionPredicate]" = (),
    ) -> Iterator[ServiceTuple]:
        """The ranked result list of one invocation, one tuple at a time.

        ``constraints`` are input-side predicates the real service would
        apply server-side (e.g. "opening date after X" in a search form);
        generated tuples that fail their joint-witness evaluation are
        dropped and the survivors renumbered, preserving ranking order.

        Inputs are checked, and the seed, result size, constraints and
        row function fixed, here; tuples are generated as the iterator is
        advanced.  Raises :class:`~repro.errors.ServiceInvocationError`
        when a declared input path is missing from ``inputs``.
        """
        missing = [p for p in self.interface.input_paths() if p not in inputs]
        if missing:
            raise ServiceInvocationError(
                f"{self.interface.name}: missing input bindings {missing}"
            )
        rng = random.Random(
            derive_seed(self.global_seed, self.interface.name, inputs)
        )
        total = self.result_size(rng)
        passes = alias = None
        if constraints:
            # Local import: the query layer depends on the model layer
            # only, so importing it here (rather than at module top) keeps
            # the services package importable from the query tests
            # without a cycle.
            from repro.query.predicates import compile_predicates

            alias = constraints[0].attr.alias
            passes = compile_predicates(list(constraints))
        return self._rows(self.row_plan.bind(inputs), rng, total, passes, alias)

    def _rows(
        self,
        row: Callable[[random.Random], dict[str, Any]],
        rng: random.Random,
        total: int,
        passes: Callable[[Mapping[str, ServiceTuple]], bool] | None,
        alias: str | None,
    ) -> Iterator[ServiceTuple]:
        # Constraints shape the *data*, not the page size: a service asked
        # for "openings after X" still returns its usual result-list size,
        # every entry satisfying the constraint.  Rejection-sample until
        # `total` satisfying tuples exist (bounded attempts keep
        # unsatisfiable constraints from looping).
        source = self.interface.name
        score_at = self.interface.scoring.score_at
        make = ServiceTuple.from_frozen
        position = attempts = 0
        max_attempts = max(20, total * 20)
        while position < total and attempts < max_attempts:
            attempts += 1
            candidate = make(
                row(rng), min(1.0, max(0.0, score_at(position))), source, position
            )
            if passes is not None and not passes({alias: candidate}):
                continue
            position += 1
            yield candidate
