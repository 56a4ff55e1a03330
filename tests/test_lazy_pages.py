"""Differential tests: lazy simulated pages against eager generation.

A :class:`~repro.services.simulated.SimulatedInvocation` generates its
ranked result list chunk by chunk.  These tests pin that laziness is
invisible: concatenated chunks equal :meth:`TupleGenerator.generate`, and
the call log and virtual clock equal those of an invocation whose page
was drained before its first round trip (the eager reference), over every
interface of the example registries and the scenario packs, several
seeds, constraints, availability gates, and transient faults with
retries.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.events import CallLog, VirtualClock
from repro.errors import (
    ServiceInvocationError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.model.attributes import RepeatingGroup
from repro.query.ast import AttrRef, Comparator, SelectionPredicate
from repro.services.datagen import RowPlan, domain_value
from repro.services.marts import conference_trip_registry, movie_night_registry
from repro.services.scenarios import SCENARIOS
from repro.services.simulated import FaultProfile, SimulatedService

SEEDS = (0, 7, 2009)


def _interfaces():
    registries = [movie_night_registry(), conference_trip_registry()]
    registries += [pack.registry_factory() for pack in SCENARIOS.values()]
    seen = {}
    for registry in registries:
        for name in registry.interface_names:
            seen.setdefault(name, registry.interface(name))
    return list(seen.values())


INTERFACES = _interfaces()


def _attribute(interface, path):
    group, _, name = path.rpartition(".")
    attrs = {attr.name: attr for attr in interface.mart.attributes}
    return attrs[group].sub_attribute(name) if group else attrs[name]


def _inputs(interface, seed):
    """A binding for every input path, drawn from its domain."""
    rng = random.Random(f"{interface.name}/{seed}")
    return {
        path: domain_value(_attribute(interface, path), rng)
        for path in interface.input_paths()
    }


def _output_path(interface):
    """Some attribute path the service does not take as input."""
    for attr in interface.mart.attributes:
        if isinstance(attr, RepeatingGroup):
            path = f"{attr.name}.{attr.sub_attributes[0].name}"
        else:
            path = attr.name
        if path not in interface.input_paths():
            return path
    raise AssertionError(f"{interface.name} has no output attribute")


def _like(interface, pattern):
    return SelectionPredicate(
        AttrRef.parse(f"S.{_output_path(interface)}"), Comparator.LIKE, pattern
    )


def _drain(invocation):
    """All chunks until exhaustion, retrying failed round trips."""
    chunks = []
    for _ in range(10_000):
        try:
            chunk = invocation.next_chunk()
        except (ServiceUnavailableError, ServiceTimeoutError):
            continue
        if chunk is None:
            return chunks
        chunks.append(chunk)
    raise AssertionError("invocation never exhausted")


def _run(service, inputs, eager, **kwargs):
    clock, log = VirtualClock(), CallLog()
    invocation = service.invoke(inputs, clock, log, alias="S", **kwargs)
    if eager:
        invocation.results  # materialise the whole page up front
    chunks = _drain(invocation)
    return chunks, log.records, clock.now


CASES = {
    "plain": lambda iface: {},
    "constrained": lambda iface: {"constraints": (_like(iface, "%1%"),)},
    "unsatisfiable": lambda iface: {
        "constraints": (_like(iface, "no such value"),)
    },
    "gated": lambda iface: {"availability": 0.5},
    "faulty": lambda iface: {"call_timeout": 3.0},
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("interface", INTERFACES, ids=lambda i: i.name)
def test_lazy_page_matches_eager_reference(interface, case):
    profile = (
        FaultProfile(failure_rate=0.2, timeout_rate=0.2, slow_factor=10.0)
        if case == "faulty"
        else FaultProfile()
    )
    kwargs = CASES[case](interface)
    for seed in SEEDS:
        service = SimulatedService(interface, global_seed=seed, fault_profile=profile)
        inputs = _inputs(interface, seed)
        lazy_chunks, lazy_log, lazy_clock = _run(service, inputs, False, **kwargs)
        eager_chunks, eager_log, eager_clock = _run(service, inputs, True, **kwargs)
        assert lazy_chunks == eager_chunks
        assert lazy_log == eager_log
        assert lazy_clock == eager_clock

        flat = [tup for chunk in lazy_chunks for tup in chunk]
        gated = case == "gated" and not flat
        if not gated:
            expected = service.generator.generate(
                inputs, constraints=kwargs.get("constraints", ())
            )
            assert flat == expected
        if case == "unsatisfiable":
            assert flat == []
        if interface.is_chunked:
            assert all(len(c) <= interface.chunk_size for c in lazy_chunks)
        else:
            assert len(lazy_chunks) <= 1


def test_gate_closes_some_invocations():
    """The availability case covers both a closed and an open gate."""
    outcomes = set()
    for interface in INTERFACES:
        for seed in SEEDS:
            service = SimulatedService(interface, global_seed=seed)
            inputs = _inputs(interface, seed)
            chunks, _, _ = _run(service, inputs, False, availability=0.5)
            if service.generator.generate(inputs):
                outcomes.add(bool(chunks))
    assert outcomes == {True, False}


def test_faults_force_retries():
    """The faulty case really retries: failed round trips are logged."""
    interface = next(i for i in INTERFACES if i.is_chunked)
    service = SimulatedService(
        interface,
        global_seed=7,
        fault_profile=FaultProfile(failure_rate=0.3, timeout_rate=0.3),
    )
    _, records, _ = _run(service, _inputs(interface, 7), False, call_timeout=3.0)
    outcomes = {record.outcome for record in records}
    assert "ok" in outcomes
    assert outcomes & {"error", "timeout"}


def test_retry_gets_the_same_chunk():
    """A chunk that fails mid-page is re-requested, not skipped."""
    interface = next(
        i for i in INTERFACES if i.is_chunked and i.stats.avg_cardinality > 2 * i.chunk_size
    )
    size = interface.chunk_size
    for seed in range(50):
        inputs = _inputs(interface, seed)
        reference = SimulatedService(interface, global_seed=seed).generator.generate(
            inputs
        )
        service = SimulatedService(
            interface, global_seed=seed, fault_profile=FaultProfile(failure_rate=0.5)
        )
        invocation = service.invoke(inputs, VirtualClock(), CallLog())
        delivered, retried = [], False
        while len(delivered) < 2:
            try:
                delivered.append(invocation.next_chunk())
            except ServiceUnavailableError:
                retried = retried or bool(delivered)
        assert delivered == [reference[:size], reference[size : 2 * size]]
        if retried:
            return
    raise AssertionError("no failure between the first two chunks")


@pytest.fixture()
def row_counter(monkeypatch):
    """Counts rows drawn through every bound row plan."""
    counter = {"rows": 0}
    original = RowPlan.bind

    def bind(self, inputs):
        row = original(self, inputs)

        def counted(rng):
            counter["rows"] += 1
            return row(rng)

        return counted

    monkeypatch.setattr(RowPlan, "bind", bind)
    return counter


@pytest.mark.parametrize(
    "interface",
    [i for i in INTERFACES if i.is_chunked],
    ids=lambda i: i.name,
)
def test_chunks_generate_only_what_they_deliver(interface, row_counter):
    for seed in SEEDS:
        row_counter["rows"] = 0
        service = SimulatedService(interface, global_seed=seed)
        invocation = service.invoke(_inputs(interface, seed), VirtualClock(), CallLog())
        assert row_counter["rows"] == 0
        for n in range(1, 4):
            invocation.next_chunk()
            assert row_counter["rows"] <= n * interface.chunk_size
        if invocation.remaining:  # generates the rest of the page
            assert row_counter["rows"] > 3 * interface.chunk_size


def test_unchunked_service_generates_its_page_on_the_first_call(row_counter):
    interface = next(
        i for i in INTERFACES if not i.is_chunked and i.stats.avg_cardinality >= 2
    )
    service = SimulatedService(interface, global_seed=3)
    inputs = _inputs(interface, 3)
    invocation = service.invoke(inputs, VirtualClock(), CallLog())
    assert row_counter["rows"] == 0
    chunk = invocation.next_chunk()
    assert chunk == service.generator.generate(inputs)
    assert invocation.next_chunk() is None


def test_missing_input_raises_at_invoke_not_first_chunk():
    interface = next(i for i in INTERFACES if i.input_paths())
    service = SimulatedService(interface, global_seed=1)
    with pytest.raises(ServiceInvocationError):
        service.invoke({}, VirtualClock(), CallLog())


def test_results_and_remaining_drain_on_demand():
    interface = next(
        i for i in INTERFACES if i.is_chunked and i.stats.avg_cardinality > i.chunk_size
    )
    service = SimulatedService(interface, global_seed=11)
    inputs = _inputs(interface, 11)
    expected = service.generator.generate(inputs)
    invocation = service.invoke(inputs, VirtualClock(), CallLog())
    first = invocation.next_chunk()
    assert invocation.remaining == len(expected) - len(first)
    assert invocation.results == expected
    rest = [tup for chunk in _drain(invocation) for tup in chunk]
    assert first + rest == expected
    assert invocation.remaining == 0
