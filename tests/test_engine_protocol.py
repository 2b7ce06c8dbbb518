"""The engine protocol, checked where mypy cannot run (ROADMAP item 5).

``StrategyExecutor`` / ``ShardableExecutor`` / ``ProbeSource`` (``engine/executor.py``)
are what the drivers, the telemetry hub, the optimizer and the shard worker use of an
engine.  This holds every engine class against them with ``inspect.signature`` and
``typing.get_type_hints``: member names, arity, parameter names and kinds, return
annotations — the part of ``mypy --strict``'s verdict that PRs 13-21 had to establish
by reading.  What a class does *not* implement is a table here, held exactly: closing
a gap, or opening one, changes this file.
"""

import inspect
import typing

import pytest

import repro.eddy.stem
import repro.engine.metrics
import repro.migration.base
import repro.operators.base
import repro.plans.build
from repro.eddy.stem import SteM
from repro.engine.executor import ProbeSource, ShardableExecutor, StrategyExecutor
from repro.operators.base import Operator
from repro.optimizer.adaptive import AdaptiveEngine
from repro.shard import ShardedExecutor, make_strategy
from repro.shard.worker import STRATEGY_NAMES
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("A", "B", "C")
#: Names the annotations import under ``TYPE_CHECKING`` only.
NAMESPACE = {
    name: value
    for module in (
        repro.plans.build,
        repro.migration.base,
        repro.engine.metrics,
        repro.operators.base,
        repro.eddy.stem,
    )
    for name, value in vars(module).items()
}
#: The classes whose instances stand where a ``ProbeSource`` is asked for
#: (not a runtime protocol: their instances are checked below).
PROBE_SOURCES = (Operator, SteM)

ENGINES = {
    name: (lambda name=name: make_strategy(name, Schema.uniform(NAMES, 4), NAMES))
    for name in STRATEGY_NAMES
}
ENGINES["sharded"] = lambda: ShardedExecutor(Schema.uniform(NAMES, 4), NAMES)
ENGINES["adaptive"] = lambda: AdaptiveEngine(ENGINES["jisc"]())
ENGINES["adaptive-sharded"] = lambda: AdaptiveEngine(ENGINES["sharded"]())

#: What each engine does not implement of ``ShardableExecutor`` (which extends
#: ``StrategyExecutor``); the six strategies implement all of it.  The coordinator is
#: not itself shardable and answers ``state_sizes`` in place of plans and probe
#: sources (its hubs are per worker); ``AdaptiveEngine`` is a driver around an engine
#: (``.strategy``), not yet an engine (ROADMAP item 5).  ``current_order`` is in
#: nobody's gap: the coordinator answers with its last broadcast spec, the driver
#: with the order it costs.
NOT_SHARDABLE = {"output_times", "evict", "kernel", "carried", "extract", "install"}
GAPS = {
    "sharded": {"live_plans", "probe_sources"} | NOT_SHARDABLE,
    "adaptive": {"name", "metrics", "state_sizes", "live_tuples"}
    | {"live_plans", "probe_sources"}
    | NOT_SHARDABLE,
}
GAPS["adaptive-sharded"] = GAPS["adaptive"]


def hints_of(obj):
    return typing.get_type_hints(obj, localns=NAMESPACE)


def protocol_members(protocol):
    """``name -> ("attribute", hint) | ("property", hint) | ("method", function)``."""
    members = {}
    for klass in reversed(protocol.__mro__):
        if klass in (object, typing.Protocol, typing.Generic):
            continue
        for name, hint in hints_of(klass).items():
            members[name] = ("attribute", hint)
        for name, raw in vars(klass).items():
            if isinstance(raw, property):
                members[name] = ("property", hints_of(raw.fget)["return"])
            elif inspect.isfunction(raw):
                members[name] = ("method", raw)
    return {name: member for name, member in members.items() if not name.startswith("_")}


def fits(sub, sup):
    """Is an expression annotated ``sub`` acceptable where ``sup`` is declared?"""
    if sub == sup or typing.Any in (sub, sup):
        return True
    if typing.get_origin(sup) is typing.Union:
        subs = typing.get_args(sub) if typing.get_origin(sub) is typing.Union else (sub,)
        return all(any(fits(s, option) for option in typing.get_args(sup)) for s in subs)
    if sup is ProbeSource:
        return sub in PROBE_SOURCES
    sub_origin, sup_origin = typing.get_origin(sub) or sub, typing.get_origin(sup) or sup
    if not (inspect.isclass(sub_origin) and inspect.isclass(sup_origin)):
        return False
    if not issubclass(sub_origin, sup_origin):
        return False
    sub_args, sup_args = typing.get_args(sub), typing.get_args(sup)
    if not sub_args or not sup_args:
        return True  # a bare ``Tuple`` / ``List`` is ``[Any, ...]``
    if sub_origin is tuple and Ellipsis not in sub_args + sup_args:
        return len(sub_args) == len(sup_args) and all(map(fits, sub_args, sup_args))
    if sup_origin in (list, dict, set):  # invariant: what is read may also be written
        return all(fits(a, b) and fits(b, a) for a, b in zip(sub_args, sup_args))
    return all(map(fits, sub_args, sup_args))


def check_method(cls, name, declared):
    found = inspect.getattr_static(cls, name)
    assert inspect.isfunction(found), f"{cls.__name__}.{name} is not a plain method"
    want = list(inspect.signature(declared).parameters.values())
    got = list(inspect.signature(found).parameters.values())
    for i, param in enumerate(want):
        assert i < len(got), f"{cls.__name__}.{name} takes no {param.name!r}"
        assert (got[i].name, got[i].kind) == (param.name, param.kind), (cls.__name__, name, got[i])
    for extra in got[len(want) :]:
        assert extra.default is not extra.empty or extra.kind in (
            extra.VAR_POSITIONAL,
            extra.VAR_KEYWORD,
        ), f"{cls.__name__}.{name} requires {extra.name!r}, which no caller of the protocol passes"
    returns, declared_returns = hints_of(found).get("return"), hints_of(declared)["return"]
    assert fits(returns, declared_returns), (cls.__name__, name, returns, declared_returns)


def check_value(value, hint, where):
    origin = typing.get_origin(hint) or hint
    if inspect.isclass(origin):
        assert isinstance(value, origin), (where, value, hint)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_every_engine_class_against_the_executor_protocols(engine_name):
    engine = ENGINES[engine_name]()
    cls = type(engine)
    members = protocol_members(ShardableExecutor)
    assert set(protocol_members(StrategyExecutor)) < set(members)
    missing = {name for name in members if not hasattr(engine, name)}
    assert missing == GAPS.get(engine_name, set())
    for name in sorted(set(members) - missing):
        kind, declared = members[name]
        if kind == "method":
            check_method(cls, name, declared)
            continue
        # an attribute, or a property that an implementation may also hold as one
        found = inspect.getattr_static(cls, name, None)
        if isinstance(found, property):
            assert kind == "property", f"{cls.__name__}.{name} cannot be assigned"
            assert fits(hints_of(found.fget)["return"], declared), (cls.__name__, name)
        check_value(getattr(engine, name), declared, (cls.__name__, name))


@pytest.mark.parametrize("engine_name", sorted(set(ENGINES) - set(GAPS)))
def test_what_an_engine_answers_is_what_the_protocol_says(engine_name):
    """Annotations say what mypy would accept; this reads the answers themselves —
    and the ``ProbeSource`` half, which no annotation can show: ``probes`` and
    ``hits`` are plain ints on whatever ``probe_sources`` hands out."""
    engine = ENGINES[engine_name]()
    members = protocol_members(ShardableExecutor)
    held = StreamTuple("A", 0, 1)
    engine.process_batch([held, StreamTuple("B", 0, 1)])
    engine.process(StreamTuple("C", 0, 1))
    for name in ("outputs", "output_times", "output_lineages", "live_plans", "state_sizes"):
        kind, declared = members[name]
        value = getattr(engine, name)
        if kind == "method":
            value, declared = value(), hints_of(declared)["return"]
        check_value(value, declared, name)
    assert len(engine.outputs) == len(engine.output_times) == len(engine.output_lineages()) == 1
    assert engine.live_tuples()["A"] == [held] and set(engine.live_tuples()) == set(NAMES)
    assert engine.evict(held) is True and engine.evict(held) is False
    sources = engine.probe_sources()
    assert sources and set(hints_of(ProbeSource)) == {"probes", "hits"}
    for label, source in sources:
        assert isinstance(label, str) and isinstance(source, PROBE_SOURCES)
        assert type(source.probes) is int and type(source.hits) is int
    assert sum(source.probes for _, source in sources) > 0
    assert all(isinstance(n, int) for n in engine.state_sizes().values())
