"""Physical plan construction.

``build_plan`` turns a :class:`~repro.plans.spec.PlanSpec` into a tree of
operators with a sink on top.  Migration strategies pass

* ``scans`` — existing scan operators to reuse (their windows and states
  survive a transition: the streams themselves do not change);
* ``state_provider`` — a callable mapping an operator identity to a
  :class:`~repro.operators.state.HashState` to adopt, or ``None`` for a
  fresh state.  JISC adopts old states for complete memberships; Moving
  State adopts and then computes the rest; Parallel Track adopts nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.metrics import Metrics
from repro.operators.base import BinaryOperator, Operator
from repro.operators.fused import Completer, compile_plan
from repro.operators.joins import SymmetricHashJoin
from repro.operators.scan import StreamScan
from repro.operators.sink import OutputSink
from repro.operators.state import HashState
from repro.plans import spec as spec_mod
from repro.plans.spec import PlanSpec, is_leaf, validate_spec
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

Identity = Tuple[str, frozenset]
OpFactory = Callable[[Operator, Operator, Metrics], BinaryOperator]
StateProvider = Callable[[Identity], Optional[HashState]]


class PhysicalPlan:
    """An instantiated operator tree plus lookup structures."""

    def __init__(
        self,
        spec: PlanSpec,
        root: Operator,
        sink: OutputSink,
        scans: Dict[str, StreamScan],
        internal: List[BinaryOperator],
    ):
        self.spec = spec
        self.root = root
        self.sink = sink
        self.scans = scans
        self.internal = internal
        self.by_identity: Dict[Identity, BinaryOperator] = {
            op.identity: op for op in internal
        }
        # What the JISC controller bound at ``attach``, keyed as the completion hook
        # is called; kernels call it where ``JoinOperator.process`` calls the hook.
        self.completers: Dict[Tuple[Operator, Operator], Completer] = {}
        self._states: Optional[Dict[str, HashState]] = None

    def feed(self, tup: StreamTuple) -> None:
        """Route an arriving base tuple to its stream's scan.

        A plan's first arrival runs the operators themselves and compiles
        every leaf's fused kernel for the arrivals after it.
        """
        scan = self.scans[tup.stream]
        if scan.scheduler is not None:
            scan.insert(tup)
        elif scan.fused is None:
            scan.insert(tup)
            compile_plan(self)
        else:
            scan.fused.arrive(tup)

    def operators(self) -> List[Operator]:
        """All operators: scans then internal nodes (children first)."""
        return list(self.scans.values()) + list(self.internal)

    def states(self) -> Dict[str, HashState]:
        """Every operator's state by label, scans first (a moved key's holders)."""
        if self._states is None:
            self._states = {op.label: op.state for op in self.operators()}
        return self._states

    def state_of(self, names: Iterable[str]) -> HashState:
        """State of the internal node covering exactly ``names`` (join kind).

        Convenience for tests; raises ``KeyError`` if no such node.
        """
        for op in self.internal:
            if op.membership == frozenset(names):
                return op.state
        raise KeyError(f"no internal node with membership {sorted(names)}")

    def is_left_deep(self) -> bool:
        return spec_mod.is_left_deep(self.spec)


def build_plan(
    plan_spec: PlanSpec,
    schema: Schema,
    metrics: Metrics,
    op_factory: Optional[OpFactory] = None,
    scans: Optional[Dict[str, StreamScan]] = None,
    state_provider: Optional[StateProvider] = None,
    sink: Optional[OutputSink] = None,
) -> PhysicalPlan:
    """Instantiate the operator tree for ``plan_spec``.

    Operators are created bottom-up; each internal node's state comes from
    ``state_provider`` (adopted) or is a fresh, complete, empty state.
    Adopters are responsible for setting completeness status afterwards.
    """
    names = validate_spec(plan_spec)
    for name in names:
        if name not in schema:
            raise ValueError(f"plan references unknown stream {name!r}")
    factory = op_factory or (lambda l, r, m: SymmetricHashJoin(l, r, m))
    if scans is None:
        scans = {}
    internal: List[BinaryOperator] = []

    def instantiate(node: PlanSpec, again: Callable[..., Operator]) -> Operator:
        # ``again`` is this function: had it called itself by name, the closure
        # would hold itself — a reference cycle pinning ``state_provider``, hence
        # the plan being replaced, until a collection found it.
        if is_leaf(node):
            scan = scans.get(node)
            if scan is None:
                desc = schema.descriptor(node)
                scan = StreamScan(node, desc.window, metrics, desc.window_kind)
                scans[node] = scan
            else:
                scan.parent = None
                scan.fused = None
            return scan
        left = again(node[0], again)
        right = again(node[1], again)
        op = factory(left, right, metrics)
        if state_provider is not None:
            adopted = state_provider(op.identity)
            if adopted is not None:
                op.state = adopted
        internal.append(op)
        return op

    root = instantiate(plan_spec, instantiate)
    out_sink = sink or OutputSink(metrics)
    out_sink.attach(root)
    return PhysicalPlan(plan_spec, root, out_sink, scans, internal)
