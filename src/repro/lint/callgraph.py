"""Project-wide symbol table and call graph for whole-program analysis.

The build is two-phase:

1. **Extraction** (:func:`extract_module_facts`) walks one module's AST and
   produces :class:`ModuleFacts` — a summary of classes, functions,
   imports, calls, assignments, and ``set_phase`` span opens.
2. **Linking** (:class:`Project`) resolves names across modules: imports to
   their targets, ``self.m()`` through the class hierarchy, and ``recv.m()``
   through the receiver's annotated type (the tree is mypy-strict, so
   parameter / attribute / return annotations carry enough type information
   for single-dispatch resolution).  Method calls through a base-class-typed
   receiver fan out to every override in the project — the conservative
   choice for the phase-typestate verifier built on top
   (:mod:`repro.lint.typestate`).

Unresolvable calls (``f()()``, subscripted receivers, ``Callable`` attributes
such as ``completion_hook``) simply contribute no edge; the per-file AST
rules still cover those sites by chain pattern.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: tracer phase constants -> short phase names used throughout the verifier.
PHASE_CONSTANTS = {
    "PHASE_STEADY": "steady",
    "PHASE_MIGRATING": "migrating",
    "PHASE_COMPLETING": "completing",
    "PHASE_RECOVERING": "recovering",
    "PHASE_REBALANCING": "rebalancing",
}


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None when the base is not a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _strip_wrappers(ann: str) -> str:
    ann = ann.strip().strip("\"'")
    changed = True
    while changed:
        changed = False
        for wrapper in ("Optional", "Final", "ClassVar"):
            prefix = wrapper + "["
            if ann.startswith(prefix) and ann.endswith("]"):
                ann = ann[len(prefix) : -1].strip().strip("\"'")
                changed = True
    return ann


def annotation_head(ann: Optional[str]) -> Optional[str]:
    """Head class name of an annotation string, through Optional/quotes.

    ``Optional[RebalanceSession]`` -> ``RebalanceSession``; containers like
    ``List[ShardWorker]`` resolve to the container head (not a project class,
    so dispatch through them is skipped — the conservative outcome).
    """
    if not ann:
        return None
    ann = _strip_wrappers(ann)
    head = ann.split("[", 1)[0].strip()
    # "A | None" unions: take the first non-None alternative.
    if "|" in head:
        head = next((p.strip() for p in head.split("|") if p.strip() != "None"), "")
    return head or None


#: container heads whose iteration yields their first type argument
_ITERABLE_CONTAINERS = {
    "List",
    "list",
    "Set",
    "set",
    "FrozenSet",
    "frozenset",
    "Sequence",
    "Iterable",
    "Iterator",
    "Collection",
    "Tuple",
    "tuple",
    "Deque",
    "deque",
}


def annotation_element(ann: Optional[str]) -> Optional[str]:
    """Element type head for iterating a container annotation.

    ``List[ShardWorker]`` -> ``ShardWorker``; ``Tuple[str, ...]`` -> ``str``;
    mapping types yield their keys, which are never protocol objects here,
    so they resolve to None.
    """
    if not ann:
        return None
    ann = _strip_wrappers(ann)
    if "[" not in ann or not ann.endswith("]"):
        return None
    head, inner = ann.split("[", 1)
    if head.strip() not in _ITERABLE_CONTAINERS:
        return None
    inner = inner[:-1]
    # First top-level comma-separated argument.
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            inner = inner[:i]
            break
    return annotation_head(inner)


# ---------------------------------------------------------------------------
# Facts (extraction output)
# ---------------------------------------------------------------------------


@dataclass
class FunctionFacts:
    name: str
    cls: Optional[str]
    lineno: int
    params: Dict[str, str] = field(default_factory=dict)
    returns: Optional[str] = None
    #: (line, dotted chain) of every call with a resolvable chain
    calls: List[Tuple[int, Tuple[str, ...]]] = field(default_factory=list)
    #: ordered local assignments: (target, kind, payload-chain); kind is one
    #: of "name" / "attr" / "call" — enough to re-run type inference at link.
    assigns: List[Tuple[str, str, Tuple[str, ...]]] = field(default_factory=list)
    #: phases opened by set_phase(PHASE_*) anywhere in the body
    opens: List[str] = field(default_factory=list)

    @property
    def qual_suffix(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ClassFacts:
    name: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    #: attribute name -> annotation head (from class-level or self.x: T)
    attrs: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> constructor chain for ``self.x = Ctor(...)``
    attr_ctors: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    methods: List[FunctionFacts] = field(default_factory=list)


@dataclass
class ModuleFacts:
    path: str
    module_path: str
    #: local name -> dotted import target ("repro.core.completion.complete_value_left_deep")
    imports: Dict[str, str] = field(default_factory=dict)
    classes: List[ClassFacts] = field(default_factory=list)
    functions: List[FunctionFacts] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _ann_str(node: Optional[ast.expr]) -> Optional[str]:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return None


def _extract_function(
    node: ast.AST, cls: Optional[ClassFacts]
) -> FunctionFacts:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    fn = FunctionFacts(name=node.name, cls=cls.name if cls else None, lineno=node.lineno)
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        raw = _ann_str(arg.annotation)
        if raw:
            fn.params[arg.arg] = raw
    fn.returns = _ann_str(node.returns)

    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = _dotted(sub.func)
            if chain is None:
                continue
            fn.calls.append((sub.lineno, chain))
            if chain[-1] == "set_phase" and sub.args:
                arg0 = sub.args[0]
                if isinstance(arg0, ast.Name) and arg0.id in PHASE_CONSTANTS:
                    phase = PHASE_CONSTANTS[arg0.id]
                    if phase not in fn.opens:
                        fn.opens.append(phase)
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                # ``self.x = Ctor(...)`` / ``self.x = param`` in methods
                # feeds class attribute types.
                if (
                    cls is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if isinstance(sub.value, ast.Call):
                        ctor = _dotted(sub.value.func)
                        if ctor is not None:
                            cls.attr_ctors.setdefault(target.attr, ctor)
                    elif (
                        isinstance(sub.value, ast.Name)
                        and sub.value.id in fn.params
                    ):
                        cls.attrs.setdefault(target.attr, fn.params[sub.value.id])
                continue
            value = sub.value
            # Peel ``x if cond else None`` so guarded idioms keep their type.
            if isinstance(value, ast.IfExp):
                for branch in (value.body, value.orelse):
                    if not (isinstance(branch, ast.Constant) and branch.value is None):
                        value = branch
                        break
            if isinstance(value, ast.Call):
                chain = _dotted(value.func)
                if chain is not None:
                    fn.assigns.append((target.id, "call", chain))
            elif isinstance(value, ast.Name):
                fn.assigns.append((target.id, "name", (value.id,)))
            elif isinstance(value, ast.Attribute):
                chain = _dotted(value)
                if chain is not None:
                    fn.assigns.append((target.id, "attr", chain))
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            # Loop targets are typed by their iterable's element type.
            if isinstance(sub.target, ast.Name):
                if isinstance(sub.iter, ast.Call):
                    chain = _dotted(sub.iter.func)
                    if chain is not None:
                        fn.assigns.append((sub.target.id, "iter_call", chain))
                else:
                    chain = _dotted(sub.iter)
                    if chain is not None:
                        fn.assigns.append((sub.target.id, "iter", chain))
        elif isinstance(sub, ast.AnnAssign):
            target = sub.target
            if (
                cls is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                raw = _ann_str(sub.annotation)
                if raw:
                    cls.attrs.setdefault(target.attr, raw)
            elif isinstance(target, ast.Name):
                raw = _ann_str(sub.annotation)
                if raw:
                    fn.assigns.append((target.id, "ann", (raw,)))
    return fn


def extract_module_facts(path: str, module_path: str, tree: ast.Module) -> ModuleFacts:
    """Summarize one parsed module into linkable :class:`ModuleFacts`."""
    facts = ModuleFacts(path=path, module_path=module_path)
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                facts.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
            for alias in stmt.names:
                facts.imports[alias.asname or alias.name] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions.append(_extract_function(stmt, None))
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassFacts(name=stmt.name, lineno=stmt.lineno)
            for base in stmt.bases:
                chain = _dotted(base)
                if chain is not None:
                    cls.bases.append(chain[-1])
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods.append(_extract_function(sub, cls))
                elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    raw = _ann_str(sub.annotation)
                    if raw:
                        cls.attrs.setdefault(sub.target.id, raw)
            facts.classes.append(cls)
    return facts


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


@dataclass
class LinkedFunction:
    qual: str
    module_path: str
    facts: FunctionFacts

    @property
    def cls(self) -> Optional[str]:
        return self.facts.cls

    @property
    def name(self) -> str:
        return self.facts.name


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    line: int


class Project:
    """Linked whole-program view: functions, classes, resolved call edges."""

    def __init__(self, modules: Sequence[ModuleFacts]):
        self.modules: List[ModuleFacts] = sorted(modules, key=lambda m: m.module_path)
        self.functions: Dict[str, LinkedFunction] = {}
        self.classes: Dict[str, List[Tuple[str, ClassFacts]]] = {}
        self._module_by_dotted: Dict[str, ModuleFacts] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self.edges: List[CallEdge] = []
        self._link()

    # -- symbol table ------------------------------------------------------

    @staticmethod
    def _dotted_name(module_path: str) -> str:
        stem = module_path[:-3] if module_path.endswith(".py") else module_path
        if stem.endswith("/__init__"):
            stem = stem[: -len("/__init__")]
        return stem.replace("/", ".")

    def qual(self, module_path: str, suffix: str) -> str:
        return f"{module_path}::{suffix}"

    def _link(self) -> None:
        self._module_by_path: Dict[str, ModuleFacts] = {
            m.module_path: m for m in self.modules
        }
        for mod in self.modules:
            self._module_by_dotted[self._dotted_name(mod.module_path)] = mod
            for fn in mod.functions:
                self.functions[self.qual(mod.module_path, fn.qual_suffix)] = LinkedFunction(
                    self.qual(mod.module_path, fn.qual_suffix), mod.module_path, fn
                )
            for cls in mod.classes:
                self.classes.setdefault(cls.name, []).append((mod.module_path, cls))
                for method in cls.methods:
                    q = self.qual(mod.module_path, method.qual_suffix)
                    self.functions[q] = LinkedFunction(q, mod.module_path, method)
        # Transitive subclass map (by class name; collisions union).
        direct: Dict[str, Set[str]] = {}
        for name, defs in self.classes.items():
            for _, cls in defs:
                for base in cls.bases:
                    direct.setdefault(base, set()).add(name)
        for name in list(self.classes):
            seen: Set[str] = set()
            stack = list(direct.get(name, ()))
            while stack:
                sub = stack.pop()
                if sub in seen:
                    continue
                seen.add(sub)
                stack.extend(direct.get(sub, ()))
            self._subclasses[name] = seen
        for mod in self.modules:
            for fn in mod.functions:
                self._link_function(mod, None, fn)
            for cls in mod.classes:
                for method in cls.methods:
                    self._link_function(mod, cls, method)
        self.edges.sort(key=lambda e: (e.caller, e.callee, e.line))
        self.callers: Dict[str, List[CallEdge]] = {}
        for edge in self.edges:
            self.callers.setdefault(edge.callee, []).append(edge)

    # -- type machinery ----------------------------------------------------

    def _class_defs(self, name: Optional[str]) -> List[Tuple[str, ClassFacts]]:
        return self.classes.get(name or "", [])

    def _mro_lookup(self, cls_name: str, method: str) -> List[str]:
        """Quals of ``method`` as defined on ``cls_name`` or its nearest base."""
        seen: Set[str] = set()
        stack = [cls_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            found: List[str] = []
            bases: List[str] = []
            for mod_path, cls in self._class_defs(name):
                for m in cls.methods:
                    if m.name == method:
                        found.append(self.qual(mod_path, f"{cls.name}.{method}"))
                bases.extend(cls.bases)
            if found:
                return found
            stack.extend(bases)
        return []

    def _dispatch(self, cls_name: str, method: str) -> List[str]:
        """Static target plus every subclass override (virtual dispatch)."""
        targets = list(self._mro_lookup(cls_name, method))
        for sub in sorted(self._subclasses.get(cls_name, ())):
            for mod_path, cls in self._class_defs(sub):
                for m in cls.methods:
                    if m.name == method:
                        q = self.qual(mod_path, f"{cls.name}.{method}")
                        if q not in targets:
                            targets.append(q)
        return targets

    def _attr_raw(self, cls_name: str, attr: str) -> Optional[str]:
        """Raw annotation string of ``attr`` on ``cls_name`` or a base."""
        seen: Set[str] = set()
        stack = [cls_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            for mod_path, cls in self._class_defs(name):
                if attr in cls.attrs:
                    return cls.attrs[attr]
                if attr in cls.attr_ctors:
                    ctor = cls.attr_ctors[attr]
                    if ctor[-1] in self.classes:
                        return ctor[-1]
                    raw = self._ctor_return(mod_path, ctor)
                    if raw:
                        return raw
                stack.extend(cls.bases)
        return None

    def _ctor_return(self, mod_path: str, ctor: Tuple[str, ...]) -> Optional[str]:
        """Return annotation of ``self.x = factory(...)``'s factory."""
        mod = self._module_by_path.get(mod_path)
        if mod is None or len(ctor) != 1:
            return None
        for target in self._resolve_chain(mod, None, {}, ctor, line=0):
            fn = self.functions.get(target)
            if fn is not None and fn.facts.returns:
                return fn.facts.returns
        return None

    def _attr_type(self, cls_name: str, attr: str) -> Optional[str]:
        return annotation_head(self._attr_raw(cls_name, attr))

    def _resolve_import(self, mod: ModuleFacts, name: str) -> List[str]:
        """Function quals an imported name refers to (empty if not a function)."""
        target = mod.imports.get(name)
        if target is None:
            return []
        # "pkg.module.symbol": try module=prefix, symbol=last component.
        parts = target.split(".")
        symbol = parts[-1]
        prefix = ".".join(parts[:-1])
        target_mod = self._module_by_dotted.get(prefix)
        if target_mod is not None:
            for fn in target_mod.functions:
                if fn.name == symbol:
                    return [self.qual(target_mod.module_path, symbol)]
            for cls in target_mod.classes:
                if cls.name == symbol:
                    return self._dispatch(symbol, "__init__")
        return []

    def _imported_class(self, mod: ModuleFacts, name: str) -> Optional[str]:
        target = mod.imports.get(name)
        if target is not None and target.split(".")[-1] in self.classes:
            return target.split(".")[-1]
        if name in self.classes:
            return name
        return None

    def _head_class(self, mod: ModuleFacts, raw: Optional[str]) -> Optional[str]:
        head = annotation_head(raw)
        return self._imported_class(mod, head) if head else None

    def _elem_class(self, mod: ModuleFacts, raw: Optional[str]) -> Optional[str]:
        elem = annotation_element(raw)
        return self._imported_class(mod, elem) if elem else None

    def _local_env(self, mod: ModuleFacts, cls: Optional[ClassFacts], fn: FunctionFacts) -> Dict[str, str]:
        """name -> class-name type environment for ``fn``'s locals."""
        env: Dict[str, str] = {}
        raws: Dict[str, str] = {}  # name -> raw annotation, for element types
        if cls is not None:
            env["self"] = cls.name
        for pname, raw in fn.params.items():
            raws[pname] = raw
            resolved = self._head_class(mod, raw)
            if resolved:
                env[pname] = resolved
        for target, kind, payload in fn.assigns:
            typ: Optional[str] = None
            if kind == "ann":
                raws[target] = payload[0]
                typ = self._head_class(mod, payload[0])
            elif kind == "name":
                typ = env.get(payload[0]) or self._imported_class(mod, payload[0])
                if payload[0] in raws:
                    raws[target] = raws[payload[0]]
            elif kind == "attr":
                typ = self._chain_type(mod, cls, env, payload)
                raw = self._chain_raw(mod, cls, env, payload, raws)
                if raw:
                    raws[target] = raw
            elif kind == "call":
                typ = self._call_result_type(mod, cls, env, payload)
            elif kind == "iter":
                raw = self._chain_raw(mod, cls, env, payload, raws)
                typ = self._elem_class(mod, raw)
            elif kind == "iter_call":
                targets = self._resolve_chain(mod, cls, env, payload, line=0)
                rets = {
                    self.functions[t].facts.returns
                    for t in targets
                    if t in self.functions and self.functions[t].facts.returns
                }
                if len(rets) == 1:
                    typ = self._elem_class(mod, rets.pop())
            if typ:
                env[target] = typ
        return env

    def _chain_raw(
        self,
        mod: ModuleFacts,
        cls: Optional[ClassFacts],
        env: Dict[str, str],
        chain: Tuple[str, ...],
        raws: Dict[str, str],
    ) -> Optional[str]:
        """Raw annotation of a dotted chain's value (for element typing)."""
        if len(chain) == 1:
            return raws.get(chain[0])
        owner = self._chain_type(mod, cls, env, chain[:-1])
        if owner is None:
            return None
        return self._attr_raw(owner, chain[-1])

    def _chain_type(
        self,
        mod: ModuleFacts,
        cls: Optional[ClassFacts],
        env: Dict[str, str],
        chain: Tuple[str, ...],
    ) -> Optional[str]:
        """Type (class name) of the value of a dotted chain like ``self.strategy``."""
        base = env.get(chain[0]) or self._imported_class(mod, chain[0])
        if base is None:
            return None
        cur: Optional[str] = base if len(chain) > 1 else env.get(chain[0])
        for attr in chain[1:]:
            if cur is None:
                return None
            cur = self._attr_type(cur, attr)
        return cur

    def _call_result_type(
        self,
        mod: ModuleFacts,
        cls: Optional[ClassFacts],
        env: Dict[str, str],
        chain: Tuple[str, ...],
    ) -> Optional[str]:
        # Constructor call?
        if len(chain) == 1:
            ctor = self._imported_class(mod, chain[0])
            if ctor:
                return ctor
        targets = self._resolve_chain(mod, cls, env, chain, line=0)
        heads = {
            annotation_head(self.functions[t].facts.returns)
            for t in targets
            if t in self.functions and self.functions[t].facts.returns
        }
        if len(heads) == 1:
            head = heads.pop()
            if head in self.classes:
                return head
        return None

    # -- call resolution ---------------------------------------------------

    def _resolve_chain(
        self,
        mod: ModuleFacts,
        cls: Optional[ClassFacts],
        env: Dict[str, str],
        chain: Tuple[str, ...],
        line: int,
    ) -> List[str]:
        if len(chain) == 1:
            name = chain[0]
            for fn in mod.functions:
                if fn.name == name:
                    return [self.qual(mod.module_path, name)]
            return self._resolve_import(mod, name)
        # Receiver type drives method dispatch.
        recv_type: Optional[str]
        if len(chain) == 2:
            recv = chain[0]
            recv_type = env.get(recv)
            if recv_type is None:
                # Module-qualified call: ``module.function(...)``.
                target = mod.imports.get(recv)
                if target is not None:
                    target_mod = self._module_by_dotted.get(target)
                    if target_mod is not None:
                        for fn in target_mod.functions:
                            if fn.name == chain[1]:
                                return [self.qual(target_mod.module_path, chain[1])]
                recv_type = self._imported_class(mod, recv)
                if recv_type is not None:
                    # ClassName.method(...) — static reference, no overrides.
                    return self._mro_lookup(recv_type, chain[1])
                return []
        else:
            recv_type = self._chain_type(mod, cls, env, chain[:-1])
        if recv_type is None:
            return []
        return self._dispatch(recv_type, chain[-1])

    def _link_function(self, mod: ModuleFacts, cls: Optional[ClassFacts], fn: FunctionFacts) -> None:
        caller = self.qual(mod.module_path, fn.qual_suffix)
        env = self._local_env(mod, cls, fn)
        for line, chain in fn.calls:
            for callee in self._resolve_chain(mod, cls, env, chain, line):
                if callee != caller:
                    self.edges.append(CallEdge(caller, callee, line))
