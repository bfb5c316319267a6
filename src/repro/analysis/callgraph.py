"""Project-wide call graph and async-reachability analysis.

The per-module rules in :mod:`repro.analysis.rules` see one AST at a
time; ``async-blocking`` needs to know what the *event loop* can reach
across the whole project, and ``api-surface`` needs every module's
scope.  From the already-parsed
:class:`~repro.analysis.engine.Project` this module builds:

- a **symbol table** mapping qualified function names
  (``service/scheduler.py::SweepScheduler.submit``) to their
  definitions, with per-module scopes: import aliases (including
  function-level and ``if TYPE_CHECKING`` imports), classes and nested
  defs, the ``repro.api`` facade's ``_EXPORTS`` table, and names bound
  by ``from x import y`` inside a module-level ``__getattr__``;
- a conservative **caller -> callee edge set**: direct calls, ``self.``
  method calls (through project base classes), calls through import and
  re-export chains, constructor calls, and attribute calls on receivers
  whose type is known from parameter annotations, ``self.x = <annotated
  param>`` / ``self.x = ClassName(...)`` assignments, class-body
  annotations, or annotated return types of project functions;
- an **async-reachability** pass: every function transitively reachable
  from an ``async def`` body runs on the event loop — unless the edge
  crosses an *executor boundary*.  A callable reference handed to
  ``loop.run_in_executor`` / ``asyncio.to_thread`` runs on a worker
  thread or process, so such edges exist but do not propagate loop
  reachability.  Callback references handed to ``loop.call_soon`` /
  ``call_soon_threadsafe`` / ``call_later`` / ``call_at`` run *on* the
  loop and propagate normally.

Everything is deliberately conservative: an edge is recorded only when
the target is certain.  :meth:`CallGraph.stats` exposes resolution
counters, and a live-repo test holds the resolved fraction above a
floor so a resolver regression cannot quietly blind the rules.
"""

from __future__ import annotations

import ast
import builtins
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import ModuleInfo, Project

MODULE_BODY = "<module>"

_BUILTIN_NAMES = frozenset(dir(builtins))
_MAX_FOLLOW = 16

# Callable-reference argument index for executor hand-offs (the target
# runs OFF the loop) and loop-callback hand-offs (the target runs ON
# the loop).
EXECUTOR_BOUNDARY_CALLS: Dict[str, int] = {"run_in_executor": 1, "to_thread": 0}
LOOP_CALLBACK_CALLS: Dict[str, int] = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "call_later": 1,
    "call_at": 1,
}

# Scope-entry kinds: ("func", key) / ("class", key) / ("module", dotted)
# / ("external", dotted) / ("const", key).
Entry = Tuple[str, str]
# Type references: ("class", class_key), ("external", dotted), or
# ("unknown", "") — a name that exists locally but has no inferable type.
TypeRef = Tuple[str, str]
UNKNOWN: TypeRef = ("unknown", "")


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    key: str
    """``<module rel>::<qualname>`` — globally unique."""
    module: str
    qualname: str
    name: str
    is_async: bool
    lineno: int
    class_key: Optional[str] = None


@dataclass
class ClassInfo:
    """A top-level class: its methods, bases and inferred attribute types."""

    key: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, TypeRef] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression, with whatever resolution was possible."""

    caller: str
    module: str
    node: ast.Call
    chain: Optional[str]
    """Literal dotted source text of the callee (``self.store.get``)."""
    callee: Optional[str] = None
    """Resolved project function key, when certain."""
    external: Optional[str] = None
    """Resolved external dotted name (``time.sleep``), when known."""
    builtin: Optional[str] = None
    via_executor: bool = False
    candidate: bool = False
    """True when the call *should* be resolvable (intra-package shape)."""

    @property
    def resolved(self) -> bool:
        return self.callee is not None


@dataclass
class CallGraph:
    """Symbol table + conservative edges + loop reachability."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    edges: List[Tuple[str, str, bool]] = field(default_factory=list)
    """(caller key, callee key, via_executor)."""
    loop_reachable: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    """function key -> shortest chain of keys from an ``async def`` root."""
    module_index: Dict[str, "_ModuleIndex"] = field(default_factory=dict)
    """dotted module name -> scope index (used by ``api-surface``)."""

    def short(self, key: str) -> str:
        info = self.functions.get(key)
        if info is None:
            return key
        return f"{info.module}:{info.qualname}"

    def reach_path(self, key: str, limit: int = 5) -> str:
        """Human-readable async-origin chain for ``key``."""
        chain = self.loop_reachable.get(key, ())
        names = [self.short(k) for k in chain]
        if len(names) > limit:
            names = names[:2] + ["..."] + names[-(limit - 3):]
        return " -> ".join(names)

    def stats(self) -> Dict[str, object]:
        candidates = [c for c in self.calls if c.candidate]
        resolved = [c for c in candidates if c.resolved]
        fraction = (len(resolved) / len(candidates)) if candidates else 1.0
        return {
            "n_functions": len(self.functions),
            "n_classes": len(self.classes),
            "n_calls": len(self.calls),
            "n_edges": len(self.edges),
            "n_loop_reachable": len(self.loop_reachable),
            "n_candidates": len(candidates),
            "n_resolved": len(resolved),
            "resolved_fraction": fraction,
        }


def _dotted_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as dotted text; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_dotted(rel: str) -> str:
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _iter_scope_stmts(body: Sequence[ast.stmt]) -> Iterable[ast.stmt]:
    """Module/function-level statements, descending into if/try/with/loop
    blocks but never into nested ``def``/``class`` bodies."""
    queue: deque = deque(body)
    while queue:
        stmt = queue.popleft()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child_body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if isinstance(child_body, list):
                queue.extend(s for s in child_body if isinstance(s, ast.stmt))
        for handler in getattr(stmt, "handlers", ()) or ():
            queue.extend(handler.body)


def _iter_calls(body: Sequence[ast.stmt]) -> Iterable[ast.Call]:
    """Every Call expression in ``body`` outside nested def/class bodies."""
    for stmt in _iter_scope_stmts(body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            for node in _walk_values(value):
                if isinstance(node, ast.Call):
                    yield node


def _walk_values(value: object) -> Iterable[ast.AST]:
    if isinstance(value, ast.AST):
        if isinstance(value, ast.Lambda):
            return
        yield value
        for _, child in ast.iter_fields(value):
            yield from _walk_values(child)
    elif isinstance(value, list):
        for item in value:
            yield from _walk_values(item)


@dataclass
class _ModuleIndex:
    """Per-module scope: what a bare name means at module level."""

    rel: str
    dotted: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    defs: Dict[str, Entry] = field(default_factory=dict)
    exports: Optional[Dict[str, str]] = None
    """The facade ``_EXPORTS`` table (name -> defining module dotted)."""
    export_lines: Dict[str, int] = field(default_factory=dict)
    exports_node: Optional[ast.AST] = None
    all_names: Optional[List[str]] = None
    getattr_names: Optional[set] = None
    """Names bound by a module-level ``__getattr__`` (lazy re-exports)."""


class _Builder:
    def __init__(self, project: "Project") -> None:
        self.project = project
        self.graph = CallGraph()
        self.indexes: Dict[str, _ModuleIndex] = {}
        self._fn_nodes: Dict[str, ast.stmt] = {}

    # ------------------------------------------------------------------
    # pass 1: per-module symbol index

    def index_modules(self) -> None:
        for module in self.project.modules:
            index = _ModuleIndex(
                rel=module.rel, dotted=_module_dotted(module.rel), tree=module.tree
            )
            self.indexes[index.dotted] = index
            self.graph.module_index[index.dotted] = index
            for stmt in _iter_scope_stmts(module.tree.body):
                self._index_stmt(module, index, stmt)
        # Second sweep now that every class exists: method tables for the
        # functions dict were filled during _index_stmt already.

    def _index_stmt(self, module: "ModuleInfo", index: _ModuleIndex, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                index.aliases.setdefault(bound, target)
        elif isinstance(stmt, ast.ImportFrom):
            base = self._import_from_base(index, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                index.aliases.setdefault(bound, target)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name == "__getattr__":
                self._index_module_getattr(index, stmt)
            key = f"{module.rel}::{stmt.name}"
            self._register_function(module.rel, stmt, key, class_key=None)
            index.defs.setdefault(stmt.name, ("func", key))
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(module, index, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "_EXPORTS":
                    self._index_exports(index, stmt)
                elif target.id == "__all__":
                    index.all_names = self._string_list(stmt.value)
                index.defs.setdefault(
                    target.id, ("const", f"{module.rel}::{target.id}")
                )

    def _import_from_base(self, index: _ModuleIndex, stmt: ast.ImportFrom) -> str:
        if not stmt.level:
            return stmt.module or ""
        parts = index.dotted.split(".") if index.dotted else []
        if not index.rel.endswith("__init__.py"):
            parts = parts[:-1]
        if stmt.level > 1:
            parts = parts[: len(parts) - (stmt.level - 1)]
        if stmt.module:
            parts = parts + stmt.module.split(".")
        return ".".join(parts)

    def _index_module_getattr(
        self, index: _ModuleIndex, stmt: ast.FunctionDef
    ) -> None:
        """Names lazily re-exported by a module-level ``__getattr__``."""
        if index.getattr_names is None:
            index.getattr_names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                base = self._import_from_base(index, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    index.aliases.setdefault(alias.name, target)
                    index.getattr_names.add(alias.asname or alias.name)

    def _index_exports(self, index: _ModuleIndex, stmt: ast.stmt) -> None:
        value = stmt.value if not isinstance(stmt, ast.AnnAssign) else stmt.value
        if not isinstance(value, ast.Dict):
            return
        exports: Dict[str, str] = {}
        lines: Dict[str, int] = {}
        for key_node, value_node in zip(value.keys, value.values):
            if (
                isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)
                and isinstance(value_node, ast.Constant)
                and isinstance(value_node.value, str)
            ):
                exports[key_node.value] = value_node.value
                lines[key_node.value] = key_node.lineno
        if exports:
            index.exports = exports
            index.export_lines = lines
            index.exports_node = stmt

    @staticmethod
    def _string_list(value: Optional[ast.expr]) -> Optional[List[str]]:
        if not isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            if isinstance(value, ast.Call):
                # ``__all__ = sorted(_EXPORTS)`` — contents resolved via
                # the exports table instead.
                return []
            return None
        out = []
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
        return out

    def _register_function(
        self,
        rel: str,
        node: ast.stmt,
        key: str,
        class_key: Optional[str],
        qualname: Optional[str] = None,
    ) -> FunctionInfo:
        info = FunctionInfo(
            key=key,
            module=rel,
            qualname=qualname or key.split("::", 1)[1],
            name=getattr(node, "name", MODULE_BODY),
            is_async=isinstance(node, ast.AsyncFunctionDef),
            lineno=getattr(node, "lineno", 1),
            class_key=class_key,
        )
        self.graph.functions.setdefault(key, info)
        return info

    def _index_class(
        self, module: "ModuleInfo", index: _ModuleIndex, stmt: ast.ClassDef
    ) -> None:
        class_key = f"{module.rel}::{stmt.name}"
        cls = ClassInfo(key=class_key, module=module.rel, name=stmt.name, node=stmt)
        for base in stmt.bases:
            dotted = _dotted_text(base)
            if dotted:
                cls.bases.append(dotted)
        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_key = f"{module.rel}::{stmt.name}.{item.name}"
                self._register_function(
                    module.rel, item, method_key, class_key=class_key
                )
                cls.methods[item.name] = method_key
        self.graph.classes[class_key] = cls
        index.defs.setdefault(stmt.name, ("class", class_key))

    # ------------------------------------------------------------------
    # name resolution

    def resolve_qualified(self, dotted: str, depth: int = 0) -> Optional[Entry]:
        """Resolve an absolute dotted name to a project entry or external."""
        if depth > _MAX_FOLLOW:
            return None
        parts = dotted.split(".")
        candidates = [parts]
        if len(parts) > 1:
            # Imports are package-absolute (``repro.service.wire``) while
            # module rel paths are scan-root relative; try with the root
            # package segment stripped as well.
            candidates.append(parts[1:])
        for cand in candidates:
            for cut in range(len(cand), 0, -1):
                mod = ".".join(cand[:cut])
                if mod not in self.indexes:
                    continue
                rest = cand[cut:]
                if not rest:
                    return ("module", mod)
                entry: Optional[Entry] = ("module", mod)
                for i, name in enumerate(rest):
                    if entry is None:
                        break
                    kind, value = entry
                    if kind == "module":
                        entry = self.module_symbol(value, name, depth + 1)
                    elif kind == "class":
                        method = self.class_method(value, name)
                        entry = ("func", method) if method else None
                    else:
                        entry = None
                if entry is not None:
                    return entry
                # A matching module prefix whose tail fails to resolve is
                # final for this candidate (don't fall back to a shorter
                # prefix — that would mis-resolve submodule attributes).
                break
        if _external_root(parts[0]):
            return ("external", dotted)
        return None

    def module_symbol(
        self, mod_dotted: str, name: str, depth: int = 0
    ) -> Optional[Entry]:
        """What ``name`` means inside project module ``mod_dotted``."""
        if depth > _MAX_FOLLOW:
            return None
        index = self.indexes.get(mod_dotted)
        if index is None:
            return None
        if name in index.defs:
            return index.defs[name]
        if name in index.aliases:
            return self.resolve_qualified(index.aliases[name], depth + 1)
        if index.exports and name in index.exports:
            target = index.exports[name]
            resolved = self.resolve_qualified(f"{target}.{name}", depth + 1)
            if resolved is not None:
                return resolved
            return self.resolve_qualified(target, depth + 1)
        sub = f"{mod_dotted}.{name}" if mod_dotted else name
        if sub in self.indexes:
            return ("module", sub)
        return None

    def class_method(
        self, class_key: str, name: str, _seen: Optional[set] = None
    ) -> Optional[str]:
        """Method lookup through the project part of the MRO."""
        seen = _seen if _seen is not None else set()
        if class_key in seen:
            return None
        seen.add(class_key)
        cls = self.graph.classes.get(class_key)
        if cls is None:
            return None
        if name in cls.methods:
            return cls.methods[name]
        index = self.indexes.get(_module_dotted(cls.module))
        for base_text in cls.bases:
            entry = self._resolve_in_module(base_text, index)
            if entry and entry[0] == "class":
                found = self.class_method(entry[1], name, seen)
                if found:
                    return found
        return None

    def _resolve_in_module(
        self, dotted: str, index: Optional[_ModuleIndex]
    ) -> Optional[Entry]:
        """Resolve a dotted name as written inside ``index``'s module."""
        if index is None:
            return None
        parts = dotted.split(".")
        root = parts[0]
        entry: Optional[Entry] = None
        if root in index.defs:
            entry = index.defs[root]
        elif root in index.aliases:
            entry = self.resolve_qualified(index.aliases[root], 1)
        elif index.exports and root in index.exports:
            entry = self.module_symbol(index.dotted, root, 1)
        if entry is None:
            return None
        for name in parts[1:]:
            kind, value = entry
            if kind == "module":
                entry = self.module_symbol(value, name, 1)
            elif kind == "class":
                method = self.class_method(value, name)
                entry = ("func", method) if method else None
            elif kind == "external":
                entry = ("external", f"{value}.{name}")
            else:
                entry = None
            if entry is None:
                return None
        return entry

    # ------------------------------------------------------------------
    # pass 2: class attribute types

    def infer_class_attrs(self) -> None:
        for cls in self.graph.classes.values():
            index = self.indexes.get(_module_dotted(cls.module))
            if index is None:
                continue
            for item in cls.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    ref = self.annotation_type(item.annotation, index, {})
                    if ref is not None:
                        cls.attr_types.setdefault(item.target.id, ref)
            for item in cls.node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                decorators = {
                    _dotted_text(d) for d in item.decorator_list
                }
                if decorators & {"property", "functools.cached_property"}:
                    ref = self.annotation_type(item.returns, index, {})
                    if ref is not None and ref[0] != "unknown":
                        cls.attr_types.setdefault(item.name, ref)
                    continue
                params = self._param_types(item, index, {}, cls)
                for stmt in ast.walk(item):
                    attr: Optional[str] = None
                    ref = None
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Attribute)
                        and isinstance(stmt.target.value, ast.Name)
                        and stmt.target.value.id == "self"
                    ):
                        attr = stmt.target.attr
                        ref = self.annotation_type(stmt.annotation, index, {})
                    elif isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                attr = target.attr
                                ref = self.expr_type(stmt.value, index, {}, params)
                    if attr and ref is not None and ref[0] != "unknown":
                        cls.attr_types.setdefault(attr, ref)

    def annotation_type(
        self,
        node: Optional[ast.expr],
        index: _ModuleIndex,
        local_aliases: Dict[str, str],
        depth: int = 0,
    ) -> Optional[TypeRef]:
        if node is None or depth > _MAX_FOLLOW:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
                return self.annotation_type(parsed, index, local_aliases, depth + 1)
            return None
        if isinstance(node, ast.Subscript):
            head = _dotted_text(node.value)
            inner = node.slice
            if head and head.split(".")[-1] == "Optional":
                return self.annotation_type(inner, index, local_aliases, depth + 1)
            if head and head.split(".")[-1] == "Union":
                if isinstance(inner, ast.Tuple):
                    for elt in inner.elts:
                        ref = self.annotation_type(
                            elt, index, local_aliases, depth + 1
                        )
                        if ref is not None:
                            return ref
                return None
            return self.annotation_type(node.value, index, local_aliases, depth + 1)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for side in (node.left, node.right):
                if isinstance(side, ast.Constant) and side.value is None:
                    continue
                ref = self.annotation_type(side, index, local_aliases, depth + 1)
                if ref is not None:
                    return ref
            return None
        dotted = _dotted_text(node)
        if dotted is None:
            return None
        merged_index = index
        if local_aliases and dotted.split(".")[0] in local_aliases:
            root = dotted.split(".")[0]
            target = local_aliases[root]
            rest = dotted.split(".")[1:]
            entry = self.resolve_qualified(
                ".".join([target] + rest), depth + 1
            )
        else:
            entry = self._resolve_in_module(dotted, merged_index)
        if entry is None:
            if "." in dotted or _external_root(dotted.split(".")[0]):
                return ("external", dotted)
            return None
        kind, value = entry
        if kind == "class":
            return ("class", value)
        if kind == "external":
            return ("external", value)
        return None

    def expr_type(
        self,
        node: Optional[ast.expr],
        index: _ModuleIndex,
        local_aliases: Dict[str, str],
        env: Dict[str, TypeRef],
    ) -> Optional[TypeRef]:
        """Best-effort type of a RHS expression."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Await):
            return None
        if isinstance(node, ast.Call):
            dotted = _dotted_text(node.func)
            if dotted is None:
                return None
            entry = self._lookup_callable(dotted, index, local_aliases)
            if entry is None:
                return None
            kind, value = entry
            if kind == "class":
                return ("class", value)
            if kind == "func":
                info = self.graph.functions.get(value)
                if info is None:
                    return None
                fn_index = self.indexes.get(_module_dotted(info.module))
                node_fn = self._function_node(info)
                if fn_index is None or node_fn is None:
                    return None
                return self.annotation_type(node_fn.returns, fn_index, {})
        return None

    def _lookup_callable(
        self, dotted: str, index: _ModuleIndex, local_aliases: Dict[str, str]
    ) -> Optional[Entry]:
        root = dotted.split(".")[0]
        if root in local_aliases:
            rest = dotted.split(".")[1:]
            return self.resolve_qualified(
                ".".join([local_aliases[root]] + rest), 1
            )
        return self._resolve_in_module(dotted, index)

    def _function_node(
        self, info: FunctionInfo
    ) -> Optional[ast.FunctionDef]:
        node = self._fn_nodes.get(info.key)
        return node

    def _param_types(
        self,
        fnode: ast.stmt,
        index: _ModuleIndex,
        local_aliases: Dict[str, str],
        cls: Optional[ClassInfo],
    ) -> Dict[str, TypeRef]:
        env: Dict[str, TypeRef] = {}
        args = fnode.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            if arg.arg == "self" and cls is not None:
                env["self"] = ("class", cls.key)
                continue
            ref = self.annotation_type(arg.annotation, index, local_aliases)
            env[arg.arg] = ref if ref is not None else UNKNOWN
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                env[extra.arg] = UNKNOWN
        return env

    # ------------------------------------------------------------------
    # pass 3: calls and edges

    def process_all(self) -> None:
        for module in self.project.modules:
            index = self.indexes[_module_dotted(module.rel)]
            body_key = f"{module.rel}::{MODULE_BODY}"
            for stmt in index.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._process_function(
                        stmt,
                        key=f"{module.rel}::{stmt.name}",
                        index=index,
                        cls=None,
                        parent_env={},
                        parent_aliases={},
                        parent_nested={},
                    )
                elif isinstance(stmt, ast.ClassDef):
                    cls = self.graph.classes.get(f"{module.rel}::{stmt.name}")
                    for item in stmt.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            self._process_function(
                                item,
                                key=f"{module.rel}::{stmt.name}.{item.name}",
                                index=index,
                                cls=cls,
                                parent_env={},
                                parent_aliases={},
                                parent_nested={},
                            )
                else:
                    self._process_stmts(
                        [stmt],
                        caller=body_key,
                        index=index,
                        cls=None,
                        env={},
                        local_aliases={},
                        nested={},
                    )

    def _collect_fn_nodes(self, module: "ModuleInfo", index: _ModuleIndex) -> None:
        for stmt in index.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._fn_nodes[f"{module.rel}::{stmt.name}"] = stmt
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._fn_nodes[
                            f"{module.rel}::{stmt.name}.{item.name}"
                        ] = item

    def _process_function(
        self,
        fnode: ast.stmt,
        key: str,
        index: _ModuleIndex,
        cls: Optional[ClassInfo],
        parent_env: Dict[str, TypeRef],
        parent_aliases: Dict[str, str],
        parent_nested: Dict[str, str],
    ) -> None:
        info = self.graph.functions.get(key)
        if info is None:
            qualname = key.split("::", 1)[1]
            info = self._register_function(
                index.rel, fnode, key, cls.key if cls else None, qualname
            )
            self._fn_nodes[key] = fnode

        local_aliases = dict(parent_aliases)
        env = dict(parent_env)
        env.update(self._param_types(fnode, index, local_aliases, cls))

        # Nested defs first: callable by name anywhere in this body.
        nested = dict(parent_nested)
        nested_nodes: List[Tuple[ast.stmt, str]] = []
        for stmt in _iter_scope_stmts(fnode.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nkey = f"{index.rel}::{info.qualname}.{stmt.name}"
                nested[stmt.name] = nkey
                nested_nodes.append((stmt, nkey))
                self._fn_nodes[nkey] = stmt
                self._register_function(
                    index.rel, stmt, nkey, cls.key if cls else None,
                    qualname=f"{info.qualname}.{stmt.name}",
                )

        # Function-level imports and typed locals (single forward pass).
        for stmt in _iter_scope_stmts(fnode.body):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    local_aliases.setdefault(bound, target)
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_from_base(index, stmt)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    local_aliases.setdefault(
                        bound, f"{base}.{alias.name}" if base else alias.name
                    )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                ref = self.annotation_type(stmt.annotation, index, local_aliases)
                env.setdefault(stmt.target.id, ref if ref is not None else UNKNOWN)
            elif isinstance(stmt, ast.Assign):
                ref = None
                if len(stmt.targets) == 1 and isinstance(
                    stmt.targets[0], ast.Name
                ):
                    ref = self.expr_type(stmt.value, index, local_aliases, env)
                for target in stmt.targets:
                    for name_node in self._target_names(target):
                        env.setdefault(
                            name_node, ref if ref is not None else UNKNOWN
                        )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for name_node in self._target_names(stmt.target):
                    env.setdefault(name_node, UNKNOWN)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        for name_node in self._target_names(item.optional_vars):
                            env.setdefault(name_node, UNKNOWN)

        self._process_stmts(
            fnode.body,
            caller=key,
            index=index,
            cls=cls,
            env=env,
            local_aliases=local_aliases,
            nested=nested,
        )
        for stmt, nkey in nested_nodes:
            self._process_function(
                stmt,
                key=nkey,
                index=index,
                cls=cls,
                parent_env=env,
                parent_aliases=local_aliases,
                parent_nested=nested,
            )

    def _process_stmts(
        self,
        body: Sequence[ast.stmt],
        caller: str,
        index: _ModuleIndex,
        cls: Optional[ClassInfo],
        env: Dict[str, TypeRef],
        local_aliases: Dict[str, str],
        nested: Dict[str, str],
    ) -> None:
        for call in _iter_calls(body):
            self._record_call(call, caller, index, cls, env, local_aliases, nested)

    # -- reference resolution (a Name/Attribute used as a callable value)

    def _resolve_ref(
        self,
        node: ast.expr,
        index: _ModuleIndex,
        cls: Optional[ClassInfo],
        env: Dict[str, TypeRef],
        local_aliases: Dict[str, str],
        nested: Dict[str, str],
    ) -> Optional[str]:
        """A function *reference* (not a call) -> project function key."""
        dotted = _dotted_text(node)
        if dotted is None:
            return None
        resolved = self._resolve_callee(
            dotted, index, cls, env, local_aliases, nested
        )
        callee, _external, _builtin, _candidate = resolved
        return callee

    def _resolve_callee(
        self,
        dotted: str,
        index: _ModuleIndex,
        cls: Optional[ClassInfo],
        env: Dict[str, TypeRef],
        local_aliases: Dict[str, str],
        nested: Dict[str, str],
    ) -> Tuple[Optional[str], Optional[str], Optional[str], bool]:
        """-> (callee key, external dotted, builtin name, candidate)."""
        parts = dotted.split(".")
        root = parts[0]

        if len(parts) == 1:
            if root in nested:
                return nested[root], None, None, True
            entry = None
            if root in local_aliases:
                entry = self.resolve_qualified(local_aliases[root], 1)
            else:
                entry = self.module_symbol(index.dotted, root, 0)
            if entry is not None:
                return self._entry_to_callee(entry)
            if root in _BUILTIN_NAMES:
                return None, None, root, False
            if root in env:
                return None, None, None, False
            return None, None, None, True

        # self.<...>
        if root == "self" and cls is not None:
            if len(parts) == 2:
                method = self.class_method(cls.key, parts[1])
                if method:
                    return method, None, None, True
                return None, None, None, True
            if len(parts) == 3:
                ref = cls.attr_types.get(parts[1])
                return self._typed_receiver(ref, parts[2])
            return None, None, None, False

        # typed local / parameter receiver
        if root in env and len(parts) == 2:
            return self._typed_receiver(env.get(root), parts[1])

        # module alias / class-name receiver (a nested def's attributes
        # stay unresolved)
        if root in nested:
            return None, None, None, False
        if root in local_aliases:
            entry = self.resolve_qualified(
                ".".join([local_aliases[root]] + parts[1:]), 1
            )
        else:
            entry = self._resolve_in_module(dotted, index)
        if entry is not None:
            return self._entry_to_callee(entry)
        return None, None, None, False

    @staticmethod
    def _target_names(target: ast.expr) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for elt in target.elts:
                names.extend(_Builder._target_names(elt))
            return names
        if isinstance(target, ast.Starred):
            return _Builder._target_names(target.value)
        return []

    def _typed_receiver(
        self, ref: Optional[TypeRef], method: str
    ) -> Tuple[Optional[str], Optional[str], Optional[str], bool]:
        if ref is None or ref[0] == "unknown":
            return None, None, None, False
        kind, value = ref
        if kind == "class":
            found = self.class_method(value, method)
            if found:
                return found, None, None, True
            return None, None, None, True
        return None, f"{value}.{method}", None, False

    def _entry_to_callee(
        self, entry: Entry
    ) -> Tuple[Optional[str], Optional[str], Optional[str], bool]:
        kind, value = entry
        if kind == "func":
            return value, None, None, True
        if kind == "class":
            init = self.class_method(value, "__init__")
            if init:
                return init, None, None, True
            # No __init__ anywhere in the project MRO: still "resolved"
            # for coverage purposes (the target class is known).
            return None, f"<class {value}>", None, False
        if kind == "external":
            return None, value, None, False
        if kind == "module":
            return None, None, None, False
        # const — a callable bound by assignment; not resolvable.
        return None, None, None, False

    def _record_call(
        self,
        node: ast.Call,
        caller: str,
        index: _ModuleIndex,
        cls: Optional[ClassInfo],
        env: Dict[str, TypeRef],
        local_aliases: Dict[str, str],
        nested: Dict[str, str],
    ) -> None:
        chain = _dotted_text(node.func)
        site = CallSite(caller=caller, module=index.rel, node=node, chain=chain)
        if chain is not None:
            callee, external, builtin, candidate = self._resolve_callee(
                chain, index, cls, env, local_aliases, nested
            )
            site.callee = callee
            site.external = external
            site.builtin = builtin
            site.candidate = candidate
        self.graph.calls.append(site)
        if site.callee is not None:
            self.graph.edges.append((caller, site.callee, False))

        if chain is None:
            return
        last = chain.split(".")[-1]
        ref_index = None
        via_executor = False
        if last in EXECUTOR_BOUNDARY_CALLS and len(chain.split(".")) > 1:
            ref_index = EXECUTOR_BOUNDARY_CALLS[last]
            via_executor = True
        elif last in LOOP_CALLBACK_CALLS:
            ref_index = LOOP_CALLBACK_CALLS[last]
        if ref_index is None or ref_index >= len(node.args):
            return
        ref_key = self._resolve_ref(
            node.args[ref_index], index, cls, env, local_aliases, nested
        )
        if ref_key is not None:
            self.graph.edges.append((caller, ref_key, via_executor))

    # ------------------------------------------------------------------
    # pass 4: async reachability

    def propagate(self) -> None:
        adjacency: Dict[str, List[str]] = {}
        for caller, callee, via_executor in self.graph.edges:
            if via_executor:
                continue
            adjacency.setdefault(caller, []).append(callee)
        reachable: Dict[str, Tuple[str, ...]] = {}
        queue: deque = deque()
        for key, info in self.graph.functions.items():
            if info.is_async:
                reachable[key] = (key,)
                queue.append(key)
        while queue:
            current = queue.popleft()
            path = reachable[current]
            for nxt in adjacency.get(current, ()):
                if nxt in reachable:
                    continue
                reachable[nxt] = path + (nxt,)
                queue.append(nxt)
        self.graph.loop_reachable = reachable


def _external_root(root: str) -> bool:
    """A plausible external package root (heuristic: not dunder-ish)."""
    return bool(root) and not root.startswith("__")


def build_call_graph(project: "Project") -> CallGraph:
    """Build the full graph for ``project`` (cached on the Project)."""
    builder = _Builder(project)
    builder.index_modules()
    for module in project.modules:
        builder._collect_fn_nodes(
            module, builder.indexes[_module_dotted(module.rel)]
        )
    builder.infer_class_attrs()
    builder.process_all()
    builder.propagate()
    return builder.graph
