"""Module import graph + call graph for the whole-program analysis pass.

The per-file passes (:mod:`repro.analysis.scopes` →
:mod:`repro.analysis.dataflow` → :mod:`repro.analysis.visitor`) see one
module at a time; this module builds the structures that let
:mod:`repro.analysis.project` see *across* files:

- **module table** — every analyzed file becomes a :class:`ModuleInfo`
  under a stable dotted name (``repro/sim/sharded/shard.py`` →
  ``repro.sim.sharded.shard``; files outside the package are named
  relative to the scanned root, so fixture trees resolve their own
  imports);
- **import bindings** — each module's top-level ``import``/``from-import``
  statements become :class:`ImportTarget` records, with aliases and
  re-export chains followed during resolution;
- **call graph** — every top-level function and method (plus the implicit
  module body) becomes a :class:`FunctionInfo` whose :class:`CallSite`\\ s
  are resolved through the import bindings: bare names, ``module.func(...)``
  attribute paths, and ``self.method(...)`` within a class all bind to
  their defining :class:`FunctionInfo` when the target lives in the
  analyzed set — anything else stays conservatively unresolved;
- **class table** — top-level classes with their attribute-assignment
  evidence, which :mod:`repro.analysis.project` uses for the transitive
  picklability check (SHD003).

Everything here is deterministic: modules, functions, and call sites are
stored and iterated in sorted order, so two runs produce byte-identical
downstream findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.scopes import ScopeBuilder, build_scopes
from repro.analysis.visitor import normalize_path

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ImportTarget",
    "ModuleInfo",
    "ProjectGraph",
    "build_project_graph",
    "module_name_for",
]

#: Re-export chains are followed at most this deep (cycles terminate).
_RESOLVE_DEPTH = 8


def _dotted_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path, root) -> str:
    """A stable dotted module name for ``path`` scanned under ``root``.

    Files inside the ``repro`` package are named from their normalized
    path whatever the root (``repro/util/rng.py`` → ``repro.util.rng``),
    matching how in-repo imports spell them.  Anything else is named
    relative to the scanned root directory (``<root>/helpers.py`` →
    ``helpers``), which is what lets a self-contained fixture tree resolve
    ``import helpers`` among its own files.
    """
    normalized = normalize_path(path)
    parts: Sequence[str]
    if normalized.split("/", 1)[0] == "repro" and normalized.endswith(".py"):
        parts = normalized[: -len(".py")].split("/")
    else:
        path = Path(path)
        root = Path(root)
        try:
            relative = path.relative_to(root) if root.is_dir() else None
        except ValueError:
            relative = None
        if relative is None:
            parts = [path.stem]
        else:
            parts = list(relative.with_suffix("").parts)
            if (root / "__init__.py").is_file():
                parts = [root.name] + parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or Path(path).stem


@dataclass(frozen=True)
class ImportTarget:
    """What one top-level imported name binds to."""

    #: 'module' (``import a.b as m`` / plain ``import a``) or 'symbol'
    #: (``from a.b import f``; ``symbol`` may itself name a submodule).
    kind: str
    module: str
    symbol: Optional[str] = None


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    line: int
    col: int
    #: Resolved target when the callee is a function in the analyzed set.
    callee: Optional["FunctionInfo"] = None


@dataclass
class FunctionInfo:
    """One analyzed function/method (or the implicit module body)."""

    module: str
    qualname: str  # 'f', 'Class.method', or '<module>'
    path: str  # normalized
    line: int
    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)

    @property
    def display(self) -> str:
        return f"{self.module}:{self.qualname}"

    def __hash__(self) -> int:  # identity: one object per definition
        return id(self)


@dataclass
class ClassInfo:
    """One top-level class and its attribute-assignment evidence."""

    module: str
    name: str
    path: str
    line: int
    node: ast.ClassDef
    #: attribute name -> (value expression, line) for ``self.X = ...`` in
    #: any method and ``X = ...`` in the class body (last write wins).
    attr_values: Dict[str, Tuple[ast.AST, int]] = field(default_factory=dict)

    @property
    def display(self) -> str:
        return f"{self.module}:{self.name}"

    def __hash__(self) -> int:
        return id(self)


@dataclass
class ModuleInfo:
    """One analyzed file in the project graph."""

    name: str
    path: str  # normalized
    file_path: str
    tree: ast.Module
    builder: ScopeBuilder
    imports: Dict[str, ImportTarget] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_body: Optional[FunctionInfo] = None

    @property
    def is_package(self) -> bool:
        return self.file_path.endswith("__init__.py")


def _relative_base(info_name: str, is_package: bool, level: int) -> str:
    """The package a ``from . import x``-style import resolves against."""
    parts = info_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    return ".".join(parts)


def collect_imports(info: ModuleInfo) -> None:
    """Fill ``info.imports`` from the module's top-level import statements.

    Only top-level statements define the bindings used for cross-module
    call resolution; function-local imports bind no module-scope name.
    """
    for node in info.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.imports[alias.asname] = ImportTarget(
                        "module", alias.name)
                else:
                    root = alias.name.split(".", 1)[0]
                    info.imports[root] = ImportTarget("module", root)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(info.name, info.is_package, node.level)
                module = (f"{base}.{node.module}" if node.module and base
                          else (node.module or base))
            else:
                module = node.module or ""
            if not module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = ImportTarget(
                    "symbol", module, alias.name)


class _DefinitionCollector(ast.NodeVisitor):
    """Collect functions, methods, classes, and call sites for one module."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        body = FunctionInfo(
            module=info.name, qualname="<module>", path=info.path,
            line=0, node=info.tree,
        )
        info.module_body = body
        self._function_stack: List[FunctionInfo] = [body]
        self._class_stack: List[ClassInfo] = []

    def run(self) -> None:
        self.visit(self.info.tree)

    @property
    def current(self) -> FunctionInfo:
        return self._function_stack[-1]

    def _visit_function(self, node) -> None:
        depth = len(self._function_stack)
        if depth == 1 and not self._class_stack:
            qualname = node.name
        elif depth == 1 and len(self._class_stack) == 1:
            qualname = f"{self._class_stack[-1].name}.{node.name}"
        else:
            # Nested functions belong to their enclosing tracked function:
            # their calls attribute to it (they run, if ever, on its behalf).
            self.generic_visit(node)
            return
        function = FunctionInfo(
            module=self.info.name, qualname=qualname, path=self.info.path,
            line=node.lineno, node=node,
        )
        self.info.functions[qualname] = function
        self._function_stack.append(function)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if len(self._function_stack) == 1 and not self._class_stack:
            cls = ClassInfo(
                module=self.info.name, name=node.name, path=self.info.path,
                line=node.lineno, node=node,
            )
            self.info.classes[node.name] = cls
            self._class_stack.append(cls)
            self.generic_visit(node)
            self._class_stack.pop()
        else:
            self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_attr_values(node.targets, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_attr_values([node.target], node.value, node.lineno)
        self.generic_visit(node)

    def _record_attr_values(self, targets, value, lineno: int) -> None:
        if not self._class_stack:
            return
        cls = self._class_stack[-1]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                cls.attr_values[target.attr] = (value, lineno)
            elif isinstance(target, ast.Name) and len(self._function_stack) == 1:
                cls.attr_values[target.id] = (value, lineno)

    def visit_Call(self, node: ast.Call) -> None:
        self.current.calls.append(CallSite(
            node=node, line=node.lineno, col=node.col_offset,
        ))
        self.generic_visit(node)


class ProjectGraph:
    """The module table plus resolved call graph over one analyzed set."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules

    def resolve_symbol(
        self, module: str, symbol: str, _depth: int = 0
    ):
        """``module.symbol`` → FunctionInfo | ClassInfo | module name | None.

        Follows re-export chains (a from-import of a from-import) up to a
        fixed depth; unresolved or external targets return None.
        """
        if _depth > _RESOLVE_DEPTH:
            return None
        submodule = f"{module}.{symbol}"
        if submodule in self.modules:
            return submodule
        info = self.modules.get(module)
        if info is None:
            return None
        if symbol in info.functions:
            return info.functions[symbol]
        if symbol in info.classes:
            return info.classes[symbol]
        target = info.imports.get(symbol)
        if target is None:
            return None
        if target.kind == "module":
            return target.module if target.module in self.modules else None
        return self.resolve_symbol(target.module, target.symbol, _depth + 1)

    def _resolve_dotted(self, info: ModuleInfo, dotted: str,
                        enclosing_class: Optional[str]):
        parts = dotted.split(".")
        if (parts[0] == "self" and len(parts) == 2
                and enclosing_class is not None):
            return info.functions.get(f"{enclosing_class}.{parts[1]}")
        target = info.imports.get(parts[0])
        if target is None:
            return None
        if target.kind == "module":
            current: object = (target.module
                               if target.module in self.modules else None)
            start = 1
        else:
            current = self.resolve_symbol(target.module, target.symbol)
            start = 1
        for part in parts[start:]:
            if isinstance(current, str):
                current = self.resolve_symbol(current, part)
            elif isinstance(current, ClassInfo):
                # Class attribute access (Class.method as a callable).
                owner = self.modules.get(current.module)
                current = (owner.functions.get(f"{current.name}.{part}")
                           if owner else None)
            else:
                return None
        return current

    def resolve_call(self, info: ModuleInfo, call: ast.Call,
                     enclosing_class: Optional[str] = None):
        """The FunctionInfo a call expression binds to, if resolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in info.functions:
                return info.functions[name]
            if name in info.classes:
                return info.classes[name]
            target = info.imports.get(name)
            if target is not None and target.kind == "symbol":
                return self.resolve_symbol(target.module, target.symbol)
            return None
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        return self._resolve_dotted(info, dotted, enclosing_class)


def build_project_graph(
    entries: Sequence[Tuple[str, str, str]]
) -> ProjectGraph:
    """Build the graph from ``(file_path, root, source)`` entries.

    Files are processed in sorted-path order; duplicate module names keep
    the first file (deterministic, and impossible within one real tree).
    """
    modules: Dict[str, ModuleInfo] = {}
    for file_path, root, source in sorted(entries, key=lambda e: str(e[0])):
        tree = ast.parse(source, filename=str(file_path))
        info = ModuleInfo(
            name=module_name_for(file_path, root),
            path=normalize_path(file_path),
            file_path=str(file_path),
            tree=tree,
            builder=build_scopes(tree),
        )
        if info.name in modules:
            continue
        modules[info.name] = info
        collect_imports(info)
        _DefinitionCollector(info).run()
    graph = ProjectGraph(modules)
    for name in sorted(modules):
        info = modules[name]
        members = [info.module_body] + [
            info.functions[qualname] for qualname in sorted(info.functions)
        ]
        for function in members:
            enclosing_class = (
                function.qualname.split(".", 1)[0]
                if "." in function.qualname else None
            )
            for site in function.calls:
                resolved = graph.resolve_call(
                    info, site.node, enclosing_class)
                if isinstance(resolved, FunctionInfo):
                    site.callee = resolved
    return graph
