"""The rule pass behind ``python -m repro.analysis``.

Analysis of one module is three passes:

1. :class:`~repro.analysis.scopes.ScopeBuilder` builds the scope tree — a
   symbol table per module/class/function/lambda/comprehension scope with
   every binding site recorded;
2. :mod:`repro.analysis.dataflow` interprets those bindings — which symbols
   are set-typed *in their own scope*, which values carry sim-time vs
   wall-clock, which sets are pure dedup accumulators, which callables
   cannot cross a pickle boundary;
3. :class:`AnalysisVisitor` (this module) walks the tree with a scope stack
   and emits :class:`~repro.analysis.rules.Finding` objects for the DET,
   SIM, FRK, and API rule families.

Scope-accuracy is the point: a ``List[int]`` parameter that shares a name
with a set in another function is a list here, shadowing works, and the
safe idioms stay quiet —

- **reducer suppression** (DET004): iteration *inside* an order-insensitive
  consumer (``sorted``, ``min``/``max``, ``sum``, ``len``, ``any``/``all``,
  ``set``/``frozenset``) is not a hazard;
- **commutative accumulation** (DET004): a loop body of pure bitwise
  ``|=``/``&=``/``^=`` builds the same value in any order;
- **dedup sets** (DET005): ``id()`` keys that only feed an in-scope
  membership set whose surrounding result is sorted cannot leak address
  order.

False positives are expected in the tail (that is what the baseline's
per-line waivers are for); false negatives are the thing to minimise.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from repro.analysis import dataflow
from repro.analysis.rules import RULES, Finding
from repro.analysis.scopes import Scope, ScopeBuilder, build_scopes

#: Module-level callables whose defaults must not be mutable (DET006).
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
}

#: Consumers for which iteration order cannot matter (DET004 suppression).
_ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
    "Counter",
}

#: Ordering-sensitive materialisers of an iterable (DET004 sinks).
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate"}

#: WorldNode methods whose call counts as mirror-state mutation (FRK004;
#: the rule is path-scoped to repro/sim/sharded/, where every node is
#: owned-or-mirrored and mutation belongs to the boundary module).
_MIRROR_MUTATING_METHODS = {"move_to", "set_mobility"}

#: WorldNode attributes whose assignment counts the same way.
_MIRROR_GUARDED_ATTRS = {"mobility", "owner_shard"}

#: Spatial-query entry points unified under the SpatialQuery protocol; the
#: legacy keyword spellings on them are API003 sinks.
_SPATIAL_QUERY_METHODS = {"nodes_within", "query", "query_arrays", "_candidates"}
_LEGACY_SPATIAL_KWARGS = {"center", "cutoff"}


def normalize_path(path) -> str:
    """A stable posix path key, rooted at the ``repro`` package when inside it.

    ``/root/repo/src/repro/radio/wifi.py`` → ``repro/radio/wifi.py`` whatever
    the checkout location or working directory, so baseline waivers written on
    one machine match findings produced on another.  Files outside the package
    (test fixtures) fall back to a cwd-relative posix path.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index:])
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    """The trailing identifier of the called object (``sorted``, ``list``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class AnalysisVisitor(ast.NodeVisitor):
    """Emit findings for one module, resolving names through its scope tree."""

    def __init__(self, path: str, builder: ScopeBuilder) -> None:
        self.path = path
        self.builder = builder
        self.attr_set_names = dataflow.attribute_set_names(
            builder.attribute_bindings)
        self.module_mutables = dataflow.module_mutable_names(
            builder.module_scope)
        self.findings: List[Finding] = []
        self._scope_stack: List[Scope] = [builder.module_scope]
        self._reducer_depth = 0  # inside an order-insensitive call's args
        self._dedup_suppressed: Set[int] = set()
        self._enter_scope_checks(builder.module_scope)

    # -- plumbing -------------------------------------------------------------

    @property
    def scope(self) -> Scope:
        return self._scope_stack[-1]

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=code,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _push(self, node: ast.AST) -> bool:
        scope = self.builder.scopes.get(node)
        if scope is None:
            return False
        self._scope_stack.append(scope)
        self._enter_scope_checks(scope)
        return True

    def _pop(self) -> None:
        self._scope_stack.pop()

    def _enter_scope_checks(self, scope: Scope) -> None:
        """Per-scope dataflow findings, computed once on scope entry."""
        for node in dataflow.sim_time_accumulations(scope):
            self._emit(
                "SIM002", node,
                "this name was seeded from kernel.now but is advanced with "
                "+=; re-read kernel.now instead of integrating floats",
            )
        self._dedup_suppressed |= dataflow.dedup_suppressed_id_calls(
            scope.node, scope)

    # -- DET001: global RNG ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("numpy.random"):
                self._emit(
                    "DET001", node,
                    f"import of {alias.name!r} (global RNG state); "
                    "use repro.util.rng.SeededRng",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random" or module.startswith("numpy.random"):
            self._emit(
                "DET001", node,
                f"import from {module!r} (global RNG state); "
                "use repro.util.rng.SeededRng",
            )
        elif module == "numpy" and any(a.name == "random" for a in node.names):
            self._emit(
                "DET001", node,
                "import of numpy.random (global RNG state); "
                "use repro.util.rng.SeededRng",
            )
        self.generic_visit(node)

    # -- call-shaped rules ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            if dotted.startswith("random.") or ".random." in f".{dotted}.":
                root = dotted.split(".", 1)[0]
                if root in {"random", "numpy", "np"}:
                    self._emit(
                        "DET001", node,
                        f"call to {dotted}() draws from the process-global "
                        "RNG; use a SeededRng stream",
                    )
            if any(dotted == s or dotted.endswith("." + s)
                   for s in dataflow.WALL_CLOCK_SUFFIXES):
                self._emit(
                    "DET002", node,
                    f"{dotted}() reads the host clock; simulation code must "
                    "use kernel.now",
                )
            if dotted == "os.getenv":
                self._emit(
                    "DET007", node,
                    "os.getenv() makes results depend on the host "
                    "environment; pass configuration explicitly",
                )
            if dotted == "time.sleep" or dotted.endswith(".time.sleep"):
                self._emit(
                    "SIM001", node,
                    "time.sleep() blocks the host thread without advancing "
                    "simulated time; use kernel.call_in or a sim-process "
                    "sleep",
                )
            if dotted == "SharedMemory" or dotted.endswith(".SharedMemory"):
                self._emit(
                    "FRK003", node,
                    "raw SharedMemory segment escapes the runner's "
                    "run-scoped prefix sweep; go through "
                    "repro.runner.artifacts",
                )
        if isinstance(node.func, ast.Name):
            if node.func.id == "hash" and node.args:
                self._emit(
                    "DET003", node,
                    "builtin hash() is salted per process; use derive_seed "
                    "or hashlib for stable derivation",
                )
            if (node.func.id == "id" and node.args
                    and id(node) not in self._dedup_suppressed):
                self._emit(
                    "DET005", node,
                    "id() yields per-process object addresses; key on a "
                    "stable attribute instead",
                )
            if node.func.id == "sleep" and self._resolves_to_time_sleep(node):
                self._emit(
                    "SIM001", node,
                    "sleep() (imported from time) blocks the host thread "
                    "without advancing simulated time; use kernel.call_in "
                    "or a sim-process sleep",
                )
            if (
                node.func.id in _ORDER_SENSITIVE_CALLS
                and node.args
                and self._reducer_depth == 0
                and self._is_set_expr(node.args[0])
            ):
                self._emit(
                    "DET004", node,
                    f"{node.func.id}() materialises a set in arbitrary "
                    "order; use sorted(...)",
                )
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _SPATIAL_QUERY_METHODS:
                legacy = sorted(
                    keyword.arg for keyword in node.keywords
                    if keyword.arg in _LEGACY_SPATIAL_KWARGS
                )
                if legacy:
                    spelled = ", ".join(f"{name}=" for name in legacy)
                    self._emit(
                        "API003", node,
                        f"legacy spatial-query keyword(s) {spelled} on "
                        f".{node.func.attr}(); the SpatialQuery protocol "
                        "spells them (origin, radius, now)",
                    )
            if node.func.attr in _MIRROR_MUTATING_METHODS:
                self._emit(
                    "FRK004", node,
                    f".{node.func.attr}() mutates WorldNode state directly; "
                    "sharded code must route mirror changes through "
                    "repro.sim.sharded.boundary",
                )
        captured = dataflow.unpicklable_worker_callable(node, self.scope)
        if captured is not None:
            kind = ("lambda" if isinstance(captured, ast.Lambda)
                    else "nested function")
            self._emit(
                "FRK002", node,
                f"{kind} handed to a process-pool submission API cannot be "
                "pickled into a spawned worker; submit a module-level "
                "callable",
            )
        mutated = dataflow.mutates_module_state(
            node, self.scope, self.module_mutables)
        if mutated is not None:
            self._emit_frk001(node, mutated)
        call_name = _call_name(node)
        if call_name in _ORDER_INSENSITIVE_CALLS:
            self._reducer_depth += 1
            self.generic_visit(node)
            self._reducer_depth -= 1
        else:
            self.generic_visit(node)

    def _resolves_to_time_sleep(self, node: ast.Call) -> bool:
        resolved = self.scope.resolve(node.func.id)
        if resolved is None:
            return False
        return resolved[1].import_origin == "time.sleep"

    def _emit_frk001(self, node: ast.AST, name: str) -> None:
        self._emit(
            "FRK001", node,
            f"module-level mutable {name!r} mutated inside a function; "
            "forked/spawned workers hold diverging copies — carry per-run "
            "state on Job/engine objects",
        )

    # -- DET007: attribute reads ----------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _dotted_name(node) == "os.environ":
            self._emit(
                "DET007", node,
                "os.environ read makes results depend on the host "
                "environment; pass configuration explicitly",
            )
        self.generic_visit(node)

    # -- FRK001: module-state mutation sinks ----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        mutated = dataflow.mutates_module_state(
            node, self.scope, self.module_mutables)
        if mutated is not None:
            self._emit_frk001(node, mutated)
        for target in node.targets:
            self._check_mirror_attribute(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        mutated = dataflow.mutates_module_state(
            node, self.scope, self.module_mutables)
        if mutated is not None:
            self._emit_frk001(node, mutated)
        self._check_mirror_attribute(node.target)
        self.generic_visit(node)

    # -- FRK004: mirror-state mutation outside the boundary API ---------------

    def _check_mirror_attribute(self, target: ast.AST) -> None:
        """Flag ``<node>.mobility = ...`` / ``<node>.owner_shard = ...``.

        The rule is scoped to ``repro/sim/sharded/`` (minus the boundary
        module itself), where these attributes belong to owned-or-mirrored
        :class:`WorldNode`\\ s and must only change inside
        ``World.boundary_exchange()``.
        """
        if (isinstance(target, ast.Attribute)
                and target.attr in _MIRROR_GUARDED_ATTRS):
            self._emit(
                "FRK004", target,
                f"assignment to .{target.attr} bypasses the boundary-"
                "exchange API; use repro.sim.sharded.boundary "
                "(reassign_mirror_owner / create_mirror)",
            )

    # -- SIM003: time-domain mixing -------------------------------------------

    def _check_domain_mixing(self, node: ast.AST,
                             sides: Sequence[ast.AST]) -> None:
        domains = {dataflow.expr_time_domain(side, self.scope)
                   for side in sides}
        if dataflow.SIM_TIME in domains and dataflow.WALL_CLOCK in domains:
            self._emit(
                "SIM003", node,
                "expression mixes kernel.now-derived sim-time with a "
                "wall-clock value; keep host timing in the runner",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_domain_mixing(node, (node.left, node.right))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._check_domain_mixing(node, [node.left] + list(node.comparators))
        self.generic_visit(node)

    # -- DET006: mutable defaults + scope entry -------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_literal(default):
                self._emit(
                    "DET006", default,
                    f"mutable default argument in {node.name}(); default to "
                    "None and construct inside the body",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and _call_name(node) in _MUTABLE_CONSTRUCTORS)

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        # Decorators and defaults evaluate in the enclosing scope.
        for decorator in node.decorator_list:
            self.visit(decorator)
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        if self._push(node):
            for statement in node.body:
                self.visit(statement)
            self._pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self._push(node):
            self.visit(node.body)
            self._pop()
        else:  # pragma: no cover - builder always maps lambdas
            self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        for base in node.bases + [kw.value for kw in node.keywords]:
            self.visit(base)
        if self._push(node):
            for statement in node.body:
                self.visit(statement)
            self._pop()

    # -- DET004: unsorted set iteration ---------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _call_name(node) in {"set", "frozenset"}
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            resolved = self.scope.resolve(node.id)
            if resolved is None:
                return False
            return "set" in dataflow.symbol_types(resolved[1])
        if isinstance(node, ast.Attribute):
            return node.attr in self.attr_set_names
        return False

    def _check_iteration(self, iterable: ast.AST, node: ast.AST) -> None:
        if self._reducer_depth == 0 and self._is_set_expr(iterable):
            self._emit(
                "DET004", node,
                "iteration over a set in an ordering-sensitive position; "
                "wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        if not dataflow.is_commutative_accumulation_loop(node):
            self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        pushed = self._push(node)
        for generator in node.generators:
            self._check_iteration(generator.iter, node)
        self.generic_visit(node)
        if pushed:
            self._pop()

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict insertion order follows iteration order, so a DictComp over a
        # set bakes arbitrary order into the result.
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # The result is a set again: iteration order cannot escape unless the
        # element expression has side effects, which the pass does not model.
        self._reducer_depth += 1
        self._visit_comprehension(node)
        self._reducer_depth -= 1


def analyze_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source; ``path`` is used for reporting and scoping."""
    normalized = normalize_path(path)
    tree = ast.parse(source, filename=str(path))
    builder = build_scopes(tree)
    visitor = AnalysisVisitor(normalized, builder)
    visitor.visit(tree)
    findings = [
        finding
        for finding in visitor.findings
        if RULES[finding.code].applies_to(finding.path)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def analyze_file(path) -> List[Finding]:
    """Lint one file from disk."""
    source = Path(path).read_text(encoding="utf-8")
    return analyze_source(source, str(path))


def iter_python_files(root) -> Iterable[Path]:
    """Every ``.py`` under ``root`` (or ``root`` itself), sorted for stability."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def analyze_paths(paths: Sequence) -> List[Finding]:
    """Lint files/trees; findings sorted by (path, line, col, code).

    Serial and uncached — the CLI goes through
    :func:`repro.analysis.cache.analyze_paths_incremental` for the cached,
    parallel version; both produce byte-identical findings.
    """
    findings: List[Finding] = []
    for path in paths:
        for file_path in iter_python_files(path):
            findings.extend(analyze_file(file_path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
