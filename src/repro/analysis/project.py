"""The whole-program analysis pass and the combined ``analyze_paths`` entry.

Per-file passes (:mod:`repro.analysis.visitor`) see one module at a time.
This pass parses the *whole analyzed set* into a
:class:`~repro.analysis.callgraph.ProjectGraph`, computes interprocedural
taint summaries (:mod:`repro.analysis.taint`), and emits:

- **cross-module taint findings** — DET001/DET002/DET003/DET007 (and
  SHD001 for mirror mutation) fire at the *call site where taint enters a
  module*: a sim-code call to a helper whose summary reaches a primitive
  in another file.  The finding message prints the inter-module chain
  down to the primitive (``helper:now_ms [caller.py:7] -> time.time()
  [helper.py:3]``), so the reader can follow the flow without opening
  every file.
- **SHD002** — ``kernel.call_at``/``call_in`` whose fire time is not
  provably bounded by a window-end comparison in the enclosing function
  (the ``if t0 <= fire_at < t1`` idiom) — such events can land past the
  max_displacement lookahead barrier.
- **SHD003** — an object shipped to a shard worker (``Process(args=...)``
  or a pool-submit call) whose class is *transitively* unpicklable: a
  lambda, lock, open file, or another unpicklable instance lives
  somewhere in its attribute graph.  The attribute chain is printed.
- **SHD004** — iteration over a dict (or ``.keys()/.values()/.items()``)
  feeding an ordered accumulator (``.append``/``.extend`` or a
  list/dict comprehension) in sharded code — per-shard insertion order
  differs, so the canonical merge would see a shard-dependent stream.
- **VEC001/VEC004/VEC005** — the numpy bit-parity ground rules on the
  parity-sensitive closure (:func:`repro.analysis.taint
  .compute_parity_chains`): banned non-correctly-rounded ufuncs, bulk or
  unordered RNG draws, and order-sensitive reductions fire at the
  primitive with the call chain from the delivery-log root in the
  message.

:func:`analyze_paths` here is the package's public entry point: per-file
findings plus project findings, globally sorted, byte-identical however
the work was scheduled.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import dataflow, visitor
from repro.analysis.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    build_project_graph,
)
from repro.analysis.dataflow import _dotted_name
from repro.analysis.rules import RULES, Finding
from repro.analysis.taint import (
    TAINT_RULES,
    Chain,
    _body_nodes,
    _effective_dotted,
    compute_parity_chains,
    compute_summaries,
    numpy_alias_names,
    vec_effective_dotted,
)
from repro.analysis.visitor import iter_python_files, normalize_path

__all__ = [
    "analyze_paths",
    "analyze_project",
    "analyze_project_entries",
    "collect_entries",
]

#: (file_path, root, source) — the unit the project pass consumes; the
#: dependency-aware cache builds these from its in-memory reads.
ProjectEntry = Tuple[str, str, str]

_TAINT_LEADS = {
    "rng": "draws from the process-global RNG",
    "wall": "reads the host clock",
    "environ": "reads the host environment",
    "hash": "depends on process-salted builtin hash()",
    "mirror": "mutates mirror WorldNode state outside the boundary API",
}

#: Constructors whose instances never survive pickling.
_UNPICKLABLE_CONSTRUCTORS = {
    "open",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Barrier",
    "_thread.allocate_lock",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

_ORDERED_ACCUMULATOR_METHODS = {"append", "extend", "insert", "appendleft"}
_DICT_VIEW_METHODS = {"keys", "values", "items"}
_SHARDED_PREFIX = "repro/sim/sharded/"

#: VEC001 — ufuncs that are *not* correctly rounded (SIMD kernels differ
#: from the math module bit-for-bit) plus math.fsum (whose compensated
#: order-insensitive sum the numpy twin cannot reproduce).  The
#: admissible primitives (+ - * /, numpy.sqrt, stable argsort) are
#: simply absent from this set.
_VEC_BANNED_UFUNCS = {
    "numpy.hypot",
    "numpy.log10",
    "numpy.power",
    "numpy.exp",
    "math.fsum",
}

#: VEC005 — reductions whose association order (numpy's pairwise
#: summation) differs from the sequential pure-Python accumulation.
_VEC_ORDER_SENSITIVE_REDUCTIONS = {
    "numpy.sum",
    "numpy.nansum",
    "numpy.dot",
    "numpy.vdot",
    "numpy.inner",
    "numpy.matmul",
    "numpy.einsum",
    "numpy.prod",
    "numpy.cumsum",
    "numpy.cumprod",
    "numpy.mean",
}

#: VEC004 — SeededRng / numpy Generator draw methods; a call to one of
#: these on an rng-shaped receiver inside unordered iteration breaks the
#: ascending-attach-order contract.
_VEC_RNG_DRAW_METHODS = {
    "random",
    "uniform",
    "bernoulli",
    "randint",
    "choice",
    "sample",
    "shuffle",
    "normal",
    "gauss",
    "expovariate",
}


def collect_entries(paths: Sequence) -> List[ProjectEntry]:
    """Read every analyzed file once, keyed to its scanned root."""
    entries: List[ProjectEntry] = []
    for path in paths:
        for file_path in iter_python_files(path):
            entries.append((
                str(file_path), str(path),
                file_path.read_text(encoding="utf-8"),
            ))
    return entries


# -- cross-module taint emission ---------------------------------------------

def _iter_functions(info: ModuleInfo):
    yield info.module_body
    for qualname in sorted(info.functions):
        yield info.functions[qualname]


def _emit_taint(graph: ProjectGraph, findings: List[Finding]) -> None:
    summaries = compute_summaries(graph)
    for name in sorted(graph.modules):
        info = graph.modules[name]
        for function in _iter_functions(info):
            for site in function.calls:
                callee = site.callee
                if callee is None or callee.module == info.name:
                    continue
                for kind in sorted(summaries[callee]):
                    code = TAINT_RULES[kind]
                    if not RULES[code].applies_to(info.path):
                        continue
                    chain = summaries[callee][kind]
                    if (kind == "mirror"
                            and chain.terminal_path.startswith(
                                _SHARDED_PREFIX)):
                        # In-package mutation sites are FRK004's (per-file)
                        # territory; SHD001 covers sinks hiding outside.
                        continue
                    rendered = chain.prepend(
                        f"{callee.display} [{info.path}:{site.line}]"
                    ).render()
                    findings.append(Finding(
                        code=code, path=info.path,
                        line=site.line, col=site.col,
                        message=(
                            f"call to {callee.display}() "
                            f"{_TAINT_LEADS[kind]} "
                            f"({chain.terminal_label} at "
                            f"{chain.terminal_path}:{chain.terminal_line}); "
                            f"chain: {rendered}"
                        ),
                    ))


# -- VEC001/004/005: bit-parity and draw order on parity-sensitive paths ------

def _rng_like_receiver(func: ast.Attribute) -> bool:
    """``rng.random`` / ``self._rng.uniform`` — the receiver's last
    identifier names an RNG.  ``MacAddress.random(...)``-style factory
    classmethods do not match (their receiver is the class)."""
    receiver = _dotted_name(func.value)
    if receiver is None:
        return False
    return "rng" in receiver.rsplit(".", 1)[-1].lower()


def _is_rng_draw(node: ast.Call) -> bool:
    return (isinstance(node.func, ast.Attribute)
            and node.func.attr in _VEC_RNG_DRAW_METHODS
            and _rng_like_receiver(node.func))


def _vec_bulk_draw(info: ModuleInfo, aliases: frozenset,
                   node: ast.Call) -> Optional[str]:
    """A short description when ``node`` draws a vector of randoms."""
    dotted = _dotted_name(node.func)
    if dotted is not None:
        effective = vec_effective_dotted(info, aliases, dotted)
        if effective.startswith("numpy.random."):
            return f"{dotted}() (the process-global numpy RNG, vectorized)"
    if not _is_rng_draw(node):
        return None
    has_size = any(kw.arg == "size" for kw in node.keywords)
    if node.func.attr == "random" and (node.args or has_size):
        return f"{_dotted_name(node.func)}(n)"
    if has_size:
        return f"{_dotted_name(node.func)}(size=...)"
    return None


def _check_vec(info: ModuleInfo, parity: Dict[FunctionInfo, Chain],
               findings: List[Finding]) -> None:
    """VEC001/VEC004/VEC005 inside this module's parity-sensitive functions.

    Each finding fires once, at the offending primitive, with the
    shortest root-to-here call chain in the message — so a ufunc two
    calls away from ``Medium.broadcast`` still names the delivery path
    that makes it a hazard.
    """
    def emit(code: str, node: ast.AST, chain: Chain, label: str,
             lead: str) -> None:
        rendered = chain.append(
            f"{label} [{info.path}:{node.lineno}]").render()
        findings.append(Finding(
            code=code, path=info.path,
            line=node.lineno, col=node.col_offset,
            message=(
                f"{lead} on a parity-sensitive path — floats here reach "
                f"the delivery log via {chain.terminal_label} "
                f"({chain.terminal_path}:{chain.terminal_line}); "
                f"chain: {rendered}"
            ),
        ))

    for function in _iter_functions(info):
        chain = parity.get(function)
        if chain is None:
            continue
        aliases = numpy_alias_names(info, function)
        scope = info.builder.scopes.get(
            function.node, info.builder.module_scope)
        for node in _body_nodes(function):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None:
                    effective = vec_effective_dotted(info, aliases, dotted)
                    if effective in _VEC_BANNED_UFUNCS:
                        emit("VEC001", node, chain, f"{dotted}()",
                             f"{dotted}() ({effective}) is not correctly "
                             "rounded — its bits differ from the "
                             "pure-Python twin")
                    elif effective in _VEC_ORDER_SENSITIVE_REDUCTIONS:
                        emit("VEC005", node, chain, f"{dotted}()",
                             f"{dotted}() ({effective}) reduces in "
                             "pairwise order, not the sequential order "
                             "of the pure-Python twin")
                bulk = _vec_bulk_draw(info, aliases, node)
                if bulk is not None:
                    emit("VEC004", node, chain, f"{_dotted_name(node.func)}()",
                         f"bulk RNG draw {bulk} violates the "
                         "one-uniform-per-candidate ascending-order "
                         "contract")
            elif isinstance(node, ast.For):
                if not dataflow.is_unordered_set_expr(node.iter, scope):
                    continue
                for inner in ast.walk(ast.Module(body=node.body,
                                                 type_ignores=[])):
                    if isinstance(inner, ast.Call) and _is_rng_draw(inner):
                        emit("VEC004", inner, chain,
                             f"{_dotted_name(inner.func)}()",
                             f"{_dotted_name(inner.func)}() drawn inside "
                             "unordered (set) iteration — uniforms attach "
                             "in an unstable candidate order")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if not any(dataflow.is_unordered_set_expr(gen.iter, scope)
                           for gen in node.generators):
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call) and _is_rng_draw(inner):
                        emit("VEC004", inner, chain,
                             f"{_dotted_name(inner.func)}()",
                             f"{_dotted_name(inner.func)}() drawn inside "
                             "unordered (set) iteration — uniforms attach "
                             "in an unstable candidate order")


# -- SHD002: horizon-unbounded scheduling -------------------------------------

def _upper_bounded_names(function: FunctionInfo) -> Set[str]:
    """Names compared below something in the enclosing function.

    ``t0 <= fire_at < t1`` bounds ``fire_at``: the operand has a ``<`` /
    ``<=`` to its right (or a ``>`` / ``>=`` to its left).
    """
    bounded: Set[str] = set()
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for index, operand in enumerate(operands):
            if not isinstance(operand, ast.Name):
                continue
            if index < len(node.ops) and isinstance(
                    node.ops[index], (ast.Lt, ast.LtE)):
                bounded.add(operand.id)
            elif index > 0 and isinstance(
                    node.ops[index - 1], (ast.Gt, ast.GtE)):
                bounded.add(operand.id)
    return bounded


def _check_shd002(info: ModuleInfo, findings: List[Finding]) -> None:
    for function in _iter_functions(info):
        bounded: Optional[Set[str]] = None
        for site in function.calls:
            func = site.node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in {"call_at", "call_in"}):
                continue
            if not site.node.args:
                continue
            arg = site.node.args[0]
            if (func.attr == "call_in" and isinstance(arg, ast.Constant)
                    and isinstance(arg.value, (int, float))
                    and arg.value <= 0):
                continue  # zero delay fires inside the current window
            if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                    and arg.func.id == "min" and len(arg.args) >= 2):
                continue  # min(fire_at, horizon) is bounded by construction
            if isinstance(arg, ast.Name):
                if bounded is None:
                    bounded = _upper_bounded_names(function)
                if arg.id in bounded:
                    continue
                described = arg.id
            else:
                described = ast.unparse(arg)[:60]
            findings.append(Finding(
                code="SHD002", path=info.path,
                line=site.line, col=site.col,
                message=(
                    f".{func.attr}({described}, ...) schedules without a "
                    "provable horizon bound — the fire time must be "
                    "compared against the window end (t0 <= fire_at < t1) "
                    "before scheduling"
                ),
            ))


# -- SHD003: transitively unpicklable captures --------------------------------

def _class_unpicklable_chains(
    graph: ProjectGraph,
) -> Dict[ClassInfo, Chain]:
    """class -> shortest attribute chain proving it cannot pickle."""
    ordered: List[Tuple[ModuleInfo, ClassInfo]] = []
    for name in sorted(graph.modules):
        info = graph.modules[name]
        for cls_name in sorted(info.classes):
            ordered.append((info, info.classes[cls_name]))

    chains: Dict[ClassInfo, Chain] = {}
    edges: Dict[ClassInfo, List[Tuple[str, int, ClassInfo]]] = {}
    for info, cls in ordered:
        edges[cls] = []
        for attr in sorted(cls.attr_values):
            value, line = cls.attr_values[attr]
            reason: Optional[str] = None
            if isinstance(value, ast.Lambda):
                reason = "a lambda"
            elif isinstance(value, ast.GeneratorExp):
                reason = "a generator"
            elif isinstance(value, ast.Call):
                dotted = _dotted_name(value.func)
                if dotted is not None:
                    effective = _effective_dotted(info, dotted)
                    if effective in _UNPICKLABLE_CONSTRUCTORS:
                        reason = f"{effective}()"
                resolved = graph.resolve_call(info, value)
                if isinstance(resolved, ClassInfo):
                    edges[cls].append((attr, line, resolved))
            if reason is not None:
                candidate = Chain(
                    hops=(f"{cls.display}.{attr} = {reason} "
                          f"[{cls.path}:{line}]",),
                    terminal_label=reason,
                    terminal_path=cls.path,
                    terminal_line=line,
                )
                current = chains.get(cls)
                if current is None or candidate.sort_key < current.sort_key:
                    chains[cls] = candidate

    changed = True
    while changed:
        changed = False
        for info, cls in ordered:
            for attr, line, target in edges[cls]:
                if target not in chains:
                    continue
                candidate = chains[target].prepend(
                    f"{cls.display}.{attr} = {target.display}(...) "
                    f"[{cls.path}:{line}]")
                current = chains.get(cls)
                if current is None or candidate.sort_key < current.sort_key:
                    chains[cls] = candidate
                    changed = True
    return chains


def _name_class_binding(
    graph: ProjectGraph, info: ModuleInfo, function: FunctionInfo, name: str,
) -> Optional[ClassInfo]:
    """The class a local ``name = Cls(...)`` binds to inside ``function``."""
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Name) and target.id == name
                    and isinstance(node.value, ast.Call)):
                resolved = graph.resolve_call(info, node.value)
                if isinstance(resolved, ClassInfo):
                    return resolved
    return None


def _check_shd003(graph: ProjectGraph, info: ModuleInfo,
                  chains: Dict[ClassInfo, Chain],
                  findings: List[Finding]) -> None:
    for function in _iter_functions(info):
        for site in function.calls:
            node = site.node
            dotted = _dotted_name(node.func)
            shipped: List[ast.AST] = []
            if dotted is not None and (dotted == "Process"
                                       or dotted.endswith(".Process")):
                for keyword in node.keywords:
                    if keyword.arg == "args" and isinstance(
                            keyword.value, (ast.Tuple, ast.List)):
                        shipped.extend(keyword.value.elts)
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in dataflow.POOL_SUBMIT_ATTRS):
                shipped.extend(node.args[1:])
            for element in shipped:
                cls: Optional[ClassInfo] = None
                described = None
                if isinstance(element, ast.Call):
                    resolved = graph.resolve_call(info, element)
                    if isinstance(resolved, ClassInfo):
                        cls = resolved
                        described = f"{cls.name}(...)"
                elif isinstance(element, ast.Name):
                    cls = _name_class_binding(
                        graph, info, function, element.id)
                    described = element.id
                if cls is None or cls not in chains:
                    continue
                findings.append(Finding(
                    code="SHD003", path=info.path,
                    line=site.line, col=site.col,
                    message=(
                        f"{described} shipped to a shard worker is an "
                        f"instance of {cls.display}, which is transitively "
                        f"unpicklable; chain: {chains[cls].render()}"
                    ),
                ))


# -- SHD004: unordered iteration feeding ordered accumulation -----------------

def _attribute_dict_names(info: ModuleInfo) -> Set[str]:
    names: Set[str] = set()
    for binding in info.builder.attribute_bindings:
        if (dataflow.classify_annotation(binding.annotation) == "dict"
                or dataflow.classify_value(binding.value) == "dict"):
            names.add(binding.attr)
    return names


def _is_unordered_dict_iter(info: ModuleInfo, function: FunctionInfo,
                            expr: ast.AST, attr_dicts: Set[str]) -> bool:
    if isinstance(expr, ast.Call):
        return (isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _DICT_VIEW_METHODS
                and not expr.args and not expr.keywords)
    if isinstance(expr, ast.Name):
        scope = info.builder.scopes.get(function.node,
                                        info.builder.module_scope)
        resolved = scope.resolve(expr.id)
        return (resolved is not None
                and "dict" in dataflow.symbol_types(resolved[1]))
    if isinstance(expr, ast.Attribute):
        return expr.attr in attr_dicts
    return False


def _check_shd004(info: ModuleInfo, findings: List[Finding]) -> None:
    attr_dicts = _attribute_dict_names(info)

    def emit(node: ast.AST, what: str) -> None:
        findings.append(Finding(
            code="SHD004", path=info.path,
            line=node.lineno, col=node.col_offset,
            message=(
                f"{what} iterates a dict in insertion order and feeds an "
                "ordered accumulator — per-shard insertion order differs, "
                "so the canonical merge sees a shard-dependent stream; "
                "iterate sorted(...) instead"
            ),
        ))

    for function in _iter_functions(info):
        for node in ast.walk(function.node):
            if isinstance(node, ast.For):
                if not _is_unordered_dict_iter(
                        info, function, node.iter, attr_dicts):
                    continue
                for inner in ast.walk(ast.Module(body=node.body,
                                                 type_ignores=[])):
                    if (isinstance(inner, ast.Call)
                            and isinstance(inner.func, ast.Attribute)
                            and inner.func.attr
                            in _ORDERED_ACCUMULATOR_METHODS):
                        emit(node, "for loop")
                        break
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                if any(_is_unordered_dict_iter(
                        info, function, gen.iter, attr_dicts)
                        for gen in node.generators):
                    emit(node, "comprehension")


# -- entry points -------------------------------------------------------------

def analyze_project_entries(entries: Sequence[ProjectEntry]) -> List[Finding]:
    """The whole-program pass over pre-read ``(path, root, source)`` entries.

    Findings are filtered through each rule's path scoping and globally
    sorted; duplicates (one site reachable two ways) collapse.
    """
    graph = build_project_graph(entries)
    findings: List[Finding] = []
    _emit_taint(graph, findings)
    class_chains = _class_unpicklable_chains(graph)
    parity_chains = compute_parity_chains(graph)
    for name in sorted(graph.modules):
        info = graph.modules[name]
        if RULES["SHD002"].applies_to(info.path):
            _check_shd002(info, findings)
        if RULES["SHD003"].applies_to(info.path):
            _check_shd003(graph, info, class_chains, findings)
        if RULES["SHD004"].applies_to(info.path):
            _check_shd004(info, findings)
        _check_vec(info, parity_chains, findings)
    findings = [
        finding for finding in findings
        if RULES[finding.code].applies_to(finding.path)
    ]
    unique = {
        (f.path, f.line, f.col, f.code, f.message): f for f in findings
    }
    return [unique[key] for key in sorted(unique)]


def analyze_project(paths: Sequence) -> List[Finding]:
    """Run only the whole-program pass over files/trees on disk."""
    return analyze_project_entries(collect_entries(paths))


def analyze_paths(paths: Sequence) -> List[Finding]:
    """Per-file lint + whole-program pass, globally sorted.

    This is the package's serial, uncached reference implementation; the
    CLI goes through :func:`repro.analysis.cache.analyze_paths_incremental`,
    which must produce byte-identical findings from any cache state or
    job count.
    """
    entries = collect_entries(paths)
    findings: List[Finding] = []
    for file_path, _root, source in entries:
        findings.extend(visitor.analyze_source(source, file_path))
    findings.extend(analyze_project_entries(entries))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
