"""Flow-aware and whole-program rules: what single-module syntax misses.

Two kinds of probe live here.  The CFG rules (``span-leak``,
``unreachable-code``) are per-module like everything in
:mod:`repro.analysis.rules`, but reason over the control-flow graphs
and def-use chains built by :mod:`repro.analysis.flow` instead of raw
syntax.  The *project* rules (``wallclock-taint``, ``rng-taint``,
``off-lock-mutation``) run once over the whole tree: they get a
:class:`ProjectContext` holding the symbol table and call graph, and
catch violations that cross module boundaries — a pure-compute function
reaching ``time.time`` through two layers of helpers, or a cluster
helper mutating a lock-guarded node field without the lock.

Project rules register through :func:`project_rule`, a sibling of the
per-module :func:`repro.analysis.engine.rule` decorator; the runner and
CLI treat both registries as one catalogue.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    build_call_graph,
    external_name,
    is_external,
)
from repro.analysis.contracts import (
    CROSS_PROCESS_PACKAGES,
    PURE_PACKAGES,
    RNG_TAINT_PACKAGES,
    SERVING_PATH_PACKAGES,
    WALLCLOCK_TAINT_PACKAGES,
)
from repro.analysis.engine import Finding, ModuleContext, rule
from repro.analysis.flow import build_cfg, def_use_chains
from repro.analysis.rules import _NP_RANDOM_OK, _RANDOM_OK, _import_aliases
from repro.analysis.symbols import ModuleSummary, SymbolTable

__all__ = [
    "ProjectContext",
    "ProjectRuleSpec",
    "all_project_rules",
    "build_project_context",
    "get_project_rule",
    "project_rule",
]


# -- CFG rules (per module) --------------------------------------------------

_FINISH_ATTRS = frozenset({"end", "finish", "close"})


def _chain_base(node: ast.AST) -> ast.AST:
    """Unwrap ``v.record_error(e).end()`` to the receiver ``v``."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Await):
            node = node.value
        else:
            return node


def _span_defs(fn: ast.AST) -> List[Tuple[str, ast.Assign]]:
    """``v = <recv>.start_*(...)`` assignments directly in this function."""
    defs = []
    for stmt in ast.walk(fn):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr.startswith("start_")
        ):
            defs.append((stmt.targets[0].id, stmt))
    return defs


def _escapes(fn: ast.AST, name: str, def_stmt: ast.stmt) -> bool:
    """True when ``name`` leaves the function's hands: stored, passed,
    returned, yielded, or captured by a nested def/lambda — ownership
    (and the duty to finish the span) transfers with it."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if node is fn:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True  # closure capture
        elif isinstance(node, ast.Call):
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        # receiver position (`v.end()`) is not an escape;
                        # argument position (`collect(v)`) is
                        return True
            for kw in node.keywords:
                for sub in ast.walk(kw.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        elif isinstance(node, ast.Assign) and node is not def_stmt:
            if any(
                isinstance(sub, ast.Name) and sub.id == name
                for target in node.targets
                for sub in ast.walk(target)
                if not isinstance(sub, ast.Name) or isinstance(sub.ctx, ast.Load)
            ):
                pass
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True  # aliased / stored into a structure
    return False


def _stmt_finishes(stmt: ast.stmt, name: str) -> bool:
    """Does this statement end the span ``name`` (call or ``with``)?"""
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _FINISH_ATTRS
        ):
            base = _chain_base(node.func.value)
            if isinstance(base, ast.Name) and base.id == name:
                return True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
    return False


@rule("span-leak")
def span_leak(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """A started span must be ended on every path (or handed off).

    ``v = tracer.start_span(...)`` opens an interval that only
    ``v.end()`` / ``v.finish()`` / ``with v:`` closes; a code path from
    the definition to the function exit that skips all of them leaves
    the span open forever — the collector never assembles its trace and
    ``tracer.active_spans`` grows without bound.  Spans that escape the
    function (returned, stored, passed to another call, captured by a
    closure) transfer ownership and are not flagged; this probe is
    strictly about locals the function provably abandons.
    """
    for fn in module.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        defs = _span_defs(fn)
        if not defs:
            continue
        cfg = build_cfg(fn)
        stmt_block: Dict[int, int] = {}
        for block in cfg.iter_blocks():
            for stmt in block.stmts:
                stmt_block[id(stmt)] = block.block_id
        for name, def_stmt in defs:
            if id(def_stmt) not in stmt_block:
                continue  # defined inside a nested function
            if _escapes(fn, name, def_stmt):
                continue
            def_block = stmt_block[id(def_stmt)]
            finish_blocks = set()
            for block in cfg.iter_blocks():
                if any(_stmt_finishes(s, name) for s in block.stmts):
                    finish_blocks.add(block.block_id)
            if def_block in finish_blocks:
                continue  # ended in the same straight-line run
            if cfg.path_avoiding(
                def_block, cfg.exit_id, frozenset(finish_blocks)
            ):
                yield def_stmt.lineno, (
                    f"span {name!r} started here can reach the end of "
                    f"{fn.name}() without being ended — close it on every "
                    "path or use `with`"
                )


@rule("unreachable-code")
def unreachable_code(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Statements no path can execute are dead weight or a logic slip.

    The classic offender in this tree is code placed after a typed-503
    ``raise`` (the cluster's load-shedding paths) or after an early
    ``return`` added during a refactor.  Detection is CFG reachability,
    so branches that *conditionally* raise are handled correctly — only
    blocks with no route from the function entry are flagged.
    """
    for fn in module.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        cfg = build_cfg(fn)
        reachable = cfg.reachable_from_entry()
        for block in cfg.iter_blocks():
            if block.block_id in reachable or not block.stmts:
                continue
            first = block.stmts[0]
            yield first.lineno, (
                f"unreachable code in {fn.name}() — no path reaches this "
                "statement (dead code after raise/return?)"
            )


# -- cross-process payload hygiene (per module) ------------------------------

#: ``recv.put(...)`` / ``recv.put_nowait(...)`` pickles its payload when
#: ``recv`` is a multiprocessing queue; executor-style submits pickle
#: every argument.  Receiver queue-ness is decided by name (any dotted
#: component containing "queue") or by a local ``Queue()`` construction.
_QUEUE_PUT_ATTRS = frozenset({"put", "put_nowait"})
_EXECUTOR_SUBMIT_ATTRS = frozenset(
    {"submit", "apply", "apply_async", "map_async", "starmap_async"}
)
_QUEUE_CTOR_NAMES = frozenset({"Queue", "SimpleQueue", "JoinableQueue"})

#: Calls whose result is a bulk binary payload: serialised arrays,
#: pickles, packed structs.  Any of these inside a cross-process send
#: means the hot path is copying data the arena should carry.
_PICKLED_PRODUCERS = frozenset(
    {
        "tobytes",
        "tostring",
        "dumps",
        "asarray",
        "ascontiguousarray",
        "frombuffer",
        "fromstring",
        "pack",
    }
)
_ARRAYISH_ANNOTATIONS = frozenset(
    {"ndarray", "bytes", "bytearray", "memoryview"}
)


def _receiver_parts(node: ast.AST) -> List[str]:
    """Identifier components of a call receiver, outermost first.

    ``self._task_queues[worker_id]`` -> ``["self", "_task_queues"]``;
    subscripts and chained calls are unwrapped so the queue-ness of the
    *container* name decides.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return parts[::-1]
        else:
            return parts[::-1]


def _annotation_names(annotation: Optional[ast.AST]) -> Set[str]:
    if annotation is None:
        return set()
    names: Set[str] = set()
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.replace(".", " ").split())
    return names


def _call_terminal(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _arrayish_names(module: ModuleContext) -> Set[str]:
    """Names bound to ndarray/bytes-like values anywhere in the module.

    Module-wide (not per scope) on purpose: the rule gates a repo where
    queue payloads are small index tuples, so a name that is an array in
    *any* function is suspicious in a cross-process send in all of them.
    """
    numpy_names = _import_aliases(module).get("numpy", set())
    arrayish: Set[str] = set()

    def producer(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        terminal = _call_terminal(value.func)
        if terminal in _PICKLED_PRODUCERS:
            return True
        base = _receiver_parts(value.func)
        return bool(base) and base[0] in numpy_names

    for node in module.walk(ast.Assign):
        if producer(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    arrayish.add(target.id)
    for node in module.walk(ast.AnnAssign):
        if isinstance(node.target, ast.Name) and (
            _annotation_names(node.annotation) & _ARRAYISH_ANNOTATIONS
            or (node.value is not None and producer(node.value))
        ):
            arrayish.add(node.target.id)
    for fn in module.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        args = fn.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + [args.vararg, args.kwarg]
        ):
            if arg is not None and (
                _annotation_names(arg.annotation) & _ARRAYISH_ANNOTATIONS
            ):
                arrayish.add(arg.arg)
    return arrayish


def _queue_ctor_names_bound(module: ModuleContext) -> Set[str]:
    bound: Set[str] = set()
    for node in module.walk(ast.Assign):
        if (
            isinstance(node.value, ast.Call)
            and _call_terminal(node.value.func) in _QUEUE_CTOR_NAMES
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


def _payload_evidence(arg: ast.AST, arrayish: Set[str]) -> Optional[str]:
    """Why this argument pickles a bulk payload, or None if it is clean."""
    for sub in ast.walk(arg):
        if isinstance(sub, ast.Constant) and isinstance(
            sub.value, (bytes, bytearray)
        ):
            return "a bytes literal"
        if isinstance(sub, ast.Call):
            terminal = _call_terminal(sub.func)
            if terminal in _PICKLED_PRODUCERS:
                return f"{terminal}(...)"
        if isinstance(sub, ast.Name) and sub.id in arrayish:
            return f"array/bytes value {sub.id!r}"
    return None


@rule("cross-process-pickle")
def cross_process_pickle(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Cross-process sends must carry slot indices, not pickled arrays.

    The kernel pool's contract (DESIGN.md §16) is that ndarray payloads
    cross the process boundary exactly once, through the shared-memory
    arena; the queues only ever carry tiny ``(slot, seq, kind)`` control
    tuples.  A ``queue.put`` whose payload serialises an array — or an
    executor-style ``submit``/``apply_async`` handed an ndarray — puts
    per-batch pickling back on the hot path, which is precisely the
    copy tax the arena removes.  Scope is the pool package plus the
    serving-path packages that drive it; in-process stores like the
    explanation cache (``self.cache.put``) are not queues and pass.
    """
    if module.package not in CROSS_PROCESS_PACKAGES:
        return
    arrayish = _arrayish_names(module)
    queue_bound = _queue_ctor_names_bound(module)
    for node in module.walk(ast.Call):
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        args = list(node.args) + [kw.value for kw in node.keywords]
        if func.attr in _QUEUE_PUT_ATTRS:
            parts = _receiver_parts(func.value)
            queue_like = any("queue" in part.lower() for part in parts) or (
                bool(parts) and parts[0] in queue_bound
            )
            if not queue_like:
                continue
            channel = "multiprocessing queue"
        elif func.attr in _EXECUTOR_SUBMIT_ATTRS:
            parts = _receiver_parts(func.value)
            if parts[:1] in (["self"], ["cls"]):
                # a class dispatching through its own submit() stays
                # in-process until *its* implementation crosses — and
                # that crossing is what the queue-put arm checks
                continue
            channel = f"executor {func.attr}()"
        else:
            continue
        for arg in args:
            evidence = _payload_evidence(arg, arrayish)
            if evidence is not None:
                yield node.lineno, (
                    f"{evidence} pickled into a {channel} — cross-process "
                    "payloads must travel through the shared-memory arena; "
                    "send only slot/seq control tuples"
                )
                break


# -- project rules (whole program) -------------------------------------------


@dataclass
class ProjectContext:
    """Everything a whole-program rule can see, built once per run."""

    table: SymbolTable
    graph: CallGraph
    # (path, line, rule) -> rendered call-chain lines for --explain.
    explanations: Dict[Tuple[str, int, str], List[str]] = field(
        default_factory=dict
    )


ProjectRuleFunc = Callable[[ProjectContext], Iterable[Finding]]


@dataclass(frozen=True)
class ProjectRuleSpec:
    rule_id: str
    severity: str
    description: str
    func: ProjectRuleFunc


_PROJECT_REGISTRY: Dict[str, ProjectRuleSpec] = {}


def project_rule(
    rule_id: str, *, severity: str = "error"
) -> Callable[[ProjectRuleFunc], ProjectRuleFunc]:
    """Register a whole-program rule (the cross-module sibling of ``rule``)."""

    if severity not in ("error", "warning"):
        raise ValueError(f"severity must be error|warning, got {severity!r}")

    def register(func: ProjectRuleFunc) -> ProjectRuleFunc:
        if rule_id in _PROJECT_REGISTRY:
            raise ValueError(f"duplicate project rule id {rule_id!r}")
        description = (func.__doc__ or rule_id).strip().splitlines()[0]
        _PROJECT_REGISTRY[rule_id] = ProjectRuleSpec(
            rule_id, severity, description, func
        )
        return func

    return register


def all_project_rules() -> List[ProjectRuleSpec]:
    return sorted(_PROJECT_REGISTRY.values(), key=lambda spec: spec.rule_id)


def get_project_rule(rule_id: str) -> ProjectRuleSpec:
    try:
        return _PROJECT_REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_PROJECT_REGISTRY))
        raise KeyError(
            f"unknown project rule {rule_id!r}; known: {known}"
        ) from None


def build_project_context(summaries: Iterable[ModuleSummary]) -> ProjectContext:
    table = SymbolTable(list(summaries))
    return ProjectContext(table=table, graph=build_call_graph(table))


def run_project_rules(
    context: ProjectContext, rule_ids: Optional[Iterable[str]] = None
) -> List[Finding]:
    specs = (
        all_project_rules()
        if rule_ids is None
        else [get_project_rule(rule_id) for rule_id in rule_ids]
    )
    findings: List[Finding] = []
    for spec in specs:
        findings.extend(spec.func(context))
    return sorted(findings)


_WALLCLOCK_SINKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _is_wallclock_sink(node: str, nargs: int) -> bool:
    return is_external(node) and external_name(node) in _WALLCLOCK_SINKS


def _is_rng_sink(node: str, nargs: int) -> bool:
    if not is_external(node):
        return False
    name = external_name(node)
    if name.startswith("random."):
        attr = name[len("random.") :]
        if attr in _RANDOM_OK:
            return attr == "Random" and nargs == 0
        return "." not in attr
    if name.startswith("numpy.random."):
        attr = name[len("numpy.random.") :]
        if attr in _NP_RANDOM_OK:
            return attr == "default_rng" and nargs == 0
        return "." not in attr
    return False


def _taint_findings(
    context: ProjectContext,
    rule_id: str,
    scope: frozenset,
    sink: Callable[[str, int], bool],
    sink_kind: str,
    remedy: str,
) -> Iterator[Finding]:
    """Shared frontier-reporting logic for the taint family.

    A finding lands on the *last* in-scope function before the chain
    leaves the scoped packages: intermediate in-scope callers are
    suppressed (fixing the frontier fixes them all), and distance-1
    direct calls are left to the syntactic layer (wallclock-in-compute,
    unseeded-rng, tracing-clock-injection), which already reports them
    with per-module precision.
    """
    graph = context.graph
    tainted = graph.taint_from_sinks(sink)
    for node in sorted(tainted):
        module_name, _, qualname = node.partition("::")
        summary = context.table.modules.get(module_name)
        if summary is None or summary.package not in scope:
            continue
        succ, lineno = tainted[node]
        if is_external(succ):
            continue  # direct call: the syntactic rules own this report
        chain = graph.chain(node, tainted)
        intermediate_in_scope = False
        for step_node, _step_line in chain[1:]:
            if is_external(step_node):
                continue
            step_module = step_node.partition("::")[0]
            step_summary = context.table.modules.get(step_module)
            if step_summary is not None and step_summary.package in scope:
                intermediate_in_scope = True
                break
        if intermediate_in_scope:
            continue
        sink_name = external_name(chain[-1][0]) if chain else sink_kind
        hops = " -> ".join(
            external_name(step) if is_external(step) else step.split("::", 1)[1]
            for step, _line in chain
        )
        finding = Finding(
            path=summary.relpath,
            line=lineno,
            rule=rule_id,
            message=(
                f"{qualname} transitively reaches {sink_kind} sink "
                f"{sink_name} via {hops} — {remedy}"
            ),
        )
        context.explanations[(summary.relpath, lineno, rule_id)] = (
            graph.render_chain(chain)
        )
        yield finding


@project_rule("wallclock-taint")
def wallclock_taint(context: ProjectContext) -> Iterator[Finding]:
    """Pure/clock-injected code must not reach wall time through helpers.

    The syntactic ``wallclock-in-compute`` rule sees one module at a
    time, so ``ml`` code calling a gateway/telemetry helper that reads
    ``time.time()`` two hops away passes it silently.  This rule walks
    the whole-program call graph: any function in a pure or
    clock-injected package with a transitive path to a wall-clock sink
    is flagged at the call that starts the chain, and ``--explain
    wallclock-taint`` renders the full route.
    """
    yield from _taint_findings(
        context,
        "wallclock-taint",
        WALLCLOCK_TAINT_PACKAGES,
        _is_wallclock_sink,
        "wall-clock",
        "thread the injected clock through this call chain",
    )


@project_rule("rng-taint")
def rng_taint(context: ProjectContext) -> Iterator[Finding]:
    """Deterministic packages must not reach global RNG state through helpers.

    ``unseeded-rng`` flags direct draws from the process-wide generators
    tree-wide, but a baselined or out-of-scope helper can still leak
    nondeterminism into the seeded layers (ml/xai/gateway/cluster/…)
    through a call chain.  Any function in a deterministic package that
    transitively reaches ``random.*`` / legacy ``np.random.*`` / a
    seedless ``default_rng()`` is flagged with its chain.
    """
    yield from _taint_findings(
        context,
        "rng-taint",
        RNG_TAINT_PACKAGES,
        _is_rng_sink,
        "global-RNG",
        "inject a seeded generator through this call chain",
    )


@project_rule("off-lock-mutation")
def off_lock_mutation(context: ProjectContext) -> Iterator[Finding]:
    """A lock-guarded field must stay guarded across module boundaries.

    The per-module ``lock-discipline`` rule checks a class against
    itself; this extension follows the symbol table: any function —
    anywhere in the tree — that mutates ``obj.field`` on a receiver
    whose annotated/inferred type guards ``field`` with a lock must do
    so inside ``with obj.<lock>:``.  The classic miss is a helper
    module reaching into a node object it was handed.
    """
    table = context.table
    for summary, func in table.iter_functions():
        for write in func.param_writes:
            if write.param.startswith("self."):
                cls_name = func.qualname.split(".", 1)[0]
                owner_cls = summary.classes.get(cls_name)
                if owner_cls is None:
                    continue
                type_text = owner_cls.attr_types.get(
                    write.param[len("self.") :]
                )
            else:
                type_text = func.var_types.get(write.param)
            found = table.find_class(summary, type_text) if type_text else None
            if found is None:
                continue
            cls_module, cls = found
            if not cls.lock_attrs or write.attr not in cls.guarded_attrs:
                continue
            if set(write.held) & set(cls.lock_attrs):
                continue
            lock = cls.lock_attrs[0]
            yield Finding(
                path=summary.relpath,
                line=write.lineno,
                rule="off-lock-mutation",
                message=(
                    f"{cls.name}.{write.attr} is written under "
                    f"{cls.name}.{lock} in {cls_module} but mutated here "
                    f"via {write.param!r} without holding it — wrap the "
                    f"write in `with {write.param}.{lock}:`"
                ),
            )


#: In-tree kernel entry points whose per-request use the serving layer
#: exists to amortise.  Terminal names containing "batch" are the fused
#: endpoints and never count as per-request sinks.
_KERNEL_CALL_NAMES = frozenset(
    {"predict", "predict_proba", "decision_function", "shap_values"}
)
_KERNEL_PACKAGES = frozenset({"ml", "xai"})


def _kernel_sink(table: SymbolTable) -> Callable[[str, int], bool]:
    """Predicate: is this resolved callee a per-request ml/xai kernel?"""

    def predicate(node: str, nargs: int) -> bool:
        if is_external(node):
            return False
        module_name, _, qualname = node.partition("::")
        summary = table.modules.get(module_name)
        if summary is None or summary.package not in _KERNEL_PACKAGES:
            return False
        return qualname.rsplit(".", 1)[-1] in _KERNEL_CALL_NAMES

    return predicate


@project_rule("unbatched-kernel-call")
def unbatched_kernel_call(context: ProjectContext) -> Iterator[Finding]:
    """Serving-path loops must not issue per-request kernel calls.

    The whole point of ``repro.serving`` (DESIGN.md §15) is that queued
    requests coalesce into *one* fused ``predict`` / SHAP call, so a
    loop on the serving path (``serving``/``gateway``/``cluster``) whose
    body reaches an ml/xai kernel — directly or through helpers — is
    dispatching per request again, exactly the regression the batcher
    removed.  The sanctioned shape is a loop over *flushed batches*
    (one fused kernel call per iteration): a loop edge whose callee's
    terminal name contains ``batch`` is therefore exempt, as are the
    kernels' own internal loops (``ml``/``xai`` are out of scope).
    Reported at the loop-edge frontier like ``wallclock-taint``, with
    the full chain available via ``--explain``.
    """
    graph = context.graph
    table = context.table
    sink = _kernel_sink(table)
    tainted = graph.taint_from_sinks(sink)
    for (caller, callee), lineno in sorted(graph.loop_edges.items()):
        module_name, _, qualname = caller.partition("::")
        summary = table.modules.get(module_name)
        if summary is None or summary.package not in SERVING_PATH_PACKAGES:
            continue
        if is_external(callee):
            continue
        callee_terminal = callee.partition("::")[2].rsplit(".", 1)[-1]
        if "batch" in callee_terminal:
            continue  # loop over flushed batches: the coalescing endpoint
        edge = graph.edges.get(caller, {}).get(callee)
        nargs = edge[1] if edge is not None else 0
        if sink(callee, nargs):
            chain = [(caller, lineno), (callee, 0)]
        elif callee in tainted:
            chain = [(caller, lineno)] + graph.chain(callee, tainted)
        else:
            continue
        kernel = chain[-1][0].partition("::")[2]
        hops = " -> ".join(
            external_name(step) if is_external(step) else step.split("::", 1)[1]
            for step, _line in chain
        )
        finding = Finding(
            path=summary.relpath,
            line=lineno,
            rule="unbatched-kernel-call",
            message=(
                f"{qualname} calls a per-request kernel inside a loop "
                f"({hops} reaches {kernel}) — coalesce the loop through "
                f"repro.serving's micro-batcher into one fused "
                f"predict/shap_values_batch_exact call"
            ),
        )
        context.explanations[
            (summary.relpath, lineno, "unbatched-kernel-call")
        ] = graph.render_chain(chain)
        yield finding
