"""The probe catalogue: one registered rule per repo invariant.

Every rule is a generator ``(module: ModuleContext) -> (lineno, message)``
registered via :func:`repro.analysis.engine.rule`.  The catalogue encodes
the defect classes reviews of this repo keep finding by hand — the PR-1
dashboard bug was a placeholder-less f-string — plus the determinism and
clock-injection invariants a reproduction cannot afford to lose.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.contracts import (
    CLOCK_IMPORT_BANNED_PACKAGES,
    PURE_PACKAGES,
)
from repro.analysis.engine import ModuleContext, rule
from repro.analysis.symbols import _is_lock_factory, _self_attr

__all__ = ["BUILTIN_NAMES"]


@rule("fstring-placeholder")
def fstring_placeholder(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """An f-string without placeholders is almost always a forgotten {...}.

    Format specs (the ``:.3f`` in ``f"{x:.3f}"``) are themselves JoinedStr
    nodes without placeholders — they are legitimate and must be excluded,
    or every width/precision spec becomes a false positive.
    """
    spec_ids = {
        id(node.format_spec)
        for node in module.walk(ast.FormattedValue)
        if node.format_spec
    }
    for node in module.walk(ast.JoinedStr):
        if id(node) in spec_ids:
            continue
        if not any(isinstance(p, ast.FormattedValue) for p in node.values):
            yield node.lineno, (
                "f-string has no placeholders — a {…} was probably forgotten"
            )


_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)


@rule("mutable-default")
def mutable_default(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """A mutable default argument shares one object across every call."""
    for node in module.walk(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        name = getattr(node, "name", "<lambda>")
        for default in defaults:
            bad = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            )
            if bad:
                yield default.lineno, (
                    f"mutable default argument in {name}() — "
                    "use None and allocate inside the body"
                )


@rule("swallowed-except")
def swallowed_except(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """A bare or pass-only except hides the failure it catches.

    Bare ``except:`` also traps ``KeyboardInterrupt``/``SystemExit``;
    a handler whose body is only ``pass``/``...`` erases the error
    entirely.  Catch a concrete type and record what was caught (the
    registry's ``error_reading`` pattern), or use ``contextlib.suppress``
    to make intentional swallowing explicit.
    """
    for handler in module.walk(ast.ExceptHandler):
        if handler.type is None:
            yield handler.lineno, (
                "bare `except:` traps KeyboardInterrupt/SystemExit — "
                "name the exception type"
            )
            continue
        body_is_noop = all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in handler.body
        )
        if body_is_noop:
            yield handler.lineno, (
                "exception silently swallowed (pass-only handler) — "
                "record it or use contextlib.suppress"
            )


# Constructors that *produce* a seedable generator are fine; everything
# else on the global modules mutates or reads hidden process-wide state.
_RANDOM_OK = frozenset({"Random", "SystemRandom"})
_NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
    }
)


def _import_aliases(module: ModuleContext) -> Dict[str, Set[str]]:
    """Map canonical module name -> local alias names bound in this module."""
    aliases: Dict[str, Set[str]] = {}
    for node in module.walk(ast.Import):
        for item in node.names:
            bound = item.asname or item.name.split(".")[0]
            aliases.setdefault(item.name.split(".")[0], set()).add(bound)
    return aliases


@rule("unseeded-rng")
def unseeded_rng(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Global RNG state breaks reproducibility — inject a seeded generator.

    ``random.random()`` and legacy ``np.random.rand()`` draw from hidden
    process-wide state: two call sites interleave and every result depends
    on import order.  Library code must thread a ``random.Random(seed)``
    or ``np.random.default_rng(seed)`` instance instead.
    """
    aliases = _import_aliases(module)
    random_names = aliases.get("random", set())
    numpy_names = aliases.get("numpy", set())
    from_random: Set[str] = set()
    for node in module.walk(ast.ImportFrom):
        if node.module == "random" and node.level == 0:
            for item in node.names:
                if item.name not in _RANDOM_OK:
                    from_random.add(item.asname or item.name)

    seeded_ctors: Set[str] = set()
    for node in module.walk(ast.ImportFrom):
        if node.module == "random" and node.level == 0:
            for item in node.names:
                if item.name == "Random":
                    seeded_ctors.add(item.asname or item.name)
        elif node.module in ("numpy.random", "numpy") and node.level == 0:
            for item in node.names:
                if item.name == "default_rng":
                    seeded_ctors.add(item.asname or item.name)

    for node in module.walk(ast.Call):
        func = node.func
        seedless = not node.args and not node.keywords
        if isinstance(func, ast.Name) and func.id in from_random:
            yield node.lineno, (
                f"global-state RNG call {func.id}() — "
                "inject random.Random(seed) instead"
            )
        elif isinstance(func, ast.Name) and func.id in seeded_ctors and seedless:
            yield node.lineno, (
                f"seedless generator {func.id}() draws OS entropy — "
                "pass an explicit seed"
            )
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            if base in random_names and func.attr not in _RANDOM_OK:
                yield node.lineno, (
                    f"global-state RNG call random.{func.attr}() — "
                    "inject random.Random(seed) instead"
                )
            elif base in random_names and func.attr == "Random" and seedless:
                yield node.lineno, (
                    "seedless random.Random() draws OS entropy — "
                    "pass an explicit seed"
                )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in numpy_names
            and func.attr not in _NP_RANDOM_OK
        ):
            yield node.lineno, (
                f"legacy global np.random.{func.attr}() — "
                "use np.random.default_rng(seed)"
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "default_rng"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in numpy_names
            and seedless
        ):
            yield node.lineno, (
                "seedless np.random.default_rng() draws OS entropy — "
                "pass an explicit seed"
            )


_WALLCLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
_WALLCLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})


@rule("wallclock-in-compute")
def wallclock_in_compute(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Pure compute packages must take an injected clock, not read wall time.

    Applies only to the pure layers (see ``PURE_PACKAGES`` in the layering
    contract): ml, xai, trust, datasets, privacy, federated, attacks.
    The telemetry rollup layer shows the sanctioned pattern — a ``clock``
    callable injected at construction, so tests and replays control time.
    """
    if module.package not in PURE_PACKAGES:
        return
    aliases = _import_aliases(module)
    time_names = aliases.get("time", set())
    datetime_mods = aliases.get("datetime", set())
    from_imports: Set[str] = set()
    datetime_classes: Set[str] = set()
    for node in module.walk(ast.ImportFrom):
        if node.level:
            continue
        if node.module == "time":
            for item in node.names:
                if item.name in _WALLCLOCK_TIME_ATTRS:
                    from_imports.add(item.asname or item.name)
        elif node.module == "datetime":
            for item in node.names:
                if item.name == "datetime":
                    datetime_classes.add(item.asname or item.name)

    for node in module.walk(ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in from_imports:
            yield node.lineno, (
                f"wall-clock {func.id}() in pure package "
                f"'{module.package}' — inject a clock callable"
            )
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in time_names
                and func.attr in _WALLCLOCK_TIME_ATTRS
            ):
                yield node.lineno, (
                    f"wall-clock time.{func.attr}() in pure package "
                    f"'{module.package}' — inject a clock callable"
                )
            elif (
                isinstance(base, ast.Name)
                and base.id in datetime_classes
                and func.attr in _WALLCLOCK_DT_ATTRS
            ):
                yield node.lineno, (
                    f"wall-clock datetime.{func.attr}() in pure package "
                    f"'{module.package}' — inject a clock callable"
                )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "datetime"
                and isinstance(base.value, ast.Name)
                and base.value.id in datetime_mods
                and func.attr in _WALLCLOCK_DT_ATTRS
            ):
                yield node.lineno, (
                    f"wall-clock datetime.datetime.{func.attr}() in pure "
                    f"package '{module.package}' — inject a clock callable"
                )


_CLOCK_MODULES = frozenset({"time", "datetime"})


@rule("tracing-clock-injection")
def tracing_clock_injection(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Clock-disciplined packages must never import time — clocks are injected.

    Span timestamps come from the :class:`~repro.tracing.tracer.Tracer`'s
    ``clock`` callable (the simulator's virtual ``now`` in capacity
    experiments, ``time.perf_counter`` at the application layer).  A direct
    ``time.*`` or ``datetime`` read anywhere in ``repro.tracing`` would
    silently mix wall time into virtual-time traces, so the *import* is
    banned outright — stricter than the pure-package rule, which only
    bans specific wall-clock calls.  ``repro.cluster`` is held to the
    same bar: node lifecycles, fault plans and autoscaler ticks all run
    on the simulator's virtual clock, and one wall-time read would
    desynchronise failover timing from the workload it interrupts.  The
    seeded-compute packages (``attacks``, ``federated``, ``privacy``)
    are also covered: their only sanctioned duration source is the
    injectable cost clock in ``repro.attacks.base``, which carries the
    single baselined import.
    """
    if module.package not in CLOCK_IMPORT_BANNED_PACKAGES:
        return
    package = f"repro.{module.package}"
    for node in module.walk(ast.Import):
        for item in node.names:
            root_name = item.name.split(".")[0]
            if root_name in _CLOCK_MODULES:
                yield node.lineno, (
                    f"'{item.name}' imported in {package} — "
                    "timestamps must come from the injected clock"
                )
    for node in module.walk(ast.ImportFrom):
        if node.level == 0 and node.module:
            root_name = node.module.split(".")[0]
            if root_name in _CLOCK_MODULES:
                yield node.lineno, (
                    f"'from {node.module} import …' in {package} — "
                    "timestamps must come from the injected clock"
                )


def _module_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (defs, classes, assigns, imports)."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Import):
            for item in stmt.names:
                names.add(item.asname or item.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for item in stmt.names:
                names.add(item.asname or item.name)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING / fallback-import blocks bind names too.
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for item in sub.names:
                        names.add(item.asname or item.name.split(".")[0])
                elif isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    names.add(sub.name)
    return names


def _declared_all(tree: ast.Module) -> Tuple[Optional[int], Optional[List[str]]]:
    for stmt in tree.body:
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target]
            if isinstance(stmt, ast.AnnAssign)
            else []
        )
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        value = stmt.value
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            return stmt.lineno, [e.value for e in value.elts]
        return stmt.lineno, None  # dynamic __all__: cannot check
    return None, None


@rule("all-drift")
def all_drift(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """``__all__`` must match the names the module actually binds.

    Both directions: an ``__all__`` entry with no backing definition is a
    broken export (``from pkg import *`` raises AttributeError), and — in
    package ``__init__`` modules, where imports *are* the public API — a
    public binding missing from ``__all__`` is silent API drift.
    """
    lineno, exported = _declared_all(module.tree)
    if lineno is None or exported is None:
        return
    bound = _module_bindings(module.tree)
    for name in exported:
        if name not in bound:
            yield lineno, (
                f"__all__ exports {name!r} but the module never binds it"
            )
    if module.is_init:
        public = {
            n for n in bound if not n.startswith("_") and n != "annotations"
        }
        for name in sorted(public - set(exported)):
            yield lineno, (
                f"public name {name!r} is bound in __init__ "
                "but missing from __all__"
            )
    seen: Set[str] = set()
    for name in exported:
        if name in seen:
            yield lineno, f"__all__ lists {name!r} twice"
        seen.add(name)


BUILTIN_NAMES = frozenset(
    name for name in dir(builtins) if not name.startswith("_")
)


@rule("shadowed-builtin")
def shadowed_builtin(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """A parameter named after a builtin shadows it for the whole body.

    ``def f(input, type)`` makes ``input()``/``type()`` unreachable and
    misleads readers; rename (``input_``, ``kind``) or pick a domain term.
    """
    for node in module.walk(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
        args = node.args
        params = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
        if args.vararg:
            params.append(args.vararg)
        if args.kwarg:
            params.append(args.kwarg)
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param.arg in BUILTIN_NAMES:
                yield param.lineno, (
                    f"parameter {param.arg!r} of {name}() shadows a builtin"
                )


_PREDICT_NAMES = frozenset(
    {"predict", "predict_proba", "predict_fn", "decision_function"}
)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_repeated_nodes(loop: ast.AST) -> Iterator[ast.AST]:
    """Sub-nodes of a loop that execute once *per iteration*.

    Excludes the parts evaluated a single time before the loop runs: a
    ``for`` statement's iterable and the outermost comprehension source
    (``model.predict(X)`` as the thing being iterated is a batched call,
    exactly the pattern the rule wants to encourage).
    """
    if isinstance(loop, ast.For):
        repeated = [*loop.body, *loop.orelse]
    elif isinstance(loop, ast.While):
        repeated = [loop.test, *loop.body, *loop.orelse]
    else:  # comprehension: everything except the first generator's source
        repeated = [
            getattr(loop, "elt", None),
            getattr(loop, "key", None),
            getattr(loop, "value", None),
        ]
        for i, gen in enumerate(loop.generators):
            if i > 0:
                repeated.append(gen.iter)
            repeated.extend(gen.ifs)
        repeated = [node for node in repeated if node is not None]
    for node in repeated:
        yield from ast.walk(node)


@rule("predict-in-loop")
def predict_in_loop(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Model evaluation inside a Python loop defeats batched inference.

    The xai estimators are built around vectorized single-call model
    evaluation (stack the inputs, predict once, reduce) — a ``predict`` /
    ``predict_proba`` / ``predict_fn`` / ``decision_function`` reference
    inside a per-iteration position of a loop or comprehension is a
    hot-path regression waiting to happen.  Intentional remnants (the
    loop-based reference oracle, bounded-memory chunking) are baselined
    with their rationale in ``lint-baseline.json``.
    """
    if module.package != "xai":
        return
    seen: Set[Tuple[int, int]] = set()
    for loop in module.walk(ast.For, ast.While, *_COMPREHENSIONS):
        for sub in _loop_repeated_nodes(loop):
            if isinstance(sub, ast.Name) and sub.id in _PREDICT_NAMES:
                name = sub.id
            elif isinstance(sub, ast.Attribute) and sub.attr in _PREDICT_NAMES:
                name = sub.attr
            else:
                continue
            key = (sub.lineno, sub.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield sub.lineno, (
                f"{name} used inside a Python loop — stack the inputs "
                "and evaluate the model in one batched call"
            )


def _with_holds_lock(stmt: ast.With, lock_names: Set[str]) -> bool:
    for item in stmt.items:
        attr = _self_attr(item.context_expr)
        if attr in lock_names:
            return True
    return False


def _scan_lock_usage(
    body: List[ast.stmt],
    lock_names: Set[str],
    under_lock: bool,
    sink: List[Tuple[str, int, bool, bool]],
) -> None:
    """Record (attr, lineno, is_write, under_lock) for every self.X touch."""
    for stmt in body:
        if isinstance(stmt, ast.With):
            inner = under_lock or _with_holds_lock(stmt, lock_names)
            for item in stmt.items:  # the context expr itself
                _collect_attr_touches(item.context_expr, under_lock, sink)
            _scan_lock_usage(stmt.body, lock_names, inner, sink)
            continue
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody"):
                _scan_lock_usage(value, lock_names, under_lock, sink)
            elif field_name == "handlers":
                for handler in value:
                    _scan_lock_usage(
                        handler.body, lock_names, under_lock, sink
                    )
            elif isinstance(value, ast.AST):
                _collect_attr_touches(value, under_lock, sink)
            elif isinstance(value, list):
                for element in value:
                    if isinstance(element, ast.stmt):
                        _scan_lock_usage(
                            [element], lock_names, under_lock, sink
                        )
                    elif isinstance(element, ast.AST):
                        _collect_attr_touches(element, under_lock, sink)


def _collect_attr_touches(
    node: ast.AST, under_lock: bool, sink: List[Tuple[str, int, bool, bool]]
) -> None:
    for sub in ast.walk(node):
        attr = _self_attr(sub)
        if attr is None:
            continue
        is_write = isinstance(sub.ctx, (ast.Store, ast.Del))
        sink.append((attr, sub.lineno, is_write, under_lock))


@rule("lock-discipline")
def lock_discipline(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """An attribute written under ``self._lock`` must always be accessed under it.

    If ``__init__`` creates a Lock and some method writes ``self.x``
    inside ``with self._lock:``, then any *other* access of ``self.x``
    outside the lock is a race window — the lock only protects what is
    consistently guarded.  ``__init__`` itself is exempt (no concurrent
    aliases exist yet).
    """
    for cls in module.walk(ast.ClassDef):
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_names: Set[str] = set()
        for method in methods:
            if method.name != "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and _is_lock_factory(
                    node.value
                ):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            lock_names.add(attr)
        if not lock_names:
            continue

        touches: Dict[str, List[Tuple[str, int, bool, bool]]] = {}
        for method in methods:
            sink: List[Tuple[str, int, bool, bool]] = []
            _scan_lock_usage(method.body, lock_names, False, sink)
            touches[method.name] = sink

        guarded: Set[str] = set()
        for method_name, sink in touches.items():
            if method_name == "__init__":
                continue
            for attr, _lineno, is_write, under_lock in sink:
                if is_write and under_lock and attr not in lock_names:
                    guarded.add(attr)

        for method_name, sink in touches.items():
            if method_name == "__init__":
                continue
            for attr, lineno, _is_write, under_lock in sink:
                if attr in guarded and not under_lock:
                    yield lineno, (
                        f"{cls.name}.{attr} is lock-guarded elsewhere but "
                        f"accessed without the lock in {method_name}()"
                    )


def _is_empty_list_init(value: ast.AST) -> bool:
    """``[]`` or ``list()`` — the start of an unbounded accumulator."""
    if isinstance(value, ast.List) and not value.elts:
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "list"
        and not value.args
        and not value.keywords
    )


def _empty_list_attrs(module: ModuleContext) -> Set[str]:
    """Attribute names assigned an empty list inside any ``__init__``."""
    attrs: Set[str] = set()
    for fn in module.walk(ast.FunctionDef):
        if fn.name != "__init__":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _is_empty_list_init(node.value):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and _is_empty_list_init(node.value):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
    return attrs


@rule("hotpath-accumulator")
def hotpath_accumulator(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Per-event Python-list patterns that cap gateway capacity runs.

    The million-request pipeline (DESIGN.md §11) exists because the seed
    gateway accumulated one Python object per simulated request: list
    queues dequeued with ``pop(0)`` (O(queue) per service completion)
    and per-request ``.append`` onto unbounded instance lists (O(run)
    memory).  Inside ``repro.gateway`` this rule flags

    * any ``X.pop(0)`` call — a deque with ``popleft()`` is O(1) and
      drop-in for FIFO order, and
    * ``obj.attr.append(...)`` outside ``__init__`` where ``attr`` is
      initialised as an empty list in an ``__init__`` of the same module
      — the signature of an accumulator that grows with event count.

    Intentional remnants — the record-based oracle paths the columnar
    pipeline is checked against, and lists bounded by vocabulary rather
    than request count — are baselined with their rationale in
    ``lint-baseline.json``.
    """
    if module.package != "gateway":
        return
    for node in module.walk(ast.Call):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0
        ):
            yield node.lineno, (
                "list.pop(0) is O(queue length) per dequeue — use "
                "collections.deque.popleft()"
            )
    accumulators = _empty_list_attrs(module)
    if not accumulators:
        return
    seen: Set[Tuple[int, int]] = set()
    for fn in module.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        if fn.name == "__init__":
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in accumulators
            ):
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield node.lineno, (
                    f"append onto {node.func.value.attr!r} (an empty-list "
                    "instance attribute) grows without bound on a gateway "
                    "hot path — stream into a sketch/reservoir or use a "
                    "bounded structure"
                )


_SLO_FACTORIES = frozenset({"SLODefinition", "BurnRateRule"})
_SLO_THRESHOLD_KWARGS = frozenset(
    {
        "target",
        "threshold",
        "factor",
        "short_seconds",
        "long_seconds",
        "budget_seconds",
    }
)
#: The one module allowed to spell SLO policy numbers: the declarative
#: definition catalogue (and loader) itself.
_SLO_DEFINITION_MODULES = frozenset({"slo/definitions.py"})


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    # a negated literal (-0.5) parses as UnaryOp(USub, Constant)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_numeric_literal(node.operand)
    return False


@rule("slo-threshold-literal")
def slo_threshold_literal(module: ModuleContext) -> Iterator[Tuple[int, str]]:
    """SLO policy numbers belong in ``repro.slo.definitions`` (or a JSON
    file fed to ``load_definitions``), nowhere else.

    A ``target=0.99`` spelled inline at a construction site silently forks
    the objective from the declared catalogue: the dashboard, the burn-rate
    evaluator, and the incident narrative each believe a different number.
    Construction sites elsewhere must take thresholds from a loaded
    definition or a named catalogue entry, so this rule flags any numeric
    literal passed to ``SLODefinition``/``BurnRateRule`` outside the
    definitions module.
    """
    if module.relpath in _SLO_DEFINITION_MODULES:
        return
    for node in module.walk(ast.Call):
        name = _call_name(node.func)
        if name not in _SLO_FACTORIES:
            continue
        literal_args = [arg for arg in node.args if _is_numeric_literal(arg)]
        literal_kwargs = [
            kw.arg
            for kw in node.keywords
            if kw.arg in _SLO_THRESHOLD_KWARGS
            and _is_numeric_literal(kw.value)
        ]
        if literal_args or literal_kwargs:
            what = ", ".join(
                [f"positional #{i}" for i, _ in enumerate(literal_args, 1)]
                + list(literal_kwargs)
            )
            yield node.lineno, (
                f"hard-coded SLO threshold literal(s) ({what}) in "
                f"{name}(...) — declare objectives in "
                "repro.slo.definitions or load them via load_definitions()"
            )
