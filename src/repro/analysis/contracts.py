"""The layering contract: which package may import which, declared once.

The repo is layered like the SPATIAL deployment it reproduces — pure
substrates at the bottom (``ml``, ``datasets``, ``telemetry``), trust
metrics above them, orchestration (``core``) and serving (``gateway``)
on top.  ``ALLOWED_IMPORTS`` is the single source of truth for the
allowed package→package edges (mirrored as a diagram in DESIGN.md);
:class:`ImportGraphAnalyzer` parses every module's imports into a
``networkx`` digraph and emits findings for (a) any edge outside the
contract and (b) any import cycle at module granularity.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.analysis.engine import Finding
from repro.analysis.symbols import module_name

__all__ = [
    "ALLOWED_IMPORTS",
    "CLOCK_IMPORT_BANNED_PACKAGES",
    "CLOCK_INJECTED_PACKAGES",
    "CROSS_PROCESS_PACKAGES",
    "PURE_PACKAGES",
    "RNG_TAINT_PACKAGES",
    "SERVING_PATH_PACKAGES",
    "WALLCLOCK_TAINT_PACKAGES",
    "ImportGraphAnalyzer",
    "TOP_PACKAGE",
    "extract_intra_imports",
]

TOP_PACKAGE = "repro"

# package -> packages it may import.  A missing key means "may import
# nothing inside repro but its own package".  Root modules (cli.py,
# __init__.py, __main__.py) are the application layer: unrestricted.
ALLOWED_IMPORTS: Dict[str, frozenset] = {
    # layer 0 — substrates: no intra-repo dependencies
    "datasets": frozenset(),
    "telemetry": frozenset(),
    "analysis": frozenset(),
    "ml": frozenset(),
    # layer 1 — trust metrics and learning extensions over the substrates
    "privacy": frozenset({"ml"}),
    "trust": frozenset({"ml"}),
    "xai": frozenset({"ml"}),
    "federated": frozenset({"ml", "datasets"}),
    # tracing sits just above telemetry: spans are the interval-valued
    # sibling of events, and the exemplar join needs both vocabularies
    "tracing": frozenset({"telemetry"}),
    # the kernel pool ships batches to forked workers through shared
    # memory; it publishes occupancy/crash counters through telemetry
    # but must stay ignorant of the layers that feed it
    "pool": frozenset({"telemetry"}),
    # the SLO engine evaluates rollup windows and drills into traces;
    # incident *rendering* (narrator/dashboard) lives in core, above it
    "slo": frozenset({"telemetry", "tracing"}),
    # the serving layer fuses per-request work into kernel calls; it
    # sits between the request sources (gateway/cluster) and the pure
    # kernels, publishing its counters through telemetry; the engine
    # may hand flushed batches to a repro.pool worker pool
    "serving": frozenset({"ml", "xai", "telemetry", "tracing", "pool"}),
    # layer 2 — serving and adversarial workloads
    "gateway": frozenset({"ml", "serving", "telemetry", "tracing"}),
    # the multi-node deployment composes the single-node serving engine
    # with the observability substrates; it must not reach into ml/core
    "cluster": frozenset({"gateway", "serving", "telemetry", "tracing"}),
    "attacks": frozenset({"ml", "privacy", "gateway", "datasets"}),
    # layer 3 — orchestration: may use everything below, never the CLI
    "core": frozenset(
        {
            "ml",
            "datasets",
            "telemetry",
            "tracing",
            "privacy",
            "trust",
            "xai",
            "federated",
            "attacks",
            "slo",
        }
    ),
}

# Packages where wall-clock access is banned outright (see the
# wallclock-in-compute rule): results must be a function of inputs+seed.
PURE_PACKAGES = frozenset(
    {
        "ml",
        "xai",
        "trust",
        "datasets",
        "privacy",
        "federated",
        "attacks",
        # the serving layer is pure given (inputs, now): every entry
        # point takes the caller's clock reading, so batching/caching
        # decisions replay identically under simulated time
        "serving",
    }
)

# Packages whose timestamps must come from an injected clock: tracing
# (span times) and cluster (node/fault/autoscaler scheduling) both run
# on the simulator's virtual ``now`` in capacity experiments.
CLOCK_INJECTED_PACKAGES = frozenset({"tracing", "cluster"})

# Packages where even *importing* time/datetime is banned (the
# tracing-clock-injection rule).  The clock-injected packages would mix
# wall time into virtual-time runs; attacks/federated/privacy are
# seeded-compute layers whose only sanctioned duration source is the
# injectable cost clock in ``repro.attacks.base``; slo runs entirely on
# window/alert timestamps (simulated time) so its reports stay
# byte-stable.
CLOCK_IMPORT_BANNED_PACKAGES = CLOCK_INJECTED_PACKAGES | frozenset(
    {"attacks", "federated", "privacy", "slo"}
)

# Taint scopes for the whole-program flow rules (rules_flow.py): code in
# these packages must not *transitively* reach a wall-clock / global-RNG
# sink, even through helpers in other layers.
WALLCLOCK_TAINT_PACKAGES = PURE_PACKAGES | CLOCK_INJECTED_PACKAGES
RNG_TAINT_PACKAGES = PURE_PACKAGES | frozenset(
    {"gateway", "cluster", "tracing"}
)

# Scope of the unbatched-kernel-call flow rule: packages on the serving
# path, where a per-request model/XAI kernel call inside a loop defeats
# the micro-batcher (DESIGN.md §15).  The pure kernel layers themselves
# are out of scope — their internal loops are the batched endpoints.
SERVING_PATH_PACKAGES = frozenset({"serving", "gateway", "cluster"})

# Scope of the cross-process-pickle rule: packages that own or drive the
# multi-process kernel pool (DESIGN.md §16).  Inside them, ndarray/bytes
# payloads must cross process boundaries through the shared-memory
# arena, never by pickling through a multiprocessing queue or executor
# submit — the zero-copy hot path is the whole point of repro.pool.
CROSS_PROCESS_PACKAGES = SERVING_PATH_PACKAGES | frozenset({"pool"})


def extract_intra_imports(
    relpath: str, tree: ast.Module, top_package: str = TOP_PACKAGE
) -> List[Tuple[str, Optional[Tuple[str, ...]], int]]:
    """Intra-repo imports of one module: (target, imported names, line).

    ``target`` is the dotted module path relative to the analyzed tree
    (``"gateway.services"``); ``names`` is the tuple of imported names
    for from-imports, or None for plain ``import`` statements.  Shared
    by the live AST path and the incremental cache, which stores these
    tuples so a warm run can rebuild the import graph without parsing.
    """
    src_module = module_name(relpath)
    is_package = Path(relpath).name == "__init__.py"
    prefix = top_package + "."

    def strip(dotted: str) -> str:
        if dotted == top_package:
            return "<root>"
        return dotted[len(top_package) + 1 :]

    out: List[Tuple[str, Optional[Tuple[str, ...]], int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == top_package or item.name.startswith(prefix):
                    out.append((strip(item.name), None, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            names = tuple(item.name for item in node.names)
            if node.level:
                # Resolve against the containing package: for module
                # a.b.c, level=1 -> a.b; for package a.b (__init__),
                # level=1 -> a.b itself.
                parts = src_module.split(".")
                keep = len(parts) - node.level + (1 if is_package else 0)
                if keep < 0:
                    continue
                base = parts[:keep]
                if node.module:
                    base = base + node.module.split(".")
                if base:
                    out.append((".".join(base), names, node.lineno))
            elif node.module and (
                node.module == top_package or node.module.startswith(prefix)
            ):
                out.append((strip(node.module), names, node.lineno))
    return out


class ImportGraphAnalyzer:
    """Build the intra-repo import graph and check it against the contract."""

    def __init__(
        self,
        allowed: Optional[Dict[str, frozenset]] = None,
        top_package: str = TOP_PACKAGE,
    ) -> None:
        self.allowed = dict(ALLOWED_IMPORTS if allowed is None else allowed)
        self.top_package = top_package
        self.module_graph = nx.DiGraph()
        self.package_graph = nx.DiGraph()
        # Raw imports: (src_mod, dst_mod, imported names or None, line).
        self._raw: List[Tuple[str, str, Optional[Tuple[str, ...]], int]] = []
        self._edges: List[Tuple[str, str, int]] = []  # resolved (src, dst, line)
        self._finalized = False

    # -- graph construction -------------------------------------------------

    def add_module(self, relpath: str, tree: ast.Module) -> None:
        self.add_raw_imports(
            relpath, extract_intra_imports(relpath, tree, self.top_package)
        )

    def add_raw_imports(
        self,
        relpath: str,
        raw_imports: Iterable[Tuple[str, Optional[Tuple[str, ...]], int]],
    ) -> None:
        """Ingest pre-extracted imports (the incremental cache's path in)."""
        src_module = module_name(relpath)
        self.module_graph.add_node(src_module, relpath=relpath)
        for target, names, lineno in raw_imports:
            self._raw.append((src_module, target, names, lineno))
        self._finalized = False

    def add_tree(self, root: Path) -> int:
        count = 0
        for path in sorted(root.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue  # the engine reports this as its own finding
            self.add_module(path.relative_to(root).as_posix(), tree)
            count += 1
        return count


    # -- checks -------------------------------------------------------------

    def finalize(self) -> None:
        """Resolve raw imports to module edges; project down to packages.

        ``from repro.pkg import name`` points at ``pkg.name`` when that is
        a real module in the analyzed tree (otherwise ``name`` is an
        attribute and the edge stays on the package ``__init__``).  This
        matters for cycle fidelity: a package re-exporting its own
        submodules must not read as a self-cycle.
        """
        if self._finalized:
            return
        real = {
            node
            for node, data in self.module_graph.nodes(data=True)
            if "relpath" in data
        }
        self._edges = []
        for src, target, names, lineno in self._raw:
            if names is None:
                resolved = [target]
            else:
                resolved = [
                    f"{target}.{name}"
                    for name in names
                    if f"{target}.{name}" in real
                ]
                if len(resolved) < len(names):
                    # at least one imported name is an attribute, which
                    # executes the package __init__ itself
                    resolved.append(target)
            for dst in resolved:
                if dst == src:
                    continue
                self._edges.append((src, dst, lineno))
                self.module_graph.add_edge(src, dst)
        for src, dst, _ in self._edges:
            sp, dp = src.split(".")[0], dst.split(".")[0]
            if sp != dp and dp != "<root>":
                self.package_graph.add_edge(sp, dp)
        self._finalized = True

    def contract_violations(self) -> List[Finding]:
        self.finalize()
        findings = []
        relpaths = nx.get_node_attributes(self.module_graph, "relpath")
        for src, dst, lineno in self._edges:
            src_pkg = src.split(".")[0]
            dst_pkg = dst.split(".")[0]
            if src_pkg == dst_pkg or dst_pkg == "<root>":
                continue
            if "." not in src and src not in self.allowed:
                continue  # root modules are the unrestricted top layer
            permitted = self.allowed.get(src_pkg, frozenset())
            if dst_pkg not in permitted:
                findings.append(
                    Finding(
                        path=relpaths.get(src, src),
                        line=lineno,
                        rule="layer-contract",
                        message=(
                            f"package '{src_pkg}' may not import "
                            f"'{dst_pkg}' (allowed: "
                            f"{sorted(permitted) or 'nothing'})"
                        ),
                    )
                )
        return sorted(findings)

    def import_cycles(self) -> List[Finding]:
        self.finalize()
        findings = []
        relpaths = nx.get_node_attributes(self.module_graph, "relpath")
        for cycle in nx.simple_cycles(self.module_graph):
            anchor = min(cycle)
            ordered = cycle[cycle.index(anchor) :] + cycle[: cycle.index(anchor)]
            findings.append(
                Finding(
                    path=relpaths.get(anchor, anchor),
                    line=1,
                    rule="import-cycle",
                    message=(
                        "import cycle: " + " -> ".join(ordered + [anchor])
                    ),
                )
            )
        return sorted(findings)

    def check(self) -> List[Finding]:
        return sorted(self.contract_violations() + self.import_cycles())

    def package_edges(self) -> List[Tuple[str, str]]:
        self.finalize()
        return sorted(self.package_graph.edges())
