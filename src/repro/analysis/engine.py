"""AST rule engine: one parse per module, many registered probes.

The telemetry subsystem gauges the *running* system; this package gauges
the *source tree* the same way — small, composable probes that each
quantify one invariant.  A module is parsed exactly once into a
:class:`ModuleContext`; every registered rule then walks the shared tree
and yields findings.  Rules register themselves with the :func:`rule`
decorator, so adding a probe is writing one generator function — the
engine, CLI, baseline and tests pick it up automatically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "AnalysisEngine",
    "Finding",
    "ModuleContext",
    "RuleSpec",
    "all_rules",
    "get_rule",
    "rule",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where it is, which probe fired, and why it matters."""

    path: str  # posix path relative to the analysis root
    line: int
    rule: str
    message: str
    severity: str = "error"  # "error" gates CI; "warning" is advisory

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),
            rule=str(data["rule"]),
            message=str(data["message"]),
            severity=str(data.get("severity", "error")),
        )


@dataclass
class ModuleContext:
    """A parsed module plus the metadata rules keep re-deriving.

    ``nodes`` is the flattened ``ast.walk`` order, computed once so ten
    rules do not re-walk the tree ten times.  ``package`` is the
    first-level package under the analysis root (``"ml"`` for
    ``ml/model.py``, ``""`` for root modules like ``cli.py``).
    """

    path: Path
    relpath: str
    tree: ast.Module
    source: str
    nodes: List[ast.AST] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.nodes:
            self.nodes = list(ast.walk(self.tree))

    @property
    def package(self) -> str:
        parts = Path(self.relpath).parts
        return parts[0] if len(parts) > 1 else ""

    @property
    def is_init(self) -> bool:
        return Path(self.relpath).name == "__init__.py"

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """All nodes of the given types, in ``ast.walk`` order."""
        for node in self.nodes:
            if isinstance(node, types):
                yield node

    @classmethod
    def from_source(
        cls, source: str, relpath: str = "module.py", path: Optional[Path] = None
    ) -> "ModuleContext":
        return cls(
            path=path or Path(relpath),
            relpath=relpath,
            tree=ast.parse(source),
            source=source,
        )


# A rule is a generator over one module: yield (lineno, message) pairs.
RuleFunc = Callable[[ModuleContext], Iterable[Tuple[int, str]]]


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    severity: str
    description: str
    func: RuleFunc


_REGISTRY: Dict[str, RuleSpec] = {}


def rule(rule_id: str, *, severity: str = "error") -> Callable[[RuleFunc], RuleFunc]:
    """Register ``func`` as an analysis rule under ``rule_id``.

    The decorated function's docstring becomes the rule description shown
    by ``repro lint --list-rules``; the first line should state the
    invariant, not the mechanics.
    """

    if severity not in ("error", "warning"):
        raise ValueError(f"severity must be error|warning, got {severity!r}")

    def register(func: RuleFunc) -> RuleFunc:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        description = (func.__doc__ or rule_id).strip().splitlines()[0]
        _REGISTRY[rule_id] = RuleSpec(rule_id, severity, description, func)
        return func

    return register


def all_rules() -> List[RuleSpec]:
    return sorted(_REGISTRY.values(), key=lambda spec: spec.rule_id)


def get_rule(rule_id: str) -> RuleSpec:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r}; known: {known}") from None


class AnalysisEngine:
    """Run a set of registered rules over a source tree.

    ``rules=None`` means every registered rule.  The engine is oblivious
    to *what* the rules check — it owns parsing, iteration order and
    finding assembly, so the same machinery serves the CLI, the tier-1
    gate and per-rule fixture tests.
    """

    def __init__(self, rules: Optional[Iterable[str]] = None) -> None:
        if rules is None:
            self._specs = all_rules()
        else:
            self._specs = [get_rule(rule_id) for rule_id in rules]

    @property
    def rule_ids(self) -> List[str]:
        return [spec.rule_id for spec in self._specs]

    def analyze_module(self, module: ModuleContext) -> List[Finding]:
        findings = []
        for spec in self._specs:
            for lineno, message in spec.func(module):
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=lineno,
                        rule=spec.rule_id,
                        message=message,
                        severity=spec.severity,
                    )
                )
        return sorted(findings)

    def analyze_source(
        self, source: str, relpath: str = "module.py"
    ) -> List[Finding]:
        """Analyze a source string — the fixture-test entry point."""
        return self.analyze_module(ModuleContext.from_source(source, relpath))
