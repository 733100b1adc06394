"""Incremental analysis cache: per-module results keyed by content hash.

A cold ``repro lint`` run spends nearly all its time in the per-module
phase — parsing, syntactic rules, CFG rules, summary extraction.  All of
that is a pure function of one module's bytes, so the cache stores, per
relpath: the source digest, the per-module findings, the serialized
:class:`~repro.analysis.symbols.ModuleSummary` (which feeds the global
phase), and the raw intra-repo imports (which rebuild the import graph
without parsing).  A warm ``--changed`` run re-analyzes only the *dirty
closure*: modules whose content hash moved, plus every module that
imports a dirty one, transitively — the reverse of the dependency edges
the layering contract already tracks.  Everything else is replayed from
the cache; the global phase (symbol table, call graph, project rules,
contracts) is cheap and recomputed every run from the union of fresh
and cached summaries, so whole-program findings stay exact.

The cache is invalidated wholesale when the engine version or the rule
catalogue changes: findings are only replayable if the probes that
produced them are identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.contracts import ImportGraphAnalyzer
from repro.analysis.symbols import module_name

__all__ = ["AnalysisCache", "CACHE_VERSION", "ModuleRecord"]

# Bump when the per-module result shape or any rule semantics change in
# a way the rule-id list does not capture.
# v2: CallSite records grew the in_loop flag (unbatched-kernel-call).
CACHE_VERSION = 2

RawImport = Tuple[str, Optional[Tuple[str, ...]], int]


@dataclass
class ModuleRecord:
    """Everything the per-module phase produced for one file."""

    digest: str
    findings: List[dict] = field(default_factory=list)
    summary: Optional[dict] = None  # ModuleSummary.to_dict(); None on syntax error
    raw_imports: List[RawImport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "findings": self.findings,
            "summary": self.summary,
            "raw_imports": [
                [target, list(names) if names is not None else None, lineno]
                for target, names, lineno in self.raw_imports
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleRecord":
        return cls(
            digest=data["digest"],
            findings=list(data.get("findings", [])),
            summary=data.get("summary"),
            raw_imports=[
                (target, tuple(names) if names is not None else None, lineno)
                for target, names, lineno in data.get("raw_imports", [])
            ],
        )


class AnalysisCache:
    """Load/validate/save the per-module result store."""

    def __init__(
        self, path: Optional[Path], rule_ids: Sequence[str]
    ) -> None:
        self.path = path
        self.rule_key = ",".join(sorted(rule_ids))
        self.records: Dict[str, ModuleRecord] = {}
        self.loaded_from_disk = False

    @classmethod
    def load(
        cls, path: Optional[Path], rule_ids: Sequence[str]
    ) -> "AnalysisCache":
        """Read the cache; mismatched version/rule catalogue means empty."""
        cache = cls(path, rule_ids)
        if path is None or not Path(path).is_file():
            return cache
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            return cache
        if (
            data.get("version") != CACHE_VERSION
            or data.get("rule_key") != cache.rule_key
        ):
            return cache
        for relpath, record in data.get("modules", {}).items():
            try:
                cache.records[relpath] = ModuleRecord.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue
        cache.loaded_from_disk = True
        return cache

    def save(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": CACHE_VERSION,
            "rule_key": self.rule_key,
            "modules": {
                relpath: record.to_dict()
                for relpath, record in sorted(self.records.items())
            },
        }
        Path(self.path).write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )

    # -- invalidation --------------------------------------------------------

    def dirty_closure(self, digests: Dict[str, str]) -> Set[str]:
        """Relpaths needing re-analysis for the tree state in ``digests``.

        Seeds: new modules, modules whose digest moved, and (for graph
        purposes) modules that vanished.  The closure adds every cached
        module that transitively imports a seed, using the *cached*
        import edges — a changed module's new imports only affect its
        own (already dirty) result.
        """
        seeds: Set[str] = set()
        for relpath, digest in digests.items():
            record = self.records.get(relpath)
            if record is None or record.digest != digest:
                seeds.add(relpath)
        removed = set(self.records) - set(digests)

        if not seeds and not removed:
            return set()

        # Reverse-dependency closure over the cached import graph.
        analyzer = ImportGraphAnalyzer()
        for relpath, record in self.records.items():
            analyzer.add_raw_imports(relpath, record.raw_imports)
        analyzer.finalize()
        graph = analyzer.module_graph

        module_of = {
            relpath: module_name(relpath) for relpath in self.records
        }
        by_module = {name: relpath for relpath, name in module_of.items()}

        frontier = [
            module_of[relpath]
            for relpath in (seeds | removed)
            if relpath in module_of
        ]
        dirty_modules: Set[str] = set(frontier)
        while frontier:
            node = frontier.pop()
            if node not in graph:
                continue
            for pred in graph.predecessors(node):
                if pred not in dirty_modules:
                    dirty_modules.add(pred)
                    frontier.append(pred)
        # A dirty package __init__ dirties its importers too via the
        # graph; map module names back to files that still exist.
        closure = {
            by_module[name]
            for name in dirty_modules
            if name in by_module and by_module[name] in digests
        }
        return closure | (seeds & set(digests))

    def prune(self, digests: Dict[str, str]) -> None:
        """Drop records for files no longer in the tree."""
        for relpath in set(self.records) - set(digests):
            del self.records[relpath]
