"""Rule ``lock-order`` — a global lock-acquisition order, no blocking under locks.

The serving stack holds four long-lived locks (engine cache lock,
``ServeMetrics._lock``, ``FleetDispatcher._lock``, ``SimilarityIndex``'s
RLock) and they are acquired from HTTP handler threads, the
micro-batcher worker, the dispatch loop, and the rollout coordinator
concurrently.  Two invariants keep that safe:

* **Acyclic acquisition order.**  If thread 1 takes A then B while
  thread 2 takes B then A, the fleet deadlocks under load and only
  under load.  This rule builds the global acquisition graph — lock B
  acquired (directly or through any resolvable call chain) while lock A
  is held adds edge A→B — and reports every cycle, plus re-acquisition
  of a non-reentrant ``Lock`` already held.
* **No blocking while holding a lock.**  ``Connection.send/recv``,
  ``connection.wait``, un-timed ``join()``, ``time.sleep``, file
  ``open``, ``subprocess.*`` and ``os.wait*`` reachable under a held
  lock stall every other thread queued on it.  ``Condition.wait`` on
  the held condition itself is exempt (it releases the lock).

Resolution is conservative: calls the project call graph cannot resolve
are treated as opaque (assumed neither to acquire nor to block), so
every report names a concrete in-project chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    dotted_parts,
    iter_calls,
)
from repro.analysis.engine import (
    Finding,
    ModuleSource,
    ProjectContext,
    ProjectRule,
    register_rule,
)

LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition"})

#: Call-name prefixes/tails treated as blocking operations.
_SUBPROCESS_HEAD = "subprocess"

#: Transitive summary depth guard (recursion through the call graph).
_MAX_DEPTH = 24

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


@dataclass(frozen=True)
class LockInfo:
    """One project lock: identity, reentrancy kind, defining module."""

    lock_id: str
    kind: str  # "lock" | "rlock" | "condition"
    slug: str


@dataclass
class _Summary:
    """What a function does, transitively: locks taken, blocking ops."""

    acquires: Dict[str, str] = field(default_factory=dict)
    blocking: List[Tuple[str, Optional[str], str]] = field(default_factory=list)


def _classify_blocking(
    parts: Tuple[str, ...], call: ast.Call
) -> Optional[Tuple[str, bool]]:
    """(human label, is_wait) when the call is a blocking operation."""
    tail = parts[-1]
    name = ".".join(parts)
    if parts == ("time", "sleep"):
        return (f"{name}()", False)
    if parts[0] == _SUBPROCESS_HEAD and len(parts) >= 2:
        return (f"{name}()", False)
    if parts[0] == "os" and tail.startswith("wait"):
        return (f"{name}()", False)
    if parts in (("open",), ("io", "open")):
        return ("open() (file I/O)", False)
    if tail in ("send", "recv") and len(parts) >= 2:
        return (f"{name}() (pipe I/O)", False)
    if tail == "wait":
        return (f"{name}()", True)
    if tail == "join" and len(parts) >= 2 and not call.args:
        return (f"{name}() (un-timed join)", False)
    return None


class _Analyzer:
    """One whole-program lock analysis run."""

    def __init__(self, rule: "LockOrderRule", project: ProjectContext) -> None:
        self.rule = rule
        self.project = project
        self.graph: CallGraph = project.graph
        self.locks: Dict[str, LockInfo] = {}
        self.findings: List[Finding] = []
        #: (holder lock, acquired lock) → first site (module, node).
        self.edges: Dict[Tuple[str, str], Tuple[ModuleSource, ast.AST]] = {}
        self._summaries: Dict[str, _Summary] = {}
        self._in_progress: Set[str] = set()

    # -- lock discovery ------------------------------------------------

    def collect_locks(self) -> None:
        for qualname in sorted(self.graph.classes):
            cls = self.graph.classes[qualname]
            source = self.project.source_for_slug(cls.slug)
            if source is None or source.is_test:
                continue
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not (
                        isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)
                    ):
                        continue
                    parts = dotted_parts(node.value.func)
                    if parts is None or parts[-1] not in LOCK_CONSTRUCTORS:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self.locks[f"{qualname}.{target.attr}"] = LockInfo(
                                lock_id=f"{qualname}.{target.attr}",
                                kind=parts[-1].lower(),
                                slug=cls.slug,
                            )
        infos_by_slug = {
            info.slug: info for info in self.graph.modules.values()
        }
        for module in self.project.library_modules:
            info = infos_by_slug.get(module.slug)
            if info is None:
                continue
            for node in module.tree.body:
                if not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                parts = dotted_parts(node.value.func)
                if parts is None or parts[-1] not in LOCK_CONSTRUCTORS:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lock_id = f"{info.name}.{target.id}"
                        self.locks[lock_id] = LockInfo(
                            lock_id=lock_id,
                            kind=parts[-1].lower(),
                            slug=module.slug,
                        )

    def _lock_on_class(self, class_qualname: str, attr: str) -> Optional[LockInfo]:
        seen: Set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            lock = self.locks.get(f"{current}.{attr}")
            if lock is not None:
                return lock
            cls = self.graph.classes.get(current)
            if cls is not None:
                queue.extend(cls.bases)
        return None

    def resolve_lock(
        self, scope: FunctionInfo, parts: Tuple[str, ...]
    ) -> Optional[LockInfo]:
        if len(parts) == 1:
            return self.locks.get(f"{scope.module}.{parts[0]}")
        owner = self.graph.chain_owner(scope, parts[:-1])
        if owner is None:
            return None
        return self._lock_on_class(owner, parts[-1])

    def resolve_lock_expr(
        self, scope: FunctionInfo, expr: ast.expr
    ) -> Optional[LockInfo]:
        parts = dotted_parts(expr)
        if parts is None:
            return None
        return self.resolve_lock(scope, parts)

    # -- transitive summaries ------------------------------------------

    def summary(self, func: FunctionInfo, depth: int = 0) -> _Summary:
        cached = self._summaries.get(func.qualname)
        if cached is not None:
            return cached
        if func.qualname in self._in_progress or depth > _MAX_DEPTH:
            return _Summary()
        self._in_progress.add(func.qualname)
        result = _Summary()
        for node in ast.walk(func.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self.resolve_lock_expr(func, item.context_expr)
                    if lock is not None:
                        result.acquires.setdefault(lock.lock_id, "")
        seen_blocking: Set[Tuple[str, Optional[str], str]] = set()
        for call in iter_calls(func.node):
            parts = dotted_parts(call.func)
            if parts is not None:
                if parts[-1] == "acquire" and len(parts) >= 2:
                    lock = self.resolve_lock(func, parts[:-1])
                    if lock is not None:
                        result.acquires.setdefault(lock.lock_id, "")
                classified = _classify_blocking(parts, call)
                if classified is not None:
                    label, is_wait = classified
                    wait_lock: Optional[str] = None
                    if is_wait and len(parts) >= 2:
                        lock = self.resolve_lock(func, parts[:-1])
                        wait_lock = lock.lock_id if lock is not None else None
                    entry = (label, wait_lock, "")
                    if entry not in seen_blocking:
                        seen_blocking.add(entry)
                        result.blocking.append(entry)
            callee = self.graph.resolve_call(func, call)
            if callee is None:
                continue
            sub = self.summary(callee, depth + 1)
            for lock_id in sub.acquires:
                result.acquires.setdefault(lock_id, callee.qualname)
            for label, wait_lock, via in sub.blocking:
                entry = (label, wait_lock, via or callee.qualname)
                if entry not in seen_blocking:
                    seen_blocking.add(entry)
                    result.blocking.append(entry)
        self._in_progress.discard(func.qualname)
        self._summaries[func.qualname] = result
        return result

    # -- held-region scan ----------------------------------------------

    def scan_all(self) -> None:
        for qualname in sorted(self.graph.functions):
            func = self.graph.functions[qualname]
            source = self.project.source_for_slug(func.slug)
            if source is None or source.is_test:
                continue
            self._scan_function(func, source)

    def _scan_function(self, scope: FunctionInfo, source: ModuleSource) -> None:
        def walk(node: ast.AST, held: List[LockInfo]) -> None:
            if isinstance(node, _SCOPE_NODES) and node is not scope.node:
                return
            new_held = held
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired: List[LockInfo] = []
                for item in node.items:
                    lock = self.resolve_lock_expr(scope, item.context_expr)
                    if lock is not None:
                        self._on_acquire(lock, node, held, source)
                        acquired.append(lock)
                if acquired:
                    new_held = held + acquired
            elif isinstance(node, ast.Call) and held:
                self._on_call(node, scope, held, source)
            for child in ast.iter_child_nodes(node):
                walk(child, new_held)

        walk(scope.node, [])

    def _on_acquire(
        self,
        lock: LockInfo,
        site: ast.AST,
        held: List[LockInfo],
        source: ModuleSource,
    ) -> None:
        for holder in held:
            if holder.lock_id == lock.lock_id:
                if holder.kind == "lock":
                    self.findings.append(
                        self.rule.finding(
                            source,
                            site,
                            f"non-reentrant lock `{lock.lock_id}` is "
                            "re-acquired while already held — guaranteed "
                            "deadlock on this path",
                        )
                    )
            else:
                self.edges.setdefault(
                    (holder.lock_id, lock.lock_id), (source, site)
                )

    def _on_call(
        self,
        call: ast.Call,
        scope: FunctionInfo,
        held: List[LockInfo],
        source: ModuleSource,
    ) -> None:
        parts = dotted_parts(call.func)
        if parts is not None:
            classified = _classify_blocking(parts, call)
            if classified is not None:
                label, is_wait = classified
                wait_lock: Optional[str] = None
                if is_wait and len(parts) >= 2:
                    lock = self.resolve_lock(scope, parts[:-1])
                    wait_lock = lock.lock_id if lock is not None else None
                for holder in held:
                    if (
                        wait_lock is not None
                        and wait_lock == holder.lock_id
                        and holder.kind == "condition"
                    ):
                        continue  # Condition.wait releases the held condition
                    self.findings.append(
                        self.rule.finding(
                            source,
                            call,
                            f"blocking operation {label} while "
                            f"`{holder.lock_id}` is held — every thread "
                            "queued on the lock stalls behind it",
                        )
                    )
            if parts is not None and parts[-1] == "acquire" and len(parts) >= 2:
                lock = self.resolve_lock(scope, parts[:-1])
                if lock is not None:
                    self._on_acquire(lock, call, held, source)
        callee = self.graph.resolve_call(scope, call)
        if callee is None:
            return
        sub = self.summary(callee)
        for holder in held:
            for lock_id, via in sub.acquires.items():
                if lock_id == holder.lock_id:
                    if holder.kind == "lock":
                        self.findings.append(
                            self.rule.finding(
                                source,
                                call,
                                f"call to `{callee.qualname}` re-acquires "
                                f"non-reentrant lock `{holder.lock_id}` "
                                "already held here — guaranteed deadlock",
                            )
                        )
                else:
                    self.edges.setdefault(
                        (holder.lock_id, lock_id), (source, call)
                    )
            for label, wait_lock, via in sub.blocking:
                if (
                    wait_lock is not None
                    and wait_lock == holder.lock_id
                    and holder.kind == "condition"
                ):
                    continue
                via_note = f" (via `{via}`)" if via else ""
                self.findings.append(
                    self.rule.finding(
                        source,
                        call,
                        f"blocking operation {label}{via_note} reachable "
                        f"while `{holder.lock_id}` is held — every thread "
                        "queued on the lock stalls behind it",
                    )
                )

    # -- cycle detection -----------------------------------------------

    def report_cycles(self) -> None:
        adjacency: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        for targets in adjacency.values():
            targets.sort()
        reported: Set[Tuple[str, ...]] = set()
        for src, dst in sorted(self.edges):
            if src == dst:
                continue
            path = self._find_cycle(adjacency, dst, src)
            if path is None:
                continue
            cycle = [src] + path
            canonical = tuple(sorted(set(cycle)))
            if canonical in reported:
                continue
            reported.add(canonical)
            source, site = self.edges[(src, dst)]
            chain = " -> ".join(cycle)
            self.findings.append(
                self.rule.finding(
                    source,
                    site,
                    f"lock-order cycle {chain}: two threads taking these "
                    "locks in opposite orders deadlock — pick one global "
                    "acquisition order",
                )
            )

    @staticmethod
    def _find_cycle(
        adjacency: Dict[str, List[str]], start: str, goal: str
    ) -> Optional[List[str]]:
        """Path ``start..goal`` through the edge set (BFS, deterministic)."""
        parents: Dict[str, Optional[str]] = {start: None}
        queue = [start]
        index = 0
        while index < len(queue):
            node = queue[index]
            index += 1
            if node == goal:
                path: List[str] = []
                cursor: Optional[str] = node
                while cursor is not None:
                    path.append(cursor)
                    cursor = parents[cursor]
                path.reverse()
                return path
            for target in adjacency.get(node, []):
                if target not in parents:
                    parents[target] = node
                    queue.append(target)
        return None


@register_rule
class LockOrderRule(ProjectRule):
    rule_id = "lock-order"
    description = (
        "lock acquisitions must form a global acyclic order and never "
        "hold a lock across blocking operations (pipe I/O, sleeps, "
        "un-timed joins, subprocess waits)"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        analyzer = _Analyzer(self, project)
        analyzer.collect_locks()
        if not analyzer.locks:
            return []
        analyzer.scan_all()
        analyzer.report_cycles()
        return analyzer.findings
