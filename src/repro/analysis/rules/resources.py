"""RL008 — shared-memory and memmap handles must have a bounded lifetime.

``multiprocessing``'s ``SharedMemory`` segments outlive the process
unless somebody calls ``close()`` *and* (owner side) ``unlink()``
— a raise between creation and release leaks a named ``/dev/shm``
segment until reboot.  ``np.memmap``/``open_memmap`` handles hold disk
pages and (on write mode) unflushed data with the same failure shape.
The out-of-core subsystem (graph/spill.py) makes memmap handles routine,
so the leak pattern becomes a one-liner away.

RL008 flags a ``SharedMemory``/``memmap``/``open_memmap`` creation whose
handle has no structurally guaranteed release.  A creation is **clean**
when any of these holds:

* it is the context expression of a ``with`` item (directly or wrapped,
  e.g. ``with closing(SharedMemory(...))``), or the bound name is later
  used as one;
* the bound name has a ``close()``/``unlink()``/``flush()`` call inside
  a ``finally`` block of the same scope;
* the handle is returned, or created directly inside another call's
  arguments (``segments.append(SharedMemory(...))``) — ownership moves
  to the caller/container, whose lifecycle is its own contract;
* it is assigned to an attribute or subscript (``self._shm = ...``) —
  instance-managed handles are released by the owning object's
  ``close()``, which the per-function analysis cannot see and does not
  second-guess.

Everything else — a bare-expression creation, or a local name with no
``finally``/``with`` release on any path — is reported.  The analysis is
per scope (module body, each function body) and deliberately structural:
a mid-body ``seg.close()`` without ``finally`` does NOT sanction the
name, because the exception path still leaks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules.base import FileContext, LintRule, RawFinding

__all__ = ["ResourceLifecycleRule"]

#: Call names that create a leakable named/paged resource handle.
_CREATORS = frozenset({"SharedMemory", "memmap", "open_memmap"})

#: Method calls that count as releasing a handle when inside ``finally``.
_RELEASES = frozenset({"close", "unlink", "flush"})

#: Nodes that open a new analysis scope (their bodies are checked
#: separately; the scope walk does not descend into them).
_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Yield every node of *root*'s scope, stopping at nested functions."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, _SCOPE_BARRIERS):
            continue
        yield child
        yield from _walk_scope(child)


def _creator_name(call: ast.Call) -> str | None:
    """The creator (``SharedMemory``/``memmap``/…) *call* invokes, if any."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _CREATORS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _CREATORS:
        return func.attr
    return None


class ResourceLifecycleRule(LintRule):
    """RL008: SharedMemory/memmap handles need a paired release."""

    code = "RL008"
    name = "unreleased-resource-handle"
    rationale = (
        "a SharedMemory segment or memmap handle created without a "
        "finally-guarded close()/unlink()/flush(), a context manager, or "
        "an ownership transfer leaks a named /dev/shm segment or "
        "unflushed pages whenever an exception interrupts the happy "
        "path — releases must be structural, not best-effort"
    )

    def run(self, context: FileContext) -> list[RawFinding]:
        self._findings = []
        self.context = context
        scopes: list[ast.AST] = [context.tree]
        scopes.extend(
            node
            for node in ast.walk(context.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            self._check_scope(scope)
        return self._findings

    def _check_scope(self, scope: ast.AST) -> None:
        nodes = list(_walk_scope(scope))
        creations = [
            (node, name)
            for node in nodes
            if isinstance(node, ast.Call)
            and (name := _creator_name(node)) is not None
        ]
        if not creations:
            return
        parents: dict[ast.AST, ast.AST] = {}
        for node in [scope, *nodes]:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        released = self._released_names(nodes)
        for call, creator in creations:
            if not self._is_managed(call, parents, released):
                self.report(
                    call,
                    f"{creator} handle has no guaranteed release on this "
                    "path; close()/unlink()/flush() it in a finally block, "
                    "use a context manager, or hand ownership to a "
                    "container/caller",
                )

    @staticmethod
    def _released_names(nodes: list[ast.AST]) -> frozenset[str]:
        """Names whose release is structurally guaranteed in this scope."""
        released: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _RELEASES
                            and isinstance(sub.func.value, ast.Name)
                        ):
                            released.add(sub.func.value.id)
            elif isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name):
                    released.add(expr.id)
                elif isinstance(expr, ast.Call):
                    released.update(
                        arg.id
                        for arg in expr.args
                        if isinstance(arg, ast.Name)
                    )
            elif isinstance(node, ast.Return) and isinstance(
                node.value, ast.Name
            ):
                released.add(node.value.id)
        return frozenset(released)

    @staticmethod
    def _is_managed(
        call: ast.Call,
        parents: dict[ast.AST, ast.AST],
        released: frozenset[str],
    ) -> bool:
        """Whether *call*'s handle has a structurally guaranteed release."""
        child: ast.AST = call
        parent = parents.get(child)
        while parent is not None:
            if isinstance(parent, ast.withitem):
                return True
            if isinstance(parent, ast.Call) and child is not parent.func:
                # Created directly inside another call's arguments —
                # ownership transfers to the callee/container.
                return True
            if isinstance(parent, ast.Return):
                return True
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                targets = (
                    parent.targets
                    if isinstance(parent, ast.Assign)
                    else [parent.target]
                )
                if all(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in targets
                ):
                    return True  # instance/container-managed handle
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                return bool(names) and all(n in released for n in names)
            if isinstance(parent, ast.Expr):
                return False  # bare-expression creation: dropped handle
            if isinstance(
                parent,
                (
                    ast.Tuple,
                    ast.List,
                    ast.IfExp,
                    ast.BinOp,
                    ast.BoolOp,
                    ast.Starred,
                    ast.keyword,
                    ast.Await,
                ),
            ):
                child = parent
                parent = parents.get(parent)
                continue
            return False  # unknown context: conservative flag
        return False
