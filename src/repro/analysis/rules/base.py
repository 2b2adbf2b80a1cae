"""Rule framework: the visitor base class and set-typedness inference.

A rule is an :class:`ast.NodeVisitor` subclass with a ``code`` (``RL001``
…), a ``name``, and a ``rationale`` — the invariant it encodes, shown by
``repro lint --list-rules`` and documented in DESIGN.md.  Rules report
through :meth:`LintRule.report`; the engine owns file IO, suppression
handling, and ordering.

The determinism rules need to answer one question statically: *is this
expression an unordered set?*  :meth:`LintRule.is_set_expr` implements a
deliberately conservative, flow-insensitive answer from five sources:

1. literals and constructors — ``{…}``, set comprehensions, ``set()``,
   ``frozenset()``, and set-operator expressions (``a | b``, ``a - b``)
   with a known-set operand;
2. local names every assignment of which (in the enclosing function) is a
   known-set expression;
3. annotations — function parameters, ``AnnAssign`` statements (local
   names and ``self`` attributes), and dataclass-style class-body fields
   annotated ``set[...]``/``frozenset[...]``;
4. methods this repo's contracts declare set-returning
   (:data:`SET_RETURNING_METHODS` — e.g. ``AttributePartitioning.members``,
   ``IncrementalBlockIndex.derive_keys``);
5. attributes declared set-valued (:data:`SET_ATTRIBUTES` — ``.profiles``
   on blocks).

Anything the inference cannot prove to be a set is treated as ordered —
false negatives over false positives, so ``repro lint src/`` stays a
hard gate rather than a noise source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "FileContext",
    "LintRule",
    "RawFinding",
    "SET_ATTRIBUTES",
    "SET_RETURNING_METHODS",
]

#: Method names the repo's protocols declare to return ``set``/``frozenset``
#: (see core/registry.py and the streaming index).  Extend when a new
#: contract introduces a set-returning accessor.
SET_RETURNING_METHODS = frozenset(
    {
        "members",  # AttributePartitioning.members -> frozenset[AttributeRef]
        "derive_keys",  # IncrementalBlockIndex.derive_keys -> set[str]
        "profile_blocking_keys",  # schema_aware key derivation -> set[str]
        "distinct_pairs",  # BlockCollection.distinct_pairs -> set[pair]
        "keys_of",  # IncrementalBlockIndex.keys_of -> frozenset[str]
        "key_ids_of",  # IncrementalBlockIndex.key_ids_of -> frozenset[int]
    }
)

#: Attribute names declared set-valued across the repo's data model.
SET_ATTRIBUTES = frozenset({"profiles"})  # Block.profiles -> frozenset[int]

#: Builtins whose call results are known NOT to be sets (so a name assigned
#: from them is proven ordered even if another branch assigns a set).
_ORDERED_CONSTRUCTORS = frozenset(
    {"list", "tuple", "sorted", "dict", "str", "bytes", "range"}
)


@dataclass(frozen=True)
class RawFinding:
    """A rule-local finding; the engine stamps path and code."""

    line: int
    col: int
    message: str


@dataclass
class FileContext:
    """Everything a rule may read about the file under analysis."""

    path: str
    source: str
    tree: ast.Module


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    """Whether an annotation expression denotes a set/frozenset type."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotation ("set[int]"); parse best-effort.
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Attribute):  # typing.Set / typing.FrozenSet
        return annotation.attr in ("Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # ``set[int] | None`` — optional sets still iterate unordered.
        return _is_set_annotation(annotation.left) or _is_set_annotation(
            annotation.right
        )
    return False


@dataclass
class _Scope:
    """Names proven set-ish (or proven ordered) in one function scope."""

    set_names: set[str] = field(default_factory=set)
    ordered_names: set[str] = field(default_factory=set)
    set_self_attrs: set[str] = field(default_factory=set)


class LintRule(ast.NodeVisitor):
    """Base class for all repro-lint rules.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`rationale` and
    implement ``visit_*`` methods calling :meth:`report`.  Scope tracking
    (for set inference) is provided here so every rule sees the same
    environment; rules that don't need it pay nothing.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def __init__(self) -> None:
        self._findings: list[RawFinding] = []
        self._scopes: list[_Scope] = []
        self._class_set_fields: list[set[str]] = []

    # -- engine entry point --------------------------------------------------

    def run(self, context: FileContext) -> list[RawFinding]:
        """Visit *context*'s tree and return this rule's raw findings."""
        self._findings = []
        self._scopes = [self._scan_scope(context.tree.body)]
        self._class_set_fields = []
        self.context = context
        self.visit(context.tree)
        return self._findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at *node*."""
        self._findings.append(
            RawFinding(
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- scope bookkeeping ---------------------------------------------------

    def _scan_scope(self, body: list[ast.stmt]) -> _Scope:
        """Pre-scan a function (or module) body for name-level setness.

        Walks statements recursively but does not descend into nested
        function or class definitions — their names live in their own
        scopes.  A name is set-ish when at least one assignment binds it
        to a known-set expression and none binds it to a proven-ordered
        one.
        """
        scope = _Scope()

        def scan(statements: list[ast.stmt]) -> None:
            for stmt in statements:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(stmt, ast.Assign):
                    self._record_assignment(scope, stmt.targets, stmt.value)
                elif isinstance(stmt, ast.AnnAssign):
                    self._record_annassign(scope, stmt)
                blocks = [
                    getattr(stmt, attr, [])
                    for attr in ("body", "orelse", "finalbody")
                ]
                for handler in getattr(stmt, "handlers", []):
                    blocks.append(handler.body)
                for block in blocks:
                    if block and isinstance(block[0], ast.stmt):
                        scan(block)

        scan(body)
        return scope

    def _record_assignment(
        self, scope: _Scope, targets: list[ast.expr], value: ast.expr
    ) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if self._expr_is_set(value, scope):
            scope.set_names.update(names)
        elif self._expr_is_ordered(value):
            scope.ordered_names.update(names)

    def _record_annassign(self, scope: _Scope, stmt: ast.AnnAssign) -> None:
        if not _is_set_annotation(stmt.annotation):
            return
        target = stmt.target
        if isinstance(target, ast.Name):
            scope.set_names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            scope.set_self_attrs.add(target.attr)
            if self._class_set_fields:
                self._class_set_fields[-1].add(target.attr)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        fields = {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and _is_set_annotation(stmt.annotation)
        }
        self._class_set_fields.append(fields)
        self.generic_visit(node)
        self._class_set_fields.pop()

    def _enter_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        scope = self._scan_scope(node.body)
        args = node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        ]:
            if arg is not None and _is_set_annotation(arg.annotation):
                scope.set_names.add(arg.arg)
        self._scopes.append(scope)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._scopes.pop()

    # -- setness inference ---------------------------------------------------

    def is_set_expr(self, node: ast.expr) -> bool:
        """Whether *node* is statically known to evaluate to a set."""
        return self._expr_is_set(node, self._scopes[-1] if self._scopes else None)

    def _expr_is_set(self, node: ast.expr, scope: _Scope | None) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                if func.id in SET_RETURNING_METHODS:
                    return True
            if isinstance(func, ast.Attribute):
                if func.attr in SET_RETURNING_METHODS:
                    return True
                if func.attr in (
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                ) and self._expr_is_set(func.value, scope):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._expr_is_set(node.left, scope) or self._expr_is_set(
                node.right, scope
            )
        if isinstance(node, ast.Name) and scope is not None:
            return (
                node.id in scope.set_names
                and node.id not in scope.ordered_names
            )
        if isinstance(node, ast.Attribute):
            if node.attr in SET_ATTRIBUTES:
                return True
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and (
                    (scope is not None and node.attr in scope.set_self_attrs)
                    or any(
                        node.attr in fields
                        for fields in self._class_set_fields
                    )
                )
            ):
                return True
            return False
        if isinstance(node, ast.IfExp):
            return self._expr_is_set(node.body, scope) or self._expr_is_set(
                node.orelse, scope
            )
        return False

    @staticmethod
    def _expr_is_ordered(node: ast.expr) -> bool:
        """Whether *node* is statically known to be an ordered value."""
        if isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.ListComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in _ORDERED_CONSTRUCTORS
        if isinstance(node, ast.Constant):
            return True
        return False
