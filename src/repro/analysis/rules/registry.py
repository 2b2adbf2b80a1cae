"""RL003 — registered components must match the registry protocols.

``repro.core.registry`` wires components by name; nothing checks the
*shape* of what gets registered until a pipeline is assembled at run
time, often in someone else's process.  RL003 checks the registration
sites statically against the protocols the registry documents:

* ``register_blocker`` / ``register_pruning`` — factory taking exactly
  one argument (the :class:`BlastConfig`);
* ``register_stream_view`` — factory taking exactly one argument (the
  :class:`IncrementalBlockIndex`);
* ``register_weighting`` — a :class:`WeightingScheme` member or a
  callable taking exactly one argument (the blocking graph);
* ``register_backend`` — ``(collection, *, weighting, pruning,
  entropy_boost, key_entropy, **options) -> np.ndarray``, the retained
  edges as one sorted ``(E, 2)`` int64 array: one leading positional
  parameter, and every protocol keyword either named or absorbed by
  ``**kwargs`` (the return value is left to the conformance matrix).

Both the decorator form (``@register_blocker("x")``, ``@BLOCKERS.register
("x")``) and the call form (``BACKENDS.register("x", fn)``) are checked;
the call form only when ``fn`` is a function defined in the same module
(cross-module references are beyond a single-file analysis and are left
to the conformance matrix).
"""

from __future__ import annotations

import ast

from repro.analysis.rules.base import FileContext, LintRule, RawFinding

__all__ = ["RegistryContractRule"]

#: registrar name -> (argument description, required keyword params or None)
_ONE_ARG_REGISTRARS = {
    "register_blocker": "a BlastConfig",
    "register_pruning": "a BlastConfig",
    "register_weighting": "the blocking graph",
    "register_stream_view": "an IncrementalBlockIndex",
}

_BACKEND_KEYWORDS = ("weighting", "pruning", "entropy_boost", "key_entropy")

#: registry global -> registrar semantics, for the ``X.register`` spelling.
_REGISTRY_GLOBALS = {
    "BLOCKERS": "register_blocker",
    "WEIGHTINGS": "register_weighting",
    "PRUNERS": "register_pruning",
    "BACKENDS": "register_backend",
    "STREAM_VIEWS": "register_stream_view",
}


def _registrar_of(func: ast.expr) -> str | None:
    """The canonical registrar name of a call target, if it is one."""
    if isinstance(func, ast.Name) and (
        func.id in _ONE_ARG_REGISTRARS or func.id == "register_backend"
    ):
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "register"
        and isinstance(func.value, ast.Name)
    ):
        return _REGISTRY_GLOBALS.get(func.value.id)
    return None


class RegistryContractRule(LintRule):
    """RL003: registration sites match the registry protocol signatures."""

    code = "RL003"
    name = "registry-contract"
    rationale = (
        "components registered under a name are constructed much later, "
        "from configs and CLI flags; a factory with the wrong arity or a "
        "backend missing a protocol keyword fails at pipeline-assembly "
        "time in the user's process — the registration site must match "
        "the protocol in core/registry.py"
    )

    def run(self, context: FileContext) -> list[RawFinding]:
        # Index module-level functions once, for the call-form lookups.
        self._module_functions = {
            stmt.name: stmt
            for stmt in context.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        return super().run(context)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for decorator in node.decorator_list:
            # @register_blocker("name") / @BLOCKERS.register("name")
            if isinstance(decorator, ast.Call):
                registrar = _registrar_of(decorator.func)
                if registrar is not None:
                    self._check(registrar, node, node)
        self._enter_function(node)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        # Call form: REGISTRY.register("name", fn) / register_backend("n", fn)
        registrar = _registrar_of(node.func)
        if registrar is not None and len(node.args) >= 2:
            target = node.args[1]
            if isinstance(target, ast.Name):
                definition = self._module_functions.get(target.id)
                if definition is not None:
                    self._check(registrar, definition, node)
            elif isinstance(target, ast.Lambda):
                self._check_lambda(registrar, target, node)
        self.generic_visit(node)

    # -- signature checks ----------------------------------------------------

    def _check(
        self,
        registrar: str,
        definition: ast.FunctionDef | ast.AsyncFunctionDef,
        site: ast.AST,
    ) -> None:
        self._check_args(registrar, definition.name, definition.args, site)

    def _check_lambda(
        self, registrar: str, target: ast.Lambda, site: ast.AST
    ) -> None:
        self._check_args(registrar, "<lambda>", target.args, site)

    def _check_args(
        self,
        registrar: str,
        name: str,
        args: ast.arguments,
        site: ast.AST,
    ) -> None:
        positional = [*args.posonlyargs, *args.args]
        # Methods: the bound receiver does not count toward the protocol.
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        required_kwonly = [
            arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is None
        ]

        if registrar in _ONE_ARG_REGISTRARS:
            takes = _ONE_ARG_REGISTRARS[registrar]
            required = len(positional) - len(args.defaults)
            if required != 1 and not (required < 1 and args.vararg):
                self.report(
                    site,
                    f"{registrar} target {name!r} must take exactly one "
                    f"required argument ({takes}); it takes {max(required, 0)}",
                )
            if required_kwonly:
                self.report(
                    site,
                    f"{registrar} target {name!r} has required keyword-only "
                    f"parameters {required_kwonly}; the registry calls the "
                    f"factory with a single positional argument",
                )
        elif registrar == "register_backend":
            if not positional and not args.vararg:
                self.report(
                    site,
                    f"register_backend target {name!r} must accept the "
                    "block collection as its first positional argument",
                )
            if args.kwarg is None:
                accepted = {arg.arg for arg in positional} | {
                    arg.arg for arg in args.kwonlyargs
                }
                missing = [
                    kw for kw in _BACKEND_KEYWORDS if kw not in accepted
                ]
                if missing:
                    self.report(
                        site,
                        f"register_backend target {name!r} does not accept "
                        f"the protocol keyword(s) {missing}; add them or a "
                        "**kwargs catch-all",
                    )
