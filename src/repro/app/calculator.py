"""The calculator / command-line interface for variable operations.

"The bottom right contains tools for executing data processing and
analysis operations on variables using either a command-line or
calculator interface."  The :class:`Calculator` evaluates expressions
like::

    tanom = anomalies(ta)
    diff = ta - 273.15
    corr = correlation(ta, zg)
    warm = keep(ta, ta > 280)

over the :class:`~repro.app.variable_view.VariableView` workspace,
resolving function names from the CDAT operation registry.  Expressions
are parsed with :mod:`ast` against a strict whitelist — no attribute
access, no subscripts, no arbitrary calls — so the command line stays a
calculator, not an exec().
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from repro.app.variable_view import VariableView
from repro.cdat.registry import OperationRegistry, default_registry
from repro.cdms.variable import Variable
from repro.util.errors import CDATError

_ALLOWED_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}

_ALLOWED_COMPARE = {
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
}


class Calculator:
    """Expression evaluation over the variable workspace."""

    def __init__(
        self,
        view: VariableView,
        registry: Optional[OperationRegistry] = None,
    ) -> None:
        self.view = view
        self.registry = registry or default_registry()
        #: extra callables beyond the registry (conditioned helpers)
        from repro.cdat.conditioned import keep_where, mask_where

        self._builtins = {"keep": keep_where, "mask": mask_where, "abs": abs}
        self.transcript: List[Tuple[str, str]] = []

    # -- public API -----------------------------------------------------------

    def evaluate(self, expression: str) -> Any:
        """Evaluate one expression; returns a Variable, number or dict."""
        try:
            tree = ast.parse(expression.strip(), mode="eval")
        except SyntaxError as exc:
            raise CDATError(f"syntax error in {expression!r}: {exc.msg}") from exc
        result = self._eval(tree.body)
        self.transcript.append((expression, type(result).__name__))
        return result

    def assign(self, statement: str) -> Any:
        """Evaluate ``name = expression``; Variables enter the workspace."""
        if "=" not in statement:
            return self.evaluate(statement)
        name, _, expression = statement.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise CDATError(f"bad assignment target {name!r}")
        result = self.evaluate(expression)
        if isinstance(result, Variable):
            self.view.define(name, result, note=f"calculator: {statement.strip()}")
        return result

    def run_script(self, lines: List[str]) -> List[Any]:
        """The command-line interface: a sequence of assignments."""
        return [self.assign(line) for line in lines if line.strip() and not line.strip().startswith("#")]

    # -- evaluation core ------------------------------------------------------------

    def _eval(self, node: ast.AST) -> Any:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return node.value
            raise CDATError(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            return self.view.get(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._eval(node.operand)
        if isinstance(node, ast.BinOp):
            op = _ALLOWED_BINOPS.get(type(node.op))
            if op is None:
                raise CDATError(f"operator {type(node.op).__name__} not allowed")
            return op(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1 or len(node.comparators) != 1:
                raise CDATError("chained comparisons not supported")
            op = _ALLOWED_COMPARE.get(type(node.ops[0]))
            if op is None:
                raise CDATError(f"comparison {type(node.ops[0]).__name__} not allowed")
            return op(self._eval(node.left), self._eval(node.comparators[0]))
        if isinstance(node, ast.Call):
            return self._call(node)
        raise CDATError(f"expression element {type(node).__name__} not allowed")

    def _call(self, node: ast.Call) -> Any:
        if not isinstance(node.func, ast.Name):
            raise CDATError("only plain function names may be called")
        name = node.func.id
        args = [self._eval(arg) for arg in node.args]
        kwargs: Dict[str, Any] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                raise CDATError("**kwargs not allowed")
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(value.value, (int, float, str)):
                kwargs[keyword.arg] = value.value
            else:
                kwargs[keyword.arg] = self._eval(value)
        if name in self._builtins:
            return self._builtins[name](*args, **kwargs)
        if name in self.registry:
            return self.registry.apply_cached(name, *args, **kwargs)
        raise CDATError(
            f"unknown function {name!r}; registry has {self.registry.names()[:8]}..."
        )

    def help(self) -> Dict[str, str]:
        """Names and one-liners for everything callable."""
        listing = dict(self.registry.describe())
        listing.update({name: "conditioned helper" for name in self._builtins})
        return listing
