"""Rule catalog of the AST unit-discipline checker (``S4xx``).

The canonical units of :mod:`repro.units` — integer picoseconds for
simulated time, float watts for power — only hold if every assignment
and call site respects them.  These rules encode the discipline:

* ``S401 wallclock-in-sim`` — ``time.time()`` / ``datetime.now()`` and
  friends inside simulation code (simulated time comes from the kernel).
* ``S402 float-into-ps`` — a float-producing expression (float literal
  or true division) flowing into a ``*_ps`` variable or keyword argument
  without an ``int()``/``round()`` sanitizer.
* ``S403 float-eq-power`` — ``==``/``!=`` on power/energy values
  (``*_watts``, ``*_w``, ``*_joules``, ...); float equality on measured
  quantities is a latent bug.
* ``S404 mutable-default-arg`` — list/dict/set default arguments.
* ``S405 unit-suffix`` — public signatures using non-canonical unit
  suffixes (``_ms``, ``_us``, ``_mw``, ...) instead of ``_ps``/``_s``/
  ``_watts``.
* ``S406 ps-annotation`` — ``*_ps`` parameters or returns annotated
  ``float`` (and ``*_watts`` annotated ``int``).

Every rule is a pure function over a parsed module yielding
:class:`~repro.lint.diagnostics.Diagnostic` values.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.lint.diagnostics import Diagnostic, Location, Severity

#: Calls that read the host's wall clock; simulation code must use
#: ``kernel.now`` instead.
_WALLCLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Calls that make a float expression safe to store in a ``*_ps`` slot.
_PS_SANITIZERS = frozenset({"int", "round", "floor", "ceil", "len"})

#: Name suffixes that denote power/energy floats (S403).
_POWER_SUFFIXES = ("_watts", "_w", "_joules", "_wh", "_mw", "_uw", "_power")

#: Discouraged unit suffixes in public signatures (S405) and the
#: canonical spelling to use instead.
_DISCOURAGED_SUFFIXES: Dict[str, str] = {
    "_ms": "_ps (integer picoseconds) or _s (float seconds)",
    "_us": "_ps (integer picoseconds) or _s (float seconds)",
    "_ns": "_ps (integer picoseconds)",
    "_msec": "_ps (integer picoseconds) or _s (float seconds)",
    "_usec": "_ps (integer picoseconds) or _s (float seconds)",
    "_sec": "_s or _seconds",
    "_secs": "_s or _seconds",
    "_mw": "_watts (float watts)",
    "_uw": "_watts (float watts)",
    "_mj": "_joules (float joules)",
    "_uj": "_joules (float joules)",
}


@dataclass(frozen=True)
class SourceRule:
    """One source-checker rule: identity plus its check function."""

    rule_id: str
    name: str
    severity: Severity
    summary: str
    check_fn: Callable[["SourceRule", ast.Module, str], Iterator[Diagnostic]]

    def check(self, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
        return self.check_fn(self, tree, filename)

    def diagnostic(
        self, message: str, filename: str, line: int, hint: str = ""
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.rule_id,
            name=self.name,
            severity=self.severity,
            message=message,
            location=Location(file=filename, line=line),
            hint=hint or None,
        )


# --- helpers -----------------------------------------------------------------


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The identifier a Name/Attribute expression ends in, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    return _terminal_name(node.func)


def _module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> imported module name for plain imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _float_taint(node: ast.expr) -> Optional[ast.expr]:
    """First sub-expression that produces a float, outside any sanitizer.

    Flags float literals, true division and ``float()`` casts; a subtree
    rooted at ``int()``/``round()``/``floor()``/``ceil()`` is trusted.
    """
    if isinstance(node, ast.Call) and _call_name(node) in _PS_SANITIZERS:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return node
    if isinstance(node, ast.Call) and _call_name(node) == "float":
        return node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            taint = _float_taint(child)
            if taint is not None:
                return taint
    return None


# --- S401: wall-clock time in simulation code --------------------------------


def _check_wallclock(rule: SourceRule, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        offender = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = aliases.get(func.value.id, func.value.id)
            if module == "time" and func.attr in _WALLCLOCK_TIME_ATTRS:
                offender = f"time.{func.attr}()"
            elif module in ("datetime", "datetime.datetime") and (
                func.attr in _WALLCLOCK_DATETIME_ATTRS
            ):
                offender = f"datetime.{func.attr}()"
        elif isinstance(func, ast.Name):
            target = aliases.get(func.id)
            if target == "time.time" or (
                target in ("datetime.now", "datetime.utcnow") and func.id in aliases
            ):
                offender = f"{target}()"
        if offender is not None:
            yield rule.diagnostic(
                f"{offender} reads the host wall clock inside simulation code",
                filename,
                node.lineno,
                hint="simulated time is kernel.now (integer picoseconds)",
            )


# --- S402: float arithmetic flowing into *_ps --------------------------------


def _ps_targets(node: ast.stmt) -> Iterator[Tuple[str, ast.expr]]:
    """(target_name, value_expr) pairs where the target is a *_ps slot."""
    if isinstance(node, ast.Assign) and node.value is not None:
        for target in node.targets:
            name = _terminal_name(target)
            if name is not None and name.endswith("_ps"):
                yield name, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        name = _terminal_name(node.target)
        if name is not None and name.endswith("_ps"):
            yield name, node.value
    elif isinstance(node, ast.AugAssign):
        name = _terminal_name(node.target)
        if name is not None and name.endswith("_ps"):
            yield name, node.value


def _check_float_into_ps(rule: SourceRule, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for name, value in _ps_targets(node):
                taint = _float_taint(value)
                if taint is not None:
                    yield rule.diagnostic(
                        f"float-producing expression assigned to {name!r}; simulated "
                        "time must be integer picoseconds",
                        filename,
                        taint.lineno,
                        hint="wrap the expression in round(...) or int(...)",
                    )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg.endswith("_ps"):
                    taint = _float_taint(keyword.value)
                    if taint is not None:
                        yield rule.diagnostic(
                            f"float-producing expression passed to {keyword.arg!r}=; "
                            "simulated time must be integer picoseconds",
                            filename,
                            taint.lineno,
                            hint="wrap the expression in round(...) or int(...)",
                        )


# --- S403: float equality on power/energy ------------------------------------


def _is_power_name(node: ast.expr) -> bool:
    name = _terminal_name(node)
    return name is not None and name.endswith(_POWER_SUFFIXES)


def _check_float_eq_power(rule: SourceRule, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        offender = next((op for op in operands if _is_power_name(op)), None)
        if offender is not None:
            yield rule.diagnostic(
                f"exact float equality on power/energy value {_terminal_name(offender)!r}",
                filename,
                node.lineno,
                hint="compare with <=/>= against a threshold, or math.isclose()",
            )


# --- S404: mutable default arguments -----------------------------------------


def _check_mutable_default(rule: SourceRule, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _call_name(default) in ("list", "dict", "set")
            )
            if mutable:
                yield rule.diagnostic(
                    f"mutable default argument in {node.name}()",
                    filename,
                    default.lineno,
                    hint="default to None and create the container in the body",
                )


# --- S405 / S406: unit suffixes and annotations in public signatures ---------


def _public_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node


def _signature_args(node: ast.FunctionDef) -> Iterator[ast.arg]:
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg in ("self", "cls"):
            continue
        yield arg


def _check_unit_suffix(rule: SourceRule, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
    for func in _public_functions(tree):
        for arg in _signature_args(func):
            for suffix, instead in _DISCOURAGED_SUFFIXES.items():
                if arg.arg.endswith(suffix):
                    yield rule.diagnostic(
                        f"parameter {arg.arg!r} of public function {func.name}() uses "
                        f"the non-canonical unit suffix {suffix!r}",
                        filename,
                        arg.lineno,
                        hint=f"use {instead}",
                    )
                    break


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    if annotation is None:
        return None
    return _terminal_name(annotation)


def _check_ps_annotation(rule: SourceRule, tree: ast.Module, filename: str) -> Iterator[Diagnostic]:
    for func in _public_functions(tree):
        for arg in _signature_args(func):
            annotated = _annotation_name(arg.annotation)
            if arg.arg.endswith("_ps") and annotated == "float":
                yield rule.diagnostic(
                    f"parameter {arg.arg!r} of {func.name}() is annotated float; "
                    "*_ps values are integer picoseconds",
                    filename,
                    arg.lineno,
                    hint="annotate as int (convert with units.seconds_to_ps)",
                )
            elif arg.arg.endswith(("_watts", "_joules")) and annotated == "int":
                yield rule.diagnostic(
                    f"parameter {arg.arg!r} of {func.name}() is annotated int; "
                    "power/energy values are floats",
                    filename,
                    arg.lineno,
                    hint="annotate as float",
                )
        returns = _annotation_name(func.returns)
        if func.name.endswith("_ps") and returns == "float":
            yield rule.diagnostic(
                f"function {func.name}() returns float; *_ps values are integer "
                "picoseconds",
                filename,
                func.lineno,
                hint="return int (round at the boundary)",
            )


def _rule(
    rule_id: str,
    name: str,
    summary: str,
    check_fn: Callable[[SourceRule, ast.Module, str], Iterator[Diagnostic]],
    severity: Severity = Severity.ERROR,
) -> SourceRule:
    return SourceRule(rule_id, name, severity, summary, check_fn)


#: The source-checker rule catalog, in catalog order.
SOURCE_RULES: Tuple[SourceRule, ...] = (
    _rule("S401", "wallclock-in-sim", "host wall clock read in simulation code",
          _check_wallclock),
    _rule("S402", "float-into-ps", "float expression flowing into a *_ps slot",
          _check_float_into_ps),
    _rule("S403", "float-eq-power", "exact float equality on power/energy",
          _check_float_eq_power),
    _rule("S404", "mutable-default-arg", "mutable default argument",
          _check_mutable_default),
    _rule("S405", "unit-suffix", "non-canonical unit suffix in a public signature",
          _check_unit_suffix, severity=Severity.WARNING),
    _rule("S406", "ps-annotation", "unit-suffixed name with a contradicting annotation",
          _check_ps_annotation),
    # S407 (unknown lint pragma) lives in repro.lint.source next to the
    # pragma scanner it checks.
)
