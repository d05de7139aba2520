"""Interprocedural effect & determinism analysis (``C5xx``).

The perf layer memoizes simulations under a config fingerprint
(:mod:`repro.perf.cache`), and the sweep helper fans points out over a
``ProcessPoolExecutor`` (:mod:`repro.analysis.sweep`).  Both bets only
pay off if the code under them is a *pure, deterministic function of its
configuration* — a cached result poisoned by ``time.time()`` is silently
wrong forever, and a worker that mutates module state mutates a copy
the parent never sees.  This pass proves the absence of such effects,
statically, over the whole program:

1. **Local detection** — every function's own statements are scanned
   for effect witnesses: host-clock reads, unseeded/global RNG draws,
   environment and filesystem and network access, mutation of
   module-level or closure-captured state (a ``functools.lru_cache``
   or ``functools.cache`` memo counts), ``id()``/``hash()``/pid
   dependence, and set-iteration order escaping into results.
2. **Propagation** — a fixpoint over the shared
   :class:`~repro.check.callgraph.CallGraph` unions callee effects into
   callers (name-based resolution over-approximates, which is sound for
   an absence proof), recording the call path to the witness.
3. **Entry points** — functions decorated ``@experiment_driver``,
   runners handed to ``SimulationCache.get_or_run``, and workers handed
   to ``sweep(...)`` / ``pool.map(...)`` are the contract boundaries;
   any effect that reaches one becomes a ``C5xx`` diagnostic at the
   entry's ``def`` line.

Intentional impurity is declared at the boundary that owns it with
:func:`repro.effects.declares_effects` — the declaration absorbs the
named kinds there (neither reported on the function nor propagated to
callers) while every other kind still flows.  The per-line ``allow``
pragma (on the entry's ``def``, naming the C5xx rule id) works too, but
the decorator is the canonical spelling: it survives refactors and
documents the claim.

Rule families (catalog in :mod:`repro.check.rules`):

* ``C501``–``C507`` cache soundness — the effect reaches a
  fingerprint-cached result the fingerprint does not capture.
* ``C511``–``C514`` parallel safety — the effect breaks the
  process-boundary contract of a sweep worker.
* ``C521``–``C522`` determinism hygiene — unordered iteration escapes
  into a result.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.effects import EFFECT_KINDS
from repro.lint.astcache import ModuleCache, ParsedModule, PathLike, default_source_root
from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.lint.source import _suppressed
from repro.check.callgraph import (
    CallGraph,
    FunctionNode,
    FunctionRecord,
    dotted_name,
    module_aliases,
    own_statements,
    terminal_name,
)
from repro.check.rules import (
    C501_RULE,
    C502_RULE,
    C503_RULE,
    C504_RULE,
    C505_RULE,
    C506_RULE,
    C507_RULE,
    C511_RULE,
    C512_RULE,
    C513_RULE,
    C514_RULE,
    C521_RULE,
    C522_RULE,
    CheckRule,
)

#: Schema version of the JSON effects summary.
EFFECTS_SCHEMA_VERSION = 1

# --- what counts as an effect -------------------------------------------------

_TIME_MODULE_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_TIME_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Module-level :mod:`random` functions that draw from the process-global
#: (or process-inherited, under fork) RNG.  ``random.Random(seed)`` and
#: methods on an explicit instance are seeded by construction and do not
#: appear here.
_GLOBAL_RNG_ATTRS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "seed", "getrandbits", "gauss", "normalvariate",
        "expovariate", "betavariate", "triangular", "lognormvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
    }
)

_ENV_CALLS = frozenset(
    {
        "os.getenv", "os.cpu_count", "os.sched_getaffinity", "os.uname",
        "os.getlogin",
        "platform.node", "platform.platform", "platform.machine",
        "socket.gethostname",
    }
)

_FS_OS_CALLS = frozenset(
    {
        "os.listdir", "os.scandir", "os.walk", "os.stat", "os.lstat",
        "os.makedirs", "os.mkdir", "os.rmdir", "os.remove", "os.unlink",
        "os.rename", "os.replace", "os.getcwd", "os.chdir", "os.symlink",
        "os.link", "os.chmod", "os.utime",
    }
)

#: Path-object method names distinctive enough to attribute to the
#: filesystem without type information.
_FS_PATH_METHODS = frozenset(
    {
        "read_text", "write_text", "read_bytes", "write_bytes",
        "iterdir", "rglob", "touch", "mkdir", "unlink",
    }
)

_NET_PREFIXES = ("socket.", "urllib.", "requests.", "http.client.")

_IDENTITY_CALLS = frozenset(
    {"id", "hash", "os.getpid", "os.getppid", "threading.get_ident"}
)

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear",
    }
)

#: Decorators that keep every result of the function they wrap in a
#: cache that lives as long as the function: module state however pure
#: the function is.
_MEMO_DECORATORS = frozenset({"functools.lru_cache", "functools.cache"})

#: Call consumers for which the iteration order of their argument cannot
#: escape into the value (``sum`` is the exception: the *value* is order
#: sensitive under float rounding, tracked as its own category).
_ORDER_SAFE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "len", "any", "all", "set", "frozenset", "fsum"}
)


@dataclass(frozen=True)
class EffectWitness:
    """Where one effect was observed, and the call path that reaches it."""

    kind: str
    category: str
    file: str
    line: int
    detail: str
    #: Qualnames from the function owning this witness set down to the
    #: function containing the witness itself (empty for local effects).
    path: Tuple[str, ...] = ()

    def via(self, callee: "FunctionRecord") -> "EffectWitness":
        """The same witness, seen through a call to ``callee``."""
        return EffectWitness(
            kind=self.kind,
            category=self.category,
            file=self.file,
            line=self.line,
            detail=self.detail,
            path=(callee.qualname, *self.path),
        )


#: (effect kind, category) — the key the fixpoint is monotone over.
EffectKey = Tuple[str, str]


@dataclass(frozen=True)
class EntryPoint:
    """One contract boundary the analysis gates."""

    record: FunctionRecord
    #: ``driver`` | ``cache`` | ``sweep-worker``.
    kind: str
    #: Where the entry was discovered (call site for cache runners and
    #: sweep workers, the ``def`` itself for drivers).
    origin_file: str
    origin_line: int


def declared_effect_kinds(node: ast.AST) -> Tuple[str, ...]:
    """Effect kinds a ``@declares_effects(...)`` decorator names.

    Read syntactically — the checker never imports analyzed code — so
    only string literals count.  Unknown kind names are ignored here;
    the runtime decorator rejects them at import time.
    """
    kinds: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        if not isinstance(decorator, ast.Call):
            continue
        if terminal_name(decorator.func) != "declares_effects":
            continue
        for arg in decorator.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value in EFFECT_KINDS and arg.value not in kinds:
                    kinds.append(arg.value)
    return tuple(kinds)


def _resolved(dotted: str, aliases: Dict[str, str]) -> str:
    """``dotted`` with its first name replaced by what the module imported under it."""
    root, _, rest = dotted.partition(".")
    root = aliases.get(root, root)
    return f"{root}.{rest}" if rest else root


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in ("set", "frozenset")
    return False


class EffectAnalysis:
    """The whole-program pass: detect, propagate, then gate entries."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: Per-function effect witnesses, grown monotonically by the
        #: fixpoint (local detection seeds it).
        self.effects: Dict[FunctionRecord, Dict[EffectKey, EffectWitness]] = {}
        #: Effect kinds each function declares at its boundary.
        self.declared: Dict[FunctionRecord, Tuple[str, ...]] = {}
        self.converged = True
        # ParsedModule/FunctionRecord are eq=False dataclasses, so they
        # hash by identity — no id() needed (the checker flags id()).
        self._module_level_names: Dict[ParsedModule, Set[str]] = {}
        self._aliases: Dict[ParsedModule, Dict[str, str]] = {}
        for record in self.graph.functions:
            self.declared[record] = declared_effect_kinds(record.node)
            self.effects[record] = self._local_effects(record)
        self.entries, self._capture_diagnostics = self._discover_entries()

    # --- module context ---------------------------------------------------

    def _aliases_of(self, module: ParsedModule) -> Dict[str, str]:
        if module not in self._aliases:
            assert module.tree is not None
            self._aliases[module] = module_aliases(module.tree)
        return self._aliases[module]

    def _module_names(self, module: ParsedModule) -> Set[str]:
        """Names bound by module-level statements (the shared state)."""
        if module in self._module_level_names:
            return self._module_level_names[module]
        names: Set[str] = set()

        def collect(statements: Sequence[ast.stmt]) -> None:
            for statement in statements:
                if isinstance(statement, (*FunctionNode, ast.ClassDef)):
                    continue
                targets: List[ast.expr] = []
                if isinstance(statement, ast.Assign):
                    targets = list(statement.targets)
                elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                    targets = [statement.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        names.update(
                            element.id
                            for element in target.elts
                            if isinstance(element, ast.Name)
                        )
                for block in ("body", "orelse", "finalbody"):
                    nested = getattr(statement, block, None)
                    if nested:
                        collect(nested)

        assert module.tree is not None
        collect(module.tree.body)
        self._module_level_names[module] = names
        return names

    # --- local detection --------------------------------------------------

    def _local_effects(self, record: FunctionRecord) -> Dict[EffectKey, EffectWitness]:
        found: Dict[EffectKey, EffectWitness] = {}
        if record.module.tree is None:
            return found
        aliases = self._aliases_of(record.module)
        module_names = self._module_names(record.module)
        scoped_globals: Set[str] = set()
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(record.node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        def witness(kind: str, category: str, line: int, detail: str) -> None:
            found.setdefault(
                (kind, category),
                EffectWitness(kind, category, record.filename, line, detail),
            )

        for decorator in record.node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = dotted_name(target)
            if dotted is not None and _resolved(dotted, aliases) in _MEMO_DECORATORS:
                witness(
                    "module-state", "accumulate", decorator.lineno,
                    f"@{dotted} memo holds module-level state",
                )
        statements = list(own_statements(record.node))
        for node in statements:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                scoped_globals.update(node.names)
        for node in statements:
            if isinstance(node, ast.Call):
                self._classify_call(node, aliases, module_names, witness)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._classify_assign(node, module_names, scoped_globals, witness)
            elif isinstance(node, ast.Subscript):
                dotted = dotted_name(node.value)
                if dotted is not None and _resolved(dotted, aliases).startswith("os.environ"):
                    witness("env", "read", node.lineno, "os.environ read")
            elif isinstance(node, ast.For):
                if _is_set_expr(node.iter):
                    witness(
                        "order", "iterate", node.iter.lineno,
                        "for-loop over a set (unordered)",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                self._classify_comprehension(node, parents, witness)
        return found

    def _classify_call(
        self,
        node: ast.Call,
        aliases: Dict[str, str],
        module_names: Set[str],
        witness,
    ) -> None:
        dotted = dotted_name(node.func)
        attr = terminal_name(node.func)
        line = node.lineno
        if dotted is not None:
            parts = dotted.split(".")
            full = _resolved(dotted, aliases)
            if full == "open":
                witness("fs", "access", line, "open()")
            elif full in _IDENTITY_CALLS:
                witness("identity", "read", line, f"{full}()")
            elif full.split(".", 1)[0] == "time" and parts[-1] in _TIME_MODULE_ATTRS:
                witness("time", "read", line, f"time.{parts[-1]}()")
            elif full.startswith("datetime.") and parts[-1] in _TIME_DATETIME_ATTRS:
                witness("time", "read", line, f"datetime.{parts[-1]}()")
            elif full.split(".", 1)[0] == "random" and parts[-1] in _GLOBAL_RNG_ATTRS:
                witness("rng", "draw", line, f"random.{parts[-1]}() (global RNG)")
            elif full.startswith("numpy.random.") or full.startswith("np.random."):
                witness("rng", "draw", line, f"{full}() (global RNG)")
            elif full in _ENV_CALLS or full.startswith("os.environ"):
                witness("env", "read", line, f"{full}()")
            elif full in _FS_OS_CALLS or full.startswith(("shutil.", "tempfile.")):
                witness("fs", "access", line, f"{full}()")
            elif full.startswith("os.path."):
                witness("fs", "access", line, f"{full}()")
            elif full.startswith("subprocess."):
                witness("fs", "access", line, f"{full}() (process spawn)")
            elif full.startswith(_NET_PREFIXES) or parts[-1] == "urlopen":
                witness("net", "access", line, f"{full}()")
        if (
            attr in _MUTATOR_METHODS
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in module_names
        ):
            witness(
                "module-state", "accumulate", line,
                f"{node.func.value.id}.{attr}() mutates module-level state",
            )
        if attr == "sum" or dotted == "sum":
            if node.args and _is_set_expr(node.args[0]):
                witness(
                    "order", "accumulate", line,
                    "sum() over a set (float accumulation order)",
                )

    def _classify_assign(
        self,
        node: ast.stmt,
        module_names: Set[str],
        scoped_globals: Set[str],
        witness,
    ) -> None:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in scoped_globals:
                witness(
                    "module-state", "assign", node.lineno,
                    f"assignment to global/nonlocal {target.id!r}",
                )
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in module_names
            ):
                witness(
                    "module-state", "accumulate", node.lineno,
                    f"item assignment into module-level {target.value.id!r}",
                )

    def _classify_comprehension(
        self,
        node: ast.expr,
        parents: Dict[ast.AST, ast.AST],
        witness,
    ) -> None:
        if not any(_is_set_expr(gen.iter) for gen in node.generators):
            return
        consumer = parents.get(node)
        if isinstance(consumer, ast.Call) and node in consumer.args:
            name = terminal_name(consumer.func)
            if name in _ORDER_SAFE_CONSUMERS:
                return
            if name == "sum":
                witness(
                    "order", "accumulate", node.lineno,
                    "sum() over a set (float accumulation order)",
                )
                return
        witness(
            "order", "iterate", node.lineno,
            "comprehension over a set (unordered)",
        )

    # --- propagation ------------------------------------------------------

    def exported_effects(self, record: FunctionRecord) -> Dict[EffectKey, EffectWitness]:
        """Effects ``record`` exposes to callers (declared kinds absorbed)."""
        declared = self.declared.get(record, ())
        return {
            key: witness
            for key, witness in self.effects[record].items()
            if key[0] not in declared
        }

    def solve(self, max_rounds: int = 50) -> None:
        """Union callee effects into callers until nothing changes."""

        def propagate(record: FunctionRecord) -> bool:
            changed = False
            mine = self.effects[record]
            params = set(record.params)
            for name in record.callees():
                if name in params:
                    # A call through a parameter is dynamically bound;
                    # resolving it to same-named definitions elsewhere
                    # in the program is coincidence, not reachability.
                    continue
                for callee in self.graph.resolve(name):
                    if callee is record:
                        continue
                    for key, witness in self.exported_effects(callee).items():
                        if key not in mine:
                            mine[key] = witness.via(callee)
                            changed = True
            return changed

        self.converged = self.graph.solve(propagate, max_rounds=max_rounds)

    # --- entry discovery --------------------------------------------------

    def _discover_entries(self) -> Tuple[List[EntryPoint], List[Diagnostic]]:
        entries: List[EntryPoint] = []
        diagnostics: List[Diagnostic] = []
        seen: Set[Tuple[FunctionRecord, str]] = set()

        def register(record: FunctionRecord, kind: str, file: str, line: int) -> None:
            if (record, kind) not in seen:
                seen.add((record, kind))
                entries.append(EntryPoint(record, kind, file, line))

        for record in self.graph.functions:
            if "experiment_driver" in record.decorators:
                register(record, "driver", record.filename, record.node.lineno)
        # Scan call sites scope by scope, so a callable that is merely a
        # *parameter* of the enclosing function (``sweep`` forwarding its
        # ``experiment`` argument) is never resolved to a same-named
        # definition elsewhere in the program.
        scopes: List[Tuple[ParsedModule, ast.AST, Set[str]]] = [
            (record.module, record.node, set(record.params))
            for record in self.graph.functions
        ]
        scopes.extend(
            (module, module.tree, set())
            for module in self.graph.modules
            if module.tree is not None
        )
        for module, scope, dynamic in scopes:
            for node in own_statements(scope):
                if not isinstance(node, ast.Call):
                    continue
                attr = terminal_name(node.func)
                if attr == "get_or_run" and len(node.args) >= 2:
                    for record in self._resolve_callable(node.args[1], dynamic):
                        register(record, "cache", module.filename, node.lineno)
                elif attr == "sweep" and len(node.args) >= 2:
                    diagnostics.extend(
                        self._gate_worker(
                            node.args[1], module, node.lineno, dynamic, register
                        )
                    )
                elif attr in ("map", "submit") and isinstance(node.func, ast.Attribute):
                    owner = terminal_name(node.func.value)
                    if owner is not None and node.args and (
                        "pool" in owner.lower() or "executor" in owner.lower()
                    ):
                        diagnostics.extend(
                            self._gate_worker(
                                node.args[0], module, node.lineno, dynamic, register
                            )
                        )
        entries.sort(key=lambda e: (e.record.filename, e.record.node.lineno, e.kind))
        return entries, diagnostics

    def _resolve_callable(
        self, node: ast.expr, dynamic: Set[str]
    ) -> List[FunctionRecord]:
        """Function records a callable expression may stand for.

        ``dynamic`` holds names bound by the enclosing scope's
        parameters — calls through those are unresolvable, not
        same-named definitions elsewhere.
        """
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name == "partial" and node.args:
                return self._resolve_callable(node.args[0], dynamic)
            if name is not None and name not in dynamic:
                # ``Wrapper(fn)``: a class instance used as a callable —
                # gate the class's ``__call__`` if we can see one.
                return [
                    record
                    for record in self.graph.resolve("__call__")
                    if record.qualname.startswith(f"{name}.")
                ]
            return []
        if isinstance(node, ast.Lambda):
            records: List[FunctionRecord] = []
            lambda_params = dynamic | {arg.arg for arg in node.args.args}
            for child in ast.walk(node.body):
                if isinstance(child, ast.Call):
                    name = terminal_name(child.func)
                    if name is not None and name not in lambda_params:
                        records.extend(self.graph.resolve(name))
            return records
        name = terminal_name(node)
        if name is None or name in dynamic:
            return []
        return self.graph.resolve(name)

    def _gate_worker(
        self,
        node: ast.expr,
        module: ParsedModule,
        line: int,
        dynamic: Set[str],
        register,
    ) -> Iterator[Diagnostic]:
        """Register a sweep/map worker; C512 on unpicklable callables."""
        if isinstance(node, ast.Lambda):
            diag = C512_RULE.diagnostic(
                "lambda handed to a process-parallel sweep cannot cross the "
                "pickle boundary",
                file=module.filename,
                line=line,
                hint="use a module-level function or functools.partial of one",
            )
            if not _suppressed(diag, module.allows):
                yield diag
            return
        for record in self._resolve_callable(node, dynamic):
            if record.is_nested:
                diag = C512_RULE.diagnostic(
                    f"nested function {record.qualname}() handed to a "
                    "process-parallel sweep cannot cross the pickle boundary",
                    file=module.filename,
                    line=line,
                    hint="hoist the worker to module level",
                )
                if not _suppressed(diag, module.allows):
                    yield diag
            else:
                register(record, "sweep-worker", module.filename, line)

    # --- gating -----------------------------------------------------------

    def _rule_for(self, entry_kind: str, key: EffectKey) -> Optional[CheckRule]:
        kind, category = key
        if kind == "order":
            return C521_RULE if category == "iterate" else C522_RULE
        if entry_kind == "sweep-worker":
            if kind == "module-state":
                return C511_RULE if category == "assign" else C513_RULE
            if kind == "rng":
                return C514_RULE
        return {
            "time": C501_RULE,
            "rng": C502_RULE,
            "env": C503_RULE,
            "fs": C504_RULE,
            "net": C505_RULE,
            "module-state": C506_RULE,
            "identity": C507_RULE,
        }.get(kind)

    def entry_effects(self, entry: EntryPoint) -> Dict[EffectKey, EffectWitness]:
        """Effects that escape ``entry`` (its own declaration absorbs)."""
        return self.exported_effects(entry.record)

    def check(self) -> List[Diagnostic]:
        diagnostics = list(self._capture_diagnostics)
        for entry in self.entries:
            record = entry.record
            for key, witness in sorted(self.entry_effects(entry).items()):
                rule = self._rule_for(entry.kind, key)
                if rule is None:
                    continue
                via = ""
                if witness.path:
                    via = f" via {' -> '.join(witness.path)}"
                diag = rule.diagnostic(
                    f"{entry.kind} entry {record.qualname}() reaches "
                    f"{witness.detail} at {witness.file}:{witness.line}{via}",
                    obj=record.qualname,
                    file=record.filename,
                    line=record.node.lineno,
                    hint=(
                        "declare the boundary that owns the effect with "
                        f"@declares_effects({key[0]!r}) if it never reaches "
                        "the result"
                    ),
                )
                if not _suppressed(diag, record.module.allows):
                    diagnostics.append(diag)
        return sort_diagnostics(diagnostics)

    # --- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-able per-entry-point effect summary."""
        entry_payload = []
        for entry in self.entries:
            effects = []
            for key, witness in sorted(self.entry_effects(entry).items()):
                rule = self._rule_for(entry.kind, key)
                effects.append(
                    {
                        "kind": witness.kind,
                        "category": witness.category,
                        "rule": rule.rule_id if rule is not None else None,
                        "detail": witness.detail,
                        "witness_file": witness.file,
                        "witness_line": witness.line,
                        "path": list(witness.path),
                    }
                )
            entry_payload.append(
                {
                    "qualname": entry.record.qualname,
                    "kind": entry.kind,
                    "file": entry.record.filename,
                    "line": entry.record.node.lineno,
                    "clean": not effects,
                    "effects": effects,
                }
            )
        declared_payload = [
            {
                "qualname": record.qualname,
                "file": record.filename,
                "line": record.node.lineno,
                "effects": list(self.declared[record]),
            }
            for record in self.graph.functions
            if self.declared.get(record)
        ]
        return {
            "version": EFFECTS_SCHEMA_VERSION,
            "functions": len(self.graph.functions),
            "converged": self.converged,
            "entry_points": entry_payload,
            "declared": declared_payload,
        }


@dataclass
class EffectsReport:
    """Everything one effects run produced."""

    diagnostics: List[Diagnostic]
    summary: Dict[str, object]
    entries: List[EntryPoint] = field(default_factory=list)


def analyze_effects_graph(graph: CallGraph) -> EffectsReport:
    """Run the effect pass over an already-built call graph."""
    analysis = EffectAnalysis(graph)
    analysis.solve()
    return EffectsReport(
        diagnostics=analysis.check(),
        summary=analysis.summary(),
        entries=analysis.entries,
    )


def analyze_effects_sources(sources: Dict[str, str]) -> EffectsReport:
    """Run the effect pass over ``{filename: source}`` as one program."""
    cache = ModuleCache()
    modules = [
        cache.module_for_source(sources[filename], filename)
        for filename in sorted(sources)
    ]
    return analyze_effects_graph(CallGraph(modules))


def analyze_effects_paths(
    paths: Sequence[PathLike], cache: Optional[ModuleCache] = None
) -> EffectsReport:
    """Run the effect pass over every ``*.py`` file under ``paths``."""
    if cache is None:
        cache = ModuleCache()
    return analyze_effects_graph(CallGraph(cache.modules_for_paths(paths)))


def analyze_effects_source_root() -> EffectsReport:
    """Analyze the installed ``repro`` package (what the CLI checks)."""
    return analyze_effects_paths([default_source_root()])
