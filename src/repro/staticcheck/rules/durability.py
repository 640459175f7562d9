"""SVL007 — persisted-artifact writes must go through repro.util.atomic.

Call-graph-sensitive rule.  Results, manifests, fault plans, columnar
caches, and store metadata are read back by later runs and by
concurrent shards; a bare ``open(path, "w")`` (or ``write_text`` /
``numpy.savez``) that dies mid-write leaves a torn file that poisons
every consumer.  ``repro.util.atomic`` exists precisely for this
(tmp file + fsync + ``os.replace`` + directory fsync), so in the
persistence-bearing packages every truncating write must flow through
it.

A write is *safe* when its target was bound by a surrounding
``with atomic_write(...) as h`` / ``with atomic_write_path(...) as p``.
Helpers that write through a bare parameter (``def save(path): ...``)
are exempt **interprocedurally**: if every resolved call site in the
project passes an atomic-bound value for that parameter, the helper
inherits safety from its callers; if any call site passes a raw
destination — or no call site resolves at all — the write is flagged.

Append-mode logs (``"a"``) and ``"x"`` marker files are deliberately
out of scope: they are not replace-style publications, and atomic
replacement is the wrong tool for them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.astutil import module_matches, unparse_short, walk_scope
from repro.staticcheck.callgraph import (
    PERSISTED_WRITE_ATTRS,
    PERSISTED_WRITE_CALLS,
    FunctionNode,
    ProjectGraph,
    _write_mode,
)
from repro.staticcheck.context import ModuleContext, Project
from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.registry import Rule, RuleMeta, register

#: Packages whose files are persisted artifacts (read back by later
#: runs / other processes, including the CI jobs that parse the CLI's
#: reports and manifests).  repro.util.atomic itself and the obs /
#: staticcheck tooling write only derived, regenerable output.
SCOPED_MODULES = frozenset(
    {"repro.traces", "repro.sim", "repro.faults", "repro.serve", "repro.cli"}
)

#: The sanctioned writers; a name bound by ``with <one of these>(...)``
#: marks that name (handle or temp path) as a safe write target.
ATOMIC_WRITERS = frozenset(
    {
        "repro.util.atomic.atomic_write",
        "repro.util.atomic.atomic_write_path",
        "atomic_write",
        "atomic_write_path",
    }
)


@register
class DurableWriteRule(Rule):
    meta = RuleMeta(
        code="SVL007",
        name="durable-write",
        severity=Severity.ERROR,
        summary="persisted artifact written without repro.util.atomic",
        rationale=(
            "Manifests, results, fault plans, and store metadata are "
            "re-read by later runs and concurrent shards; a process "
            "dying inside a bare open(path, 'w') / write_text / "
            "np.savez leaves a torn file every consumer then trusts.  "
            "Route the write through atomic_write / atomic_write_path "
            "(tmp + fsync + os.replace), which publishes all-or-"
            "nothing."
        ),
        example=(
            "import json, numpy as np\n"
            "def save_result(path, payload, arrays):\n"
            "    Path(path).write_text(json.dumps(payload))  # torn on crash\n"
            '    with open(path + ".npz", "wb") as handle:  # ditto\n'
            "        np.savez(handle, **arrays)"
        ),
        fixture_module="repro.sim.fixture",
    )

    def check_project(self, project: Project) -> List[Finding]:
        graph = project.graph
        writes: List[Tuple[FunctionNode, ast.Call, ast.expr]] = []
        safe_by_fn: Dict[str, Set[str]] = {}
        module_findings: List[Finding] = []

        for ctx in project:
            if not module_matches(ctx.module, SCOPED_MODULES):
                continue
            for fn in graph.in_module(ctx.module):
                body = getattr(fn.node, "body", [])
                safe = _atomic_bound_names(ctx, body)
                safe_by_fn[fn.qualname] = safe
                for call, target in _write_sites(ctx, body):
                    if _target_is_safe(target, safe):
                        continue
                    writes.append((fn, call, target))
            # Module-level writes (walk_scope never enters function
            # bodies, so these are import-time statements only); no
            # parameters to defer to.
            safe = _atomic_bound_names(ctx, ctx.tree.body)
            for call, target in _write_sites(ctx, ctx.tree.body):
                if not _target_is_safe(target, safe):
                    module_findings.append(
                        self._finding(ctx, "<module>", call, target)
                    )

        safe_params = _safe_parameters(graph, safe_by_fn)
        findings = list(module_findings)
        for fn, call, target in writes:
            param = _parameter_name(fn, target)
            if param is not None and (fn.qualname, param) in safe_params:
                continue
            findings.append(self._finding(fn.ctx, fn.qualname, call, target))
        return findings

    def _finding(
        self,
        ctx: ModuleContext,
        owner: str,
        call: ast.Call,
        target: ast.expr,
    ) -> Finding:
        return Finding(
            code=self.meta.code,
            severity=self.meta.severity,
            path=str(ctx.path),
            line=call.lineno,
            col=call.col_offset,
            end_line=getattr(call, "end_lineno", 0) or call.lineno,
            message=(
                f"write to persisted target "
                f"{unparse_short(target, 40)!r} bypasses repro.util."
                f"atomic; wrap in atomic_write(...) or "
                f"atomic_write_path(...)"
            ),
            module=ctx.module,
            symbol=f"{owner}:{unparse_short(call.func, 40)}",
        )


def _write_sites(
    ctx: ModuleContext, body: List[ast.stmt]
) -> List[Tuple[ast.Call, ast.expr]]:
    """(call, destination expr) for every persisted write in ``body``."""
    sites: List[Tuple[ast.Call, ast.expr]] = []
    for node in walk_scope(body):
        if not isinstance(node, ast.Call):
            continue
        target = _write_target(ctx, node)
        if target is not None:
            sites.append((node, target))
    sites.sort(key=lambda pair: (pair[0].lineno, pair[0].col_offset))
    return sites


def _write_target(ctx: ModuleContext, call: ast.Call) -> Optional[ast.expr]:
    """The destination expression of a persisted write, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        if _write_mode(call) is not None and call.args:
            return call.args[0]
        return None
    if isinstance(func, ast.Attribute):
        if func.attr in PERSISTED_WRITE_ATTRS:
            return func.value
        if func.attr == "open" and _write_mode(call, mode_index=0) is not None:
            return func.value
    resolved = ctx.imports.resolve(func)
    if resolved in PERSISTED_WRITE_CALLS and call.args:
        return call.args[0]
    return None


def _atomic_bound_names(ctx: ModuleContext, body: List[ast.stmt]) -> Set[str]:
    """Names bound by ``with atomic_write*(...) as name`` in this scope."""
    safe: Set[str] = set()
    for node in walk_scope(body):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            resolved = ctx.imports.resolve(expr.func)
            name = resolved or (
                expr.func.id if isinstance(expr.func, ast.Name) else ""
            )
            if name in ATOMIC_WRITERS and isinstance(
                item.optional_vars, ast.Name
            ):
                safe.add(item.optional_vars.id)
    return safe


def _target_is_safe(target: ast.expr, safe: Set[str]) -> bool:
    """True when the destination is (derived from) an atomic binding.

    ``handle`` itself, or path arithmetic rooted at a safe temp name
    (``tmp / "part.npz"``, ``str(tmp)``) all count.
    """
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and node.id in safe:
            return True
    return False


def _parameter_name(fn: FunctionNode, target: ast.expr) -> Optional[str]:
    """``target``'s root name if it is a bare parameter of ``fn``."""
    node = target
    # Unwrap Path(path) / str(path) style constructor wrapping.
    while isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    if not isinstance(node, ast.Name):
        return None
    args = getattr(fn.node, "args", None)
    if args is None:
        return None
    names = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return node.id if node.id in names else None


def _parameter_index(fn: FunctionNode, param: str) -> Optional[int]:
    args = getattr(fn.node, "args", None)
    if args is None:
        return None
    positional = [a.arg for a in args.posonlyargs + args.args]
    if fn.cls is not None and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    try:
        return positional.index(param)
    except ValueError:
        return None


def _safe_parameters(
    graph: ProjectGraph, safe_by_fn: Dict[str, Set[str]]
) -> Set[Tuple[str, str]]:
    """(qualname, param) pairs safe at every resolved call site.

    Every positional parameter of every scoped function is a candidate
    (pass-through helpers forward safety without writing themselves).
    The fixpoint is pessimistic: a parameter starts unsafe and is
    promoted only when the function has at least one resolved caller
    and *every* caller passes an atomic-bound name — or a parameter
    already proven safe (helper chains).  Unresolvable call sites keep
    the parameter unsafe, so missing call-graph edges can only cause
    extra findings, never hide one.
    """
    candidates: Set[Tuple[str, str]] = set()
    for qualname in safe_by_fn:
        fn = graph.function(qualname)
        if fn is None:
            continue
        args = getattr(fn.node, "args", None)
        if args is None:
            continue
        for arg in args.posonlyargs + args.args:
            if arg.arg in ("self", "cls"):
                continue
            if _parameter_index(fn, arg.arg) is not None:
                candidates.add((qualname, arg.arg))

    safe: Set[Tuple[str, str]] = set()
    changed = True
    while changed:
        changed = False
        for qualname, param in sorted(candidates - safe):
            fn = graph.function(qualname)
            if fn is None:
                continue
            index = _parameter_index(fn, param)
            sites = graph.callers_of(qualname)
            if index is None or not sites:
                continue
            if all(
                _argument_is_safe(caller, call, index, param, safe_by_fn, safe)
                for caller, call in sites
            ):
                safe.add((qualname, param))
                changed = True
    return safe


def _argument_is_safe(
    caller: FunctionNode,
    call: ast.Call,
    index: int,
    param: str,
    safe_by_fn: Dict[str, Set[str]],
    safe_params: Set[Tuple[str, str]],
) -> bool:
    expr: Optional[ast.expr] = None
    if index < len(call.args):
        expr = call.args[index]
    else:
        for kw in call.keywords:
            if kw.arg == param:
                expr = kw.value
    if expr is None:
        return False
    if _target_is_safe(expr, safe_by_fn.get(caller.qualname, set())):
        return True
    if isinstance(expr, ast.Name):
        return (caller.qualname, expr.id) in safe_params
    return False
