"""AST lint pass enforcing the repo's hand-written kernel discipline.

Four codebase-specific rules, each with a per-line escape hatch
(``# repro: noqa-REPxxx``, comma-separable) and ``file:line:col``
reporting:

REP001 — *no allocations in hot paths.*
    Inside a function decorated ``@hot_path``: no array-allocating
    calls (``np.zeros`` / ``empty`` / ``copy`` / ``*_like`` / ...,
    ``.copy()``), and no arithmetic operator temporaries created inside
    ``for``/``while`` loops (an augmented assignment or a
    subscript-target assignment whose value contains ``+ - * / **``
    allocates a fresh array every iteration).  Pool-mediated
    allocation (``pool.take``) is allowed — recycling is the point.

REP002 — *``move=True`` only on fresh, dead buffers.*
    ``Send(..., move=True)`` is a zero-copy handoff; the payload must
    be a local variable the same function assigned from a fresh
    allocation (``np.empty`` and friends, ``pool.take``, ``.copy()``),
    and the variable must never be read — or written through a
    subscript — after the send (source order; re-binding the name is
    fine).

REP003 — *send tags structurally match receive tags.*
    Within each module under ``parallel/`` (or importing
    ``repro.parallel``) that posts both sends and receives, every
    explicit ``Send``/``Isend`` tag expression must match some
    ``Recv``/``Irecv`` tag expression *structurally*, and vice versa.
    Tags are canonicalised to the multiset of additive terms with
    integer coefficients and abstracted non-constant factors, so
    ``base + 8*k + DIR[opp(d)]`` matches ``base + 8*k + DIR[d]`` but
    not ``base + 4*k + DIR[d]`` — the tag-stride drift between a
    send and its receive that this rule exists to catch.  A receive with
    no tag (or ``ANY_TAG``) is a wildcard.

REP004 — *no collectives under rank-dependent conditionals.*
    In the same module scope as REP003: a collective call
    (``allreduce``, ``bcast``, ``barrier``, ``gather``, ...) lexically
    inside an ``if``/``while`` whose test depends on a rank (``.rank``,
    ``.world_rank``, ``.panel_index``, ``.panel_rank``, or a local
    assigned from one) diverges the SPMD collective sequence and
    deadlocks real MPI.

REP009 — *every non-blocking request is waited.*
    In the same module scope as REP003: an ``Isend``/``Irecv`` call
    whose request is provably dropped — a bare expression statement
    (the returned request is discarded on the spot), or an assignment
    to a local name that the function never reads again (no ``wait`` /
    ``Wait`` / ``test`` call, never passed on, stored, or returned).
    A dropped Irecv loses its payload and, under ``REPRO_SANITIZE=1``,
    fails the run's protocol finalize (the recorder tracks request
    lifetimes); the lexical rule catches the same bug before any run.
    Requests that flow into containers, other calls, returns, or
    attributes are assumed waited elsewhere — the runtime check covers
    those paths.

The rules are deliberately lexical/intra-procedural: predictable,
fast, and wrong only in ways a ``# repro: noqa-REPxxx`` comment can
document.  Known approximations — scalar arithmetic in a loop matches
REP001's temporary pattern; ``move=<variable>`` pass-throughs are not
traced by REP002; REP003 skips modules that only send (forwarding
layers such as ``tracing.py``).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from math import prod
from pathlib import Path
from collections.abc import Iterable, Sequence

__all__ = ["RULES", "Violation", "lint_paths", "lint_source", "to_json"]

#: Rule registry: code -> one-line description.
RULES: dict[str, str] = {
    "REP001": "array allocation or loop temporary inside a @hot_path function",
    "REP002": "Send(move=True) payload not a fresh local buffer, or used after the move",
    "REP003": "Send tag expression with no structurally matching Recv tag (or vice versa)",
    "REP004": "collective call under a rank-dependent conditional",
    "REP009": "Isend/Irecv request dropped without a Wait/Waitall",
}


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


# ---- noqa escape hatch -----------------------------------------------------------

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa-(REP\d{3}(?:\s*,\s*(?:noqa-)?REP\d{3})*)")


def _noqa_lines(source: str) -> dict[int, set[str]]:
    """Line number -> set of rule codes suppressed on that line."""
    out: dict[int, set[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if m:
            codes = {c.strip().removeprefix("noqa-") for c in m.group(1).split(",")}
            out[i] = codes
    return out


# ---- shared AST helpers ----------------------------------------------------------

_NP_NAMES = {"np", "numpy"}
_NP_ALLOC = {
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "copy", "array", "ascontiguousarray", "asfortranarray",
    "concatenate", "stack", "vstack", "hstack", "dstack", "column_stack",
    "tile", "repeat", "outer", "meshgrid", "arange", "linspace",
    "eye", "identity", "fromfunction", "broadcast_arrays",
}
#: Attribute calls whose result is a fresh buffer (REP002 freshness).
_FRESH_METHODS = {"take", "copy", "astype"}
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow, ast.MatMult)

_COLLECTIVES = {
    "barrier", "bcast", "gather", "allgather", "allreduce", "alltoall",
    "split", "dup",
    "Barrier", "Bcast", "Gather", "Allgather", "Allreduce", "Alltoall",
    "Reduce", "Scatter",
}
_RANK_ATTRS = {"rank", "world_rank", "panel_rank", "panel_index"}


def _alloc_call_name(call: ast.Call) -> str | None:
    """Name of the allocating call, or None if ``call`` does not allocate."""
    f = call.func
    if isinstance(f, ast.Attribute):
        if isinstance(f.value, ast.Name) and f.value.id in _NP_NAMES and f.attr in _NP_ALLOC:
            return f"np.{f.attr}"
        if f.attr == "copy" and not call.args and not call.keywords:
            return ".copy()"
    return None


def _is_fresh_alloc(value: ast.expr) -> bool:
    """Whether ``value`` evaluates to a freshly allocated buffer."""
    if not isinstance(value, ast.Call):
        return False
    if _alloc_call_name(value) is not None:
        return True
    f = value.func
    return isinstance(f, ast.Attribute) and f.attr in _FRESH_METHODS


def _is_hot(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in fn.decorator_list:
        d = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(d, ast.Name) and d.id == "hot_path":
            return True
        if isinstance(d, ast.Attribute) and d.attr == "hot_path":
            return True
    return False


def _functions(tree: ast.AST) -> Iterable[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _arith_binops_outside_slices(value: ast.expr) -> list[ast.BinOp]:
    """Arithmetic BinOps in ``value``, not descending into subscript slices
    (index arithmetic like ``f[i + 1]`` selects, it does not allocate)."""
    found: list[ast.BinOp] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Subscript):
            visit(node.value)
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(value)
    return found


def _call_arg(call: ast.Call, index: int, name: str) -> ast.expr | None:
    """Positional-or-keyword argument lookup."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# ---- REP001: hot-path allocations -------------------------------------------------


def _check_rep001(tree: ast.AST, path: str) -> list[Violation]:
    out: list[Violation] = []
    for fn in _functions(tree):
        if not _is_hot(fn):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _alloc_call_name(node)
                if name is not None:
                    out.append(Violation(
                        "REP001", path, node.lineno, node.col_offset,
                        f"allocating call {name} in @hot_path function "
                        f"{fn.name!r} (use the buffer pool or out=)",
                    ))
        # loop-carried operator temporaries
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in ast.walk(loop):
                writes_array = isinstance(stmt, ast.AugAssign) or (
                    isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Subscript) for t in stmt.targets)
                )
                if not writes_array:
                    continue
                for binop in _arith_binops_outside_slices(stmt.value):
                    out.append(Violation(
                        "REP001", path, binop.lineno, binop.col_offset,
                        f"operator temporary inside a loop in @hot_path "
                        f"function {fn.name!r} (one allocation per "
                        f"iteration; use np.multiply/add with out=)",
                    ))
    return out


# ---- REP002: move=True ownership --------------------------------------------------


def _check_rep002(tree: ast.AST, path: str) -> list[Violation]:
    out: list[Violation] = []
    for fn in _functions(tree):
        moves: list[tuple[ast.Call, ast.expr]] = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not (isinstance(f, ast.Attribute) and f.attr in ("Send", "Isend")):
                continue
            move = next((kw.value for kw in node.keywords if kw.arg == "move"), None)
            if not (isinstance(move, ast.Constant) and move.value is True):
                continue
            data = _call_arg(node, 0, "data")
            if data is not None:
                moves.append((node, data))
        for call, data in moves:
            if not isinstance(data, ast.Name):
                out.append(Violation(
                    "REP002", path, call.lineno, call.col_offset,
                    "move=True payload must be a local variable so its "
                    "allocation and later uses are traceable",
                ))
                continue
            name = data.id
            fresh = any(
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets)
                and _is_fresh_alloc(stmt.value)
                for stmt in ast.walk(fn)
            )
            if not fresh:
                out.append(Violation(
                    "REP002", path, call.lineno, call.col_offset,
                    f"move=True payload {name!r} is not assigned from a "
                    f"fresh allocation in this function",
                ))
            pos = (call.lineno, call.col_offset)
            in_call = set()
            for sub in ast.walk(call):
                in_call.add(id(sub))
            # a later re-binding of the name starts a new buffer's life;
            # loads beyond it are unrelated to the moved one
            rebind = None
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name for t in stmt.targets
                ):
                    spos = (stmt.lineno, stmt.col_offset)
                    if spos > pos and (rebind is None or spos < rebind):
                        rebind = spos
            for node in ast.walk(fn):
                if id(node) in in_call:
                    continue
                npos = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
                if npos <= pos or (rebind is not None and npos >= rebind):
                    continue
                if isinstance(node, ast.Name) and node.id == name and isinstance(
                    node.ctx, ast.Load
                ):
                    out.append(Violation(
                        "REP002", path, node.lineno, node.col_offset,
                        f"buffer {name!r} read after Send(move=True) at "
                        f"line {call.lineno} — write-after-move hazard",
                    ))
    return out


# ---- REP003: tag-shape matching ---------------------------------------------------

#: Canonical term: ("const", value) or ("term", integer coefficient).
_Term = tuple[str, int]


def _tag_terms(node: ast.expr, sign: int = 1) -> list[_Term]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _tag_terms(node.left, sign) + _tag_terms(node.right, sign)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return _tag_terms(node.left, sign) + _tag_terms(node.right, -sign)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _tag_terms(node.operand, -sign)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _tag_terms(node.operand, sign)
    # single term: split a Mult chain into constant and abstract factors
    factors: list[ast.expr] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
            stack.extend((n.left, n.right))
        else:
            factors.append(n)
    consts = [f.value for f in factors if isinstance(f, ast.Constant)
              and isinstance(f.value, int)]
    abstract = len(consts) != len(factors)
    coef = sign * prod(consts) if consts else sign
    return [("term", coef) if abstract else ("const", coef)]


def _canonical_tag(node: ast.expr) -> tuple[_Term, ...]:
    return tuple(sorted(_tag_terms(node)))


def _is_wildcard_tag(node: ast.expr | None) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Name) and node.id == "ANY_TAG":
        return True
    return isinstance(node, ast.Attribute) and node.attr == "ANY_TAG"


def _format_canonical(canon: tuple[_Term, ...]) -> str:
    parts = []
    for kind, value in canon:
        parts.append(str(value) if kind == "const" else f"{value}*X")
    return " + ".join(parts) if parts else "0"


def _check_rep003(tree: ast.AST, path: str) -> list[Violation]:
    sends: list[tuple[ast.Call, tuple[_Term, ...]]] = []
    recvs: list[tuple[ast.Call, tuple[_Term, ...] | None]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not isinstance(f, ast.Attribute):
            continue
        if f.attr in ("Send", "Isend"):
            tag = _call_arg(node, 2, "tag")
            if tag is not None:
                sends.append((node, _canonical_tag(tag)))
        elif f.attr in ("Recv", "Irecv"):
            tag = _call_arg(node, 2, "tag")
            recvs.append((node, None if _is_wildcard_tag(tag) else _canonical_tag(tag)))
        elif f.attr == "Sendrecv":
            stag = _call_arg(node, 3, "sendtag")
            rtag = _call_arg(node, 4, "recvtag")
            if stag is not None:
                sends.append((node, _canonical_tag(stag)))
            recvs.append((node, None if _is_wildcard_tag(rtag) else _canonical_tag(rtag)))
    if not sends or not recvs:
        return []  # forwarding layers and one-sided modules are out of scope
    out: list[Violation] = []
    wildcard = any(c is None for _, c in recvs)
    recv_set = {c for _, c in recvs if c is not None}
    send_set = {c for _, c in sends}
    if not wildcard:
        for call, canon in sends:
            if canon not in recv_set:
                out.append(Violation(
                    "REP003", path, call.lineno, call.col_offset,
                    f"Send tag shape [{_format_canonical(canon)}] has no "
                    f"structurally matching Recv tag in this module "
                    f"(tag-stride drift?)",
                ))
    for call, canon in recvs:
        if canon is not None and canon not in send_set:
            out.append(Violation(
                "REP003", path, call.lineno, call.col_offset,
                f"Recv tag shape [{_format_canonical(canon)}] has no "
                f"structurally matching Send tag in this module",
            ))
    return out


# ---- REP004: rank-dependent collectives -------------------------------------------


def _mentions_rank(node: ast.AST, rank_vars: set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _RANK_ATTRS:
            return True
        if isinstance(sub, ast.Name) and (sub.id in _RANK_ATTRS or sub.id in rank_vars):
            return True
    return False


def _check_rep004(tree: ast.AST, path: str) -> list[Violation]:
    out: list[Violation] = []
    for fn in _functions(tree):
        # one-level dataflow: locals assigned from rank-dependent expressions
        rank_vars: set[str] = set()
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.Assign) and _mentions_rank(stmt.value, set()):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        rank_vars.add(t.id)
        for cond in ast.walk(fn):
            if not isinstance(cond, (ast.If, ast.While)):
                continue
            if not _mentions_rank(cond.test, rank_vars):
                continue
            for node in ast.walk(cond):
                if node is cond or not isinstance(node, ast.Call):
                    continue
                f = node.func
                if not (isinstance(f, ast.Attribute) and f.attr in _COLLECTIVES):
                    continue
                if isinstance(f.value, ast.Constant):
                    continue  # "a,b".split(...) and friends
                out.append(Violation(
                    "REP004", path, node.lineno, node.col_offset,
                    f"collective {f.attr!r} under a rank-dependent "
                    f"conditional (line {cond.lineno}) diverges the SPMD "
                    f"collective sequence",
                ))
    return out


# ---- REP009: dropped non-blocking requests ----------------------------------------

_REQUEST_CALLS = {"Isend", "Irecv"}


def _request_call(node: ast.AST) -> ast.Call | None:
    """The node itself as an Isend/Irecv call, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _REQUEST_CALLS
    ):
        return node
    return None


def _contains_request_call(node: ast.AST) -> ast.Call | None:
    for sub in ast.walk(node):
        call = _request_call(sub)
        if call is not None:
            return call
    return None


def _check_rep009(tree: ast.AST, path: str) -> list[Violation]:
    out: list[Violation] = []
    # a bare-expression Isend/Irecv discards its request on the spot,
    # wherever it appears (module level included)
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            call = _request_call(node.value)
            if call is not None:
                out.append(Violation(
                    "REP009", path, call.lineno, call.col_offset,
                    f"{call.func.attr} request discarded — the request "
                    f"must be kept and Wait/Waitall-ed on every path",
                ))
    # an assignment whose value posts a request, to a name the function
    # never reads, drops the request just as surely
    for fn in _functions(tree):
        assigns: list[tuple[str, ast.Call, ast.Assign]] = []
        for stmt in ast.walk(fn):
            if not isinstance(stmt, ast.Assign):
                continue
            call = _contains_request_call(stmt.value)
            if call is None:
                continue
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    assigns.append((t.id, call, stmt))
        for name, call, stmt in assigns:
            in_stmt = {id(sub) for sub in ast.walk(stmt)}
            used = any(
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
                and id(node) not in in_stmt
                for node in ast.walk(fn)
            )
            if not used:
                out.append(Violation(
                    "REP009", path, call.lineno, call.col_offset,
                    f"request assigned to {name!r} is never used in "
                    f"{fn.name!r} — no Wait/Waitall can reach it",
                ))
    return out


# ---- driver ----------------------------------------------------------------------


def _parallel_scope(tree: ast.AST, path: str) -> bool:
    """REP003/REP004 apply to parallel modules and their direct users."""
    if "parallel" in Path(path).parts:
        return True
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.parallel"
        ):
            return True
        if isinstance(node, ast.Import) and any(
            alias.name.startswith("repro.parallel") for alias in node.names
        ):
            return True
    return False


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[str] | None = None,
    *,
    tree: ast.AST | None = None,
) -> list[Violation]:
    """Lint one module's source; returns noqa-filtered violations.

    ``tree`` accepts a pre-parsed module so the single-pass driver
    (:func:`repro.checkers.driver.lint_all_paths`) parses each file
    exactly once across all rule families.
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    selected = set(rules) if rules is not None else set(RULES)
    found: list[Violation] = []
    if "REP001" in selected:
        found.extend(_check_rep001(tree, path))
    if "REP002" in selected:
        found.extend(_check_rep002(tree, path))
    if selected & {"REP003", "REP004", "REP009"} and _parallel_scope(tree, path):
        if "REP003" in selected:
            found.extend(_check_rep003(tree, path))
        if "REP004" in selected:
            found.extend(_check_rep004(tree, path))
        if "REP009" in selected:
            found.extend(_check_rep009(tree, path))
    noqa = _noqa_lines(source)
    # a send inside a nested function is walked once from each enclosing
    # FunctionDef — identical findings collapse to one
    kept = {v for v in found if v.rule not in noqa.get(v.line, set())}
    return sorted(kept, key=lambda v: (v.path, v.line, v.col, v.rule))


def _iter_files(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(
                f for f in sorted(path.rglob("*.py")) if "__pycache__" not in f.parts
            )
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Sequence[str], rules: Sequence[str] | None = None
) -> tuple[list[Violation], int]:
    """Lint files/directories; returns (violations, number of files seen)."""
    violations: list[Violation] = []
    files = _iter_files(paths)
    for f in files:
        violations.extend(lint_source(f.read_text(), str(f), rules=rules))
    return violations, len(files)


def to_json(violations: Sequence[Violation], n_files: int) -> str:
    return json.dumps(
        {
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
            "files": n_files,
        },
        indent=2,
    )
