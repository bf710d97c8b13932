"""The determinism sanitizer: an AST self-lint over ``src/repro``.

Every simulation result in this repository is fingerprinted, cached,
journaled and replayed; a single nondeterminism source silently poisons
all four.  ``repro sanitize`` walks the package's own Python source and
flags the classic sources:

======  ====================  ==========================================
code    name                  what it flags
======  ====================  ==========================================
S001    unseeded-rng          RNG construction/use with no explicit
                              seed (``default_rng()``, the ``random``
                              or ``np.random`` module-level globals)
S002    wall-clock-read       ``time.time``/``datetime.now``-style
                              calls inside deterministic zones
                              (fingerprinted / cached / journaled
                              paths)
S003    non-atomic-write      write-mode ``open`` in a persistence
                              zone inside a function that never
                              ``os.replace``/``os.rename``'s a temp
                              file into place
S004    iteration-order-leak  ``json.dump(s)`` without
                              ``sort_keys=True`` in a deterministic
                              zone (dict order leaks into checksums)
S005    unstable-hash         builtin ``hash()`` in a deterministic
                              zone (salted per process since PEP 456)
======  ====================  ==========================================

S001 applies package-wide; the zone rules apply to the modules listed
in :data:`DETERMINISTIC_ZONES` / :data:`PERSISTENCE_ZONES`.  A finding
is suppressed by a ``# sanitize: ok`` pragma (optionally naming codes,
``# sanitize: ok S003``) on the flagged line or the line above — for
the places where the pattern is the *point* (quarantining a torn
journal tail is deliberately a plain write).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

#: Modules whose behaviour feeds fingerprints, caches, journals or
#: replay — wall-clock reads and iteration-order leaks are bugs here.
DETERMINISTIC_ZONES: Tuple[str, ...] = (
    "core/persistence.py",
    "exec/cache.py",
    "exec/request.py",
    "serve/journal.py",
    "runtime/engine.py",
    "analysis/determinism.py",
)

#: Modules that persist state across crashes — plain write-mode
#: ``open`` here risks torn files.
PERSISTENCE_ZONES: Tuple[str, ...] = (
    "core/persistence.py",
    "core/training.py",
    "exec/cache.py",
    "serve/journal.py",
)

_PRAGMA_RE = re.compile(
    r"#\s*sanitize:\s*ok(?P<codes>(?:\s+S\d{3})*)", re.IGNORECASE
)

#: ``random`` module-level functions backed by the global (unseeded) RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "choice",
    "choices", "sample", "shuffle", "normalvariate", "betavariate",
})

_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


@dataclass(frozen=True)
class SanitizeRule:
    """Metadata for one sanitizer rule (for ``--help``, docs, SARIF)."""

    code: str
    name: str
    severity: str  # "error" | "warning"
    summary: str


_RULES: Dict[str, SanitizeRule] = {
    rule.code: rule
    for rule in (
        SanitizeRule(
            "S001", "unseeded-rng", "error",
            "random number generator constructed or used without an "
            "explicit seed",
        ),
        SanitizeRule(
            "S002", "wall-clock-read", "error",
            "wall-clock read inside a fingerprinted/cached/journaled "
            "path",
        ),
        SanitizeRule(
            "S003", "non-atomic-write", "error",
            "write-mode open in a persistence path without an atomic "
            "os.replace/os.rename publish",
        ),
        SanitizeRule(
            "S004", "iteration-order-leak", "warning",
            "json.dump(s) without sort_keys=True in a deterministic "
            "path: dict iteration order leaks into checksums",
        ),
        SanitizeRule(
            "S005", "unstable-hash", "warning",
            "builtin hash() in a deterministic path is salted per "
            "process",
        ),
    )
}


def all_sanitize_rules() -> List[SanitizeRule]:
    """Every sanitizer rule, ordered by code."""
    return [_RULES[code] for code in sorted(_RULES)]


@dataclass(frozen=True)
class SanitizeFinding:
    """One sanitizer finding at one source location."""

    code: str
    name: str
    severity: str
    message: str
    path: str  # posix-relative to the scanned root
    line: int
    column: int

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: {self.code} "
            f"{self.severity}: {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
        }

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)


def sanitize_findings_failed(
    findings: Sequence[SanitizeFinding], strict: bool = False
) -> bool:
    """Gate verdict: errors always fail, warnings fail under strict."""
    if strict:
        return bool(findings)
    return any(f.severity == "error" for f in findings)


def _in_zone(path: str, zones: Sequence[str]) -> bool:
    return any(path.endswith(zone) for zone in zones)


def _pragma_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Pragma map: line -> suppressed codes (None = all codes)."""
    pragmas: Dict[int, Optional[Set[str]]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        codes = {
            c.upper() for c in match.group("codes").split()
        }
        pragmas[number] = codes or None
    return pragmas


def _call_target(node: ast.Call) -> Tuple[Optional[str], str]:
    """``(qualifier, attribute)`` of a call: ``np.random.rand`` ->
    ``("random", "rand")``; a bare name -> ``(None, name)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        qualifier: Optional[str] = None
        if isinstance(func.value, ast.Name):
            qualifier = func.value.id
        elif isinstance(func.value, ast.Attribute):
            qualifier = func.value.attr
        return qualifier, func.attr
    return None, ""


def _has_arguments(node: ast.Call) -> bool:
    return bool(node.args) or bool(node.keywords)


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode of an ``open``/``os.fdopen`` call, if constant."""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    keyword_mode = _keyword(node, "mode")
    if keyword_mode is not None:
        mode = keyword_mode
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


class _Scan(ast.NodeVisitor):
    """Single-pass AST scan producing raw findings."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[SanitizeFinding] = []
        self.deterministic = _in_zone(path, DETERMINISTIC_ZONES)
        self.persistence = _in_zone(path, PERSISTENCE_ZONES)
        # Function scopes that publish atomically (os.replace/rename):
        # their write-mode opens are staging writes, not torn-file
        # risks.  Pre-computed before the visit.
        self._atomic_scopes: Set[ast.AST] = set()
        self._scopes: List[ast.AST] = []

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        rule = _RULES[code]
        self.findings.append(SanitizeFinding(
            code=code,
            name=rule.name,
            severity=rule.severity,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
        ))

    # -- scope bookkeeping -------------------------------------------------

    def scan(self, tree: ast.AST) -> List[SanitizeFinding]:
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        qualifier, attribute = _call_target(node)
                        if (qualifier == "os"
                                and attribute in ("replace", "rename")):
                            self._atomic_scopes.add(scope)
        self._visit_with_scopes(tree)
        return self.findings

    def _visit_with_scopes(self, node: ast.AST) -> None:
        is_scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_scope:
            self._scopes.append(node)
        for child in ast.iter_child_nodes(node):
            self._visit_with_scopes(child)
        if isinstance(node, ast.Call):
            self._check_call(node)
        if is_scope:
            self._scopes.pop()

    def _in_atomic_scope(self) -> bool:
        return any(scope in self._atomic_scopes for scope in self._scopes)

    # -- the rules ---------------------------------------------------------

    def _check_call(self, node: ast.Call) -> None:
        qualifier, attribute = _call_target(node)
        self._check_rng(node, qualifier, attribute)
        if self.deterministic:
            self._check_wall_clock(node, qualifier, attribute)
            self._check_json_order(node, qualifier, attribute)
            self._check_hash(node, qualifier, attribute)
        if self.persistence:
            self._check_atomic_write(node, qualifier, attribute)

    def _check_rng(self, node: ast.Call, qualifier: Optional[str],
                   attribute: str) -> None:
        if attribute == "default_rng" and not _has_arguments(node):
            self._emit(
                "S001",
                "default_rng() without a seed draws OS entropy; pass "
                "an explicit seed so runs replay bit-identically",
                node,
            )
            return
        if attribute == "Random" and qualifier == "random" \
                and not _has_arguments(node):
            self._emit(
                "S001",
                "random.Random() without a seed is nondeterministic; "
                "pass an explicit seed",
                node,
            )
            return
        if qualifier == "random" and attribute in _GLOBAL_RANDOM_FNS:
            self._emit(
                "S001",
                f"module-level random.{attribute}() uses the global "
                f"unseeded RNG; use a seeded Generator instance",
                node,
            )

    def _check_wall_clock(self, node: ast.Call,
                          qualifier: Optional[str],
                          attribute: str) -> None:
        if (qualifier, attribute) in _WALL_CLOCK:
            self._emit(
                "S002",
                f"{qualifier}.{attribute}() reads the wall clock in a "
                f"deterministic path; results must depend only on "
                f"inputs and seeds",
                node,
            )

    def _check_json_order(self, node: ast.Call,
                          qualifier: Optional[str],
                          attribute: str) -> None:
        if qualifier != "json" or attribute not in ("dump", "dumps"):
            return
        sort_keys = _keyword(node, "sort_keys")
        if (sort_keys is None
                or not (isinstance(sort_keys, ast.Constant)
                        and sort_keys.value is True)):
            self._emit(
                "S004",
                f"json.{attribute}() without sort_keys=True leaks dict "
                f"iteration order into a checksummed/journaled "
                f"document",
                node,
            )

    def _check_hash(self, node: ast.Call, qualifier: Optional[str],
                    attribute: str) -> None:
        if qualifier is None and attribute == "hash":
            self._emit(
                "S005",
                "builtin hash() is salted per process (PEP 456); use "
                "hashlib for stable digests",
                node,
            )

    def _check_atomic_write(self, node: ast.Call,
                            qualifier: Optional[str],
                            attribute: str) -> None:
        if not (qualifier is None and attribute == "open"):
            return
        mode = _open_mode(node)
        if mode is None or not any(flag in mode for flag in ("w", "x")):
            return  # reads, appends ("a") and unknown modes pass
        if self._in_atomic_scope():
            return
        self._emit(
            "S003",
            f"open(..., {mode!r}) in a persistence path without an "
            f"os.replace/os.rename publish in the same function; a "
            f"crash mid-write tears the file",
            node,
        )


def sanitize_source(
    source: str, path: str = "<memory>"
) -> List[SanitizeFinding]:
    """Findings for one Python source text (pragmas honoured)."""
    tree = ast.parse(source, filename=path)
    findings = _Scan(path).scan(tree)
    pragmas = _pragma_lines(source)
    kept: List[SanitizeFinding] = []
    for finding in findings:
        suppressed = False
        for line in (finding.line, finding.line - 1):
            if line not in pragmas:
                continue
            codes = pragmas[line]
            if codes is None or finding.code in codes:
                suppressed = True
                break
        if not suppressed:
            kept.append(finding)
    return kept


def sanitize_path(
    file_path: Union[str, Path], root: Union[str, Path, None] = None
) -> List[SanitizeFinding]:
    """Findings for one file, labelled relative to ``root``."""
    file_path = Path(file_path)
    label = file_path.as_posix()
    if root is not None:
        try:
            label = file_path.relative_to(Path(root)).as_posix()
        except ValueError:
            label = file_path.as_posix()
    with open(file_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return sanitize_source(source, label)


def sanitize_tree(root: Union[str, Path]) -> List[SanitizeFinding]:
    """Findings for every ``*.py`` under ``root``, sorted and deduped."""
    root = Path(root)
    findings: List[SanitizeFinding] = []
    for file_path in sorted(root.rglob("*.py")):
        findings.extend(sanitize_path(file_path, root=root))
    unique = list(dict.fromkeys(findings))
    unique.sort(key=SanitizeFinding.sort_key)
    return unique


__all__ = [
    "DETERMINISTIC_ZONES",
    "PERSISTENCE_ZONES",
    "SanitizeFinding",
    "SanitizeRule",
    "all_sanitize_rules",
    "sanitize_findings_failed",
    "sanitize_path",
    "sanitize_source",
    "sanitize_tree",
]
