"""Source model: files, the include graph, and contract-class fields.

The include graph exists for scope propagation: a header is covered by
the determinism rules not because of where it sits but because of who
includes it — common/relaxed_counter.h is deterministic-path code the
moment compression/codec.h pulls it in. Scope is therefore computed
as "lives in a scoped directory, or is (transitively) included by a
file that does".
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from . import lexer

CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^">]+)[">]', re.M)

ACCESS_RE = re.compile(r"\b(public|private|protected)\s*:")

CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")

CONTRACT_MARKER = "ANOC_ISOLATION_CONTRACT"
FIELD_ANNOTATIONS = ("ANOC_SHARD_LOCAL", "ANOC_CROSS_SHARD",
                     "ANOC_REGION_SHARED")

# Statement openers that can never be a data-member declaration.
NON_FIELD_KEYWORDS = (
    "using", "typedef", "friend", "template", "static", "enum",
    "class", "struct", "union", "public", "private", "protected",
    "static_assert", "explicit", "virtual", "operator",
    CONTRACT_MARKER,
)


@dataclass
class Include:
    line: int
    target: str      # include path as written
    system: bool     # <...> include


@dataclass
class Field:
    """One data-member declaration of a contract-marked class."""

    line: int            # 1-based line of the statement's first token
    col: int             # 0-based column of the statement's first token
    name: str
    decl: str            # normalized one-line declaration text
    annotation: str | None       # which ANOC_* macro, if any
    annotation_arg: str | None   # ANOC_CROSS_SHARD argument
    is_relaxed_counter: bool


@dataclass
class ContractClass:
    name: str
    line: int
    contracts: tuple[str, ...]   # ANOC_ISOLATION_CONTRACT arguments
    fields: list[Field] = field(default_factory=list)


@dataclass
class SourceFile:
    path: str        # repo-relative, forward slashes
    text: str
    sanitized: str = ""
    suppressions: list[lexer.Suppression] = field(default_factory=list)
    includes: list[Include] = field(default_factory=list)
    in_scope: bool = False   # determinism (D-rule) scope
    classes: list[ContractClass] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sanitized = lexer.sanitize(self.text)
        self.suppressions = lexer.parse_suppressions(self.text)
        for m in INCLUDE_RE.finditer(self.sanitized):
            line = self.sanitized.count("\n", 0, m.start()) + 1
            self.includes.append(
                Include(line, m.group(2), m.group(1) == "<"))
        self.classes = _extract_contract_classes(self.sanitized)


class Tree:
    """Every C++ source under the repo root, plus the include graph."""

    def __init__(self, root: str, scoped_dirs: tuple[str, ...],
                 source_dirs: tuple[str, ...]):
        self.root = root
        self.files: dict[str, SourceFile] = {}
        for d in source_dirs:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _dirnames, filenames in os.walk(base):
                for fn in sorted(filenames):
                    if not fn.endswith(CPP_EXTS):
                        continue
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    with open(full, encoding="utf-8") as f:
                        self.files[rel] = SourceFile(rel, f.read())
        self._compute_scope(scoped_dirs)

    def resolve_include(self, target: str) -> str | None:
        """Repo includes are rooted at src/ (see CMake include dirs)."""
        for cand in ("src/" + target, target):
            if cand in self.files:
                return cand
        return None

    def _compute_scope(self, scoped_dirs: tuple[str, ...]) -> None:
        """Seed from scoped directories, then pull in every repo file a
        scoped file (transitively) includes."""
        work = [p for p in self.files
                if p.startswith(scoped_dirs)]
        for p in work:
            self.files[p].in_scope = True
        while work:
            cur = work.pop()
            for inc in self.files[cur].includes:
                if inc.system:
                    continue
                dep = self.resolve_include(inc.target)
                if dep is not None and not self.files[dep].in_scope:
                    self.files[dep].in_scope = True
                    work.append(dep)


def _extract_contract_classes(sanitized: str) -> list[ContractClass]:
    """Find ANOC_ISOLATION_CONTRACT-marked class bodies and their
    top-level data-member declarations."""
    classes: list[ContractClass] = []
    for m in CLASS_RE.finditer(sanitized):
        open_brace = _body_open(sanitized, m.end())
        if open_brace < 0:
            continue  # forward declaration or parse giveup
        close_brace = _match_brace(sanitized, open_brace)
        body = sanitized[open_brace + 1 : close_brace]
        marker = re.search(CONTRACT_MARKER + r"\s*\(([^)]*)\)", body)
        if not marker:
            continue
        contracts = tuple(a.strip() for a in marker.group(1).split(",")
                          if a.strip())
        line = sanitized.count("\n", 0, m.start()) + 1
        cls = ContractClass(m.group(2), line, contracts)
        cls.fields = _extract_fields(sanitized, open_brace + 1, close_brace)
        classes.append(cls)
    return classes


def _body_open(s: str, pos: int) -> int:
    """Index of the `{` opening the class body, or -1 when the
    construct turns out to be a forward declaration / variable."""
    depth = 0
    for i in range(pos, len(s)):
        c = s[i]
        if c == ";" and depth == 0:
            return -1
        if c in "(<":
            depth += 1
        elif c in ")>":
            depth = max(0, depth - 1)
        elif c == "{" and depth == 0:
            return i
    return -1


def _match_brace(s: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(s)):
        if s[i] == "{":
            depth += 1
        elif s[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(s) - 1


def _extract_fields(sanitized: str, start: int, end: int) -> list[Field]:
    """Split the class body into top-level statements and keep the ones
    that look like data members.

    A statement is everything up to a `;` at relative depth 0; a `{...}`
    block at depth 0 (method body, nested class) fast-forwards past its
    contents — nested members belong to the nested type's own contract,
    not this one.
    """
    fields: list[Field] = []
    i = start
    stmt_begin = start
    while i < end:
        c = sanitized[i]
        if c == "{":
            i = _match_brace(sanitized, i) + 1
            # In-class definitions end at `}` (optionally `};` for
            # nested types) — either way the statement is over.
            if i < end and sanitized[i] == ";":
                i += 1
            stmt_begin = i
            continue
        if c == ";":
            f = _classify_field(sanitized, stmt_begin, i)
            if f is not None:
                fields.append(f)
            i += 1
            stmt_begin = i
            continue
        i += 1
    return fields


def _classify_field(sanitized: str, begin: int, end: int) -> Field | None:
    stmt = sanitized[begin:end]
    # Access specifiers may share the statement span; cut after the
    # last one so `private: Foo bar_` classifies the declaration.
    last_access = None
    for am in ACCESS_RE.finditer(stmt):
        last_access = am
    if last_access is not None:
        begin += last_access.end()
        stmt = sanitized[begin:end]
    if not stmt.strip():
        return None

    first_tok = re.match(r"\s*([A-Za-z_]\w*)", stmt)
    if not first_tok:
        return None
    # `mutable` is a field-only qualifier; skip it before keyword test.
    lead = first_tok.group(1)
    rest_off = first_tok.end()
    if lead == "mutable":
        nxt = re.match(r"\s*([A-Za-z_]\w*)", stmt[rest_off:])
        lead_after = nxt.group(1) if nxt else ""
    else:
        lead_after = lead
    if lead_after in NON_FIELD_KEYWORDS:
        return None

    annotation = None
    annotation_arg = None
    for ann in FIELD_ANNOTATIONS:
        if re.search(r"\b" + ann + r"\b", stmt):
            annotation = ann
            if ann == "ANOC_CROSS_SHARD":
                argm = re.search(ann + r"\s*\(([^)]*)\)", stmt)
                annotation_arg = argm.group(1).strip() if argm else ""
            break

    # Decide field vs. function on the angle-stripped text: a paren at
    # top level means a signature (or a constructor-style initializer,
    # which this codebase does not use for members).
    flat = lexer.strip_angles(stmt)
    flat_wo_ann = flat
    for ann in FIELD_ANNOTATIONS:
        flat_wo_ann = re.sub(ann + r"\s*(\([^)]*\))?", " ", flat_wo_ann)
    if "(" in flat_wo_ann:
        return None
    # Name: last identifier before initializer/subscript/end.
    head = re.split(r"[={\[]", flat_wo_ann, maxsplit=1)[0]
    idents = re.findall(r"[A-Za-z_]\w*", head)
    if not idents:
        return None
    name = idents[-1]
    if name in ("const", "constexpr", "inline", "volatile"):
        return None

    # Position of the statement's first non-space character.
    tok_off = begin + len(stmt) - len(stmt.lstrip())
    line = sanitized.count("\n", 0, tok_off) + 1
    col = tok_off - (sanitized.rfind("\n", 0, tok_off) + 1)
    decl = " ".join(stmt.split())
    return Field(line, col, name, decl, annotation, annotation_arg,
                 "RelaxedCounter" in stmt)
