"""Text formats: formula grammar, structure documents, DOT export.

The formula grammar uses ASCII keywords and operators
(``forall``/``exists``, ``! & | -> <->``, ``= != < > ~`` and prefix
``t(u,v)``).  Structure documents are line-oriented key/value text meant to
be human-auditable and diff-friendly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .factorization import Factorization
from .logic import (
    And,
    Atom,
    DistKind,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    LogicError,
    Not,
    Or,
    Signature,
    Structure,
    TRUE,
    atom,
    check_distinguished,
    conj,
    eq,
    neg,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise LogicError("inverted source span")


class ParseError(LogicError):
    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.span = span


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|!=|[()!&|<>~=,]))"
)

_KEYWORDS = {"forall", "exists", "true", "false"}

#: Deepest nesting of parentheses, negations, quantifiers and implications
#: that the parser accepts.  The parser and the formula walkers run after it
#: (simplify, print_formula, the normal forms, the engines) recurse once or
#: more per level, so this keeps them all under Python's recursion limit.
MAX_NESTING = 64


@dataclass(frozen=True)
class _Token:
    kind: str  # 'name', 'op', 'eof'
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", SourceSpan(at, at + 1))
        pos = m.end()
        if m.group("name") is not None:
            kind = "name"
            span = SourceSpan(m.start("name"), m.end("name"))
            tok = m.group("name")
        else:
            kind = "op"
            span = SourceSpan(m.start("op"), m.end("op"))
            tok = m.group("op")
        out.append(_Token(kind, tok, span))
    out.append(_Token("eof", "", SourceSpan(len(text), len(text))))
    return out


class _Parser:
    def __init__(self, text: str, sig: Signature) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, parse, tok: _Token) -> Formula:
        """Run a sub-parser one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", tok.span)
        f = parse()
        self.depth -= 1
        return f

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.span)
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.span)
        return f

    def formula(self) -> Formula:
        left = self.implication()
        while self.peek().text == "<->":
            self.take()
            right = self.implication()
            left = And((Implies(left, right), Implies(right, left)))
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "->":
            tok = self.take()
            return Implies(left, self.nested(self.implication, tok))
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek().text == "|":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.take()
            return neg(self.nested(self.unary, tok))
        if tok.text in ("forall", "exists"):
            self.take()
            var = self.variable()
            body = self.nested(self.unary, tok)
            return Forall(var, body) if tok.text == "forall" else Exists(var, body)
        return self.primary()

    def variable(self) -> str:
        tok = self.take()
        if tok.text in ("x", "y"):
            return tok.text
        raise ParseError(f"only variables x and y are allowed, found {tok.text!r}", tok.span)

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            f = self.nested(self.formula, tok)
            self.expect(")")
            return f
        if tok.text == "true":
            self.take()
            return TRUE
        if tok.text == "false":
            self.take()
            return FALSE
        if tok.kind == "name":
            if tok.text in ("x", "y"):
                return self.infix_atom()
            return self.predicate_atom()
        raise ParseError(f"expected a formula, found {tok.text!r}", tok.span)

    def infix_atom(self) -> Formula:
        left = self.variable()
        op = self.take()
        if op.text not in ("<", ">", "~", "=", "!="):
            raise ParseError(f"expected a relation symbol, found {op.text!r}", op.span)
        right = self.variable()
        if op.text in ("<", ">", "~"):
            if self.sig.dist is not DistKind.PARTIAL_ORDER:
                raise ParseError(
                    f"{op.text!r} requires a partial-order signature", op.span
                )
            return atom(op.text, left, right)
        if op.text == "=":
            return eq(left, right)
        return neg(eq(left, right))

    def predicate_atom(self) -> Formula:
        tok = self.take()
        name = tok.text
        if name == "t":
            if self.sig.dist is not DistKind.TRANSITIVE:
                raise ParseError("'t' requires a transitive signature", tok.span)
            arity = 2
        elif name in self.sig.unary:
            arity = 1
        elif name in self.sig.binary:
            arity = 2
        else:
            raise ParseError(f"unknown predicate {name!r}", tok.span)
        self.expect("(")
        args = [self.variable()]
        if arity == 2:
            self.expect(",")
            args.append(self.variable())
        self.expect(")")
        return atom(name, *args)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a formula over the given signature; errors carry source spans."""
    return _Parser(text, sig).parse()


_LEVEL_IFF = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4


def _print(f: Formula, level: int) -> str:
    if f == TRUE:
        return "true"
    if f == FALSE:
        return "false"
    if isinstance(f, Atom):
        if f.pred in ("<", "~"):
            s = f"{f.args[0]} {f.pred} {f.args[1]}"
            return s if level <= _LEVEL_AND else f"({s})"
        return f"{f.pred}({', '.join(f.args)})"
    if isinstance(f, Eq):
        s = f"{f.left} = {f.right}"
        return s if level <= _LEVEL_AND else f"({s})"
    if isinstance(f, Not):
        if isinstance(f.sub, Eq):
            s = f"{f.sub.left} != {f.sub.right}"
            return s if level <= _LEVEL_AND else f"({s})"
        return "!" + _print(f.sub, _LEVEL_UNARY + 1)
    if isinstance(f, And):
        if len(f.subs) == 1:
            return _print(f.subs[0], level)
        s = " & ".join(_print(g, _LEVEL_UNARY) for g in f.subs)
        return s if level <= _LEVEL_AND else f"({s})"
    if isinstance(f, Or):
        if len(f.subs) == 1:
            return _print(f.subs[0], level)
        s = " | ".join(_print(g, _LEVEL_AND) for g in f.subs)
        return s if level <= _LEVEL_OR else f"({s})"
    if isinstance(f, Implies):
        s = f"{_print(f.left, _LEVEL_OR)} -> {_print(f.right, _LEVEL_IFF)}"
        return s if level <= _LEVEL_IFF else f"({s})"
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        if isinstance(f.body, (Forall, Exists)):
            body = _print(f.body, _LEVEL_UNARY)
        else:
            body = f"({_print(f.body, _LEVEL_IFF)})"
        s = f"{kw} {f.var} {body}"
        return s if level <= _LEVEL_UNARY else f"({s})"
    raise LogicError(f"bad formula node {f!r}")


def print_formula(f: Formula) -> str:
    """Render a formula; parsing the result reproduces the tree."""
    return _print(f, _LEVEL_IFF)


# ---------------------------------------------------------------------------
# Structure documents
# ---------------------------------------------------------------------------


class DocumentError(LogicError):
    def __init__(self, message: str, line: Optional[int] = None) -> None:
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.line = line


def write_structure(s: Structure) -> str:
    lines = [f"signature: {s.sig.dist.value}"]
    lines.append("unary: " + " ".join(s.sig.unary))
    lines.append("binary: " + " ".join(s.sig.binary))
    lines.append(f"size: {s.size}")
    for p in s.sig.unary:
        lines.append(f"set {p}: " + " ".join(str(a) for a in sorted(s.unary_of(p))))
    for r in s.sig.binary:
        lines.append(
            f"rel {r}: " + " ".join(f"{a},{b}" for a, b in sorted(s.binary_of(r)))
        )
    if s.sig.dist is not DistKind.NONE:
        lines.append("dist: " + " ".join(f"{a},{b}" for a, b in sorted(s.dist)))
    return "\n".join(lines) + "\n"


def _parse_pairs(chunk: str, line_no: int) -> frozenset[tuple[int, int]]:
    pairs = set()
    for item in chunk.split():
        m = re.fullmatch(r"(\d+),(\d+)", item)
        if not m:
            raise DocumentError(f"bad pair {item!r}", line_no)
        pairs.add((int(m.group(1)), int(m.group(2))))
    return frozenset(pairs)


def read_structure(text: str) -> Structure:
    """Parse a structure document; the distinguished relation is validated
    and violations are rejected."""
    fields: dict[str, tuple[str, int]] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DocumentError(f"missing ':' in {line!r}", i)
        key, _, value = line.partition(":")
        key = key.strip()
        if key in fields:
            raise DocumentError(f"duplicate key {key!r}", i)
        fields[key] = (value.strip(), i)

    def pop(key: str) -> tuple[str, int]:
        if key not in fields:
            raise DocumentError(f"missing key {key!r}")
        return fields.pop(key)

    kind_text, kind_line = pop("signature")
    try:
        dist = DistKind(kind_text)
    except ValueError:
        raise DocumentError(f"unknown signature kind {kind_text!r}", kind_line)
    unary = tuple(pop("unary")[0].split()) if "unary" in fields else ()
    binary = tuple(pop("binary")[0].split()) if "binary" in fields else ()
    sig = Signature(unary, binary, dist)
    size_text, size_line = pop("size")
    if not size_text.isdigit() or int(size_text) < 1:
        raise DocumentError(f"bad size {size_text!r}", size_line)
    size = int(size_text)
    unary_val = {}
    binary_val = {}
    dist_rel: frozenset[tuple[int, int]] = frozenset()
    for key in list(fields):
        value, line_no = fields.pop(key)
        if key.startswith("set "):
            name = key[4:].strip()
            if name not in sig.unary:
                raise DocumentError(f"unknown unary predicate {name!r}", line_no)
            try:
                unary_val[name] = frozenset(int(v) for v in value.split())
            except ValueError:
                raise DocumentError(f"bad element list {value!r}", line_no)
        elif key.startswith("rel "):
            name = key[4:].strip()
            if name not in sig.binary:
                raise DocumentError(f"unknown binary predicate {name!r}", line_no)
            binary_val[name] = _parse_pairs(value, line_no)
        elif key == "dist":
            if dist is DistKind.NONE:
                raise DocumentError("dist extension given for a plain signature", line_no)
            dist_rel = _parse_pairs(value, line_no)
        else:
            raise DocumentError(f"unknown key {key!r}", line_no)
    try:
        s = Structure(sig, size, unary_val, binary_val, dist_rel)
    except LogicError as e:
        raise DocumentError(str(e))
    violations = check_distinguished(s)
    if violations:
        raise DocumentError("; ".join(violations))
    return s


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_factorization_dot(f: Factorization) -> str:
    """Render a factorization: one node per block (1-type and cardinality),
    covering edges of the block order, extremal blocks drawn thick."""
    lines = ["digraph factorization {", "  rankdir=BT;"]
    for i in range(f.n_blocks):
        label = f"{f.block_types[i].label()} | n={len(f.blocks[i])}"
        style = ", penwidth=3" if i in f.extremal_blocks else ""
        lines.append(f'  b{i} [label="{label}"{style}];')
    for i, j in sorted(f.covers()):
        lines.append(f"  b{i} -> b{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
