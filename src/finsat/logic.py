"""Syntax, finite structures and type machinery for two-variable logic.

The logics handled here are plain two-variable first-order logic and its
extensions with one distinguished binary relation constrained to be a strict
partial order or a transitive relation.  Everything in this module is
immutable and side-effect free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Callable, Iterator, Mapping, Optional, Union


class LogicError(Exception):
    """Base class for errors raised by this package."""


class SignatureMismatchError(LogicError):
    """A formula or structure refers to predicates outside its signature."""


class PreconditionError(LogicError):
    """An operation was called outside its stated precondition."""


class BudgetExceeded(LogicError):
    """Raised when a search exhausts its node budget."""


class EnumerationBudgetError(LogicError):
    """Raised when an enumeration would be too large to run at all."""


class VerificationFailure(LogicError):
    """An internal postcondition check failed; carries a reproduction bundle."""

    def __init__(self, message: str, bundle: str = "") -> None:
        super().__init__(message if not bundle else f"{message}\n--- reproduction ---\n{bundle}")
        self.bundle = bundle


class DistKind(Enum):
    NONE = "none"
    PARTIAL_ORDER = "partial_order"
    TRANSITIVE = "transitive"


#: Names that may never be used for ordinary predicates.
RESERVED_NAMES = frozenset(
    {"=", "<", ">", "~", "t", "t_eq", "t_lt", "t_gt", "t_sim", "true", "false"}
)

VARIABLES = ("x", "y")


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Unary and ordinary binary predicate names plus the distinguished kind.

    The order of the name tuples is significant: it fixes the bit layout of
    1- and 2-types and hence every deterministic enumeration downstream.
    """

    unary: tuple[str, ...] = ()
    binary: tuple[str, ...] = ()
    dist: DistKind = DistKind.NONE

    def __post_init__(self) -> None:
        names = list(self.unary) + list(self.binary)
        if len(set(names)) != len(names):
            raise SignatureMismatchError(f"duplicate predicate names in {names}")
        bad = sorted(set(names) & RESERVED_NAMES)
        if bad:
            raise SignatureMismatchError(f"reserved names used as ordinary predicates: {bad}")

    @property
    def dist_name(self) -> Optional[str]:
        if self.dist is DistKind.PARTIAL_ORDER:
            return "<"
        if self.dist is DistKind.TRANSITIVE:
            return "t"
        return None

    def with_unary(self, names: tuple[str, ...]) -> "Signature":
        return Signature(self.unary + names, self.binary, self.dist)

    def one_type_keys(self) -> tuple[tuple, ...]:
        """The atom keys of the atoms in x that decide a 1-type, in bit
        order: p(x) per unary predicate, then r(x,x) per ordinary binary,
        then (for transitive signatures) t(x,x).  The diagonal of a partial
        order is forced false and carried implicitly."""
        return self._one_type_keys

    @cached_property
    def _one_type_keys(self) -> tuple[tuple, ...]:
        keys = [("u", p, "x") for p in self.unary]
        keys.extend(("b", r, "x", "x") for r in self.binary)
        if self.dist is DistKind.TRANSITIVE:
            keys.append(("t", "x", "x"))
        return tuple(keys)

    @cached_property
    def one_type_bit(self) -> dict[tuple, int]:
        """Bit position of each of one_type_keys() in a 1-type."""
        return {key: i for i, key in enumerate(self._one_type_keys)}


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    subs: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    subs: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, Eq, Not, And, Or, Implies, Forall, Exists]

TRUE = And(())
FALSE = Or(())


def atom(pred: str, *args: str) -> Formula:
    """Build an atom, canonicalizing the derived navigational predicates.

    ``>`` becomes ``<`` with swapped arguments; ``~`` is symmetric and kept
    with arguments in variable order; reflexive ``<``/``~`` atoms collapse to
    falsum (irreflexivity), reflexive equality to verum.
    """
    for a in args:
        if a not in VARIABLES:
            raise LogicError(f"bad variable {a!r}")
    if pred == ">":
        pred, args = "<", (args[1], args[0])
    if pred in ("<", "~") and args[0] == args[1]:
        return FALSE
    if pred == "~" and args != ("x", "y"):
        args = ("x", "y")
    return Atom(pred, tuple(args))


def eq(u: str, v: str) -> Formula:
    if u == v:
        return TRUE
    return Eq(u, v)


def neg(f: Formula) -> Formula:
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def conj(parts) -> Formula:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts) -> Formula:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def t_rel(kind: str, u: str = "x", v: str = "y") -> Formula:
    """The derived clique-order relations of a transitive signature.

    ``eq``: mutual t and distinctness; ``lt``/``gt``: one-directional t;
    ``sim``: no t either way plus distinctness.
    """
    txy, tyx = Atom("t", (u, v)), Atom("t", (v, u))
    distinct = neg(eq(u, v))
    if kind == "eq":
        return And((txy, tyx, distinct))
    if kind == "lt":
        return And((txy, neg(tyx)))
    if kind == "gt":
        return And((neg(txy), tyx))
    if kind == "sim":
        return And((neg(txy), neg(tyx), distinct))
    raise LogicError(f"bad relation kind {kind!r}")


def free_vars(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    bound: set[str] = set()
    # A quantifier that binds a fresh variable leaves the variable's name
    # under its body on the stack, to unbind it once the body is walked.
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Atom or t is Eq:
            for a in g.args if t is Atom else (g.left, g.right):
                if a not in bound:
                    out.add(a)
        elif t is Not:
            stack.append(g.sub)
        elif t is And or t is Or:
            stack.extend(g.subs)
        elif t is str:
            bound.discard(g)
        elif t is Forall or t is Exists:
            if g.var not in bound:
                bound.add(g.var)
                stack.append(g.var)
            stack.append(g.body)
        elif t is Implies:
            stack += (g.right, g.left)
        else:
            raise LogicError(f"bad formula node {g!r}")
    return frozenset(out)


def rewrite(f: Formula, fn: Callable[[Formula], Optional[Formula]]) -> Formula:
    """Rebuild f top-down.  fn(g) returns g's replacement, or None to keep
    g's connective and rewrite its parts; an atom or equality that fn
    leaves is kept.  Negations are rebuilt with neg, the other connectives
    and quantifiers as they were."""
    out = fn(f)
    if out is not None:
        return out
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        return neg(rewrite(f.sub, fn))
    if isinstance(f, And):
        return And(tuple(rewrite(g, fn) for g in f.subs))
    if isinstance(f, Or):
        return Or(tuple(rewrite(g, fn) for g in f.subs))
    if isinstance(f, Implies):
        return Implies(rewrite(f.left, fn), rewrite(f.right, fn))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, rewrite(f.body, fn))
    raise LogicError(f"bad formula node {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """Each distinct node of f once, by identity, in pre-order of first
    visit, f first: a shared subtree is walked once however often it
    occurs.  occurrences walks every occurrence."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        key = id(g)
        if key in seen:
            continue
        seen.add(key)
        yield g
        t = type(g)
        if t is Atom or t is Eq:
            continue
        if t is And or t is Or:
            stack.extend(reversed(g.subs))
        elif t is Not:
            stack.append(g.sub)
        elif t is Forall or t is Exists:
            stack.append(g.body)
        elif t is Implies:
            stack += (g.right, g.left)
        else:
            raise LogicError(f"bad formula node {g!r}")


def occurrences(f: Formula) -> Iterator[tuple[Formula, bool, Optional[str]]]:
    """Every node occurrence of f in pre-order, f first, as (node,
    positive, binder): positive is false under an odd number of negations
    and implication antecedents, and binder is the variable of the nearest
    quantifier above the occurrence, None at the top."""
    stack: list = [(f, True, None)]
    while stack:
        g, pos, binder = item = stack.pop()
        yield item
        t = type(g)
        if t is Atom or t is Eq:
            continue
        if t is And or t is Or:
            stack.extend((h, pos, binder) for h in reversed(g.subs))
        elif t is Not:
            stack.append((g.sub, not pos, binder))
        elif t is Forall or t is Exists:
            stack.append((g.body, pos, g.var))
        elif t is Implies:
            stack += ((g.right, pos, binder), (g.left, not pos, binder))
        else:
            raise LogicError(f"bad formula node {g!r}")


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, (Forall, Exists)) for g in subformulas(f))


def substitute(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free variables; quantifiers shadow as usual."""

    def fn(g: Formula) -> Optional[Formula]:
        if isinstance(g, Atom):
            return atom(g.pred, *(mapping.get(a, a) for a in g.args))
        if isinstance(g, Eq):
            return eq(mapping.get(g.left, g.left), mapping.get(g.right, g.right))
        if isinstance(g, (Forall, Exists)):
            inner = {k: v for k, v in mapping.items() if k != g.var}
            return type(g)(g.var, substitute(g.body, inner) if inner else g.body)
        return None

    return rewrite(f, fn)


def _flip(v: str) -> str:
    return "y" if v == "x" else "x"


def swap_xy(f: Formula) -> Formula:
    """Transpose the roles of x and y throughout (bound and free)."""

    def fn(g: Formula) -> Optional[Formula]:
        if isinstance(g, Atom):
            return atom(g.pred, *map(_flip, g.args))
        if isinstance(g, Eq):
            return eq(_flip(g.left), _flip(g.right))
        if isinstance(g, (Forall, Exists)):
            return type(g)(_flip(g.var), swap_xy(g.body))
        return None

    return rewrite(f, fn)


def simplify(f: Formula) -> Formula:
    """Propagate boolean constants; no other rewriting."""
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        return neg(simplify(f.sub))
    if isinstance(f, And):
        parts = []
        for s in f.subs:
            s = simplify(s)
            if s == FALSE:
                return FALSE
            if s == TRUE:
                continue
            if isinstance(s, And):
                parts.extend(s.subs)
            else:
                parts.append(s)
        return conj(parts)
    if isinstance(f, Or):
        parts = []
        for s in f.subs:
            s = simplify(s)
            if s == TRUE:
                return TRUE
            if s == FALSE:
                continue
            if isinstance(s, Or):
                parts.extend(s.subs)
            else:
                parts.append(s)
        return disj(parts)
    if isinstance(f, Implies):
        left, right = simplify(f.left), simplify(f.right)
        if left == FALSE or right == TRUE:
            return TRUE
        if left == TRUE:
            return right
        if right == FALSE:
            return neg(left)
        return Implies(left, right)
    if isinstance(f, (Forall, Exists)):
        body = simplify(f.body)
        if body in (TRUE, FALSE):
            return body
        return type(f)(f.var, body)
    raise LogicError(f"bad formula node {f!r}")


def formula_predicates(f: Formula) -> frozenset[str]:
    return frozenset(g.pred for g in subformulas(f) if isinstance(g, Atom))


def formula_size(f: Formula) -> int:
    """Node occurrences, plus one per atom argument and per binder."""
    return sum(
        1 + len(g.args) if isinstance(g, Atom)
        else 3 if isinstance(g, Eq)
        else 2 if isinstance(g, (Forall, Exists))
        else 1
        for g, _, _ in occurrences(f)
    )


# ---------------------------------------------------------------------------
# Atom keys
# ---------------------------------------------------------------------------


def atom_key(a: Atom, sig: Signature) -> tuple:
    """The one name of an atom over sig, for clauses, grounded variables
    and 1-type bits alike: ("u", p, u), ("b", r, u, v) for an ordinary
    binary (cross or diagonal), ("lt", u, v), ("sim",) for x ~ y, or
    ("t", u, v).  The grounded engine puts elements in place of u and v."""
    name = a.pred
    if name in sig.unary:
        return ("u", name) + a.args
    if name in sig.binary:
        return ("b", name) + a.args
    if name == "<" and sig.dist is DistKind.PARTIAL_ORDER:
        return ("lt",) + a.args
    if name == "~" and sig.dist is DistKind.PARTIAL_ORDER:
        return ("sim",)
    if name == "t" and sig.dist is DistKind.TRANSITIVE:
        return ("t",) + a.args
    raise SignatureMismatchError(f"predicate {name!r} not in signature")


def key_formula(key: tuple) -> Formula:
    kind = key[0]
    if kind in ("u", "b"):
        return Atom(key[1], key[2:])
    if kind == "lt":
        return Atom("<", key[1:])
    if kind == "sim":
        return Atom("~", ("x", "y"))
    if kind == "t":
        return Atom("t", key[1:])
    raise LogicError(f"bad atom key {key!r}")


def swap_key(key: tuple) -> tuple:
    """The key of the atom with x and y exchanged; sim is symmetric."""
    if key[0] == "sim":
        return key
    start = 2 if key[0] in ("u", "b") else 1
    return key[:start] + tuple(map(_flip, key[start:]))


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class Structure:
    """A finite interpretation over dense domain 0..n-1.

    The cardinality-at-least-2 convention is a solver/transformation
    boundary rule, not enforced here: clique enumeration legitimately
    builds one-element structures.
    """

    sig: Signature
    size: int
    unary: Mapping[str, frozenset[int]] = field(default_factory=dict)
    binary: Mapping[str, frozenset[Pair]] = field(default_factory=dict)
    dist: frozenset[Pair] = frozenset()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise LogicError("empty domain")
        for p in self.unary:
            if p not in self.sig.unary:
                raise SignatureMismatchError(f"unary {p!r} not in signature")
        for r in self.binary:
            if r not in self.sig.binary:
                raise SignatureMismatchError(f"binary {r!r} not in signature")
        dom = range(self.size)
        for p, ext in self.unary.items():
            if not all(a in dom for a in ext):
                raise LogicError(f"unary {p!r} extension outside domain")
        for r, ext in self.binary.items():
            if not all(a in dom and b in dom for a, b in ext):
                raise LogicError(f"binary {r!r} extension outside domain")
        if not all(a in dom and b in dom for a, b in self.dist):
            raise LogicError("distinguished extension outside domain")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.size == other.size
            and {p: self.unary_of(p) for p in self.sig.unary}
            == {p: other.unary_of(p) for p in other.sig.unary}
            and {r: self.binary_of(r) for r in self.sig.binary}
            == {r: other.binary_of(r) for r in other.sig.binary}
            and self.dist == other.dist
        )

    def unary_of(self, p: str) -> frozenset[int]:
        return self.unary.get(p, frozenset())

    def binary_of(self, r: str) -> frozenset[Pair]:
        return self.binary.get(r, frozenset())

    def domain(self) -> range:
        return range(self.size)


def check_distinguished(s: Structure) -> list[str]:
    """All violations of the distinguished relation's semantic constraint.

    Empty list iff the structure invariant holds.
    """
    if s.sig.dist is DistKind.NONE:
        return ["distinguished relation present but signature has none"] if s.dist else []
    return order_violations(s.dist, strict=s.sig.dist is DistKind.PARTIAL_ORDER)


def order_violations(rel: frozenset[Pair], strict: bool) -> list[str]:
    """Every failure of transitivity in rel, and of irreflexivity when
    strict.  Empty list iff rel is transitive (a strict partial order).
    Failures come in rel's iteration order of (a,b), then of (b,c)."""
    out = []
    if strict:
        out.extend(f"irreflexivity violated at {a}" for a in sorted(a for a, b in rel if a == b))
    succ: dict[int, list[int]] = {}
    for a, b in rel:
        succ.setdefault(a, []).append(b)
    for a, b in rel:
        for c in succ.get(b, ()):
            if (a, c) not in rel:
                out.append(f"transitivity violated: ({a},{b}),({b},{c}) without ({a},{c})")
    return out


class _Extensions(dict):
    """Predicate name -> (read as unary, extension) over one structure,
    filled on the first atom of each name.  An atom is read by its
    predicate's kind in the signature: unary at its first argument, any
    other at the pair of its arguments.  A name outside the signature
    raises only when an atom reaches it."""

    def __init__(self, s: Structure) -> None:
        self.s = s

    def __missing__(self, name: str) -> tuple[bool, frozenset]:
        s, sig = self.s, self.s.sig
        if name in sig.unary:
            ext = (True, s.unary_of(name))
        elif name in sig.binary:
            ext = (False, s.binary_of(name))
        elif name == sig.dist_name:
            ext = (False, s.dist)
        elif name == "~" and sig.dist is DistKind.PARTIAL_ORDER:
            pairs = itertools.permutations(s.domain(), 2)
            ext = (False, frozenset(p for p in pairs if p not in s.dist and p[::-1] not in s.dist))
        else:
            raise SignatureMismatchError(f"predicate {name!r} not in signature")
        self[name] = ext
        return ext


def evaluate(
    s: Structure, f: Formula, assignment: Optional[Mapping[str, int]] = None
) -> bool:
    """Tarski truth of f in s under a (partial) variable assignment."""
    env = dict(assignment) if assignment else {}
    missing = free_vars(f) - env.keys()
    if missing:
        raise PreconditionError(f"unassigned free variables {sorted(missing)}")
    return tarski(s, env)(f)


def tarski(s: Structure, env: dict[str, int]) -> Callable[[Formula], bool]:
    """The short-circuit truth walk over s, reading and binding variables
    in env.  Unchecked: the caller has checked that env assigns every free
    variable of each formula it passes.  evaluate is the checked entry
    point; a caller that reads fixed formulas often checks them once."""
    table = _Extensions(s)
    dom = s.domain()

    def holds(f: Formula) -> bool:
        t = type(f)
        if t is Atom:
            unary, ext = table[f.pred]
            args = f.args
            if unary:
                return env[args[0]] in ext
            return len(args) == 2 and (env[args[0]], env[args[1]]) in ext
        if t is Not:
            return not holds(f.sub)
        if t is And:
            for g in f.subs:
                if not holds(g):
                    return False
            return True
        if t is Or:
            for g in f.subs:
                if holds(g):
                    return True
            return False
        if t is Eq:
            return env[f.left] == env[f.right]
        if t is Forall or t is Exists:
            var, body, want = f.var, f.body, t is Exists
            saved = env.get(var)
            result = not want
            for a in dom:
                env[var] = a
                if holds(body) is want:
                    result = want
                    break
            if saved is None:
                del env[var]
            else:
                env[var] = saved
            return result
        if t is Implies:
            return not holds(f.left) or holds(f.right)
        raise LogicError(f"bad formula node {f!r}")

    return holds


# ---------------------------------------------------------------------------
# 1-types and 2-types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class OneType:
    """Fixed-width polarity vector over Signature.one_type_keys()."""

    sig: Signature = field(compare=False)
    bits: tuple[bool, ...] = ()
    # shared(key, build) per key: formula(var) per variable, built once so
    # that every formula that mentions this 1-type shares one conjunction.
    _formulas: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.sig.one_type_bit):
            raise LogicError("1-type width does not match signature")

    def polarity(self, key: tuple) -> bool:
        """The bit of one of the signature's 1-type keys."""
        return self.bits[self.sig.one_type_bit[key]]

    def unary_polarity(self, p: str) -> bool:
        return self.polarity(("u", p, "x"))

    @property
    def t_diag(self) -> bool:
        """Polarity of t(x,x); only meaningful for transitive signatures."""
        return self.polarity(("t", "x", "x"))

    def literals(self, var: str = "x") -> tuple[Formula, ...]:
        if var not in VARIABLES:
            raise LogicError(f"bad variable {var!r}")
        keys = self.sig.one_type_keys()
        atoms = map(key_formula, keys if var == "x" else map(swap_key, keys))
        return tuple(a if bit else neg(a) for a, bit in zip(atoms, self.bits))

    def formula(self, var: str = "x") -> Formula:
        return self.shared(var, lambda: conj(self.literals(var)))

    def shared(self, key, build: Callable[[], Formula]) -> Formula:
        """build(), called once per key on this 1-type: every formula
        built from the result shares one object."""
        f = self._formulas.get(key)
        if f is None:
            f = self._formulas[key] = build()
        return f

    def label(self) -> str:
        parts = []
        for key, bit in zip(self.sig.one_type_keys(), self.bits):
            name = "t" if key[0] == "t" else key[1]
            if key[0] != "u":
                name += "(.,.)"
            parts.append(name if bit else "!" + name)
        return " ".join(parts) if parts else "(empty)"


def one_type_of(s: Structure, a: int) -> OneType:
    if a not in s.domain():
        raise PreconditionError(f"element {a} outside domain")
    bits = []
    for key in s.sig.one_type_keys():
        if key[0] == "u":
            bits.append(a in s.unary_of(key[1]))
        elif key[0] == "b":
            bits.append((a, a) in s.binary_of(key[1]))
        else:
            bits.append((a, a) in s.dist)
    return OneType(s.sig, tuple(bits))


def enumerate_one_types(sig: Signature) -> tuple[OneType, ...]:
    """All 1-types over sig in deterministic lexicographic order."""
    width = len(sig.one_type_bit)
    return tuple(
        OneType(sig, bits) for bits in itertools.product((False, True), repeat=width)
    )


_NAV_PAIRS = tuple(itertools.product((False, True), repeat=2))


def _check_nav(sig: Signature, x: OneType, y: OneType, nav: tuple[bool, bool]) -> None:
    if nav not in _NAV_PAIRS:
        raise LogicError("a 2-type needs the (dist(x,y), dist(y,x)) bit pair")
    if sig.dist is DistKind.NONE and any(nav):
        raise LogicError("plain signature admits no distinguished relation")
    if all(nav) and sig.dist is DistKind.PARTIAL_ORDER:
        raise LogicError("a strict partial order holds in at most one direction")
    if all(nav) and not (x.t_diag and y.t_diag):
        raise LogicError("mutual t forces both diagonal t literals")


@dataclass(frozen=True)
class TwoType:
    """Full literal record of an ordered pair of distinct elements."""

    sig: Signature
    x: OneType
    y: OneType
    cross: tuple[tuple[bool, bool], ...]  # (r(x,y), r(y,x)) per ordinary binary
    nav: tuple[bool, bool]  # (dist(x,y), dist(y,x))

    def __post_init__(self) -> None:
        if len(self.cross) != len(self.sig.binary):
            raise LogicError("cross width does not match signature")
        _check_nav(self.sig, self.x, self.y, self.nav)

    def swap(self) -> "TwoType":
        return TwoType(
            self.sig, self.y, self.x, tuple((b, a) for a, b in self.cross), self.nav[::-1]
        )

    def cross_of(self, r: str) -> tuple[bool, bool]:
        return self.cross[self.sig.binary.index(r)]

    def literals(self) -> tuple[Formula, ...]:
        out = list(self.x.literals("x")) + list(self.y.literals("y"))
        for r, (fwd, bwd) in zip(self.sig.binary, self.cross):
            out.append(atom(r, "x", "y") if fwd else neg(atom(r, "x", "y")))
            out.append(atom(r, "y", "x") if bwd else neg(atom(r, "y", "x")))
        fwd, bwd = self.nav
        if self.sig.dist is DistKind.PARTIAL_ORDER:
            pred, args = ("<", "xy") if fwd else ("<", "yx") if bwd else ("~", "xy")
            out.append(atom(pred, *args))
        elif self.sig.dist is DistKind.TRANSITIVE:
            out.append(Atom("t", ("x", "y")) if fwd else neg(Atom("t", ("x", "y"))))
            out.append(Atom("t", ("y", "x")) if bwd else neg(Atom("t", ("y", "x"))))
        return tuple(out)

    def formula(self) -> Formula:
        """The 2-type as a quantifier-free conjunction, x != y left implicit."""
        return conj(self.literals())

    def semi_diagonal(self) -> "SemiDiagonalTwoType":
        return SemiDiagonalTwoType(self.sig, self.x, self.y, self.nav)


@dataclass(frozen=True)
class SemiDiagonalTwoType:
    """A 2-type silent about ordinary binary cross atoms."""

    sig: Signature
    x: OneType
    y: OneType
    nav: tuple[bool, bool]

    def __post_init__(self) -> None:
        _check_nav(self.sig, self.x, self.y, self.nav)

    def extensions(self) -> Iterator[TwoType]:
        """All 2-types refining this semi-diagonal 2-type."""
        for cross in itertools.product(
            itertools.product((False, True), repeat=2), repeat=len(self.sig.binary)
        ):
            yield TwoType(self.sig, self.x, self.y, tuple(cross), self.nav)

    def with_cross(self, cross: tuple[tuple[bool, bool], ...]) -> TwoType:
        return TwoType(self.sig, self.x, self.y, cross, self.nav)


def two_type_of(s: Structure, a: int, b: int) -> TwoType:
    if a == b:
        raise PreconditionError("2-types are defined for distinct elements only")
    cross = tuple(
        ((a, b) in s.binary_of(r), (b, a) in s.binary_of(r)) for r in s.sig.binary
    )
    nav = ((a, b) in s.dist, (b, a) in s.dist)
    return TwoType(s.sig, one_type_of(s, a), one_type_of(s, b), cross, nav)


def enumerate_nav(sig: Signature, x: OneType, y: OneType) -> tuple[tuple[bool, bool], ...]:
    """The (dist(x,y), dist(y,x)) pairs consistent with the given endpoint
    types: x < y, y < x and x ~ y for a partial order; none, x to y, y to
    x, and mutual if both endpoints have t loops, for a transitive t."""
    if sig.dist is DistKind.PARTIAL_ORDER:
        return ((True, False), (False, True), (False, False))
    if sig.dist is DistKind.TRANSITIVE:
        alts = ((False, False), (True, False), (False, True))
        return alts + ((True, True),) if x.t_diag and y.t_diag else alts
    return ((False, False),)


def enumerate_semi_diagonal_types(sig: Signature) -> Iterator[SemiDiagonalTwoType]:
    types = enumerate_one_types(sig)
    for tx in types:
        for ty in types:
            for nav in enumerate_nav(sig, tx, ty):
                yield SemiDiagonalTwoType(sig, tx, ty, nav)


def eval_unary_on_type(f: Formula, tp: OneType, var: str = "x") -> bool:
    """Truth of a quantifier-free one-variable formula at a 1-type, read
    off the type's canonical 1-element structure."""
    return evaluate(_realize(tp.sig, (tp,)), f, {var: 0})


def _realize(sig: Signature, types: tuple[OneType, ...], cross=()) -> Structure:
    """The canonical structure whose elements 0, 1, ... carry types; cross
    holds the (r(0,1), r(1,0)) polarities of each ordinary binary r, then
    those of the distinguished relation."""
    unary: dict[str, set[int]] = {p: set() for p in sig.unary}
    binary: dict[str, set[Pair]] = {r: set() for r in sig.binary}
    dist: set[Pair] = set()
    for e, tp in enumerate(types):
        for key, bit in zip(sig.one_type_keys(), tp.bits):
            if bit and key[0] == "u":
                unary[key[1]].add(e)
            elif bit:
                (binary[key[1]] if key[0] == "b" else dist).add((e, e))
    for ext, (fwd, bwd) in zip([binary[r] for r in sig.binary] + [dist], cross):
        if fwd:
            ext.add((0, 1))
        if bwd:
            ext.add((1, 0))
    return Structure(
        sig,
        len(types),
        {p: frozenset(v) for p, v in unary.items()},
        {r: frozenset(v) for r, v in binary.items()},
        frozenset(dist),
    )


def pair_structure(tau: TwoType) -> Structure:
    """The canonical 2-element structure realizing tau on the pair (0, 1)."""
    return _realize(tau.sig, (tau.x, tau.y), tau.cross + (tau.nav,))
