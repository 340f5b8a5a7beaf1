"""Syntax, finite structures and type machinery for two-variable logic.

The logics handled here are plain two-variable first-order logic and its
extensions with one distinguished binary relation constrained to be a strict
partial order or a transitive relation.  Everything in this module is
immutable and side-effect free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Union


class LogicError(Exception):
    """Base class for errors raised by this package."""


class SignatureMismatchError(LogicError):
    """A formula or structure refers to predicates outside its signature."""


class PreconditionError(LogicError):
    """An operation was called outside its stated precondition."""


class BudgetExceeded(LogicError):
    """Raised when a search exhausts its node budget."""


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

    def one_type_keys(self) -> tuple[tuple[str, ...], ...]:
        """Atom keys deciding a 1-type, in bit order.

        Unary predicates come first, then the diagonal of each ordinary
        binary predicate, then (for transitive signatures) the diagonal of
        the distinguished relation.  The diagonal of a partial order is
        forced false and carried implicitly.
        """
        keys: list[tuple[str, ...]] = [("u", p) for p in self.unary]
        keys.extend(("diag", r) for r in self.binary)
        if self.dist is DistKind.TRANSITIVE:
            keys.append(("tdiag",))
        return tuple(keys)

    def arity(self, name: str) -> int:
        if name in self.unary:
            return 1
        if name in self.binary:
            return 2
        if name == self.dist_name:
            return 2
        raise SignatureMismatchError(f"unknown predicate {name!r}")


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


def implies(a: Formula, b: Formula) -> Formula:
    return Implies(a, b)


def forall(var: str, body: Formula) -> Formula:
    return Forall(var, body)


def exists(var: str, body: Formula) -> Formula:
    return Exists(var, body)


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
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for s in f.subs:
            out |= free_vars(s)
        return out
    if isinstance(f, Implies):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise LogicError(f"bad formula node {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (Atom, Eq)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.sub)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(s) for s in f.subs)
    if isinstance(f, Implies):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


def substitute(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free variables; quantifiers shadow as usual."""
    if isinstance(f, Atom):
        return atom(f.pred, *(mapping.get(a, a) for a in f.args))
    if isinstance(f, Eq):
        return eq(mapping.get(f.left, f.left), mapping.get(f.right, f.right))
    if isinstance(f, Not):
        return neg(substitute(f.sub, mapping))
    if isinstance(f, And):
        return And(tuple(substitute(s, mapping) for s in f.subs))
    if isinstance(f, Or):
        return Or(tuple(substitute(s, mapping) for s in f.subs))
    if isinstance(f, Implies):
        return Implies(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        body = substitute(f.body, inner) if inner else f.body
        return type(f)(f.var, body)
    raise LogicError(f"bad formula node {f!r}")


def swap_xy(f: Formula) -> Formula:
    """Transpose the roles of x and y throughout (bound and free)."""
    if isinstance(f, Atom):
        return atom(f.pred, *("y" if a == "x" else "x" for a in f.args))
    if isinstance(f, Eq):
        return eq("y" if f.left == "x" else "x", "y" if f.right == "x" else "x")
    if isinstance(f, Not):
        return neg(swap_xy(f.sub))
    if isinstance(f, And):
        return And(tuple(swap_xy(s) for s in f.subs))
    if isinstance(f, Or):
        return Or(tuple(swap_xy(s) for s in f.subs))
    if isinstance(f, Implies):
        return Implies(swap_xy(f.left), swap_xy(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)("y" if f.var == "x" else "x", swap_xy(f.body))
    raise LogicError(f"bad formula node {f!r}")


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
    if isinstance(f, Atom):
        return frozenset((f.pred,))
    if isinstance(f, Eq):
        return frozenset()
    if isinstance(f, Not):
        return formula_predicates(f.sub)
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for s in f.subs:
            out |= formula_predicates(s)
        return out
    if isinstance(f, Implies):
        return formula_predicates(f.left) | formula_predicates(f.right)
    if isinstance(f, (Forall, Exists)):
        return formula_predicates(f.body)
    raise LogicError(f"bad formula node {f!r}")


def formula_size(f: Formula) -> int:
    if isinstance(f, Atom):
        return 1 + len(f.args)
    if isinstance(f, Eq):
        return 3
    if isinstance(f, Not):
        return 1 + formula_size(f.sub)
    if isinstance(f, (And, Or)):
        return 1 + sum(formula_size(s) for s in f.subs)
    if isinstance(f, Implies):
        return 1 + formula_size(f.left) + formula_size(f.right)
    if isinstance(f, (Forall, Exists)):
        return 2 + formula_size(f.body)
    raise LogicError(f"bad formula node {f!r}")


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
    out: list[str] = []
    rel = s.dist
    if s.sig.dist is DistKind.NONE:
        if rel:
            out.append("distinguished relation present but signature has none")
        return out
    if s.sig.dist is DistKind.PARTIAL_ORDER:
        for a in s.domain():
            if (a, a) in rel:
                out.append(f"irreflexivity violated at {a}")
    for a, b in rel:
        for b2, c in rel:
            if b2 == b and (a, c) not in rel:
                out.append(f"transitivity violated: ({a},{b}),({b},{c}) without ({a},{c})")
    return out


def evaluate(
    s: Structure, f: Formula, assignment: Optional[Mapping[str, int]] = None
) -> bool:
    """Tarski truth of f in s under a (partial) variable assignment."""
    env = dict(assignment) if assignment else {}
    missing = free_vars(f) - set(env)
    if missing:
        raise PreconditionError(f"unassigned free variables {sorted(missing)}")
    return _eval(s, f, env)


def _eval(s: Structure, f: Formula, env: dict[str, int]) -> bool:
    if isinstance(f, Atom):
        args = tuple(env[a] for a in f.args)
        name = f.pred
        if name in s.sig.unary:
            return args[0] in s.unary_of(name)
        if name in s.sig.binary:
            return args in s.binary_of(name)
        if name == "<" and s.sig.dist is DistKind.PARTIAL_ORDER:
            return args in s.dist
        if name == "~" and s.sig.dist is DistKind.PARTIAL_ORDER:
            a, b = args
            return a != b and (a, b) not in s.dist and (b, a) not in s.dist
        if name == "t" and s.sig.dist is DistKind.TRANSITIVE:
            return args in s.dist
        raise SignatureMismatchError(f"predicate {name!r} not in signature")
    if isinstance(f, Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, Not):
        return not _eval(s, f.sub, env)
    if isinstance(f, And):
        return all(_eval(s, g, env) for g in f.subs)
    if isinstance(f, Or):
        return any(_eval(s, g, env) for g in f.subs)
    if isinstance(f, Implies):
        return (not _eval(s, f.left, env)) or _eval(s, f.right, env)
    if isinstance(f, Forall):
        saved = env.get(f.var)
        for a in s.domain():
            env[f.var] = a
            if not _eval(s, f.body, env):
                _restore(env, f.var, saved)
                return False
        _restore(env, f.var, saved)
        return True
    if isinstance(f, Exists):
        saved = env.get(f.var)
        for a in s.domain():
            env[f.var] = a
            if _eval(s, f.body, env):
                _restore(env, f.var, saved)
                return True
        _restore(env, f.var, saved)
        return False
    raise LogicError(f"bad formula node {f!r}")


def _restore(env: dict[str, int], var: str, saved: Optional[int]) -> None:
    if saved is None:
        env.pop(var, None)
    else:
        env[var] = saved


# ---------------------------------------------------------------------------
# 1-types and 2-types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class OneType:
    """Fixed-width polarity vector over Signature.one_type_keys()."""

    sig: Signature = field(compare=False)
    bits: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.sig.one_type_keys()):
            raise LogicError("1-type width does not match signature")

    def polarity(self, key: tuple[str, ...]) -> bool:
        return self.bits[self.sig.one_type_keys().index(key)]

    def unary_polarity(self, p: str) -> bool:
        return self.polarity(("u", p))

    @property
    def t_diag(self) -> bool:
        """Polarity of t(x,x); only meaningful for transitive signatures."""
        return self.polarity(("tdiag",))

    def literals(self, var: str = "x") -> tuple[Formula, ...]:
        out = []
        for key, bit in zip(self.sig.one_type_keys(), self.bits):
            if key[0] == "u":
                a: Formula = atom(key[1], var)
            elif key[0] == "diag":
                a = atom(key[1], var, var)
            else:
                a = atom("t", var, var)
            out.append(a if bit else neg(a))
        return tuple(out)

    def formula(self, var: str = "x") -> Formula:
        return conj(self.literals(var))

    def label(self) -> str:
        parts = []
        for key, bit in zip(self.sig.one_type_keys(), self.bits):
            name = key[1] if len(key) > 1 else "t"
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
        elif key[0] == "diag":
            bits.append((a, a) in s.binary_of(key[1]))
        else:
            bits.append((a, a) in s.dist)
    return OneType(s.sig, tuple(bits))


def enumerate_one_types(sig: Signature) -> tuple[OneType, ...]:
    """All 1-types over sig in deterministic lexicographic order."""
    width = len(sig.one_type_keys())
    return tuple(
        OneType(sig, bits) for bits in itertools.product((False, True), repeat=width)
    )


class NavKind(Enum):
    """The navigational alternative of a partial-order 2-type."""

    LT = "lt"
    GT = "gt"
    SIM = "sim"

    def swapped(self) -> "NavKind":
        if self is NavKind.LT:
            return NavKind.GT
        if self is NavKind.GT:
            return NavKind.LT
        return NavKind.SIM


Nav = Union[NavKind, tuple[bool, bool], None]


def _check_nav(sig: Signature, x: OneType, y: OneType, nav: Nav) -> None:
    if sig.dist is DistKind.PARTIAL_ORDER:
        if not isinstance(nav, NavKind):
            raise LogicError("partial-order 2-type needs a navigational alternative")
    elif sig.dist is DistKind.TRANSITIVE:
        if not (isinstance(nav, tuple) and len(nav) == 2):
            raise LogicError("transitive 2-type needs (t(x,y), t(y,x)) polarities")
        if nav[0] and nav[1] and not (x.t_diag and y.t_diag):
            raise LogicError("mutual t forces both diagonal t literals")
    elif nav is not None:
        raise LogicError("plain signature admits no navigational component")


@dataclass(frozen=True)
class TwoType:
    """Full literal record of an ordered pair of distinct elements."""

    sig: Signature
    x: OneType
    y: OneType
    cross: tuple[tuple[bool, bool], ...]  # (r(x,y), r(y,x)) per ordinary binary
    nav: Nav

    def __post_init__(self) -> None:
        if len(self.cross) != len(self.sig.binary):
            raise LogicError("cross width does not match signature")
        _check_nav(self.sig, self.x, self.y, self.nav)

    def swap(self) -> "TwoType":
        nav: Nav = self.nav
        if isinstance(nav, NavKind):
            nav = nav.swapped()
        elif isinstance(nav, tuple):
            nav = (nav[1], nav[0])
        return TwoType(
            self.sig, self.y, self.x, tuple((b, a) for a, b in self.cross), nav
        )

    def cross_of(self, r: str) -> tuple[bool, bool]:
        return self.cross[self.sig.binary.index(r)]

    def literals(self) -> tuple[Formula, ...]:
        out = list(self.x.literals("x")) + list(self.y.literals("y"))
        for r, (fwd, bwd) in zip(self.sig.binary, self.cross):
            out.append(atom(r, "x", "y") if fwd else neg(atom(r, "x", "y")))
            out.append(atom(r, "y", "x") if bwd else neg(atom(r, "y", "x")))
        if isinstance(self.nav, NavKind):
            out.append(
                {
                    NavKind.LT: atom("<", "x", "y"),
                    NavKind.GT: atom("<", "y", "x"),
                    NavKind.SIM: atom("~", "x", "y"),
                }[self.nav]
            )
        elif isinstance(self.nav, tuple):
            out.append(Atom("t", ("x", "y")) if self.nav[0] else neg(Atom("t", ("x", "y"))))
            out.append(Atom("t", ("y", "x")) if self.nav[1] else neg(Atom("t", ("y", "x"))))
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
    nav: Nav

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
    nav: Nav = None
    if s.sig.dist is DistKind.PARTIAL_ORDER:
        if (a, b) in s.dist:
            nav = NavKind.LT
        elif (b, a) in s.dist:
            nav = NavKind.GT
        else:
            nav = NavKind.SIM
    elif s.sig.dist is DistKind.TRANSITIVE:
        nav = ((a, b) in s.dist, (b, a) in s.dist)
    return TwoType(s.sig, one_type_of(s, a), one_type_of(s, b), cross, nav)


def enumerate_nav(sig: Signature, x: OneType, y: OneType) -> tuple[Nav, ...]:
    """The navigational alternatives consistent with the given endpoint types."""
    if sig.dist is DistKind.PARTIAL_ORDER:
        return (NavKind.LT, NavKind.GT, NavKind.SIM)
    if sig.dist is DistKind.TRANSITIVE:
        alts: list[Nav] = [(False, False), (True, False), (False, True)]
        if x.t_diag and y.t_diag:
            alts.append((True, True))
        return tuple(alts)
    return (None,)


def enumerate_semi_diagonal_types(sig: Signature) -> Iterator[SemiDiagonalTwoType]:
    types = enumerate_one_types(sig)
    for tx in types:
        for ty in types:
            for nav in enumerate_nav(sig, tx, ty):
                yield SemiDiagonalTwoType(sig, tx, ty, nav)


def eval_unary_on_type(f: Formula, tp: OneType, var: str = "x") -> bool:
    """Truth of a quantifier-free one-variable formula at a 1-type."""
    if isinstance(f, Atom):
        if any(a != var for a in f.args):
            raise PreconditionError(f"formula mentions a variable other than {var!r}")
        if f.pred in tp.sig.unary:
            return tp.unary_polarity(f.pred)
        if f.pred in tp.sig.binary:
            return tp.polarity(("diag", f.pred))
        if f.pred == "t" and tp.sig.dist is DistKind.TRANSITIVE:
            return tp.t_diag
        if f.pred in ("<", "~"):
            return False
        raise SignatureMismatchError(f"predicate {f.pred!r} not in signature")
    if isinstance(f, Eq):
        return True
    if isinstance(f, Not):
        return not eval_unary_on_type(f.sub, tp, var)
    if isinstance(f, And):
        return all(eval_unary_on_type(g, tp, var) for g in f.subs)
    if isinstance(f, Or):
        return any(eval_unary_on_type(g, tp, var) for g in f.subs)
    if isinstance(f, Implies):
        return (not eval_unary_on_type(f.left, tp, var)) or eval_unary_on_type(
            f.right, tp, var
        )
    raise PreconditionError("quantifier in a pure unary formula")


def pair_structure(tau: TwoType) -> Structure:
    """The canonical 2-element structure realizing tau on the pair (0, 1)."""
    sig = tau.sig
    unary = {
        p: frozenset(
            e
            for e, tp in ((0, tau.x), (1, tau.y))
            if tp.unary_polarity(p)
        )
        for p in sig.unary
    }
    binary = {}
    for r in sig.binary:
        ext = set()
        fwd, bwd = tau.cross_of(r)
        if fwd:
            ext.add((0, 1))
        if bwd:
            ext.add((1, 0))
        if tau.x.polarity(("diag", r)):
            ext.add((0, 0))
        if tau.y.polarity(("diag", r)):
            ext.add((1, 1))
        binary[r] = frozenset(ext)
    dist: set[Pair] = set()
    if isinstance(tau.nav, NavKind):
        if tau.nav is NavKind.LT:
            dist.add((0, 1))
        elif tau.nav is NavKind.GT:
            dist.add((1, 0))
    elif isinstance(tau.nav, tuple):
        if tau.nav[0]:
            dist.add((0, 1))
        if tau.nav[1]:
            dist.add((1, 0))
        if tau.x.t_diag:
            dist.add((0, 0))
        if tau.y.t_diag:
            dist.add((1, 1))
    return Structure(sig, 2, unary, binary, frozenset(dist))


def eval_on_pair_type(f: Formula, tau: TwoType) -> bool:
    """Truth of a quantifier-free two-variable formula on a 2-type."""
    return evaluate(pair_structure(tau), f, {"x": 0, "y": 1})
