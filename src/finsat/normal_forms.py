"""Formula-level rewrites.

Standard and weak normal form for the two-variable fragment, compilation of
unary partial-order formulas into the thirteen basic shapes, and the
transitive normal form that confines the distinguished relation of a
transitive signature to its four derived order relations.

conjunct_parts owns the shapes of top-level conjuncts: it alone decides
which conjunct translates directly into unary, pair, witness or existential
parts, for to_standard_nf here and for the typed engine in solver.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from .logic import (
    And,
    Atom,
    DistKind,
    EnumerationBudgetError,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    LogicError,
    OneType,
    Or,
    PreconditionError,
    Signature,
    Structure,
    TRUE,
    atom,
    conj,
    disj,
    enumerate_one_types,
    eq,
    evaluate,
    formula_predicates,
    free_vars,
    is_quantifier_free,
    neg,
    occurrences,
    rewrite,
    simplify,
    subformulas,
    substitute,
    swap_xy,
    t_rel,
    tarski,
)

S_ORDER = ("eq", "lt", "gt", "sim")

def fresh_names(sig: Signature, base: str, count: int) -> tuple[str, ...]:
    """Deterministic fresh unary predicate names avoiding sig."""
    taken = set(sig.unary) | set(sig.binary)
    out = []
    i = 0
    while len(out) < count:
        name = f"{base}{i}"
        if name not in taken:
            taken.add(name)
            out.append(name)
        i += 1
    return tuple(out)


def strip_distinct_eq(f: Formula) -> Formula:
    """Specialize a two-variable formula to distinct arguments.

    Equality atoms between x and y become falsum; the result is
    equality-free.  Only valid in contexts that quantify over distinct
    pairs.  Quantified subformulas are left as they are.
    """

    def fn(g: Formula) -> Optional[Formula]:
        if isinstance(g, Eq):
            return FALSE if g.left != g.right else TRUE
        return g if isinstance(g, (Forall, Exists)) else None

    return rewrite(f, fn)


def _check_matrix(f: Formula, what: str) -> set[Atom]:
    """Reject quantifiers, equality atoms and variables other than x and y
    in a normal-form matrix, and return its atoms.  Each shared subformula
    is checked once."""
    atoms: set[Atom] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            if not set(g.args) <= {"x", "y"}:
                raise LogicError(f"{what} must mention only the variables x and y")
            atoms.add(g)
        elif isinstance(g, Eq):
            raise LogicError(f"{what} must be equality-free")
        elif isinstance(g, (Forall, Exists)):
            raise LogicError(f"{what} must be quantifier-free")
    return atoms


# ---------------------------------------------------------------------------
# Standard and weak normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardNF:
    """forall-forall part plus m >= 1 witness conjuncts, after existential
    conjuncts Z.

    Denotes  AND_zeta Ex zeta(x) & AxAy(x=y | eta) & AND_h AxEy(x!=y & theta_h).
    With Z non-empty this is the paper's weak normal form; to_standard_nf
    gives Z empty, and weak_to_standard folds Z into witness conjuncts.
    Each matrix is checked once, on construction.
    """

    eta: Formula
    thetas: tuple[Formula, ...]
    z: tuple[Formula, ...] = ()

    def __post_init__(self) -> None:
        if not self.thetas:
            raise LogicError("standard normal form needs multiplicity >= 1")
        for g in (self.eta,) + self.thetas:
            _check_matrix(g, "normal-form matrix")
        for zeta in self.z:
            if any("y" in a.args for a in _check_matrix(zeta, "existential parts")):
                raise LogicError("existential parts must be unary in x")

    @property
    def multiplicity(self) -> int:
        return len(self.thetas)

    def to_formula(self) -> Formula:
        parts: list[Formula] = [
            Forall("x", Forall("y", Or((Eq("x", "y"), self.eta))))
        ]
        parts.extend(
            Forall("x", Exists("y", And((neg(Eq("x", "y")), th))))
            for th in self.thetas
        )
        return conj([Exists("x", zeta) for zeta in self.z] + [conj(parts)])

    def holds(self, s: Structure) -> bool:
        """Truth of the sentence in s.  Construction has checked that the
        matrices mention only x and y, so the sentence is closed and
        evaluate's free-variable walk is skipped."""
        return tarski(s, {})(self.to_formula())


def weak_to_standard(w: StandardNF) -> StandardNF:
    """Fold the existential conjuncts Z into witness conjuncts.

    Under the cardinality-at-least-2 convention, Ex.zeta is equivalent to
    AxEy(x!=y & (zeta | zeta(y))); the multiplicity grows by |Z|.
    """
    extra = tuple(
        simplify(Or((zeta, substitute(zeta, {"x": "y"})))) for zeta in w.z
    )
    return StandardNF(w.eta, w.thetas + extra)


# ---------------------------------------------------------------------------
# Scott-style reduction to standard normal form
# ---------------------------------------------------------------------------


class _Parts:
    """Accumulates eta / theta contributions while rewriting."""

    def __init__(self) -> None:
        self.eta: list[Formula] = []
        self.thetas: list[Formula] = []
        self.fresh: list[str] = []

    def add_eta_pair(self, f: Formula) -> None:
        self.eta.append(_distinct(f))

    def add_eta_unary(self, f: Formula) -> None:
        # Ax zeta(x) is equivalent to AxAy(x=y | zeta(x)) over domains of
        # cardinality at least 2.
        self.eta.append(simplify(f))

    def add_theta(self, f: Formula) -> None:
        self.thetas.append(_distinct(f))


def _distinct(f: Formula) -> Formula:
    """f read on distinct x and y only, simplified."""
    return simplify(strip_distinct_eq(f))


def _rename(f: Formula, u: str, v: str) -> Formula:
    """f with free u renamed to v; f itself when they are the same."""
    return f if u == v else substitute(f, {u: v})


def _orient(f: Formula, u: str, v: str) -> Formula:
    """Rename so that u plays x and v plays y."""
    if (u, v) == ("x", "y"):
        return f
    return swap_xy(f)


def _replace_subformula(f: Formula, target: Formula, replacement: Formula) -> Formula:
    return rewrite(f, lambda g: replacement if g == target else None)


def conjunct_parts(g: Formula) -> Optional[list[tuple[str, Formula]]]:
    """The direct normal-form translation of one top-level conjunct, or None
    when its shape needs fresh definitions.

    Each part is ("unary", f) for Ax f(x), ("pair", f) for AxAy(x=y | f),
    ("witness", f) for AxEy(x!=y & f) or ("exists", f) for Ex f(x).  Every
    f but an "exists" one is simplified and free of x = y atoms.  This is
    the one classifier of conjunct shapes: to_standard_nf and the typed
    engine both read it.
    """
    g = simplify(g)
    if is_quantifier_free(g):
        # Any remaining free variables stem from uniform marker predicates,
        # so quantifying them universally is harmless.
        return [("unary" if free_vars(g) <= {"x"} else "pair", _distinct(g))]
    if isinstance(g, Exists):
        body = simplify(g.body)
        return [("exists", _rename(body, g.var, "x"))] if is_quantifier_free(body) else None
    if not isinstance(g, Forall):
        return None
    u, body = g.var, simplify(g.body)
    if is_quantifier_free(body):
        return [("unary", _distinct(_rename(body, u, "x")))]
    if isinstance(body, (Forall, Exists)) and is_quantifier_free(body.body):
        if body.var == u:
            return conjunct_parts(body)
        oriented = _orient(body.body, u, body.var)
        if isinstance(body, Forall):
            # x = y disjuncts are the normal-form guard; the diagonal
            # instance is covered separately otherwise.
            if isinstance(oriented, Or) and any(isinstance(s, Eq) for s in oriented.subs):
                rest = disj(tuple(s for s in oriented.subs if not isinstance(s, Eq)))
                return [("pair", _distinct(rest))]
            return [
                ("pair", _distinct(oriented)),
                ("unary", simplify(substitute(oriented, {"y": "x"}))),
            ]
        distinct = (neg(Eq("x", "y")), neg(Eq("y", "x")))
        if isinstance(oriented, And) and any(s in distinct for s in oriented.subs):
            return [("witness", _distinct(conj(tuple(s for s in oriented.subs if s not in distinct))))]
        self_wit = simplify(substitute(oriented, {"y": "x"}))
        return [("witness", _distinct(Or((strip_distinct_eq(oriented), self_wit))))]
    # One existential, occurring positively and binding the other variable,
    # in an otherwise quantifier-free body.
    quantified = [(h, pos) for h, pos, _ in occurrences(body) if isinstance(h, (Forall, Exists))]
    if len(quantified) != 1:
        return None
    ((ex, positive),) = quantified
    if not positive or isinstance(ex, Forall) or ex.var == u:
        return None
    marker = Atom("_hole_", ())
    chi_xy = _orient(ex.body, u, ex.var)
    chi_self = simplify(substitute(chi_xy, {"y": "x"}))
    ctx_xy = _orient(_replace_subformula(body, ex, marker), u, ex.var)
    return [("witness", _distinct(_replace_subformula(ctx_xy, marker, Or((chi_xy, chi_self)))))]


def _scott_conjunct(g: Formula, sig_taken: set[str], parts: _Parts) -> None:
    """Rewrite one sentence conjunct, introducing fresh definitions for
    nested quantification until a direct translation applies."""

    def fresh(base: str) -> str:
        i = 0
        while f"{base}{i}" in sig_taken:
            i += 1
        name = f"{base}{i}"
        sig_taken.add(name)
        parts.fresh.append(name)
        return name

    while True:
        found = conjunct_parts(g)
        if found is not None:
            for kind, f in found:
                if kind == "exists":
                    parts.add_theta(Or((f, substitute(f, {"x": "y"}))))
                else:
                    (parts.thetas if kind == "witness" else parts.eta).append(f)
            return
        # The first quantifier with a quantifier-free body, and the
        # variable of its nearest binder.
        hit = next(
            (
                (h, binder)
                for h, _, binder in occurrences(g)
                if isinstance(h, (Forall, Exists)) and is_quantifier_free(h.body)
            ),
            None,
        )
        if hit is None:
            raise LogicError(f"cannot normalize conjunct {g!r}")
        psi, binder = hit
        v, chi = psi.var, psi.body
        fv = free_vars(psi)
        if fv:
            (u,) = fv
        else:
            u = binder if binder is not None else "x"
        p = fresh("d")
        if fv and u != v:
            chi_xy = _orient(chi, u, v)
        else:
            chi_xy = _rename(chi, v, "y")
        chi_self = simplify(substitute(chi_xy, {"y": "x"}))
        if not fv:
            # Closed subformula: force the marker to be uniform.
            parts.add_eta_pair(Implies(Atom(p, ("x",)), Atom(p, ("y",))))
            parts.add_eta_pair(Implies(Atom(p, ("y",)), Atom(p, ("x",))))
        if isinstance(psi, Exists):
            w = fresh("w")
            parts.add_eta_unary(
                Implies(Atom(p, ("x",)), Or((chi_self, Atom(w, ("x",)))))
            )
            parts.add_theta(Implies(Atom(w, ("x",)), chi_xy))
            parts.add_eta_unary(Implies(chi_self, Atom(p, ("x",))))
            parts.add_eta_pair(Implies(chi_xy, Atom(p, ("x",))))
        else:
            w = fresh("w")
            parts.add_eta_unary(Implies(Atom(p, ("x",)), chi_self))
            parts.add_eta_pair(Implies(Atom(p, ("x",)), chi_xy))
            parts.add_eta_unary(
                Implies(neg(Atom(p, ("x",))), Or((neg(chi_self), Atom(w, ("x",)))))
            )
            parts.add_theta(Implies(Atom(w, ("x",)), neg(chi_xy)))
        g = simplify(_replace_subformula(g, psi, Atom(p, (u,))))


def to_standard_nf(phi: Formula, sig: Signature) -> tuple[StandardNF, Signature]:
    """Rewrite a sentence into standard normal form over an enlarged
    signature.

    The output implies the input, every model of the input expands to one
    of the output, and the growth is polynomial.  Top-level conjuncts in a
    directly expressible shape are translated in place; genuinely nested
    quantification goes through fresh definitional predicates.
    """
    if free_vars(phi):
        raise PreconditionError("normal form is defined for sentences")
    parts = _Parts()
    taken = set(sig.unary) | set(sig.binary)
    phi = simplify(phi)
    conjuncts = list(phi.subs) if isinstance(phi, And) else [phi]
    for g in conjuncts:
        _scott_conjunct(g, taken, parts)
    eta = simplify(conj(parts.eta)) if parts.eta else TRUE
    thetas = tuple(parts.thetas) if parts.thetas else (TRUE,)
    return StandardNF(eta, thetas), sig.with_unary(tuple(parts.fresh))


# ---------------------------------------------------------------------------
# Basic formulas over unary partial-order signatures
# ---------------------------------------------------------------------------


class BasicKind(Enum):
    """The thirteen shapes a unary partial-order constraint reduces to."""

    B1A = "B1a"  # at most one element of type alpha
    B1B = "B1b"  # types alpha and beta not jointly realized
    B2A = "B2a"  # distinct alpha elements pairwise incomparable
    B2B = "B2b"  # alpha elements incomparable to beta elements
    B3 = "B3"  # every alpha element below every beta element
    B4 = "B4"  # no beta element below an alpha element
    B5A = "B5a"  # alpha elements linearly ordered
    B5B = "B5b"  # alpha and beta elements pairwise comparable
    B6 = "B6"  # upward witness of another type
    B7 = "B7"  # downward witness of another type
    B8 = "B8"  # incomparable witness
    B9 = "B9"  # universal unary constraint
    B10 = "B10"  # existential unary constraint


FC_KINDS = frozenset({BasicKind.B3, BasicKind.B5B})

_ALPHA_ONLY = {BasicKind.B1A, BasicKind.B2A, BasicKind.B5A}
_ALPHA_BETA = {BasicKind.B1B, BasicKind.B2B, BasicKind.B3, BasicKind.B4, BasicKind.B5B}
_WITNESS = {BasicKind.B6, BasicKind.B7, BasicKind.B8}
_MU_ONLY = {BasicKind.B9, BasicKind.B10}


@dataclass(frozen=True)
class BasicFormula:
    kind: BasicKind
    alpha: Optional[OneType] = None
    beta: Optional[OneType] = None
    mu: Optional[Formula] = None  # unary pure Boolean, variable x

    def __post_init__(self) -> None:
        k = self.kind
        if k in _ALPHA_ONLY and not (self.alpha and self.beta is None and self.mu is None):
            raise LogicError(f"{k.value} takes a single 1-type")
        if k in _ALPHA_BETA:
            if not (self.alpha and self.beta) or self.mu is not None:
                raise LogicError(f"{k.value} takes two 1-types")
            if self.alpha == self.beta:
                raise LogicError(f"{k.value} requires distinct 1-types")
        if k in _WITNESS and not (self.alpha and self.mu is not None and self.beta is None):
            raise LogicError(f"{k.value} takes a 1-type and a unary formula")
        if k in _MU_ONLY and not (self.mu is not None and self.alpha is None and self.beta is None):
            raise LogicError(f"{k.value} takes only a unary formula")

    @property
    def factor_controllable(self) -> bool:
        return self.kind in FC_KINDS

    def to_formula(self) -> Formula:
        return self.formula

    @cached_property
    def formula(self) -> Formula:
        """The basic formula as a sentence, built once per object.  The
        pair kinds B1B-B5B read only beta below Forall x (a -> ...), so
        their Forall y is kept once per (kind, beta), on beta, and shared by
        every basic formula of that kind and beta: a grounding of the basic
        set plans it once and instances it once per element."""
        k = self.kind
        a = self.alpha.formula("x") if self.alpha else None
        ay = self.alpha.formula("y") if self.alpha else None
        by = self.beta.formula("y") if self.beta else None
        mu_y = substitute(self.mu, {"x": "y"}) if self.mu is not None else None
        lt = atom("<", "x", "y")
        gt = atom("<", "y", "x")
        sim = atom("~", "x", "y")
        distinct = neg(Eq("x", "y"))
        if k is BasicKind.B1A:
            body = Implies(ay, Eq("x", "y"))
        elif k is BasicKind.B1B:
            body = Implies(by, Eq("x", "y"))
        elif k is BasicKind.B2A:
            body = Implies(And((ay, distinct)), sim)
        elif k is BasicKind.B2B:
            body = Implies(by, sim)
        elif k is BasicKind.B3:
            body = Implies(by, lt)
        elif k is BasicKind.B4:
            body = Implies(by, Or((lt, sim)))
        elif k is BasicKind.B5A:
            body = Implies(And((ay, distinct)), Or((lt, gt)))
        elif k is BasicKind.B5B:
            body = Implies(by, Or((lt, gt)))
        elif k is BasicKind.B6:
            return Forall(
                "x", Implies(a, Exists("y", And((mu_y, neg(ay), lt))))
            )
        elif k is BasicKind.B7:
            return Forall(
                "x", Implies(a, Exists("y", And((mu_y, neg(ay), gt))))
            )
        elif k is BasicKind.B8:
            return Forall("x", Implies(a, Exists("y", And((mu_y, sim)))))
        elif k is BasicKind.B9:
            return Forall("x", self.mu)
        elif k is BasicKind.B10:
            return Exists("x", self.mu)
        else:  # pragma: no cover
            raise LogicError(f"bad kind {k!r}")
        inner = Forall("y", body)
        if k in _ALPHA_BETA:
            inner = self.beta.shared(k, lambda: inner)
        return Forall("x", Implies(a, inner))


def basic_set_formula(psis) -> Formula:
    return conj(tuple(p.formula for p in psis))


def fc_subset(psis) -> tuple[BasicFormula, ...]:
    """The factor-controllable members, in input order."""
    return tuple(p for p in psis if p.factor_controllable)


_NAV_SUBST = {
    "lt": {("<", ("x", "y")): TRUE, ("<", ("y", "x")): FALSE, ("~", ("x", "y")): FALSE},
    "gt": {("<", ("x", "y")): FALSE, ("<", ("y", "x")): TRUE, ("~", ("x", "y")): FALSE},
    "sim": {("<", ("x", "y")): FALSE, ("<", ("y", "x")): FALSE, ("~", ("x", "y")): TRUE},
}


def _eval_literals(
    f: Formula,
    sig: Signature,
    x_type: Optional[OneType],
    y_type: Optional[OneType],
    nav: Optional[dict],
) -> Formula:
    """Replace unary literals by their truth under the given 1-types and
    navigational atoms per the nav table; everything else is kept.  f is a
    matrix, which StandardNF has checked quantifier-free."""

    def fn(g: Formula) -> Optional[Formula]:
        if not isinstance(g, Atom):
            return None
        if g.pred in sig.unary:
            tp = x_type if g.args == ("x",) else y_type if g.args == ("y",) else None
            if tp is None:
                return g
            return TRUE if tp.unary_polarity(g.pred) else FALSE
        return nav.get((g.pred, g.args), g) if nav is not None else g

    return rewrite(f, fn)


#: Universal-shape kinds per set of directions the instantiated universal
#: constraint allows: (kind for alpha = beta, kind for alpha != beta, and
#: whether that kind reads the pair as (beta, alpha)).  The set of all
#: three directions constrains nothing and is absent.
_UNIVERSAL_SHAPES = {
    frozenset(): (BasicKind.B1A, BasicKind.B1B, False),
    frozenset({"sim"}): (BasicKind.B2A, BasicKind.B2B, False),
    frozenset({"lt"}): (BasicKind.B1A, BasicKind.B3, False),
    frozenset({"gt"}): (BasicKind.B1A, BasicKind.B3, True),
    frozenset({"lt", "sim"}): (BasicKind.B2A, BasicKind.B4, False),
    frozenset({"gt", "sim"}): (BasicKind.B2A, BasicKind.B4, True),
    frozenset({"lt", "gt"}): (BasicKind.B5A, BasicKind.B5B, False),
}

#: to_basic refuses to build more basic formulas than this.
MAX_BASIC_FORMULAS = 32_768


_DIRECTIONS = ("lt", "gt", "sim")
_WITNESS_KINDS = {"lt": BasicKind.B6, "gt": BasicKind.B7, "sim": BasicKind.B8}


def _direction_labels(w: StandardNF, sig: Signature) -> tuple[dict[tuple[int, str], str], Signature]:
    """to_basic's 3m fresh labels by (witness conjunct, direction), and the
    signature they extend sig to."""
    labels = fresh_names(sig, "p", 3 * w.multiplicity)
    label_of = {
        (h, d): labels[3 * h + i]
        for h in range(w.multiplicity)
        for i, d in enumerate(_DIRECTIONS)
    }
    return label_of, sig.with_unary(labels)


def label_witnesses(w: StandardNF, model: Structure) -> Structure:
    """The expansion of a model of w to to_basic's signature in which an
    element a carries the label of witness conjunct h and direction d
    exactly when some b != a lies in direction d from a and satisfies
    theta_h(a, b).  No search: the labels are read off the model.

    With T its own 1-types, it satisfies to_basic(w, sig, T).  B9 holds
    because w gives every element a witness.  For B6 (B7) at a, take a
    maximal (minimal) element c of a's 1-type at or above (below) a: c
    carries the label, so it has a theta_h-witness b in that direction, and
    b lies beyond a, is not of a's 1-type, and serves a as it serves c,
    because theta_h reads only the two 1-types over sig and the direction.
    B8, B10 and the universal shapes hold directly; eta mentions no label.
    """
    label_of, sig_star = _direction_labels(w, model.sig)
    labelled = {label: set() for label in label_of.values()}
    for a, b in itertools.permutations(model.domain(), 2):
        d = "lt" if (a, b) in model.dist else "gt" if (b, a) in model.dist else "sim"
        for h, theta in enumerate(w.thetas):
            if evaluate(model, theta, {"x": a, "y": b}):
                labelled[label_of[h, d]].add(a)
    unary = dict(model.unary)
    unary.update((label, frozenset(ext)) for label, ext in labelled.items())
    return Structure(sig_star, model.size, unary, model.binary, model.dist)


def to_basic(
    w: StandardNF, sig: Signature, types: Optional[Iterable[OneType]] = None
) -> tuple[tuple[BasicFormula, ...], Signature]:
    """Compile a weak-normal-form unary partial-order formula into a
    conjunction of basic formulas over a signature with 3m fresh direction
    labels, each basic formula once, in the order first built.

    The input and output are satisfiable over exactly the same finite
    domains.  Witness conjuncts are split by the direction of the witness,
    instantiated per 1-type, and strengthened to demand a witness of
    another 1-type where the direction allows it; the universal conjunct is
    instantiated per pair of 1-types and classified into the universal
    shapes.

    types, 1-types over the compiled signature (label_witnesses gives them
    from a model), compiles relative to the set T of them: the witness
    shapes only for members of T, the universal shapes only for pairs of
    them, and one more B9 conjunct, forall x OR_{alpha in T} alpha(x).
    Under that conjunct every omitted formula is vacuous, so the result
    implies the full compilation.  Without types every 1-type is used.

    Before any 1-type or basic formula is built, the basic formulas to
    build are counted: |Z| + m, plus one for T, plus the witness shapes
    (3m * 2**(k-1) over k compiled bits, or one per label a member of T
    carries), plus |A| * |B| for each pair of eta-projection classes A, B
    (of all 1-types, or of T) whose universal shape constrains anything.
    The output drops repeats, so the count is an upper bound on its length.
    Past MAX_BASIC_FORMULAS this raises EnumerationBudgetError; the
    universal part is not counted when the rest is already past it.
    """
    if sig.dist is not DistKind.PARTIAL_ORDER or sig.binary:
        raise PreconditionError("basic compilation needs a unary partial-order signature")
    used = formula_predicates(w.to_formula())
    if used - set(sig.unary) - {"<", "~"}:
        raise PreconditionError(f"formula mentions predicates outside the signature: {sorted(used - set(sig.unary) - {'<', '~'})}")
    m = w.multiplicity
    label_of, sig_star = _direction_labels(w, sig)
    k = len(sig_star.unary)
    # The instantiated universal constraint depends only on the 1-type bits
    # of predicates occurring in eta: classify once per pair of projection
    # classes, on the first 1-type of each, and emit per pair of members.
    eta_preds = sorted(formula_predicates(w.eta) & set(sig_star.unary))
    positions = [sig_star.one_type_bit[("u", p, "x")] for p in eta_preds]
    if types is None:
        count = len(w.z) + m + 3 * m * 2**k // 2
    else:
        types = tuple(sorted(set(types)))
        if any(tp.sig != sig_star for tp in types):
            raise PreconditionError("types must be 1-types over the compiled signature")
        count = len(w.z) + m + 1
        count += sum(tp.unary_polarity(label) for tp in types for label in label_of.values())
    navs: dict[tuple, frozenset[str]] = {}
    if count <= MAX_BASIC_FORMULAS:
        sizes: dict[tuple, int] = {}
        firsts: dict[tuple, OneType] = {}
        if types is None:
            for key in itertools.product((False, True), repeat=len(positions)):
                bits = dict(zip(positions, key))
                firsts[key] = OneType(sig_star, tuple(bits.get(i, False) for i in range(k)))
                sizes[key] = 2 ** (k - len(positions))
        else:
            for tp in types:
                key = tuple(tp.bits[i] for i in positions)
                firsts.setdefault(key, tp)
                sizes[key] = sizes.get(key, 0) + 1
        for ka, alpha in firsts.items():
            for kb, beta in firsts.items():
                navs[ka, kb] = _classify(w.eta, sig_star, alpha, beta)
                if navs[ka, kb] in _UNIVERSAL_SHAPES:
                    count += sizes[ka] * sizes[kb]
    if count > MAX_BASIC_FORMULAS:
        raise EnumerationBudgetError(
            f"basic compilation refused: at least {count} basic formulas to "
            f"build exceed the budget of {MAX_BASIC_FORMULAS}"
        )
    out: list[BasicFormula] = []
    for zeta in w.z:
        out.append(BasicFormula(BasicKind.B10, mu=simplify(zeta)))
    for h in range(m):
        out.append(
            BasicFormula(
                BasicKind.B9,
                mu=Or(tuple(Atom(label_of[(h, d)], ("x",)) for d in _DIRECTIONS)),
            )
        )
    if types is None:
        types = enumerate_one_types(sig_star)
    else:
        out.append(BasicFormula(BasicKind.B9, mu=disj(tp.formula("x") for tp in types)))
    for h in range(m):
        for d in _DIRECTIONS:
            for alpha in types:
                if not alpha.unary_polarity(label_of[(h, d)]):
                    continue
                mu_y = simplify(
                    _eval_literals(w.thetas[h], sig_star, alpha, None, _NAV_SUBST[d])
                )
                if free_vars(mu_y) - {"y"}:
                    raise LogicError("witness matrix failed to reduce to a unary formula")
                out.append(
                    BasicFormula(_WITNESS_KINDS[d], alpha=alpha, mu=substitute(mu_y, {"y": "x"}))
                )
    groups: dict[tuple, list[OneType]] = {}
    for tp in types:
        groups.setdefault(tuple(tp.bits[i] for i in positions), []).append(tp)
    for ka, members_a in groups.items():
        for kb, members_b in groups.items():
            shape = _UNIVERSAL_SHAPES.get(navs[ka, kb])
            if shape is None:
                continue
            same_kind, kind, swap = shape
            for alpha in members_a:
                for beta in members_b:
                    if alpha == beta:
                        out.append(BasicFormula(same_kind, alpha=alpha))
                    elif swap:
                        out.append(BasicFormula(kind, alpha=beta, beta=alpha))
                    else:
                        out.append(BasicFormula(kind, alpha=alpha, beta=beta))
    return tuple(dict.fromkeys(out)), sig_star


def _classify(eta: Formula, sig: Signature, alpha: OneType, beta: OneType) -> frozenset[str]:
    """The directions in which eta holds of an x of type alpha and a y of
    type beta."""
    g = _eval_literals(eta, sig, alpha, beta, None)
    true_navs = set()
    for d in ("lt", "gt", "sim"):
        val = simplify(_eval_literals(g, sig, None, None, _NAV_SUBST[d]))
        if val not in (TRUE, FALSE):
            raise LogicError("universal matrix failed to reduce to a navigational form")
        if val == TRUE:
            true_navs.add(d)
    return frozenset(true_navs)


# ---------------------------------------------------------------------------
# Transitive normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitiveNF:
    """Universal parts per derived order relation plus guarded witnesses.

    Denotes  AND_s AxAy(t_s(x,y) -> eta_s)
           & AND_h AND_s AxEy(p_{h,s}(x) -> (t_s(x,y) & theta_{h,s})).
    """

    etas: tuple[Formula, Formula, Formula, Formula]  # keyed by S_ORDER
    guards: tuple[tuple[str, str, str, str], ...]  # per h, keyed by S_ORDER
    thetas: tuple[tuple[Formula, Formula, Formula, Formula], ...]

    def __post_init__(self) -> None:
        if not self.guards or len(self.guards) != len(self.thetas):
            raise LogicError("transitive normal form needs multiplicity >= 1")
        for g in self.etas + tuple(th for row in self.thetas for th in row):
            if _check_matrix(g, "transitive-NF matrix") & _CROSS_T:
                raise LogicError("transitive-NF matrix must not mention cross atoms of t")

    @property
    def multiplicity(self) -> int:
        return len(self.guards)

    def to_formula(self) -> Formula:
        parts: list[Formula] = []
        for s, eta_s in zip(S_ORDER, self.etas):
            parts.append(Forall("x", Forall("y", Implies(t_rel(s), eta_s))))
        for row, ths in zip(self.guards, self.thetas):
            for s, p, th in zip(S_ORDER, row, ths):
                parts.append(
                    Forall(
                        "x",
                        Exists(
                            "y",
                            Implies(Atom(p, ("x",)), And((t_rel(s), th))),
                        ),
                    )
                )
        return conj(parts)


_CROSS_T = frozenset({Atom("t", ("x", "y")), Atom("t", ("y", "x"))})


_T_SUBST = {
    "eq": {("t", ("x", "y")): TRUE, ("t", ("y", "x")): TRUE},
    "lt": {("t", ("x", "y")): TRUE, ("t", ("y", "x")): FALSE},
    "gt": {("t", ("x", "y")): FALSE, ("t", ("y", "x")): TRUE},
    "sim": {("t", ("x", "y")): FALSE, ("t", ("y", "x")): FALSE},
}


def _substitute_cross_t(f: Formula, s: str) -> Formula:
    """Replace cross atoms of t by their truth under the derived relation s;
    diagonal t atoms stay.  f is a matrix StandardNF has checked."""

    def fn(g: Formula) -> Optional[Formula]:
        return _T_SUBST[s].get((g.pred, g.args), g) if isinstance(g, Atom) else None

    return rewrite(f, fn)


def to_transitive_nf(
    phi: Formula, sig: Signature
) -> tuple[TransitiveNF, Signature]:
    """Rewrite a transitive-signature sentence into transitive normal form.

    The output implies the input and every model of the input expands to a
    model of the output; 4m fresh guard predicates are added, one per
    witness conjunct and derived order relation.
    """
    if sig.dist is not DistKind.TRANSITIVE:
        raise PreconditionError("transitive normal form needs a transitive signature")
    snf, sig1 = to_standard_nf(phi, sig)
    m = snf.multiplicity
    names = fresh_names(sig1, "g", 4 * m)
    guards = tuple(
        (names[4 * h], names[4 * h + 1], names[4 * h + 2], names[4 * h + 3])
        for h in range(m)
    )
    sig2 = sig1.with_unary(names)
    split = conj(
        tuple(
            disj(tuple(Atom(p, ("x",)) for p in guards[h]))
            for h in range(m)
        )
    )
    etas = tuple(
        simplify(And((_substitute_cross_t(snf.eta, s), split))) for s in S_ORDER
    )
    thetas = tuple(
        tuple(simplify(_substitute_cross_t(snf.thetas[h], s)) for s in S_ORDER)
        for h in range(m)
    )
    return TransitiveNF(etas, guards, thetas), sig2
