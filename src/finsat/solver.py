"""Bounded finite-model finding and the decision front end.

Two exhaustive engines sit behind find_model, and _engine picks one per
formula; one engine then serves every size searched.  The typed engine assigns
1-types to elements (in nondecreasing order, which breaks the full element
permutation symmetry while staying exhaustive up to isomorphism) and then
2-types to pairs, propagating the distinguished relation's constraints and
filtering against the universal part pair by pair.  As soon as an element's
later partners can no longer supply a witness it lacks, the subtree is cut:
every leaf below it would fail the final witness test, so the search stays
exhaustive and finds the same first model.  It enumerates every pair
alternative directly, so it takes only signatures with few 1-types and few
pair alternatives.  Its pair tables are built once per unordered pair of
1-types: each candidate 2-type is read off its bits, both ways, by one truth
walk, with formulas checked once per engine, and the table of the reversed
pair is the same table with each 2-type swapped.  The grounded
engine translates the formula and the distinguished relation's axioms into
propositional clauses over the fixed domain; it takes every wider signature,
such as those produced by binary elimination and the clique reduction.  Every
model found is re-verified with evaluate before it is returned.
smallest_model tries sizes 2..max_size in order.

The typed engine takes its universal, witness and existential parts from
normal_forms.conjunct_parts, as to_standard_nf does; _decompose adds only
two steps of its own, quantifier hoisting and the split of a universal over
a conjunction.  The grounded engine is in ground.py.  SearchBudget.node_limit
bounds the typed engine's nodes and the solver's decisions, per size
searched.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .logic import (
    And,
    Atom,
    BudgetExceeded,
    DistKind,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    LogicError,
    OneType,
    Or,
    Pair,
    PreconditionError,
    Signature,
    Structure,
    TRUE,
    TwoType,
    VerificationFailure,
    conj,
    enumerate_nav,
    eval_unary_on_type,
    evaluate,
    free_vars,
    is_quantifier_free,
    neg,
    rewrite,
    simplify,
    subformulas,
    tarski,
)
from .factorization import transitive_closure
from .ground import GroundEngine
from .normal_forms import conjunct_parts


@dataclass(frozen=True)
class SearchBudget:
    """Largest domain size to try, and the most nodes the search of one
    size may take: typed-engine nodes, or decisions of the grounded
    engine's solver (propagations and conflicts are not counted)."""

    max_size: int = 6
    node_limit: int = 5_000_000

    def __post_init__(self) -> None:
        if self.max_size < 2:
            raise LogicError("search bound below the 2-element convention")


@dataclass(frozen=True)
class DecisionOutcome:
    """Sat with a verified model, no model up to a bound, or budget out."""

    kind: str  # 'sat' | 'no_model_up_to' | 'unknown'
    model: Optional[Structure] = None
    size: Optional[int] = None
    bound: Optional[int] = None
    report: str = ""

    @staticmethod
    def sat(model: Structure) -> "DecisionOutcome":
        return DecisionOutcome("sat", model=model, size=model.size)

    @staticmethod
    def no_model_up_to(bound: int) -> "DecisionOutcome":
        return DecisionOutcome(
            "no_model_up_to",
            bound=bound,
            report=f"no model up to size {bound}; satisfiability beyond the bound is undetermined",
        )

    @staticmethod
    def unknown(report: str) -> "DecisionOutcome":
        return DecisionOutcome("unknown", report=report)


@dataclass
class _Shape:
    universal1: list[Formula] = field(default_factory=list)
    universal2: list[Formula] = field(default_factory=list)
    thetas: list[Formula] = field(default_factory=list)  # AxEy(x!=y & theta)
    exist1: list[Formula] = field(default_factory=list)
    residual: list[Formula] = field(default_factory=list)


def _push_body(body: Formula) -> Formula:
    """Hoist a quantifier out of an implication consequent when sound."""
    while isinstance(body, Implies) and isinstance(body.right, (Forall, Exists)):
        q = body.right
        if q.var in free_vars(body.left):
            break
        body = type(q)(q.var, Implies(body.left, q.body))
    return body


def _decompose(phi: Formula) -> _Shape:
    """phi's conjuncts as the typed engine's parts, shaped by conjunct_parts;
    a conjunct of no direct shape is residual.  Two steps are the typed
    engine's own: under a universal, _push_body hoists a quantifier, and
    Forall u (A & B) with a quantified body is split into its conjuncts."""
    shape = _Shape()
    lists = {
        "unary": shape.universal1,
        "pair": shape.universal2,
        "witness": shape.thetas,
        "exists": shape.exist1,
    }

    def add(g: Formula) -> None:
        g = simplify(g)
        shaped = g
        if isinstance(g, Forall):
            body = _push_body(simplify(g.body))
            if isinstance(body, And) and not is_quantifier_free(body):
                for s in body.subs:
                    add(Forall(g.var, s))
                return
            shaped = Forall(g.var, body)
        parts = conjunct_parts(shaped)
        if parts is None:
            shape.residual.append(g)
        for kind, f in parts or ():
            lists[kind].append(f)

    phi = simplify(phi)
    for g in phi.subs if isinstance(phi, And) else (phi,):
        add(g)
    return shape


# ---------------------------------------------------------------------------
# Atom usage analysis (inert predicate bits are pinned false)
# ---------------------------------------------------------------------------


@dataclass
class _Usage:
    unary: set[str] = field(default_factory=set)
    diag: set[str] = field(default_factory=set)
    cross: set[str] = field(default_factory=set)
    nav: bool = False
    t_diag: bool = False
    t_cross: bool = False


def _collect_usage(phi: Formula, sig: Signature) -> _Usage:
    use = _Usage()
    for f in subformulas(phi):
        if not isinstance(f, Atom):
            continue
        if f.pred in sig.unary:
            use.unary.add(f.pred)
        elif f.pred in sig.binary:
            # Two distinct variables may still denote one element.
            use.diag.add(f.pred)
            if len(set(f.args)) > 1:
                use.cross.add(f.pred)
        elif f.pred in ("<", "~"):
            use.nav = True
        elif f.pred == "t":
            if len(set(f.args)) == 1:
                use.t_diag = True
            else:
                use.t_cross = True
    return use


# ---------------------------------------------------------------------------
# Typed engine
# ---------------------------------------------------------------------------


class _PairStructure(Structure):
    """A 2-element structure read off validated 1-types and a validated
    TwoType, so Structure's checks are skipped."""

    def __post_init__(self) -> None:
        pass


class _TypedEngine:
    """The typed engine for phi; its 1-type and pair tables do not depend
    on the domain size, so one engine serves every size searched."""

    def __init__(self, phi: Formula, sig: Signature, use: _Usage, shape: _Shape) -> None:
        self.u2 = conj(tuple(shape.universal2))
        # evaluate's check, made once: phi is closed, and the pair tables
        # read u2 and the thetas unchecked, at x and y.
        free = free_vars(phi).union(*(free_vars(g) - {"x", "y"} for g in (self.u2, *shape.thetas)))
        if free:
            raise PreconditionError(f"unassigned free variables {sorted(free)}")
        self.phi = phi
        self.sig = sig
        self.shape = shape
        self.usage = use
        keys = sig.one_type_keys()
        choices = []
        for key in keys:
            if key[0] == "u":
                choices.append((False, True) if key[1] in use.unary else (False,))
            elif key[0] == "b":
                choices.append((False, True) if key[1] in use.diag else (False,))
            else:
                # A mutual t pair needs loops at both ends, so a cross atom
                # reads the loop bit too.
                choices.append((False, True) if use.t_diag or use.t_cross else (False,))
        u1 = self.shape.universal1
        self.types: list[OneType] = []
        for bits in itertools.product(*choices):
            tp = OneType(sig, bits)
            if all(eval_unary_on_type(g, tp) for g in u1):
                self.types.append(tp)
        self.exist_ok = [
            [eval_unary_on_type(g, tp) for tp in self.types]
            for g in self.shape.exist1
        ]
        self.full_mask = (1 << len(self.shape.thetas)) - 1
        self._pair_cache: dict[tuple[int, int], list] = {}
        self._suffix: dict[int, list[int]] = {}

    def _cross_choices(self):
        per = []
        for r in self.sig.binary:
            if r in self.usage.cross:
                per.append(((False, False), (True, False), (False, True), (True, True)))
            else:
                per.append(((False, False),))
        return per

    def _pair_entries(self, ti: int, tj: int):
        """Allowed 2-type completions for an ordered pair of 1-type codes,
        with bitmasks of the witness conjuncts each direction satisfies.

        Every alternative of the active cross and navigation bits is
        listed, in _cross_choices() product order and then enumerate_nav
        order, and kept if the universal part holds in both orientations;
        _engine sends signatures with more alternatives than this can
        afford to the grounded engine.  Each unordered pair of 1-types is
        read once, at ti <= tj (see _read_pair).  The (tj, ti) table is
        that table with each tau swapped and fwd and bwd exchanged, put in
        the order a direct build lists, so that _pairs' row-lex symmetry
        breaking sees the same indices.  The swap keeps the same
        alternatives: u2 is read both ways, and the cross and navigation
        alternatives are closed under swap."""
        hit = self._pair_cache.get((ti, tj))
        if hit is not None:
            return hit
        tx, ty = self.types[ti], self.types[tj]
        # Without an order atom the distinguished relation stays empty
        # between distinct elements.
        use = self.usage
        navs = enumerate_nav(self.sig, tx, ty) if use.nav or use.t_cross else ((False, False),)
        alts = itertools.product(itertools.product(*self._cross_choices()), navs)
        if ti <= tj:
            entries = self._read_pair(tx, ty, alts)
        else:
            rank = {alt: k for k, alt in enumerate(alts)}
            entries = sorted(
                ((tau.swap(), bwd, fwd) for tau, fwd, bwd in self._pair_entries(tj, ti)),
                key=lambda e: rank[e[0].cross, e[0].nav],
            )
        self._pair_cache[(ti, tj)] = entries
        return entries

    def _read_pair(self, tx: OneType, ty: OneType, alts) -> list:
        """The kept alternatives (cross, nav) of the pair (tx, ty), each read
        from its bits.  The pair's unary and loop extensions are built
        once; each alternative adds its cross and nav pairs, and one truth
        walk reads it at (0, 1) and, with x and y rebound, at (1, 0).  The
        universal part is read first, so a rejected alternative costs no
        witness reads."""
        sig, ends = self.sig, (tx, ty)
        unary = {p: frozenset(e for e in (0, 1) if ends[e].unary_polarity(p)) for p in sig.unary}

        def extensions(key) -> dict:
            """key's loops on the pair, plus (0, 1) and (1, 0) as each
            (fwd, bwd) bit pair says."""
            loops = [(e, e) for e in (0, 1) if key and ends[e].polarity(key)]
            return {
                (f, b): frozenset(loops + [(0, 1)] * f + [(1, 0)] * b)
                for f, b in itertools.product((False, True), repeat=2)
            }

        binary = [extensions(("b", r, "x", "x")) for r in sig.binary]
        dist = extensions(("t", "x", "x") if sig.dist is DistKind.TRANSITIVE else None)
        u2, thetas = self.u2, self.shape.thetas
        env: dict[str, int] = {}
        xy, yx = {"x": 0, "y": 1}, {"x": 1, "y": 0}
        entries = []
        for cross, nav in alts:
            tau = TwoType(sig, tx, ty, cross, nav)
            ext = {r: b[c] for r, b, c in zip(sig.binary, binary, cross)}
            holds = tarski(_PairStructure(sig, 2, unary, ext, dist[nav]), env)
            env.update(xy)
            if not holds(u2):
                continue
            env.update(yx)
            if not holds(u2):
                continue
            bwd = sum(1 << h for h, th in enumerate(thetas) if holds(th))
            env.update(xy)
            fwd = sum(1 << h for h, th in enumerate(thetas) if holds(th))
            entries.append((tau, fwd, bwd))
        return entries

    def _future_mask(self, ti: int, lo: int) -> int:
        """Union of witness masks type ti can still collect when all
        remaining partners have type code >= lo.  Type codes never decrease
        along the elements, so lo = codes[j] bounds what elements j+1..n-1
        can still give; lo = len(types) gives nothing."""
        arr = self._suffix.get(ti)
        if arr is None:
            count = len(self.types)
            arr = [0] * (count + 1)
            for c in range(count - 1, -1, -1):
                m = arr[c + 1]
                for _tau, fwd, _bwd in self._pair_entries(ti, c):
                    m |= fwd
                arr[c] = m
            self._suffix[ti] = arr
        return arr[lo]

    def run(self, n: int, node_limit: int) -> Optional[Structure]:
        if not self.types:
            return None
        self.node_limit = node_limit
        self.nodes = 0
        self.n = n
        self.codes: list[int] = []
        self.taus: dict[Pair, TwoType] = {}
        self.altidx: dict[Pair, int] = {}
        self.rel = [[False] * n for _ in range(n)]
        self.wit = [0] * n
        return self._place(0)

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise BudgetExceeded(f"typed search exceeded {self.node_limit} nodes")

    def _place(self, i: int) -> Optional[Structure]:
        if i == self.n:
            return self._finish()
        lo = self.codes[-1] if self.codes else 0
        for code in range(lo, len(self.types)):
            self._tick()
            if self.full_mask and self._future_mask(code, 0) != self.full_mask:
                # This type can never collect all witnesses.
                continue
            self.codes.append(code)
            if self.sig.dist is DistKind.TRANSITIVE:
                self.rel[i][i] = self.types[code].t_diag
            out = self._pairs(i, 0, i >= 1 and self.codes[i - 1] == code)
            if out is not None:
                return out
            self.codes.pop()
            self.rel[i][i] = False
        return None

    def _pairs(self, j: int, i: int, eq_prefix: bool) -> Optional[Structure]:
        """Place element j's pairs (i, j), (i+1, j), ..., then element j+1.

        eq_prefix tracks row-lex symmetry breaking between same-type
        neighbours: while element j's pair row equals element j-1's over
        the shared columns k < j-1, later entries may not drop below the
        neighbour's.  Any structure can be reordered block by block to
        satisfy this, so the restriction is exhaustive up to isomorphism.
        Once (i, j) is placed, and at the row's end for j itself, _starved
        cuts the subtree if the element lacks a witness its later partners
        cannot give: every leaf below would fail _finish's witness test."""
        if i == j:
            return None if self._starved(j, j) else self._place(j + 1)
        entries = self._pair_entries(self.codes[i], self.codes[j])
        prev_idx = self.altidx.get((i, j - 1)) if eq_prefix and i < j - 1 else None
        for idx, (tau, fwd, bwd) in enumerate(entries):
            if prev_idx is not None and idx < prev_idx:
                continue
            self._tick()
            a_ij, a_ji = tau.nav
            self.rel[i][j], self.rel[j][i] = a_ij, a_ji
            if self._transitive_at(i, j):
                self.taus[(i, j)] = tau
                self.altidx[(i, j)] = idx
                old_wi, old_wj = self.wit[i], self.wit[j]
                self.wit[i] |= fwd
                self.wit[j] |= bwd
                eq = prev_idx is not None and idx == prev_idx
                out = None if self._starved(i, j) else self._pairs(j, i + 1, eq)
                if out is not None:
                    return out
                self.wit[i], self.wit[j] = old_wi, old_wj
                del self.taus[(i, j)]
                del self.altidx[(i, j)]
            self.rel[i][j] = self.rel[j][i] = False
        return None

    def _starved(self, k: int, j: int) -> bool:
        """Element k, paired with every element up to j, misses a witness
        that elements j+1..n-1 cannot give it."""
        need = self.full_mask & ~self.wit[k]
        if not need:
            return False
        lo = self.codes[j] if j + 1 < self.n else len(self.types)
        return need & ~self._future_mask(self.codes[k], lo) != 0

    def _transitive_at(self, i: int, j: int) -> bool:
        # Triangles whose three pairs are all assigned: elements k < i
        # together with the pair (i, j) just placed.  Triangles through a
        # later k are checked when (k, j) is placed; degenerate triangles
        # are discharged at the 2-type level (a mutual relation forces both
        # diagonal bits).
        if self.sig.dist is DistKind.NONE:
            return True
        rel = self.rel
        ri, rj = rel[i], rel[j]
        ij, ji = ri[j], rj[i]
        for k in range(i):
            rk = rel[k]
            ik, ki, jk, kj = ri[k], rk[i], rj[k], rk[j]
            if ij and jk and not ik:
                return False
            if ik and kj and not ij:
                return False
            if ji and ik and not jk:
                return False
            if jk and ki and not ji:
                return False
            if ki and ij and not kj:
                return False
            if kj and ji and not ki:
                return False
        return True

    def _finish(self) -> Optional[Structure]:
        if any(w != self.full_mask for w in self.wit):
            return None
        for row in self.exist_ok:
            if not any(row[code] for code in self.codes):
                return None
        s = self._build()
        if self.shape.residual and not evaluate(s, conj(tuple(self.shape.residual))):
            return None
        if not evaluate(s, self.phi):
            raise VerificationFailure("typed engine produced a non-model; search tables are wrong")
        return s

    def _build(self) -> Structure:
        sig = self.sig
        types = [self.types[c] for c in self.codes]
        unary = {
            p: frozenset(a for a in range(self.n) if types[a].unary_polarity(p))
            for p in sig.unary
        }
        binary: dict[str, frozenset[Pair]] = {}
        for ridx, r in enumerate(sig.binary):
            ext = set()
            for a in range(self.n):
                if types[a].polarity(("b", r, "x", "x")):
                    ext.add((a, a))
            for (i, j), tau in self.taus.items():
                fwd, bwd = tau.cross[ridx]
                if fwd:
                    ext.add((i, j))
                if bwd:
                    ext.add((j, i))
            binary[r] = frozenset(ext)
        dist = frozenset(
            (a, b)
            for a in range(self.n)
            for b in range(self.n)
            if self.rel[a][b]
        )
        return Structure(sig, self.n, unary, binary, dist)


# ---------------------------------------------------------------------------
# Public search interface
# ---------------------------------------------------------------------------

_TYPED_TYPE_LIMIT = 64
_TYPED_ALT_LIMIT = 256
_TYPED_WITNESS_LIMIT = 64


def _engine(phi: Formula, sig: Signature, engine: str = "auto"):
    """The engine that searches phi at every size, by run(n, node_limit).

    With engine="auto", the typed engine takes a formula whose candidate
    1-types, pair alternatives and witness conjuncts, counted from the
    atoms actually used, are all within its limits, and which writes no
    t cross atom without a t(u,u) atom (the cross atom alone frees the loop
    bit, doubling the 1-types); every other formula goes to the grounded
    engine."""
    if engine == "ground":
        return GroundEngine(phi, sig)
    if engine not in ("auto", "typed"):
        raise LogicError(f"unknown engine {engine!r}")
    use = _collect_usage(phi, sig)
    if engine == "auto":
        transitive = sig.dist is DistKind.TRANSITIVE
        bits = len(use.unary) + len(use.diag) + (transitive and use.t_diag)
        alts = 4 ** len(use.cross)
        if (sig.dist is DistKind.PARTIAL_ORDER and use.nav) or (transitive and use.t_cross):
            alts *= 4
        if (
            2**bits > _TYPED_TYPE_LIMIT
            or alts > _TYPED_ALT_LIMIT
            or (transitive and use.t_cross and not use.t_diag)
        ):
            return GroundEngine(phi, sig)
    shape = _decompose(phi)
    if engine == "auto" and len(shape.thetas) > _TYPED_WITNESS_LIMIT:
        return GroundEngine(phi, sig)
    return _TypedEngine(phi, sig, use, shape)


def find_model(
    phi: Formula,
    sig: Signature,
    size: int,
    budget: Optional[SearchBudget] = None,
    engine: str = "auto",
) -> Optional[Structure]:
    """A model of exactly the given size, or None after exhaustive search.

    Exhaustive up to isomorphism at each size; any model returned has been
    verified with evaluate.  engine is "auto", "typed" or "ground"; see
    _engine for how "auto" chooses.
    """
    if size < 2:
        raise PreconditionError("model search starts at the 2-element convention")
    return _engine(phi, sig, engine).run(size, (budget or SearchBudget()).node_limit)


def smallest_model(
    phi: Formula, sig: Signature, budget: SearchBudget
) -> Optional[Structure]:
    """A model of the smallest size in 2..budget.max_size, or None.

    One engine searches every size, in increasing order, with
    budget.node_limit per size searched; BudgetExceeded from any size
    propagates."""
    search = _engine(phi, sig)
    for k in range(2, budget.max_size + 1):
        m = search.run(k, budget.node_limit)
        if m is not None:
            return m
    return None


def _subst_t_top(f: Formula) -> Formula:
    """Replace every atom of the distinguished transitive relation by verum."""
    return rewrite(f, lambda g: TRUE if isinstance(g, Atom) and g.pred == "t" else None)


#: The kind of distinguished relation each logic tag's signature has.
LOGIC_DIST = {
    "l2": DistKind.NONE,
    "l2-1po-u": DistKind.PARTIAL_ORDER,
    "l2-1po": DistKind.PARTIAL_ORDER,
    "l2-1t": DistKind.TRANSITIVE,
}


def decide(
    phi: Formula,
    sig: Signature,
    logic: str,
    budget: Optional[SearchBudget] = None,
) -> DecisionOutcome:
    """Bounded decision: search sizes 2..max_size, smallest model first.

    For the transitive logic, each size first tests single-clique
    satisfiability (a total distinguished relation) by replacing its atoms
    with verum, then searches general models of that size; the general
    engine is built at the first size that search is needed.  A formula
    with free variables is refused before any search.  A negative answer
    is sound only up to the bound and is labeled as such.
    """
    budget = budget or SearchBudget()
    _check_logic(sig, logic)
    free = free_vars(phi)
    if free:
        raise PreconditionError(f"unassigned free variables {sorted(free)}")
    plain = Signature(sig.unary, sig.binary, DistKind.NONE)
    clique = _engine(simplify(_subst_t_top(phi)), plain) if logic == "l2-1t" else None
    general = None
    try:
        for k in range(2, budget.max_size + 1):
            m = None if clique is None else clique.run(k, budget.node_limit)
            if m is not None:
                total = frozenset(itertools.product(m.domain(), repeat=2))
                m = Structure(sig, m.size, m.unary, m.binary, total)
                if not evaluate(m, phi):
                    raise VerificationFailure("single-clique lift failed verification")
            else:
                general = general or _engine(phi, sig)
                m = general.run(k, budget.node_limit)
            if m is not None:
                return DecisionOutcome.sat(m)
        return DecisionOutcome.no_model_up_to(budget.max_size)
    except BudgetExceeded as e:
        return DecisionOutcome.unknown(str(e))


def _check_logic(sig: Signature, logic: str) -> None:
    want = LOGIC_DIST.get(logic)
    if want is None:
        raise PreconditionError(f"unknown logic tag {logic!r}")
    if sig.dist is not want:
        raise PreconditionError(
            f"logic {logic} needs a {want.value} signature, got {sig.dist.value}"
        )
    if logic == "l2-1po-u" and sig.binary:
        raise PreconditionError("the unary fragment admits no ordinary binary predicates")


def find_expansion(
    base: Structure, phi: Formula, sig: Signature, budget: Optional[SearchBudget] = None
) -> Optional[Structure]:
    """An expansion of base to sig that satisfies phi, or None after
    exhaustive search.  sig is base's signature with more unary predicates;
    base's own atoms stay fixed, and only the new predicates vary.  The
    grounded engine searches, with budget.node_limit decisions."""
    own = base.sig
    if (own.binary, own.dist) != (sig.binary, sig.dist) or not set(own.unary) <= set(sig.unary):
        raise PreconditionError("an expansion adds unary predicates only")
    return GroundEngine(phi, sig).run(base.size, (budget or SearchBudget()).node_limit, base)


# ---------------------------------------------------------------------------
# Random generators for property testing
# ---------------------------------------------------------------------------


def random_structure(seed: int, sig: Signature, size: int, density: float = 0.4) -> Structure:
    """A reproducible random structure; the distinguished relation is a
    random strict partial order or transitive relation."""
    rng = random.Random(seed)
    unary = {
        p: frozenset(a for a in range(size) if rng.random() < 0.5)
        for p in sig.unary
    }
    binary = {
        r: frozenset(
            (a, b)
            for a in range(size)
            for b in range(size)
            if rng.random() < density
        )
        for r in sig.binary
    }
    dist: frozenset[Pair] = frozenset()
    if sig.dist is DistKind.PARTIAL_ORDER:
        perm = list(range(size))
        rng.shuffle(perm)
        base = {
            (perm[i], perm[j])
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < density
        }
        dist = transitive_closure(base)
    elif sig.dist is DistKind.TRANSITIVE:
        base = {
            (a, b)
            for a in range(size)
            for b in range(size)
            if rng.random() < density * 0.7
        }
        dist = transitive_closure(base)
    return Structure(sig, size, unary, binary, dist)


def random_formula(seed: int, sig: Signature, depth: int = 3) -> Formula:
    """A reproducible random sentence over the signature."""
    rng = random.Random(seed)

    def gen(d: int, bound: tuple[str, ...]) -> Formula:
        if d <= 0 or (rng.random() < 0.35 and bound):
            return gen_atom(bound)
        roll = rng.random()
        if roll < 0.25 and len(bound) < 2:
            var = "x" if "x" not in bound else "y"
            q = Forall if rng.random() < 0.5 else Exists
            return q(var, gen(d - 1, bound + (var,)))
        if roll < 0.4:
            return neg(gen(d - 1, bound))
        if roll < 0.6:
            return And((gen(d - 1, bound), gen(d - 1, bound)))
        if roll < 0.8:
            return Or((gen(d - 1, bound), gen(d - 1, bound)))
        return Implies(gen(d - 1, bound), gen(d - 1, bound))

    def gen_atom(bound: tuple[str, ...]) -> Formula:
        if not bound:
            return TRUE if rng.random() < 0.5 else FALSE
        choices = []
        for p in sig.unary:
            choices.append(lambda p=p: Atom(p, (rng.choice(bound),)))
        for r in sig.binary:
            choices.append(
                lambda r=r: Atom(r, (rng.choice(bound), rng.choice(bound)))
            )
        if sig.dist is DistKind.PARTIAL_ORDER and len(bound) == 2:
            choices.append(lambda: Atom("<", ("x", "y")))
            choices.append(lambda: Atom("<", ("y", "x")))
            choices.append(lambda: Atom("~", ("x", "y")))
        if sig.dist is DistKind.TRANSITIVE:
            choices.append(
                lambda: Atom("t", (rng.choice(bound), rng.choice(bound)))
            )
        if len(bound) == 2:
            choices.append(lambda: Eq("x", "y"))
        if not choices:
            return TRUE
        return rng.choice(choices)()

    var = "x"
    q = Forall if rng.random() < 0.5 else Exists
    parts = [q(var, gen(depth, (var,)))]
    while rng.random() < 0.4:
        q = Forall if rng.random() < 0.5 else Exists
        parts.append(q(var, gen(depth, (var,))))
    return conj(parts) if len(parts) > 1 else parts[0]
