"""Bounded finite-model finding and the decision front end.

Two exhaustive engines sit behind find_model.  The typed engine assigns
1-types to elements (in nondecreasing order, which breaks the full element
permutation symmetry while staying exhaustive up to isomorphism) and then
2-types to pairs, propagating the distinguished relation's constraints and
filtering against the universal part pair by pair; it enumerates every pair
alternative directly, so it takes only signatures with few 1-types and few
pair alternatives.  The grounded engine translates the formula and the
distinguished relation's axioms into propositional clauses over the fixed
domain; it takes every wider signature, such as those produced by binary
elimination and the clique reduction.  Every model found is re-verified
with evaluate before it is returned.  smallest_model tries sizes
2..max_size in order.

The grounded engine's clauses go to the conflict-driven clause learning
(CDCL) solver in cdcl.py, after Chaff (Moskewicz et al., DAC 2001) and MiniSat (Een
and Sorensson, SAT 2003).  Unit propagation watches two literals of each
long clause; a binary clause lives only in two implication lists.  Each
conflict is analysed back to its first unique implication point, and the
learnt clause is minimized locally: a literal goes if its reason holds only
literals already in the clause.  Branching takes the unassigned variable of
highest VSIDS activity from a heap that holds each variable at most once,
and gives it the polarity it last had (phase saving); until the first
conflict, that is an atom's variable, set false.  The search restarts after
100 times the next Luby term of conflicts.  SearchBudget.node_limit bounds
the typed engine's nodes and the solver's decisions, per find_model call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cdcl import CDCL
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
    NavKind,
    Not,
    OneType,
    Or,
    Pair,
    PreconditionError,
    Signature,
    Structure,
    TRUE,
    TwoType,
    conj,
    eval_on_pair_type,
    eval_unary_on_type,
    evaluate,
    free_vars,
    is_quantifier_free,
    neg,
    simplify,
    substitute,
)
from .factorization import transitive_closure
from .normal_forms import (
    _find_single_positive_exists,
    _orient,
    _replace_subformula,
    strip_distinct_eq,
)


@dataclass(frozen=True)
class SearchBudget:
    """Largest domain size to try, and the most nodes one find_model call
    may take: typed-engine nodes, or decisions of the grounded engine's
    solver (propagations and conflicts are not counted)."""

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


# ---------------------------------------------------------------------------
# Conjunct shape analysis shared by the typed engine
# ---------------------------------------------------------------------------


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


def _dec_conjunct(g: Formula, shape: _Shape) -> None:
    g = simplify(g)
    if is_quantifier_free(g):
        fv = free_vars(g)
        if fv <= {"x"}:
            shape.universal1.append(g)
        elif fv == {"y"}:
            shape.universal1.append(substitute(g, {"y": "x"}))
        else:
            shape.universal2.append(strip_distinct_eq(g))
            shape.universal1.append(simplify(substitute(g, {"y": "x"})))
        return
    if isinstance(g, Forall):
        u, body = g.var, _push_body(simplify(g.body))
        if is_quantifier_free(body):
            shape.universal1.append(
                substitute(body, {u: "x"}) if u != "x" else body
            )
            return
        if isinstance(body, And):
            for s in body.subs:
                _dec_conjunct(Forall(u, s), shape)
            return
        if isinstance(body, Forall):
            v, inner = body.var, body.body
            if v == u:
                _dec_conjunct(Forall(v, inner), shape)
                return
            if is_quantifier_free(inner):
                oriented = _orient(inner, u, v)
                if isinstance(oriented, Or) and any(
                    isinstance(s, Eq) for s in oriented.subs
                ):
                    rest = tuple(s for s in oriented.subs if not isinstance(s, Eq))
                    shape.universal2.append(
                        simplify(strip_distinct_eq(rest[0] if len(rest) == 1 else Or(rest)))
                    )
                else:
                    shape.universal2.append(simplify(strip_distinct_eq(oriented)))
                    shape.universal1.append(simplify(substitute(oriented, {"y": "x"})))
                return
        if isinstance(body, Exists):
            v, inner = body.var, body.body
            if v == u:
                _dec_conjunct(Exists(v, inner), shape)
                return
            if is_quantifier_free(inner):
                oriented = _orient(inner, u, v)
                if isinstance(oriented, And) and any(
                    s == neg(Eq("x", "y")) or s == neg(Eq("y", "x"))
                    for s in oriented.subs
                ):
                    rest = tuple(
                        s
                        for s in oriented.subs
                        if s != neg(Eq("x", "y")) and s != neg(Eq("y", "x"))
                    )
                    shape.thetas.append(
                        simplify(strip_distinct_eq(conj(rest)))
                    )
                else:
                    self_wit = simplify(substitute(oriented, {"y": "x"}))
                    shape.thetas.append(
                        simplify(Or((strip_distinct_eq(oriented), self_wit)))
                    )
                return
        hit = _find_single_positive_exists(body)
        if hit not in (None, "qf") and hit[1]:
            ex = hit[0]
            v = ex.var
            if v != u:
                marker = Atom("_hole_", ())
                ctx = _replace_subformula(body, ex, marker)
                if is_quantifier_free(_replace_subformula(ctx, marker, TRUE)):
                    ctx_xy = _orient(ctx, u, v)
                    chi_xy = _orient(ex.body, u, v)
                    chi_self = simplify(substitute(chi_xy, {"y": "x"}))
                    shape.thetas.append(
                        simplify(
                            strip_distinct_eq(
                                _replace_subformula(
                                    ctx_xy, marker, Or((chi_xy, chi_self))
                                )
                            )
                        )
                    )
                    return
        shape.residual.append(g)
        return
    if isinstance(g, Exists):
        u, body = g.var, simplify(g.body)
        if is_quantifier_free(body):
            shape.exist1.append(substitute(body, {u: "x"}) if u != "x" else body)
            return
    shape.residual.append(g)


def _decompose(phi: Formula) -> _Shape:
    shape = _Shape()
    phi = simplify(phi)
    for g in phi.subs if isinstance(phi, And) else (phi,):
        _dec_conjunct(g, shape)
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


def _collect_usage(f: Formula, sig: Signature, use: _Usage) -> None:
    if isinstance(f, Atom):
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
        return
    if isinstance(f, Eq):
        return
    if isinstance(f, Not):
        _collect_usage(f.sub, sig, use)
    elif isinstance(f, (And, Or)):
        for s in f.subs:
            _collect_usage(s, sig, use)
    elif isinstance(f, Implies):
        _collect_usage(f.left, sig, use)
        _collect_usage(f.right, sig, use)
    elif isinstance(f, (Forall, Exists)):
        _collect_usage(f.body, sig, use)
    else:
        raise LogicError(f"bad formula node {f!r}")


# ---------------------------------------------------------------------------
# Typed engine
# ---------------------------------------------------------------------------


class _TypedEngine:
    def __init__(self, phi: Formula, sig: Signature, budget: SearchBudget) -> None:
        self.phi = phi
        self.sig = sig
        self.budget = budget
        self.nodes = 0
        self.shape = _decompose(phi)
        use = _Usage()
        _collect_usage(phi, sig, use)
        self.usage = use
        keys = sig.one_type_keys()
        choices = []
        for key in keys:
            if key[0] == "u":
                choices.append((False, True) if key[1] in use.unary else (False,))
            elif key[0] == "diag":
                choices.append((False, True) if key[1] in use.diag else (False,))
            else:
                choices.append((False, True) if use.t_diag else (False,))
        u1 = self.shape.universal1
        self.types: list[OneType] = []
        for bits in itertools.product(*choices):
            tp = OneType(sig, bits)
            if all(eval_unary_on_type(g, tp) for g in u1):
                self.types.append(tp)
        self.u2 = conj(tuple(self.shape.universal2))
        self.exist_ok = [
            [eval_unary_on_type(g, tp) for tp in self.types]
            for g in self.shape.exist1
        ]
        self.full_mask = (1 << len(self.shape.thetas)) - 1
        self._pair_cache: dict[tuple[int, int], list] = {}
        self._reach_mask: dict[int, int] = {}
        self._suffix: dict[int, list[int]] = {}

    def _cross_choices(self):
        per = []
        for r in self.sig.binary:
            if r in self.usage.cross:
                per.append(((False, False), (True, False), (False, True), (True, True)))
            else:
                per.append(((False, False),))
        return per

    def _nav_choices(self, tx: OneType, ty: OneType):
        if self.sig.dist is DistKind.PARTIAL_ORDER:
            if self.usage.nav:
                return (NavKind.LT, NavKind.GT, NavKind.SIM)
            return (NavKind.SIM,)
        if self.sig.dist is DistKind.TRANSITIVE:
            if self.usage.t_cross:
                alts = [(False, False), (True, False), (False, True)]
                if tx.t_diag and ty.t_diag:
                    alts.append((True, True))
                return tuple(alts)
            return ((False, False),)
        return (None,)

    def _pair_entries(self, ti: int, tj: int):
        """Allowed 2-type completions for an ordered pair of 1-type codes,
        with bitmasks of the witness conjuncts each direction satisfies.

        Every alternative of the active cross and navigation bits is
        enumerated and kept if the universal part holds in both
        orientations; find_model sends signatures with more alternatives
        than this can afford to the grounded engine."""
        hit = self._pair_cache.get((ti, tj))
        if hit is not None:
            return hit
        tx, ty = self.types[ti], self.types[tj]
        taus = []
        for cross in itertools.product(*self._cross_choices()):
            for nav in self._nav_choices(tx, ty):
                tau = TwoType(self.sig, tx, ty, cross, nav)
                if self.shape.universal2 and not (
                    eval_on_pair_type(self.u2, tau)
                    and eval_on_pair_type(self.u2, tau.swap())
                ):
                    continue
                taus.append(tau)
        entries = []
        for tau in taus:
            fwd = 0
            bwd = 0
            swapped = tau.swap()
            for h, th in enumerate(self.shape.thetas):
                if eval_on_pair_type(th, tau):
                    fwd |= 1 << h
                if eval_on_pair_type(th, swapped):
                    bwd |= 1 << h
            entries.append((tau, fwd, bwd))
        self._pair_cache[(ti, tj)] = entries
        return entries

    def _reachable_mask(self, ti: int) -> int:
        """Union of witness masks achievable by type ti with any partner."""
        hit = self._reach_mask.get(ti)
        if hit is not None:
            return hit
        mask = self._future_mask(ti, 0)
        self._reach_mask[ti] = mask
        return mask

    def _future_mask(self, ti: int, lo: int) -> int:
        """Union of witness masks type ti can still collect when all
        remaining partners have type code >= lo."""
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

    def run(self, n: int) -> Optional[Structure]:
        if not self.types:
            return None
        self.n = n
        self.codes: list[int] = []
        self.taus: dict[Pair, TwoType] = {}
        self.altidx: dict[Pair, int] = {}
        self.rel = [[False] * n for _ in range(n)]
        self.wit = [0] * n
        return self._place(0)

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise BudgetExceeded(f"typed search exceeded {self.budget.node_limit} nodes")

    def _place(self, i: int) -> Optional[Structure]:
        if i == self.n:
            return self._finish()
        lo = self.codes[-1] if self.codes else 0
        if self.full_mask:
            # Witness feasibility for the already-placed elements: their
            # remaining partners all carry type codes >= lo.
            for k in range(i):
                need = self.full_mask & ~self.wit[k]
                if need and (self._future_mask(self.codes[k], lo) & need) != need:
                    return None
        for code in range(lo, len(self.types)):
            self._tick()
            if self.full_mask and self._reachable_mask(code) != self.full_mask:
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
        # eq_prefix tracks row-lex symmetry breaking between same-type
        # neighbours: while element j's pair row equals element j-1's over
        # the shared columns k < j-1, later entries may not drop below the
        # neighbour's.  Any structure can be reordered block by block to
        # satisfy this, so the restriction is exhaustive up to isomorphism.
        if i == j:
            return self._place(j + 1)
        entries = self._pair_entries(self.codes[i], self.codes[j])
        prev_idx = self.altidx.get((i, j - 1)) if eq_prefix and i < j - 1 else None
        for idx, (tau, fwd, bwd) in enumerate(entries):
            if prev_idx is not None and idx < prev_idx:
                continue
            self._tick()
            a_ij, a_ji = self._dist_bits(tau)
            self.rel[i][j], self.rel[j][i] = a_ij, a_ji
            if self._transitive_at(i, j):
                self.taus[(i, j)] = tau
                self.altidx[(i, j)] = idx
                old_wi, old_wj = self.wit[i], self.wit[j]
                self.wit[i] |= fwd
                self.wit[j] |= bwd
                out = self._pairs(
                    j, i + 1, prev_idx is not None and idx == prev_idx
                )
                if out is not None:
                    return out
                self.wit[i], self.wit[j] = old_wi, old_wj
                del self.taus[(i, j)]
                del self.altidx[(i, j)]
            self.rel[i][j] = self.rel[j][i] = False
        return None

    def _dist_bits(self, tau: TwoType) -> tuple[bool, bool]:
        if isinstance(tau.nav, NavKind):
            return tau.nav is NavKind.LT, tau.nav is NavKind.GT
        if isinstance(tau.nav, tuple):
            return tau.nav
        return False, False

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
            raise LogicError("typed engine produced a non-model; search tables are wrong")
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
                if types[a].polarity(("diag", r)):
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
# Grounded engine
# ---------------------------------------------------------------------------


class _GroundEngine:
    def __init__(self, phi: Formula, sig: Signature, budget: SearchBudget) -> None:
        self.phi = phi
        self.sig = sig
        self.budget = budget

    def run(self, n: int) -> Optional[Structure]:
        self.n = n
        self.var_of: dict[tuple, int] = {}
        self.clauses: list[list[int]] = []
        self.n_vars = 0
        if not self._ground():
            return None
        self._axioms()
        # The solver takes the clause lists over and empties self.clauses.
        cdcl = CDCL(self.n_vars, self.clauses, self.var_of.values())
        assignment = cdcl.solve(self.budget.node_limit)
        if assignment is None:
            return None
        s = self._decode(assignment)
        if not evaluate(s, self.phi):
            raise LogicError("grounded engine produced a non-model; grounding is wrong")
        return s

    def _ground(self) -> bool:
        """Add the formula's clauses; False if it is false outright.

        The root is asserted, not named: conjunctions split into separate
        constraints and a disjunction becomes one clause, so only the
        nodes below a disjunction get a definition variable."""
        root = self._node(self.phi, {}, True)
        if isinstance(root, bool):
            return root
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                self.clauses.append([node])
            elif node[0] == "and":
                stack.extend(node[1])
            else:
                self.clauses.append([self._cnfify(k) for k in node[1]])
        return True

    def _var(self, key: tuple) -> int:
        v = self.var_of.get(key)
        if v is None:
            self.n_vars += 1
            v = self.n_vars
            self.var_of[key] = v
        return v

    def _aux(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def _atom_node(self, f: Atom, env: dict[str, int], pol: bool):
        args = tuple(env[a] for a in f.args)
        name = f.pred
        if name in self.sig.unary:
            lit = self._var(("u", name, args[0]))
        elif name in self.sig.binary:
            lit = self._var(("b", name, args[0], args[1]))
        elif name == "<" and self.sig.dist is DistKind.PARTIAL_ORDER:
            if args[0] == args[1]:
                return not pol
            lit = self._var(("lt", args[0], args[1]))
        elif name == "~" and self.sig.dist is DistKind.PARTIAL_ORDER:
            a, b = args
            if a == b:
                return not pol
            u, v = self._var(("lt", a, b)), self._var(("lt", b, a))
            return ("and", [-u, -v]) if pol else ("or", [u, v])
        elif name == "t" and self.sig.dist is DistKind.TRANSITIVE:
            lit = self._var(("t", args[0], args[1]))
        else:
            raise LogicError(f"predicate {name!r} not in signature")
        return lit if pol else -lit

    def _node(self, f: Formula, env: dict[str, int], pol: bool):
        if isinstance(f, Atom):
            return self._atom_node(f, env, pol)
        if isinstance(f, Eq):
            return (env[f.left] == env[f.right]) == pol
        if isinstance(f, Not):
            return self._node(f.sub, env, not pol)
        if isinstance(f, (And, Or)):
            conjunctive = isinstance(f, And) == pol
            kids = [self._node(s, env, pol) for s in f.subs]
            return self._gather(kids, conjunctive)
        if isinstance(f, Implies):
            if pol:
                return self._gather(
                    [self._node(f.left, env, False), self._node(f.right, env, True)],
                    False,
                )
            return self._gather(
                [self._node(f.left, env, True), self._node(f.right, env, False)],
                True,
            )
        if isinstance(f, (Forall, Exists)):
            conjunctive = isinstance(f, Forall) == pol
            kids = []
            for a in range(self.n):
                env2 = dict(env)
                env2[f.var] = a
                kids.append(self._node(f.body, env2, pol))
            return self._gather(kids, conjunctive)
        raise LogicError(f"bad formula node {f!r}")

    @staticmethod
    def _gather(kids: list, conjunctive: bool):
        flat = []
        for k in kids:
            if isinstance(k, bool):
                if k == conjunctive:
                    continue
                return k
            flat.append(k)
        if not flat:
            return conjunctive
        if len(flat) == 1:
            return flat[0]
        return ("and" if conjunctive else "or", flat)

    def _cnfify(self, node) -> int:
        # Full two-sided definitions: the weaker one-sided variant is
        # sound here but propagates too little for unsatisfiable cores.
        if isinstance(node, int):
            return node
        kind, kids = node
        lits = [self._cnfify(k) for k in kids]
        z = self._aux()
        if kind == "and":
            for lit in lits:
                self.clauses.append([-z, lit])
            self.clauses.append([z] + [-lit for lit in lits])
        else:
            self.clauses.append([-z] + lits)
            for lit in lits:
                self.clauses.append([z, -lit])
        return z

    def _axioms(self) -> None:
        n = self.n
        if self.sig.dist is DistKind.PARTIAL_ORDER and any(
            k[0] == "lt" for k in self.var_of
        ):
            lt = {
                (a, b): self._var(("lt", a, b))
                for a in range(n)
                for b in range(n)
                if a != b
            }
            for a in range(n):
                for b in range(a + 1, n):
                    self.clauses.append([-lt[(a, b)], -lt[(b, a)]])
            for a, b, c in itertools.permutations(range(n), 3):
                self.clauses.append([-lt[(a, b)], -lt[(b, c)], lt[(a, c)]])
        if self.sig.dist is DistKind.TRANSITIVE and any(
            k[0] == "t" for k in self.var_of
        ):
            t = {
                (a, b): self._var(("t", a, b))
                for a in range(n)
                for b in range(n)
            }
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    for c in range(n):
                        if c == b:
                            continue
                        self.clauses.append([-t[(a, b)], -t[(b, c)], t[(a, c)]])

    def _decode(self, assign: list[int]) -> Structure:
        unary = {p: set() for p in self.sig.unary}
        binary = {r: set() for r in self.sig.binary}
        dist = set()
        for key, v in self.var_of.items():
            if assign[v] <= 0:
                continue
            if key[0] == "u":
                unary[key[1]].add(key[2])
            elif key[0] == "b":
                binary[key[1]].add((key[2], key[3]))
            elif key[0] in ("lt", "t"):
                dist.add((key[1], key[2]))
        return Structure(
            self.sig,
            self.n,
            {p: frozenset(s) for p, s in unary.items()},
            {r: frozenset(s) for r, s in binary.items()},
            frozenset(dist),
        )


# ---------------------------------------------------------------------------
# Public search interface
# ---------------------------------------------------------------------------

_TYPED_TYPE_LIMIT = 64
_TYPED_ALT_LIMIT = 256
_TYPED_WITNESS_LIMIT = 64


def _typed_scale(phi: Formula, sig: Signature) -> tuple[int, int]:
    """Candidate 1-type count and pair-alternative count for the typed
    engine, from the atoms actually used."""
    use = _Usage()
    _collect_usage(phi, sig, use)
    bits = len(use.unary) + len(use.diag)
    if sig.dist is DistKind.TRANSITIVE and use.t_diag:
        bits += 1
    alts = 4 ** len(use.cross)
    if (sig.dist is DistKind.PARTIAL_ORDER and use.nav) or (
        sig.dist is DistKind.TRANSITIVE and use.t_cross
    ):
        alts *= 4
    return 2**bits, alts


def find_model(
    phi: Formula,
    sig: Signature,
    size: int,
    budget: Optional[SearchBudget] = None,
    engine: str = "auto",
) -> Optional[Structure]:
    """A model of exactly the given size, or None after exhaustive search.

    Exhaustive up to isomorphism at each size; any model returned has been
    verified with evaluate.  With engine="auto", the typed engine takes a
    formula whose candidate 1-types, pair alternatives and witness
    conjuncts are all within its limits; every other formula goes to the
    grounded engine.
    """
    if size < 2:
        raise PreconditionError("model search starts at the 2-element convention")
    budget = budget or SearchBudget()
    if engine == "auto":
        n_types, n_alts = _typed_scale(phi, sig)
        if n_types <= _TYPED_TYPE_LIMIT and n_alts <= _TYPED_ALT_LIMIT:
            typed = _TypedEngine(phi, sig, budget)
            if len(typed.shape.thetas) <= _TYPED_WITNESS_LIMIT:
                return typed.run(size)
        return _GroundEngine(phi, sig, budget).run(size)
    if engine == "typed":
        return _TypedEngine(phi, sig, budget).run(size)
    if engine == "ground":
        return _GroundEngine(phi, sig, budget).run(size)
    raise LogicError(f"unknown engine {engine!r}")


def smallest_model(
    phi: Formula, sig: Signature, budget: SearchBudget
) -> Optional[Structure]:
    """A model of the smallest size in 2..budget.max_size, or None.

    One find_model call per size, in increasing order; BudgetExceeded from
    any size propagates."""
    for k in range(2, budget.max_size + 1):
        m = find_model(phi, sig, k, budget)
        if m is not None:
            return m
    return None


def _subst_t_top(f: Formula) -> Formula:
    """Replace every atom of the distinguished transitive relation by verum."""
    if isinstance(f, Atom):
        return TRUE if f.pred == "t" else f
    if isinstance(f, Eq):
        return f
    if isinstance(f, Not):
        return neg(_subst_t_top(f.sub))
    if isinstance(f, And):
        return And(tuple(_subst_t_top(s) for s in f.subs))
    if isinstance(f, Or):
        return Or(tuple(_subst_t_top(s) for s in f.subs))
    if isinstance(f, Implies):
        return Implies(_subst_t_top(f.left), _subst_t_top(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, _subst_t_top(f.body))
    raise LogicError(f"bad formula node {f!r}")


LOGIC_TAGS = ("l2", "l2-1po-u", "l2-1po", "l2-1t")


def decide(
    phi: Formula,
    sig: Signature,
    logic: str,
    budget: Optional[SearchBudget] = None,
) -> DecisionOutcome:
    """Bounded decision: search sizes 2..max_size, smallest model first.

    For the transitive logic, single-clique satisfiability (a total
    distinguished relation) is tested first by replacing its atoms with
    verum; then general models are searched.  A negative answer is sound
    only up to the bound and is labeled as such.
    """
    budget = budget or SearchBudget()
    _check_logic(sig, logic)
    try:
        if logic == "l2-1t":
            plain = Signature(sig.unary, sig.binary, DistKind.NONE)
            top = simplify(_subst_t_top(phi))
            m = smallest_model(top, plain, budget)
            if m is not None:
                total = frozenset(
                    (a, b) for a in m.domain() for b in m.domain()
                )
                full = Structure(sig, m.size, m.unary, m.binary, total)
                if not evaluate(full, phi):
                    raise LogicError("single-clique lift failed verification")
                return DecisionOutcome.sat(full)
        m = smallest_model(phi, sig, budget)
        if m is not None:
            return DecisionOutcome.sat(m)
        return DecisionOutcome.no_model_up_to(budget.max_size)
    except BudgetExceeded as e:
        return DecisionOutcome.unknown(str(e))


def _check_logic(sig: Signature, logic: str) -> None:
    if logic not in LOGIC_TAGS:
        raise PreconditionError(f"unknown logic tag {logic!r}")
    want = {
        "l2": DistKind.NONE,
        "l2-1po-u": DistKind.PARTIAL_ORDER,
        "l2-1po": DistKind.PARTIAL_ORDER,
        "l2-1t": DistKind.TRANSITIVE,
    }[logic]
    if sig.dist is not want:
        raise PreconditionError(
            f"logic {logic} needs a {want.value} signature, got {sig.dist.value}"
        )
    if logic == "l2-1po-u" and sig.binary:
        raise PreconditionError("the unary fragment admits no ordinary binary predicates")


def expansion_exists(
    base: Structure, phi: Formula, sig_ext: Signature, fresh: Sequence[str]
) -> Optional[Structure]:
    """Search assignments of fresh unary predicates over a fixed structure
    for an expansion satisfying phi."""
    fresh = list(fresh)
    n = base.size
    for bits in itertools.product((False, True), repeat=n * len(fresh)):
        unary = dict(base.unary)
        for i, p in enumerate(fresh):
            unary[p] = frozenset(
                a for a in range(n) if bits[i * n + a]
            )
        cand = Structure(sig_ext, n, unary, base.binary, base.dist)
        if evaluate(cand, phi):
            return cand
    return None


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
