"""Spread normal form, non-royal duplication, and the elimination of
ordinary binary predicates by resolution.

Clauses here are propositional over the two-variable atoms; resolution is
permitted only on cross atoms r(x,y)/r(y,x) of ordinary binary predicates,
so a clause set closed under it and stripped of cross atoms determines
exactly which semi-diagonal 2-types extend to full 2-types satisfying the
original set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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
    OneType,
    Or,
    Pair,
    PreconditionError,
    SemiDiagonalTwoType,
    Signature,
    Structure,
    TRUE,
    TwoType,
    VerificationFailure,
    atom,
    atom_key,
    conj,
    disj,
    enumerate_one_types,
    evaluate,
    is_quantifier_free,
    key_formula,
    neg,
    one_type_of,
    simplify,
    substitute,
    swap_key,
    two_type_of,
)
from .normal_forms import StandardNF, WeakNF, fresh_names, strip_distinct_eq

# A literal is (sign, atom key); logic.atom_key names the atoms.
Literal = tuple[bool, tuple]
Clause = frozenset  # of Literal
ClauseSet = frozenset  # of Clause


def clause_formula(clause: Clause) -> Formula:
    lits = sorted(clause)
    return disj(tuple(
        key_formula(k) if sign else neg(key_formula(k)) for sign, k in lits
    ))


def clause_set_formula(cs: ClauseSet) -> Formula:
    return conj(tuple(clause_formula(c) for c in sorted(cs, key=sorted)))


def _is_tautology(clause: Clause) -> bool:
    return any((not sign, key) in clause for sign, key in clause)


def cnf(f: Formula, sig: Signature) -> ClauseSet:
    """Clausify a quantifier- and equality-free formula."""
    if not is_quantifier_free(f):
        raise PreconditionError("clausification requires a quantifier-free formula")

    def walk(g: Formula, pol: bool) -> list[frozenset]:
        if g == TRUE or g == FALSE:
            empty = (g == TRUE) == pol
            return [] if empty else [frozenset()]
        if isinstance(g, Atom):
            return [frozenset(((pol, atom_key(g, sig)),))]
        if isinstance(g, Eq):
            raise PreconditionError("clauses are equality-free")
        if isinstance(g, Not):
            return walk(g.sub, not pol)
        if isinstance(g, Implies):
            return walk(Or((neg(g.left), g.right)), pol)
        conjunctive = isinstance(g, And) == pol
        kid_lists = [walk(s, pol) for s in g.subs]
        if conjunctive:
            return [c for kids in kid_lists for c in kids]
        out = [frozenset()]
        for kids in kid_lists:
            out = [c | d for c in out for d in kids]
        return out

    return frozenset(c for c in walk(simplify(f), True) if not _is_tautology(c))


def transpose(cs: ClauseSet) -> ClauseSet:
    """Swap the roles of x and y in every literal; an involution."""
    return frozenset(
        frozenset((sign, swap_key(k)) for sign, k in clause) for clause in cs
    )


def _cross_atoms_of(clause: Clause) -> list[tuple]:
    return [k for _sign, k in clause if k[0] == "b" and k[2] != k[3]]


def resolve_closure(cs: ClauseSet) -> ClauseSet:
    """Least superset closed under resolution on ordinary binary cross
    atoms; tautologies are dropped, subsumption is not applied."""
    clauses = {c for c in cs if not _is_tautology(c)}
    work = list(clauses)
    while work:
        c1 = work.pop()
        for key in _cross_atoms_of(c1):
            if (True, key) not in c1:
                continue
            for c2 in list(clauses):
                if (False, key) not in c2:
                    continue
                resolvent = frozenset(
                    (c1 - {(True, key)}) | (c2 - {(False, key)})
                )
                if _is_tautology(resolvent) or resolvent in clauses:
                    continue
                clauses.add(resolvent)
                work.append(resolvent)
    return frozenset(clauses)


def strip_binary(cs: ClauseSet) -> ClauseSet:
    """Drop every clause mentioning an ordinary binary cross atom; diagonal
    atoms may remain."""
    return frozenset(c for c in cs if not _cross_atoms_of(c))


def type_literals(tau: TwoType) -> frozenset[Literal]:
    out = semi_type_literals(tau)
    for r, (fwd, bwd) in zip(tau.sig.binary, tau.cross):
        out |= {(fwd, ("b", r, "x", "y")), (bwd, ("b", r, "y", "x"))}
    return out


def semi_type_literals(tm: SemiDiagonalTwoType | TwoType) -> frozenset[Literal]:
    """The literals of a (semi-diagonal) 2-type but its ordinary binary
    cross atoms."""
    keys = tm.sig.one_type_keys()
    out = set(zip(tm.x.bits, keys))
    out.update(zip(tm.y.bits, map(swap_key, keys)))
    fwd, bwd = tm.nav
    if tm.sig.dist is DistKind.PARTIAL_ORDER:
        out.update({(fwd, ("lt", "x", "y")), (bwd, ("lt", "y", "x")), (not (fwd or bwd), ("sim",))})
    elif tm.sig.dist is DistKind.TRANSITIVE:
        out.update({(fwd, ("t", "x", "y")), (bwd, ("t", "y", "x"))})
    return frozenset(out)


def _violates(lits: frozenset[Literal], cs) -> bool:
    for clause in cs:
        if all((not sign, key) in lits for sign, key in clause):
            return True
    return False


def _satisfies(lits: frozenset[Literal], cs) -> bool:
    return all(any(lit in lits for lit in clause) for clause in cs)


def complete_type(
    tau_minus: SemiDiagonalTwoType, gamma: ClauseSet
) -> Optional[TwoType]:
    """Extend a semi-diagonal 2-type to a full 2-type satisfying gamma.

    Descends through the cross atoms in a fixed order, keeping the partial
    extension clear of the resolution closure's violations; guaranteed to
    succeed whenever the semi-diagonal type entails the cross-free part of
    the closure.
    """
    closure = resolve_closure(gamma)
    lits = set(semi_type_literals(tau_minus))
    if _violates(frozenset(lits), closure):
        return None
    sig = tau_minus.sig
    chosen: dict[tuple[str, str, str], bool] = {}
    for r in sig.binary:
        for u, v in (("x", "y"), ("y", "x")):
            key = ("b", r, u, v)
            for sign in (True, False):
                if not _violates(frozenset(lits | {(sign, key)}), closure):
                    lits.add((sign, key))
                    chosen[(r, u, v)] = sign
                    break
            else:
                return None
    cross = tuple(
        (chosen[(r, "x", "y")], chosen[(r, "y", "x")]) for r in sig.binary
    )
    tau = tau_minus.with_cross(cross)
    if not _satisfies(type_literals(tau), gamma):
        raise VerificationFailure("completed 2-type fails the clause set")
    return tau


# ---------------------------------------------------------------------------
# Kings and non-royal duplication
# ---------------------------------------------------------------------------


def kings_of(s: Structure) -> frozenset[int]:
    """Elements uniquely realizing their 1-type."""
    census: dict[OneType, list[int]] = {}
    for a in s.domain():
        census.setdefault(one_type_of(s, a), []).append(a)
    return frozenset(v[0] for v in census.values() if len(v) == 1)


@dataclass(frozen=True)
class DuplicationResult:
    structure: Structure
    copy_maps: tuple[dict[int, int], ...]  # for rounds 2..copies: new -> original
    non_royal: tuple[int, ...]


def duplicate_nonroyal(s: Structure, copies: int) -> DuplicationResult:
    """Append copies-1 rounds of duplicates of the non-royal elements.

    Each duplicate takes its buddy's 2-type towards its original and its
    original's 2-types towards everything else; the distinguished order
    stays a partial order, no new 2-types appear, and each copy map
    preserves 2-types towards older elements.  All of this is asserted.
    """
    if s.sig.dist is not DistKind.PARTIAL_ORDER:
        raise PreconditionError("duplication is defined over partial-order signatures")
    if copies < 1:
        raise PreconditionError("need at least one copy")
    royal = kings_of(s)
    b1 = tuple(a for a in s.domain() if a not in royal)
    buddy = {}
    for a in b1:
        tp = one_type_of(s, a)
        buddy[a] = min(b for b in s.domain() if b != a and one_type_of(s, b) == tp)
    unary = {p: set(s.unary_of(p)) for p in s.sig.unary}
    binary = {r: set(s.binary_of(r)) for r in s.sig.binary}
    dist = set(s.dist)
    size = s.size
    maps = []
    for _i in range(2, copies + 1):
        round_map: dict[int, int] = {}
        for a in b1:
            e = size
            size += 1
            bd = buddy[a]
            for p in s.sig.unary:
                if a in unary[p]:
                    unary[p].add(e)
            for r in s.sig.binary:
                if (a, a) in binary[r]:
                    binary[r].add((e, e))
                if (bd, a) in binary[r]:
                    binary[r].add((e, a))
                if (a, bd) in binary[r]:
                    binary[r].add((a, e))
            if (bd, a) in dist:
                dist.add((e, a))
            if (a, bd) in dist:
                dist.add((a, e))
            for b in range(e):
                if b == a:
                    continue
                for r in s.sig.binary:
                    if (a, b) in binary[r]:
                        binary[r].add((e, b))
                    if (b, a) in binary[r]:
                        binary[r].add((b, e))
                if (a, b) in dist:
                    dist.add((e, b))
                if (b, a) in dist:
                    dist.add((b, e))
            round_map[e] = a
        maps.append(round_map)
    out = Structure(
        s.sig,
        size,
        {p: frozenset(v) for p, v in unary.items()},
        {r: frozenset(v) for r, v in binary.items()},
        frozenset(dist),
    )
    _assert_duplication(s, out, maps)
    return DuplicationResult(out, tuple(maps), b1)


def _assert_duplication(
    base: Structure, out: Structure, maps: Sequence[dict[int, int]]
) -> None:
    from .logic import check_distinguished
    from .parsing import write_structure

    def fail(msg: str) -> None:
        raise VerificationFailure(msg, write_structure(base))

    if check_distinguished(out):
        fail("duplication broke the partial order")
    base_types = {
        two_type_of(base, a, b)
        for a, b in itertools.permutations(base.domain(), 2)
    }
    for a, b in itertools.permutations(out.domain(), 2):
        if two_type_of(out, a, b) not in base_types:
            fail(f"duplication realized a new 2-type at ({a},{b})")
    total = {}
    for rm in maps:
        total.update(rm)
    for a in base.domain():
        total.setdefault(a, a)
    for rm in maps:
        for e, orig in rm.items():
            for b in base.domain():
                if b != orig and two_type_of(out, e, b) != two_type_of(base, orig, b):
                    fail(f"copy {e} disagrees with {orig} towards {b}")
            for e2, orig2 in total.items():
                if e2 < e and orig2 != orig and e2 not in base.domain():
                    if two_type_of(out, e, e2) != two_type_of(base, orig, orig2):
                        fail(f"copies {e},{e2} disagree with {orig},{orig2}")


# ---------------------------------------------------------------------------
# Court labelling and spread normal form
# ---------------------------------------------------------------------------


def labels(preds: Sequence[str], count: int, args: tuple[str, ...]) -> list[Formula]:
    """Labels 0..count-1 over preds: bit i of a label's index signs the
    i-th predicate.  All labels share one atom and one negation per
    predicate."""
    lits = [(Not(Atom(p, args)), Atom(p, args)) for p in preds]
    return [
        conj(tuple(pair[(k >> i) & 1] for i, pair in enumerate(lits)))
        for k in range(count)
    ]


@dataclass(frozen=True)
class CourtLabelling:
    kings: tuple[int, ...]
    court: tuple[int, ...]  # kings first
    q_preds: tuple[str, ...]
    qh_preds: tuple[tuple[str, ...], ...]  # per witness index


def _mutually_exclusive(formulas: Sequence[Formula], sig: Signature) -> bool:
    """Brute-force pairwise exclusivity over the predicates mentioned."""
    from .logic import eval_unary_on_type, formula_predicates

    preds = sorted(
        set().union(*(formula_predicates(f) for f in formulas)) & set(sig.unary)
    )
    small = Signature(tuple(preds), (), DistKind.NONE)
    for tp in enumerate_one_types(small):
        hits = [f for f in formulas if eval_unary_on_type(f, tp)]
        if len(hits) > 1:
            return False
    return True


@dataclass(frozen=True)
class SpreadNF:
    """Witnesses cycle through three disjoint labels, so witnesses are
    never shared between rounds or reciprocated."""

    sig: Signature
    z: tuple[Formula, ...]
    gamma: ClauseSet
    lams: tuple[Formula, Formula, Formula]
    mus: tuple[Formula, ...]
    deltas: tuple[ClauseSet, ...]
    court: Optional[CourtLabelling] = None

    def __post_init__(self) -> None:
        if len(self.mus) != len(self.deltas) or not self.mus:
            raise LogicError("spread normal form needs matching witness lists")
        if not _mutually_exclusive(self.lams, self.sig):
            raise LogicError("spread labels are not mutually exclusive")
        if len(self.mus) > 1 and not _mutually_exclusive(self.mus, self.sig):
            raise LogicError("witness labels are not mutually exclusive")

    @property
    def multiplicity(self) -> int:
        return 3 * len(self.mus)

    def to_formula(self) -> Formula:
        parts: list[Formula] = [Exists("x", zeta) for zeta in self.z]
        parts.append(
            Forall(
                "x",
                Forall("y", Or((Eq("x", "y"), clause_set_formula(self.gamma)))),
            )
        )
        for k in range(3):
            for h, (mu, delta) in enumerate(zip(self.mus, self.deltas)):
                body = Implies(
                    self.lams[k],
                    And(
                        (
                            substitute(self.lams[(k + 1) % 3], {"x": "y"}),
                            substitute(mu, {"x": "y"}),
                            clause_set_formula(delta),
                        )
                    ),
                )
                parts.append(Forall("x", Exists("y", body)))
        return conj(parts)


@dataclass(frozen=True)
class SpreadResult:
    spread: SpreadNF
    model: Structure  # satisfies the spread formula
    sig_star: Signature


def to_spread(snf: StandardNF, model: Structure) -> SpreadResult:
    """Convert a standard normal form with a witnessing model into spread
    normal form.

    The output implies the input, is satisfied by an explicit expansion of
    a duplicated copy of the model, and has multiplicity exactly three
    times the input's.  The construction records the court of the model
    (kings plus their chosen witnesses), pins its diagram, labels the
    elements whose witnesses are royal, and spreads all remaining witness
    obligations over three duplication families.
    """
    sig = model.sig
    if sig.dist is not DistKind.PARTIAL_ORDER:
        raise PreconditionError("spread normal form is defined over partial orders")
    phi = snf.to_formula()
    if not evaluate(model, phi):
        raise PreconditionError("the structure is not a model of the input")
    m = snf.multiplicity

    # Force at least two kings if necessary, with two fresh marker predicates.
    if len(kings_of(model)) < 2:
        forcers = fresh_names(sig, "k", 2)
        sig = sig.with_unary(forcers)
        unary = dict(model.unary)
        unary[forcers[0]] = frozenset((0,))
        unary[forcers[1]] = frozenset((1,))
        model = Structure(sig, model.size, unary, model.binary, model.dist)
    base_size = model.size
    dup = duplicate_nonroyal(model, 3 * m)
    big = dup.structure
    # The 3m duplication families, re-indexed by witness slot and label:
    # round i (1-based) becomes family ((i-1) // 3, (i-1) % 3); round 1 is
    # the original non-royal elements.
    family: dict[int, tuple[int, int]] = {a: (0, 0) for a in dup.non_royal}
    for idx, rm in enumerate(dup.copy_maps):
        h, k = (idx + 1) // 3, (idx + 1) % 3
        for e in rm:
            family[e] = (h, k)

    kings = tuple(sorted(kings_of(model)))
    court = list(kings)
    for a in kings:
        for h in range(m):
            b = min(
                c
                for c in range(base_size)
                if c != a and evaluate(model, snf.thetas[h], {"x": a, "y": c})
            )
            if b not in court:
                court.append(b)
    s_count, t_count = len(kings), len(court)
    if not s_count <= t_count <= (m + 1) * 2 ** (len(sig.unary) + len(sig.binary)):
        raise VerificationFailure("court size bound violated")

    t_bits = max(1, math.ceil(math.log2(t_count + 1)))
    s_bits = max(1, math.ceil(math.log2(s_count + 1)))
    q_preds = fresh_names(sig, "q", t_bits)
    sig1 = sig.with_unary(q_preds)
    qh_preds = []
    for h in range(m):
        names = fresh_names(sig1, f"q{h}_", s_bits)
        qh_preds.append(names)
        sig1 = sig1.with_unary(names)
    o_preds = fresh_names(sig1, "o", 3)
    sig1 = sig1.with_unary(o_preds)
    p_preds = fresh_names(sig1, "sp", m)
    sig_star = sig1.with_unary(p_preds)

    labelling = CourtLabelling(kings, tuple(court), q_preds, tuple(qh_preds))
    court_x = labels(q_preds, t_count, ("x",))
    court_y = labels(q_preds, t_count, ("y",))
    king_x = [labels(qh_preds[h], s_count, ("x",)) for h in range(m)]

    # Interpret the labels over the duplicated structure.
    unary = dict(big.unary)
    court_index = {c: i for i, c in enumerate(court)}
    for j, p in enumerate(q_preds):
        unary[p] = frozenset(
            a
            for a in big.domain()
            if (court_index.get(a, t_count) >> j) & 1
        )
    for h in range(m):
        label_of: dict[int, int] = {}
        for a in big.domain():
            if a in kings:
                label_of[a] = s_count
                continue
            hits = [
                i
                for i, c in enumerate(kings)
                if evaluate(big, snf.thetas[h], {"x": a, "y": c}) and c != a
            ]
            label_of[a] = hits[0] if hits else s_count
        for j, p in enumerate(qh_preds[h]):
            unary[p] = frozenset(a for a in big.domain() if (label_of[a] >> j) & 1)
    for k in range(3):
        unary[o_preds[k]] = frozenset(
            a for a, (h, kk) in family.items() if kk == k
        )
    for h in range(m):
        unary[p_preds[h]] = frozenset(
            a for a, (hh, kk) in family.items() if hh == h
        )
    witnessed = Structure(sig_star, big.size, unary, big.binary, big.dist)

    lams = (
        Atom(o_preds[0], ("x",)),
        And((Atom(o_preds[1], ("x",)), neg(Atom(o_preds[0], ("x",))))),
        And(
            (
                Atom(o_preds[2], ("x",)),
                neg(Atom(o_preds[0], ("x",))),
                neg(Atom(o_preds[1], ("x",))),
            )
        ),
    )
    mus = tuple(
        conj(
            tuple(
                [Atom(p_preds[h], ("x",))]
                + [neg(Atom(p_preds[g], ("x",))) for g in range(h)]
            )
        )
        for h in range(m)
    )

    # Universal part: the input's own matrix, the court diagram, the royal
    # witness guarantees, and the partition of the non-court elements.
    psi_parts: list[Formula] = [snf.eta]
    for i in range(t_count):
        for j in range(i + 1, t_count):
            tau = two_type_of(big, court[i], court[j])
            psi_parts.append(Implies(And((court_x[i], court_y[j])), tau.formula()))
    for h in range(m):
        for i in range(s_count):
            psi_parts.append(Implies(And((king_x[h][i], court_y[i])), snf.thetas[h]))
    psi_parts.append(disj(tuple(court_x[:s_count]) + tuple(lams)))
    gamma = cnf(simplify(conj(psi_parts)), sig_star)

    deltas = []
    for h in range(m):
        guard = conj(tuple(neg(label) for label in king_x[h]))
        deltas.append(cnf(simplify(Implies(guard, snf.thetas[h])), sig_star))

    z = tuple(court_x)
    spread = SpreadNF(
        sig_star, z, gamma, lams, mus, tuple(deltas), labelling
    )
    if not evaluate(witnessed, spread.to_formula()):
        from .parsing import write_structure

        raise VerificationFailure(
            "spread expansion fails its own formula", write_structure(model)
        )
    return SpreadResult(spread, witnessed, sig_star)


# ---------------------------------------------------------------------------
# Binary-predicate elimination and model reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationResult:
    weak: WeakNF
    sig_prime: Signature  # unary-only partial-order signature
    hat_of: dict[str, str]  # ordinary binary -> fresh unary diagonal marker
    gamma_circ: ClauseSet
    delta_circs: tuple[ClauseSet, ...]


def _hat_clause(clause: Clause, hat_of: dict[str, str]) -> Clause:
    out = set()
    for sign, key in clause:
        if key[0] == "b":
            if key[2] != key[3]:
                raise LogicError("cross atom survived stripping")
            out.add((sign, ("u", hat_of[key[1]], key[2])))
        else:
            out.add((sign, key))
    return frozenset(out)


def eliminate_binaries(spread: SpreadNF) -> EliminationResult:
    """Close the clause sets under resolution, strip cross atoms, and
    replace the surviving diagonal atoms by fresh unary predicates.

    The result is a weak normal form over a unary partial-order signature,
    satisfiable over exactly the same domains as the input.
    """
    sig = spread.sig
    both = frozenset(spread.gamma | transpose(spread.gamma))
    gamma_circ = strip_binary(resolve_closure(both))
    delta_circs = tuple(
        strip_binary(resolve_closure(frozenset(d | both)))
        for d in spread.deltas
    )
    hats = fresh_names(sig, "dg", len(sig.binary))
    hat_of = dict(zip(sig.binary, hats))
    sig_prime = Signature(sig.unary + hats, (), DistKind.PARTIAL_ORDER)

    def hatted(cs: ClauseSet) -> Formula:
        return conj(
            tuple(
                clause_formula(_hat_clause(c, hat_of))
                for c in sorted(cs, key=sorted)
            )
        )

    eta = simplify(hatted(gamma_circ))
    thetas = []
    for k in range(3):
        for h, mu in enumerate(spread.mus):
            thetas.append(
                simplify(
                    Implies(
                        spread.lams[k],
                        And(
                            (
                                substitute(spread.lams[(k + 1) % 3], {"x": "y"}),
                                substitute(mu, {"x": "y"}),
                                hatted(delta_circs[h]),
                            )
                        ),
                    )
                )
            )
    weak = WeakNF(spread.z, eta, tuple(thetas))
    return EliminationResult(weak, sig_prime, hat_of, gamma_circ, delta_circs)


def reconstruct_model(
    spread: SpreadNF, elim: EliminationResult, m_prime: Structure
) -> Structure:
    """Rebuild a model of the spread formula over the same domain as a
    model of the eliminated formula.

    Witness pairs are completed against the witness clause sets first (the
    disjoint labels guarantee no pair is completed twice), remaining pairs
    against the universal set; the result is verified.
    """
    if not evaluate(m_prime, elim.weak.to_formula()):
        raise PreconditionError("structure is not a model of the eliminated formula")
    sig = spread.sig
    n = m_prime.size
    unary = {p: m_prime.unary_of(p) for p in sig.unary}
    binary = {
        r: set(
            (a, a) for a in range(n) if a in m_prime.unary_of(elim.hat_of[r])
        )
        for r in sig.binary
    }
    dist = m_prime.dist
    base = Structure(sig, n, unary, {r: frozenset(v) for r, v in binary.items()}, dist)
    both = frozenset(spread.gamma | transpose(spread.gamma))
    assigned: set[frozenset[int]] = set()

    def set_pair(a: int, b: int, tau: TwoType) -> None:
        if frozenset((a, b)) in assigned:
            raise VerificationFailure("a witness pair was completed twice")
        assigned.add(frozenset((a, b)))
        for r, (fwd, bwd) in zip(sig.binary, tau.cross):
            if fwd:
                binary[r].add((a, b))
            else:
                binary[r].discard((a, b))
            if bwd:
                binary[r].add((b, a))
            else:
                binary[r].discard((b, a))

    hatted_deltas = [
        conj(
            tuple(
                clause_formula(_hat_clause(c, elim.hat_of))
                for c in sorted(d, key=sorted)
            )
        )
        for d in elim.delta_circs
    ]
    for a in range(n):
        k_of_a = next(
            (k for k in range(3) if evaluate(m_prime, spread.lams[k], {"x": a})),
            None,
        )
        if k_of_a is None:
            continue
        for h, mu in enumerate(spread.mus):
            want = And(
                (
                    substitute(spread.lams[(k_of_a + 1) % 3], {"x": "y"}),
                    substitute(mu, {"x": "y"}),
                    hatted_deltas[h],
                )
            )
            b = next(
                c
                for c in range(n)
                if c != a and evaluate(m_prime, want, {"x": a, "y": c})
            )
            tau_minus = two_type_of(base, a, b).semi_diagonal()
            tau = complete_type(
                tau_minus, frozenset(spread.deltas[h] | both)
            )
            if tau is None:
                raise VerificationFailure(
                    "witness completion failed; the input was not a model after all"
                )
            set_pair(a, b, tau)
    for a in range(n):
        for b in range(a + 1, n):
            if frozenset((a, b)) in assigned:
                continue
            tau_minus = two_type_of(base, a, b).semi_diagonal()
            tau = complete_type(tau_minus, both)
            if tau is None:
                raise VerificationFailure(
                    "pair completion failed; the input was not a model after all"
                )
            set_pair(a, b, tau)
    out = Structure(
        sig, n, unary, {r: frozenset(v) for r, v in binary.items()}, dist
    )
    if not evaluate(out, spread.to_formula()):
        from .parsing import write_structure

        raise VerificationFailure(
            "reconstructed structure fails the spread formula",
            write_structure(m_prime),
        )
    return out
