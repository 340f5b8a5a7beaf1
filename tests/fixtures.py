"""Shared fixture builders for the test suite."""

from __future__ import annotations

import itertools
import random

from finsat.logic import (
    And,
    Atom,
    DistKind,
    OneType,
    Signature,
    Structure,
    TRUE,
    conj,
    enumerate_one_types,
    evaluate,
    neg,
    subformulas,
)
from finsat.factorization import Factorization, TypedPartialOrder, fc_holds, transitive_closure
from finsat.normal_forms import BasicFormula, BasicKind, TransitiveNF
from finsat.parsing import parse_formula
from finsat.solver import random_formula, random_structure

PO2 = Signature(("p", "q"), (), DistKind.PARTIAL_ORDER)
TS = Signature(("a", "b"), (), DistKind.TRANSITIVE)

#: The smallest transitive-NF axiom of infinity: every element is an
#: a-element without a t-loop, and every a-element has a strictly t-greater
#: element.  It has no finite model.
MIN_INF = TransitiveNF(
    etas=tuple(parse_formula("!t(x,x) & a(x)", TS) for _ in range(4)),
    guards=(("b", "a", "b", "b"),),
    thetas=(tuple(parse_formula(t, TS) for t in ("false", "true", "false", "false")),),
)

#: A TS sentence whose search runs out of a small node budget whichever
#: engine searches it.  The typed engine runs out of 10 nodes, and of 50, at
#: every size from 2.  The grounded engine, given the sentence, settles
#: sizes 2-3 within 10 decisions and sizes 2-4 within 50, and runs out at
#: the next size; given its transitive normal form, it runs out of 50 at
#: size 2.
BUDGET_OUT = "forall x exists y (t(x,y) & !t(y,x) & b(y)) & exists x (a(x) & !t(x,x))"


#: One signature per kind: plain with a binary, partial order with two
#: unaries, transitive, and partial order with a binary.
REWRITE_SIGS = (
    Signature(("p",), ("r",), DistKind.NONE),
    Signature(("p", "q"), (), DistKind.PARTIAL_ORDER),
    Signature(("p",), (), DistKind.TRANSITIVE),
    Signature((), ("r",), DistKind.PARTIAL_ORDER),
)


def rewrite_cases(n_seeds: int = 30):
    """Per seed and signature of REWRITE_SIGS: a random structure of size 2
    or 3, and every distinct subformula of a random depth-3 sentence, so
    open formulas in x and y and nested binders are all exercised."""
    for seed in range(n_seeds):
        for sig in REWRITE_SIGS:
            s = random_structure(seed, sig, 2 + seed % 2)
            yield s, set(subformulas(random_formula(seed, sig, depth=3)))


def po_sig(n_unary: int) -> Signature:
    return Signature(tuple("pqrs"[:n_unary]), (), DistKind.PARTIAL_ORDER)


def random_tpo(seed: int, size: int, sig: Signature = PO2) -> TypedPartialOrder:
    return TypedPartialOrder.from_structure(random_structure(seed, sig, size))


def mu_pool(sig: Signature) -> list:
    """Small unary pure Boolean formulas for witness shapes."""
    out = [TRUE]
    for p in sig.unary:
        out.append(Atom(p, ("x",)))
        out.append(neg(Atom(p, ("x",))))
    if len(sig.unary) >= 2:
        out.append(And((Atom(sig.unary[0], ("x",)), neg(Atom(sig.unary[1], ("x",))))))
    return out


def sample_true_basic_set(
    tpo: TypedPartialOrder, seed: int, max_formulas: int = 14
) -> tuple[BasicFormula, ...]:
    """A random selection of basic formulas that hold in the given order."""
    rng = random.Random(seed)
    sig = tpo.sig
    s = tpo.to_structure()
    realized = sorted(set(tpo.types), key=lambda t: t.bits)
    candidates: list[BasicFormula] = []
    for alpha in realized:
        candidates.append(BasicFormula(BasicKind.B1A, alpha=alpha))
        candidates.append(BasicFormula(BasicKind.B2A, alpha=alpha))
        candidates.append(BasicFormula(BasicKind.B5A, alpha=alpha))
        for mu in mu_pool(sig):
            for kind in (BasicKind.B6, BasicKind.B7, BasicKind.B8):
                candidates.append(BasicFormula(kind, alpha=alpha, mu=mu))
    for alpha, beta in itertools.permutations(realized, 2):
        for kind in (
            BasicKind.B1B,
            BasicKind.B2B,
            BasicKind.B3,
            BasicKind.B4,
            BasicKind.B5B,
        ):
            candidates.append(BasicFormula(kind, alpha=alpha, beta=beta))
    for mu in mu_pool(sig):
        candidates.append(BasicFormula(BasicKind.B9, mu=mu))
        candidates.append(BasicFormula(BasicKind.B10, mu=mu))
    rng.shuffle(candidates)
    chosen: list[BasicFormula] = []
    for cand in candidates:
        if len(chosen) >= max_formulas:
            break
        if evaluate(s, cand.to_formula()):
            chosen.append(cand)
    return tuple(chosen)


def ladder_fixture(shape: int):
    """Stacked-block fixtures with a duplicated middle segment.

    Returns (factorization, basic set); the element order is exactly the
    inter-block order, so the order is thin over the factorization by
    construction, and the factorization is unitary (non-singleton blocks
    are antichains).
    """
    sig = po_sig(2) if shape % 3 != 2 else po_sig(3)
    types = enumerate_one_types(sig)
    period = [types[1], types[2 % len(types)]]
    if shape % 3 == 2:
        period = [types[1], types[2], types[4]]
    # Enough repetitions that interior occurrences of every period type
    # exist on both sides of a cut pair (extremal blocks pin the map).
    reps = 5 + (shape % 2)
    sizes = [1] * len(period)
    if shape % 4 == 1:
        sizes[0] = 2  # antichain block in the repeated segment
    blocks: list[tuple[OneType, int]] = []
    for _ in range(reps):
        for tp, size in zip(period, sizes):
            blocks.append((tp, size))
    # Caps of a distinct type at both ends keep the extremal picture stable.
    cap = types[0]
    blocks = [(cap, 1)] + blocks + [(cap, 1)]
    chain = list(range(len(blocks)))
    block_order = transitive_closure((i, i + 1) for i in chain[:-1])
    members: list[frozenset[int]] = []
    tp_list: list[OneType] = []
    next_id = 0
    for tp, size in blocks:
        ids = frozenset(range(next_id, next_id + size))
        next_id += size
        members.append(ids)
        tp_list.extend([tp] * size)
    order = frozenset(
        (a, b)
        for i, j in block_order
        for a in members[i]
        for b in members[j]
    )
    tpo = TypedPartialOrder(tuple(tp_list), order)
    fact = Factorization(tpo, tuple(members), block_order)
    psis = [
        psi
        for psi in sample_true_basic_set(tpo, seed=shape, max_formulas=10)
        if not psi.factor_controllable or fc_holds(fact, psi)
    ]
    return fact, tuple(psis)


def transitive_fixture_signature() -> Signature:
    return Signature(("a", "b"), (), DistKind.TRANSITIVE)
