"""Clause machinery, duplication, spread normal form and elimination."""

import itertools
import random

import pytest

from finsat.logic import (
    Atom,
    DistKind,
    key_formula,
    Signature,
    Structure,
    enumerate_semi_diagonal_types,
    evaluate,
    one_type_of,
    two_type_of,
)
from finsat.normal_forms import StandardNF, to_standard_nf
from finsat.parsing import parse_formula
from finsat.resolution import (
    clause_formula,
    clause_set_formula,
    cnf,
    complete_type,
    duplicate_nonroyal,
    eliminate_binaries,
    kings_of,
    reconstruct_model,
    resolve_closure,
    semi_type_literals,
    strip_binary,
    to_spread,
    transpose,
    type_literals,
)
from finsat.solver import SearchBudget, random_structure, smallest_model

from fixtures import REWRITE_SIGS
from oracles import naive_eval

SIG = Signature(("p", "q"), ("r",), DistKind.PARTIAL_ORDER)
SIG2 = Signature(("p",), ("r", "s"), DistKind.PARTIAL_ORDER)


def lits(*pairs):
    return frozenset(pairs)


def test_cnf_distribution():
    f = parse_formula("p(x) | (q(y) & r(x,y))", SIG)
    cs = cnf(f, SIG)
    assert cs == frozenset(
        {
            lits((True, ("u", "p", "x")), (True, ("u", "q", "y"))),
            lits((True, ("u", "p", "x")), (True, ("b", "r", "x", "y"))),
        }
    )


def test_cnf_literal_and_equivalence():
    f = parse_formula("p(x)", SIG)
    assert cnf(f, SIG) == frozenset({lits((True, ("u", "p", "x")))})
    rng = random.Random(4)
    for seed in range(30):
        # random quantifier-free formulas agree with their clause sets on
        # every 2-element valuation
        from finsat.solver import random_formula

        g = random_formula(seed, SIG, depth=2)
        while not _qf(g):
            seed += 1000
            g = random_formula(seed, SIG, depth=2)
        cs = cnf(_qf(g), SIG)
        for s_seed in range(6):
            s = random_structure(rng.randrange(10**6), SIG, 2)
            env = {"x": 0, "y": 1}
            assert evaluate(s, _qf(g), env) == evaluate(
                s, clause_set_formula(cs), env
            )


def _qf(g):
    from finsat.logic import is_quantifier_free, Exists, Forall

    while isinstance(g, (Exists, Forall)):
        g = g.body
    return g if is_quantifier_free(g) else None


def test_cnf_rejects_quantifiers():
    with pytest.raises(Exception):
        cnf(parse_formula("exists x p(x)", SIG), SIG)


def test_transpose_examples():
    cs = cnf(parse_formula("r(x,y)", SIG), SIG)
    assert transpose(cs) == cnf(parse_formula("r(y,x)", SIG), SIG)
    symmetric = cnf(parse_formula("r(x,y) & r(y,x)", SIG), SIG)
    assert transpose(symmetric) == symmetric
    for text in ("p(x) | q(y)", "r(x,x) & !r(y,y)", "x < y | x ~ y"):
        cs = cnf(parse_formula(text, SIG), SIG)
        assert transpose(transpose(cs)) == cs


def test_resolve_closure_one_step():
    cs = cnf(parse_formula("(r(x,y) | p(x)) & (!r(x,y) | q(y))", SIG), SIG)
    closure = resolve_closure(cs)
    resolvent = lits((True, ("u", "p", "x")), (True, ("u", "q", "y")))
    assert resolvent in closure


def test_resolve_closure_no_cross_atoms_fixed_point():
    cs = cnf(parse_formula("(p(x) | q(y)) & r(x,x)", SIG), SIG)
    assert resolve_closure(cs) == cs


def test_resolve_closure_derives_falsum():
    cs = cnf(parse_formula("r(x,y) & !r(x,y)", SIG), SIG)
    assert frozenset() in resolve_closure(cs)


def test_resolution_soundness_by_truth_table():
    rng = random.Random(9)
    for _ in range(25):
        cs = _random_clause_set(rng, SIG)
        closure = resolve_closure(cs)
        for tau_minus in enumerate_semi_diagonal_types(SIG):
            for tau in tau_minus.extensions():
                tl = type_literals(tau)
                sat_gamma = all(any(l in tl for l in c) for c in cs)
                if sat_gamma:
                    for c in closure:
                        assert any(l in tl for l in c)
        break  # one full truth-table pass is expensive; spot check the rest
    for _ in range(30):
        cs = _random_clause_set(rng, SIG)
        closure = resolve_closure(cs)
        tau = next(next(iter(enumerate_semi_diagonal_types(SIG))).extensions())
        tl = type_literals(tau)
        if all(any(l in tl for l in c) for c in cs):
            assert all(any(l in tl for l in c) for c in closure)


def _random_clause_set(rng, sig):
    atoms = []
    for p in sig.unary:
        atoms += [("u", p, "x"), ("u", p, "y")]
    for r in sig.binary:
        atoms += [
            ("b", r, "x", "y"),
            ("b", r, "y", "x"),
            ("b", r, "x", "x"),
            ("b", r, "y", "y"),
        ]
    atoms += [("lt", "x", "y"), ("lt", "y", "x"), ("sim",)]
    out = set()
    for _ in range(rng.randrange(1, 5)):
        clause = frozenset(
            (rng.random() < 0.5, rng.choice(atoms))
            for _ in range(rng.randrange(1, 4))
        )
        if not any((not s, a) in clause for s, a in clause):
            out.add(clause)
    return frozenset(out)


def test_strip_binary_examples():
    cs = cnf(parse_formula("r(x,y)", SIG), SIG)
    assert strip_binary(resolve_closure(cs)) == frozenset()
    cs = cnf(parse_formula("p(x)", SIG), SIG)
    assert strip_binary(cs) == cs
    kept = cnf(parse_formula("r(x,x) | p(y)", SIG), SIG)
    assert strip_binary(kept) == kept


def test_complete_type_empty_and_forced():
    tau_minus = next(iter(enumerate_semi_diagonal_types(SIG)))
    tau = complete_type(tau_minus, frozenset())
    assert tau is not None
    forced = cnf(parse_formula("r(x,y)", SIG), SIG)
    tau = complete_type(tau_minus, forced)
    assert tau is not None and tau.cross_of("r")[0]


def test_complete_type_agrees_with_brute_force():
    rng = random.Random(21)
    for trial in range(60):
        gamma = _random_clause_set(rng, SIG)
        circ = strip_binary(resolve_closure(gamma))
        for tau_minus in enumerate_semi_diagonal_types(SIG):
            tl = semi_type_literals(tau_minus)
            entails = all(any(l in tl for l in c) for c in circ)
            brute = any(
                all(any(l in type_literals(t) for l in c) for c in gamma)
                for t in tau_minus.extensions()
            )
            got = complete_type(tau_minus, gamma)
            if entails:
                assert brute and got is not None
                assert all(any(l in type_literals(got) for l in c) for c in gamma)
            if got is not None:
                assert brute
            break  # one semi-diagonal type per clause set keeps this fast


def test_kings_census():
    s = Structure(SIG, 3, {"p": frozenset({0, 1}), "q": frozenset()}, {}, frozenset())
    assert kings_of(s) == frozenset({2})
    same = Structure(SIG, 2, {"p": frozenset()}, {}, frozenset())
    assert kings_of(same) == frozenset()
    distinct = Structure(SIG, 2, {"p": frozenset({0})}, {}, frozenset())
    assert kings_of(distinct) == frozenset({0, 1})


def test_duplicate_all_royal_no_growth():
    s = Structure(SIG, 2, {"p": frozenset({0})}, {}, frozenset())
    dup = duplicate_nonroyal(s, 3)
    assert dup.structure.size == 2


def test_duplicate_antichain_two_copies():
    s = Structure(SIG, 2, {"p": frozenset()}, {}, frozenset())
    dup = duplicate_nonroyal(s, 2)
    assert dup.structure.size == 4
    from finsat.logic import check_distinguished

    assert check_distinguished(dup.structure) == []


def test_duplicate_preserves_two_type_census():
    for seed in range(50):
        s = random_structure(seed, SIG, 2 + seed % 4)
        dup = duplicate_nonroyal(s, 2 + seed % 2)
        big = dup.structure
        base_types = {
            two_type_of(s, a, b)
            for a, b in itertools.permutations(s.domain(), 2)
        }
        big_types = {
            two_type_of(big, a, b)
            for a, b in itertools.permutations(big.domain(), 2)
        }
        assert base_types == big_types


UP_TO_5 = SearchBudget(max_size=5)


def snf_fixture(seed):
    """Small satisfiable standard-normal-form fixtures over SIG."""
    texts = [
        ("p(x) -> (q(y) | r(x,y))", "r(x,y) & !(y < x)"),
        ("!r(x,x)", "p(y) & x < y"),
        ("r(x,y) -> p(y)", "q(y) | r(y,x)"),
        ("p(x) | p(y) | !r(x,y)", "p(y) & !(x ~ y)"),
    ][seed % 4]
    eta = parse_formula(texts[0], SIG)
    theta = parse_formula(texts[1], SIG)
    return StandardNF(eta, (theta,))


def test_to_spread_satisfied_by_witness_model():
    for seed in range(4):
        snf = snf_fixture(seed)
        model = smallest_model(snf.to_formula(), SIG, UP_TO_5)
        if model is None:
            continue
        res = to_spread(snf, model)
        assert res.spread.multiplicity == 3 * snf.multiplicity
        assert evaluate(res.model, res.spread.to_formula())
        # the spread formula implies the original on its own witness model
        assert evaluate(res.model, snf.to_formula())


def test_spread_witnesses_never_reciprocal():
    snf = snf_fixture(0)
    model = smallest_model(snf.to_formula(), SIG, UP_TO_5)
    res = to_spread(snf, model)
    spread, big = res.spread, res.model
    witness_of: dict[int, set[int]] = {}
    for a in big.domain():
        k_idx = next(
            (k for k in range(3) if evaluate(big, spread.lams[k], {"x": a})),
            None,
        )
        if k_idx is None:
            continue
        for h, (mu, delta) in enumerate(zip(spread.mus, spread.deltas)):
            from finsat.logic import And, substitute

            want = And(
                (
                    substitute(spread.lams[(k_idx + 1) % 3], {"x": "y"}),
                    substitute(mu, {"x": "y"}),
                    clause_set_formula(delta),
                )
            )
            b = next(
                c for c in big.domain() if c != a and evaluate(big, want, {"x": a, "y": c})
            )
            witness_of.setdefault(a, set()).add(b)
    for a, bs in witness_of.items():
        assert len(bs) == len(spread.mus)  # pairwise distinct witnesses
        for b in bs:
            assert a not in witness_of.get(b, set())  # never reciprocal


def hatify(spread, elim, model):
    """A spread model becomes a model of the eliminated formula by reading
    the diagonal markers off and dropping the binaries."""
    unary = {p: model.unary_of(p) for p in spread.sig.unary}
    for r, hat in elim.hat_of.items():
        unary[hat] = frozenset(
            a for a in model.domain() if (a, a) in model.binary_of(r)
        )
    return Structure(elim.sig_prime, model.size, unary, {}, model.dist)


def test_eliminate_binaries_same_domains():
    for seed in range(4):
        snf = snf_fixture(seed)
        model = smallest_model(snf.to_formula(), SIG, UP_TO_5)
        if model is None:
            continue
        res = to_spread(snf, model)
        elim = eliminate_binaries(res.spread)
        assert elim.weak.multiplicity == res.spread.multiplicity
        # forward: the witness model maps onto the eliminated formula
        lifted = hatify(res.spread, elim, res.model)
        assert evaluate(lifted, elim.weak.to_formula())
        # backward: a found model reconstructs on the same domain
        m2 = smallest_model(elim.weak.to_formula(), elim.sig_prime, SearchBudget(max_size=3))
        if m2 is not None:
            rebuilt = reconstruct_model(res.spread, elim, m2)
            assert rebuilt.size == m2.size
            assert evaluate(rebuilt, res.spread.to_formula())


def test_reconstruct_rejects_non_models():
    snf = snf_fixture(0)
    model = smallest_model(snf.to_formula(), SIG, UP_TO_5)
    res = to_spread(snf, model)
    elim = eliminate_binaries(res.spread)
    bogus = Structure(
        elim.sig_prime, 2, {p: frozenset() for p in elim.sig_prime.unary}, {}, frozenset()
    )
    if not evaluate(bogus, elim.weak.to_formula()):
        with pytest.raises(Exception):
            reconstruct_model(res.spread, elim, bogus)


def test_type_literals_hold_in_their_structure():
    for seed in range(20):
        for sig in REWRITE_SIGS:
            s = random_structure(seed, sig, 2 + seed % 2)
            for a, b in itertools.permutations(s.domain(), 2):
                for sign, key in type_literals(two_type_of(s, a, b)):
                    assert evaluate(s, key_formula(key), {"x": a, "y": b}) == sign
