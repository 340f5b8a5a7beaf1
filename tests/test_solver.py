"""Bounded model search: decide, smallest_model, and the engines checked
against each other and against brute-force enumeration."""

import itertools
import random

import pytest

from finsat.cdcl import CDCL
from finsat.logic import DistKind, Signature, evaluate
from finsat.parsing import parse_formula
from finsat.solver import (
    BudgetExceeded,
    SearchBudget,
    decide,
    find_model,
    random_formula,
    smallest_model,
)

from oracles import all_structures, cnf_satisfiable

T0 = Signature((), (), DistKind.TRANSITIVE)
PQR = Signature(("p", "q", "r"), (), DistKind.NONE)
AXIOM = "forall x !t(x,x) & forall x exists y t(x,y)"
# Three pairwise exclusive, nonempty unary predicates: the smallest model
# has three elements.
THREE = (
    "exists x p(x) & exists x q(x) & exists x r(x)"
    " & forall x ((p(x) -> !q(x) & !r(x)) & (q(x) -> !r(x)))"
)


def test_decide_sat_returns_a_verified_smallest_model():
    phi = parse_formula(THREE, PQR)
    out = decide(phi, PQR, "l2", SearchBudget(max_size=4))
    assert out.kind == "sat" and out.size == 3
    assert evaluate(out.model, phi)


def test_decide_no_model_up_to_the_bound():
    out = decide(parse_formula(AXIOM, T0), T0, "l2-1t", SearchBudget(max_size=3))
    assert out.kind == "no_model_up_to" and out.bound == 3 and out.model is None
    assert "beyond the bound" in out.report


def test_decide_budget_out_is_unknown():
    budget = SearchBudget(max_size=4, node_limit=10)
    out = decide(parse_formula(AXIOM, T0), T0, "l2-1t", budget)
    assert out.kind == "unknown" and "10 nodes" in out.report


def test_smallest_model_returns_the_smallest_size():
    phi = parse_formula(THREE, PQR)
    assert find_model(phi, PQR, 2) is None
    m = smallest_model(phi, PQR, SearchBudget(max_size=5))
    assert m is not None and m.size == 3 and evaluate(m, phi)
    assert smallest_model(phi, PQR, SearchBudget(max_size=2)) is None


DIFF_SIGS = {
    "l2": Signature(("p",), ("r",), DistKind.NONE),
    "po": Signature(("p", "q"), (), DistKind.PARTIAL_ORDER),
    "transitive": Signature(("p",), (), DistKind.TRANSITIVE),
    "po-r": Signature((), ("r",), DistKind.PARTIAL_ORDER),
}
# A binary atom over two variables also reads the diagonal, since both
# variables may denote one element.
DIAGONAL_CASES = (
    "forall x forall y r(x,y)",
    "exists x forall y (x != y | r(x,y))",
    "forall x exists y (x = y & r(x,y))",
)


def _differential(phi, sig):
    for k in (2, 3):
        got = {
            engine: find_model(phi, sig, k, engine=engine)
            for engine in ("typed", "ground", "auto")
        }
        for m in got.values():
            assert m is None or (m.size == k and evaluate(m, phi))
        brute = any(evaluate(s, phi) for s in all_structures(sig, k))
        assert {e: m is not None for e, m in got.items()} == dict.fromkeys(got, brute)


@pytest.mark.parametrize("name", sorted(DIFF_SIGS))
def test_engines_agree_with_brute_force(name):
    sig = DIFF_SIGS[name]
    for seed in range(20):
        _differential(random_formula(seed, sig, depth=3), sig)


@pytest.mark.parametrize("text", DIAGONAL_CASES)
def test_engines_agree_on_diagonal_reads(text):
    sig = DIFF_SIGS["l2"]
    _differential(parse_formula(text, sig), sig)


def test_auto_and_ground_agree_on_a_wide_signature():
    sig = Signature(("p",), ("r1", "r2", "r3", "r4", "r5"), DistKind.NONE)
    phi = parse_formula(
        "forall x forall y (r1(x,y) -> r2(y,x))"
        " & forall x forall y (r3(x,y) & p(x) -> !r4(x,y))"
        " & forall x exists y (x != y & r5(x,y) & r1(x,y))"
        " & exists x p(x)",
        sig,
    )
    for k in (2, 3):
        auto = find_model(phi, sig, k)
        ground = find_model(phi, sig, k, engine="ground")
        assert (auto is None) == (ground is None)
        for m in (auto, ground):
            assert m is None or (m.size == k and evaluate(m, phi))


def _random_3cnf(seed: int) -> tuple[int, list[list[int]]]:
    """8-14 variables at the clause/variable ratio 4.26, where random
    3-CNFs are about as often satisfiable as not."""
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    return n, [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(round(4.26 * n))
    ]


def _pigeonhole(pigeons: int, holes: int) -> tuple[int, list[list[int]]]:
    """Every pigeon in a hole, no two in one hole: unsatisfiable when
    there are more pigeons than holes."""
    var = lambda i, j: i * holes + j + 1
    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(a, j), -var(b, j)])
    return pigeons * holes, clauses


def _cdcl(n_vars, clauses, node_limit=10**6):
    """The solver's answer, with any assignment checked against the
    clauses (the solver takes its input over, so it gets copies)."""
    assignment = CDCL(n_vars, [list(c) for c in clauses]).solve(node_limit)
    if assignment is not None:
        assert all(any(assignment[lit] == 1 for lit in c) for c in clauses)
    return assignment


def test_cdcl_agrees_with_brute_force_on_random_3cnf():
    answers = set()
    for seed in range(200):
        n, clauses = _random_3cnf(seed)
        sat = _cdcl(n, clauses) is not None
        assert sat == cnf_satisfiable(n, clauses), f"seed {seed}"
        answers.add(sat)
    assert answers == {True, False}


def test_cdcl_refutes_pigeonhole():
    assert _cdcl(*_pigeonhole(4, 3)) is None
    cdcl = CDCL(*_pigeonhole(7, 6))
    assert cdcl.solve(10**6) is None
    assert cdcl.conflicts > 2 * CDCL.RESTART_UNIT  # so it has restarted


def test_cdcl_budget_counts_decisions():
    with pytest.raises(BudgetExceeded, match="exceeded 100 nodes"):
        _cdcl(*_pigeonhole(7, 6), node_limit=100)


@pytest.mark.parametrize(
    "clauses, sat",
    [
        ([[1, 1, 2], [-1, -1], [-2, 3, -2]], True),  # repeated literals
        ([[1, -1, 2], [2, -2], [-2]], True),  # tautologies
        ([[1], [-1, 2], [-2, 1, 3], [-3]], True),  # units at level 0
        ([[1], [-1]], False),
        ([[1, 2], []], False),
    ],
)
def test_cdcl_loads_degenerate_clauses(clauses, sat):
    assert (_cdcl(3, clauses) is not None) == sat == cnf_satisfiable(3, clauses)
