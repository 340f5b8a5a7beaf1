"""Factorization algebra: constructors, refinement, thinness."""

import ast
import itertools
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from finsat.logic import DistKind, PreconditionError, Signature, enumerate_one_types, evaluate
from finsat.factorization import (
    DerivedOrders,
    Factorization,
    TypedPartialOrder,
    common_refinement,
    derived_orders,
    factor_for_b3,
    factor_for_b5b,
    factorize_for,
    fc_holds,
    is_refinement,
    is_thin,
    thin,
    transitive_closure,
    trivial_factorization,
    unit_refinement,
)
from finsat.normal_forms import BasicFormula, BasicKind

from fixtures import PO2, random_tpo, sample_true_basic_set
from oracles import brute_closure, refines

SIG1 = Signature(("p",), (), DistKind.PARTIAL_ORDER)
T1 = enumerate_one_types(SIG1)
T2 = enumerate_one_types(PO2)


def chain_tpo(types, edges=None):
    n = len(types)
    base = edges if edges is not None else [(i, i + 1) for i in range(n - 1)]
    return TypedPartialOrder(tuple(types), transitive_closure(base))


def test_trivial_factorization_shapes():
    tpo = chain_tpo([T1[0], T1[1], T1[1]])
    f = trivial_factorization(tpo)
    assert f.n_blocks == 2 and not f.order
    homo = TypedPartialOrder((T1[1], T1[1]), frozenset())
    assert trivial_factorization(homo).n_blocks == 1


def test_trivial_factorization_valid_on_random_orders():
    for seed in range(100):
        trivial_factorization(random_tpo(seed, 3 + seed % 6))  # validates F1-F3


def test_factor_for_b3_chain():
    tpo = chain_tpo([T1[0], T1[1]])
    f = factor_for_b3(tpo, T1[0], T1[1])
    assert f.n_blocks == 2 and len(f.order) == 1


def test_factor_for_b3_no_alpha_elements():
    tpo = TypedPartialOrder((T1[1], T1[1]), frozenset())
    f = factor_for_b3(tpo, T1[0], T1[1])
    assert f == trivial_factorization(tpo)


def test_factor_for_b3_checks_precondition():
    tpo = TypedPartialOrder((T1[0], T1[1]), frozenset())
    with pytest.raises(PreconditionError):
        factor_for_b3(tpo, T1[0], T1[1])


def test_factor_for_b3_controls_on_random_conforming_orders():
    psi = BasicFormula(BasicKind.B3, alpha=T2[1], beta=T2[2])
    found = 0
    for seed in range(1200):
        tpo = random_tpo(seed, 4 + seed % 4)
        if not evaluate(tpo.to_structure(), psi.to_formula()):
            continue
        if psi.alpha not in tpo.types or psi.beta not in tpo.types:
            continue
        f = factor_for_b3(tpo, psi.alpha, psi.beta)
        assert fc_holds(f, psi)
        found += 1
        if found >= 50:
            break
    assert found >= 50


def test_factor_for_b5b_alternating_chain():
    # alpha, beta, alpha, beta fully interleaved chain of four
    types = [T2[1], T2[2], T2[1], T2[2]]
    tpo = chain_tpo(types)
    f = factor_for_b5b(tpo, T2[1], T2[2])
    assert f.n_blocks == 4
    idx = [i for i in range(4)]
    assert all(
        f.less(i, j) or f.less(j, i) for i, j in itertools.combinations(idx, 2)
    )
    assert fc_holds(f, BasicFormula(BasicKind.B5B, alpha=T2[1], beta=T2[2]))


def test_factor_for_b5b_other_types_form_single_blocks():
    types = [T2[1], T2[2], T2[0], T2[0]]
    tpo = TypedPartialOrder(tuple(types), transitive_closure([(0, 1)]))
    f = factor_for_b5b(tpo, T2[1], T2[2])
    gamma_blocks = [b for b in f.blocks if tpo.types[min(b)] == T2[0]]
    assert len(gamma_blocks) == 1 and len(gamma_blocks[0]) == 2


def test_refinement_laws():
    for seed in range(30):
        tpo = random_tpo(seed, 5)
        f = trivial_factorization(tpo)
        assert is_refinement(f, f)
        u = unit_refinement(f)
        assert is_refinement(u, f)


def test_common_refinement_idempotent_and_refines_both():
    for seed in range(100):
        tpo = random_tpo(seed, 4 + seed % 5)
        trivial = trivial_factorization(tpo)
        assert common_refinement(trivial, trivial) == trivial
        realized = sorted(set(tpo.types), key=lambda t: t.bits)
        pair = None
        for a, b in itertools.permutations(realized, 2):
            psi = BasicFormula(BasicKind.B5B, alpha=a, beta=b)
            if evaluate(tpo.to_structure(), psi.to_formula()):
                pair = (a, b)
                break
        if pair is None:
            continue
        g = factor_for_b5b(tpo, *pair)
        both = common_refinement(trivial, g)
        assert is_refinement(both, trivial) and is_refinement(both, g)
        assert refines(both, trivial) and refines(both, g)
        assert common_refinement(both, g) == both


def test_common_refinement_preserves_controlled_constraints():
    for seed in range(60):
        tpo = random_tpo(seed, 6)
        realized = sorted(set(tpo.types), key=lambda t: t.bits)
        controlled = []
        facts = [trivial_factorization(tpo)]
        for a, b in itertools.permutations(realized, 2):
            b3 = BasicFormula(BasicKind.B3, alpha=a, beta=b)
            if evaluate(tpo.to_structure(), b3.to_formula()):
                facts.append(factor_for_b3(tpo, a, b))
                controlled.append(b3)
        f = facts[0]
        for g in facts[1:]:
            f = common_refinement(f, g)
        for psi in controlled:
            assert fc_holds(f, psi)


def test_factorize_for_unitary_and_controlled():
    for seed in range(40):
        tpo = random_tpo(seed, 5 + seed % 4)
        psis = sample_true_basic_set(tpo, seed)
        f = factorize_for(tpo, psis)
        assert f.is_unitary
        for psi in psis:
            if psi.factor_controllable:
                assert fc_holds(f, psi)


def test_factorize_for_b5a_forces_unit_blocks():
    # when the basic set makes a type linear, its blocks end up singletons
    for seed in range(200):
        tpo = random_tpo(seed, 5)
        psi = BasicFormula(BasicKind.B5A, alpha=T2[1])
        if T2[1] not in tpo.types:
            continue
        if not evaluate(tpo.to_structure(), psi.to_formula()):
            continue
        f = factorize_for(tpo, (psi,))
        for i in range(f.n_blocks):
            if f.block_types[i] == T2[1]:
                assert f.is_unit(i)
        return
    pytest.skip("no conforming fixture found")


def test_fc_holds_shapes():
    tpo = chain_tpo([T2[1], T2[2]])
    f = factor_for_b3(tpo, T2[1], T2[2])
    assert fc_holds(f, BasicFormula(BasicKind.B3, alpha=T2[1], beta=T2[2]))
    incomparable = TypedPartialOrder((T2[1], T2[2]), frozenset())
    g = trivial_factorization(incomparable)
    assert not fc_holds(g, BasicFormula(BasicKind.B3, alpha=T2[1], beta=T2[2]))
    assert not fc_holds(g, BasicFormula(BasicKind.B5B, alpha=T2[1], beta=T2[2]))
    single = TypedPartialOrder((T2[1], T2[1]), frozenset())
    h = trivial_factorization(single)
    assert fc_holds(h, BasicFormula(BasicKind.B3, alpha=T2[1], beta=T2[2]))
    with pytest.raises(PreconditionError):
        fc_holds(h, BasicFormula(BasicKind.B9, mu=T2[1].formula()))


def test_thin_fixed_point():
    for seed in range(20):
        tpo = random_tpo(seed, 6)
        f = factorize_for(tpo, sample_true_basic_set(tpo, seed, 6))
        dotted = thin(f)
        g = f.with_tpo(dotted)
        assert is_thin(g)
        assert thin(g) == dotted  # closure is a fixed point


def test_thin_drops_unforced_cross_type_edge():
    # 1 sits strictly inside its type's chain, so its cross-type edge to 3
    # is neither inter-block, intra-block nor extremal and gets dropped.
    types = (T2[1], T2[1], T2[1], T2[2])
    order = transitive_closure([(0, 1), (1, 2), (1, 3)])
    tpo = TypedPartialOrder(types, order)
    f = trivial_factorization(tpo)
    lessdot = derived_orders(f).lessdot
    assert (1, 3) in tpo.order
    assert (1, 3) not in lessdot


def test_thin_same_type_pairs_unchanged():
    for seed in range(40):
        tpo = random_tpo(seed, 6)
        f = trivial_factorization(tpo)
        dotted = thin(f)
        for a, b in itertools.permutations(range(6), 2):
            if tpo.types[a] == tpo.types[b]:
                assert tpo.less(a, b) == dotted.less(a, b)


def test_lessdot_contained_and_partial_order():
    for seed in range(40):
        tpo = random_tpo(seed, 7)
        f = trivial_factorization(tpo)
        d = derived_orders(f)
        assert d.lessdot <= tpo.order
        assert d.lessdot == brute_closure(d.inter | d.intra | d.extremal)


def test_thin_preserves_basic_set():
    for seed in range(40):
        tpo = random_tpo(seed, 6)
        psis = sample_true_basic_set(tpo, seed)
        f = factorize_for(tpo, psis)
        dotted = thin(f)
        assert dotted.satisfies(psis)


def test_is_thin_examples():
    antichain = TypedPartialOrder((T2[1], T2[2], T2[1]), frozenset())
    assert is_thin(trivial_factorization(antichain))
    dense = random_tpo(11, 7)
    f = trivial_factorization(dense)
    assert is_thin(f) == (derived_orders(f).lessdot == dense.order)


def _callers_of_all(tree: ast.AST, names: set):
    """Each function whose body (nested functions included) calls every
    one of names, by plain or attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called = {
                getattr(c.func, "id", getattr(c.func, "attr", None))
                for c in ast.walk(node)
                if isinstance(c, ast.Call)
            }
            if names <= called:
                yield node.name


def test_only_the_shared_invariant_check_tests_thinness_and_control():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "finsat"
    found = {
        f"{path.name}:{name}"
        for path in sorted(src.glob("*.py"))
        for name in _callers_of_all(ast.parse(path.read_text()), {"is_thin", "fc_holds"})
    }
    assert found == {"factorization.py:block_invariant_violation"}, (
        f"the block invariants are checked outside block_invariant_violation: {found}"
    )


#: Nodes with gaps, one negative and one past 64 bits: no node equals its
#: bit row index.
SPARSE = (-7, 0, 3, 64, 65, 1000, 10**20)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SPARSE), st.sampled_from(SPARSE)), max_size=30))
@example([])
@example([(3, 3)])
@example([(0, 64), (64, -7), (-7, 0), (1000, 10**20)])
def test_transitive_closure_matches_a_naive_fixpoint(pairs):
    assert transitive_closure(pairs) == brute_closure(pairs)
    assert transitive_closure(iter(pairs)) == brute_closure(pairs)
