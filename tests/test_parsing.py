"""Formula grammar, structure documents and DOT export."""

import pytest
from hypothesis import given, settings, strategies as st

from finsat.logic import (
    DistKind,
    Exists,
    Forall,
    Not,
    Signature,
    Structure,
    simplify,
)
from finsat.parsing import (
    MAX_NESTING,
    DocumentError,
    ParseError,
    export_factorization_dot,
    parse_formula,
    print_formula,
    read_structure,
    write_structure,
)
from finsat.factorization import trivial_factorization, factor_for_b3, TypedPartialOrder
from finsat.logic import enumerate_one_types
from finsat.solver import random_formula, random_structure

from oracles import dot_is_wellformed

PO = Signature(("p", "q"), (), DistKind.PARTIAL_ORDER)
TR = Signature(("p",), (), DistKind.TRANSITIVE)


def test_quantifier_chain():
    f = parse_formula("forall x exists y (x != y)", PO)
    assert isinstance(f, Forall) and isinstance(f.body, Exists)


def test_incomparability_conjunct_shape():
    f = parse_formula("forall x (p(x) -> exists y (!(x<y) & !(y<x) & q(y)))", PO)
    assert isinstance(f, Forall)
    assert parse_formula(print_formula(f), PO) == f


def test_third_variable_rejected_with_span():
    with pytest.raises(ParseError) as exc:
        parse_formula("forall z p(z)", PO)
    assert exc.value.span.start == 7 and exc.value.span.end == 8


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_formula("p(x, y)", PO)


def test_reserved_navigation_needs_matching_signature():
    with pytest.raises(ParseError):
        parse_formula("x < y", TR)
    with pytest.raises(ParseError):
        parse_formula("t(x, y)", PO)


def test_parse_errors_carry_spans_inside_input():
    bad = ["forall x (p(x) &", "p(x", "x <", "q(x) | %"]
    for text in bad:
        with pytest.raises(ParseError) as exc:
            parse_formula(text, PO)
        assert 0 <= exc.value.span.start <= exc.value.span.end <= len(text) + 1


@pytest.mark.parametrize(
    "wrap",
    [lambda f: f"({f} & q(x))", lambda f: f"!{f}", lambda f: f"exists y {f}", lambda f: f"q(x) -> {f}"],
    ids=["parentheses", "negation", "quantifier", "implication"],
)
def test_nesting_limit(wrap):
    text = "p(x)"
    for _ in range(MAX_NESTING):
        text = wrap(text)
    f = parse_formula(text, PO)
    assert print_formula(simplify(f))
    with pytest.raises(ParseError, match="nested deeper"):
        parse_formula(wrap(text), PO)


def test_gt_and_sim_canonicalize():
    assert parse_formula("x > y", PO) == parse_formula("y < x", PO)
    assert parse_formula("y ~ x", PO) == parse_formula("x ~ y", PO)


def test_print_parse_roundtrip_on_random_formulas():
    for seed in range(120):
        f = random_formula(seed, PO if seed % 2 else TR, depth=4)
        sig = PO if seed % 2 else TR
        assert parse_formula(print_formula(f), sig) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roundtrip_property(seed):
    f = random_formula(seed, PO, depth=3)
    assert parse_formula(print_formula(f), PO) == f


def test_structure_document_minimal():
    text = """
signature: partial_order
unary: p
binary:
size: 2
set p: 0
dist: 0,1
"""
    s = read_structure(text)
    assert s.size == 2 and s.unary_of("p") == frozenset({0})


def test_structure_document_roundtrip_random():
    sig = Signature(("p", "q"), ("r",), DistKind.TRANSITIVE)
    for seed in range(100):
        s = random_structure(seed, sig, 2 + seed % 5)
        assert read_structure(write_structure(s)) == s


def test_reflexive_order_document_rejected():
    text = """
signature: partial_order
unary:
binary:
size: 2
dist: 0,0
"""
    with pytest.raises(DocumentError):
        read_structure(text)


def test_nontransitive_document_rejected():
    text = """
signature: transitive
unary:
binary:
size: 3
dist: 0,1 1,2
"""
    with pytest.raises(DocumentError):
        read_structure(text)


def _tpo(seed=3, size=5):
    sig = Signature(("p",), (), DistKind.PARTIAL_ORDER)
    return TypedPartialOrder.from_structure(random_structure(seed, sig, size))


def test_dot_trivial_factorization_no_edges():
    dot = export_factorization_dot(trivial_factorization(_tpo()))
    assert dot_is_wellformed(dot)
    assert "->" not in dot


def test_dot_two_block_chain_one_edge():
    sig = Signature(("p",), (), DistKind.PARTIAL_ORDER)
    t0, t1 = enumerate_one_types(sig)
    tpo = TypedPartialOrder(
        (t0, t1), frozenset({(0, 1)})
    )
    fact = factor_for_b3(tpo, t0, t1)
    dot = export_factorization_dot(fact)
    assert dot_is_wellformed(dot)
    assert dot.count("->") == 1


def test_dot_output_is_wellformed_on_random_orders():
    for seed in range(10):
        dot = export_factorization_dot(trivial_factorization(_tpo(seed, 6)))
        assert dot_is_wellformed(dot)
