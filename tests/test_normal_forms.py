"""Normal-form rewrites: standard, weak, basic, transitive."""

import itertools

import pytest

from finsat.logic import (
    And,
    Atom,
    DistKind,
    Eq,
    Exists,
    LogicError,
    Not,
    Or,
    Signature,
    Structure,
    TRUE,
    FALSE,
    conj,
    evaluate,
    enumerate_one_types,
    neg,
)
from finsat.normal_forms import (
    BasicFormula,
    BasicKind,
    StandardNF,
    TransitiveNF,
    WeakNF,
    basic_set_formula,
    conjunct_parts,
    fc_subset,
    strip_distinct_eq,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
    weak_to_standard,
)
from finsat.parsing import parse_formula, print_formula
from finsat.solver import find_expansion, find_model, random_formula, random_structure

from fixtures import rewrite_cases

L2 = Signature(("p", "q"), ("r",), DistKind.NONE)
POU = Signature(("p", "q"), (), DistKind.PARTIAL_ORDER)
TR = Signature(("p",), (), DistKind.TRANSITIVE)


def sat_at(phi, sig, k):
    return find_model(phi, sig, k) is not None


def test_exists_unary_direct_translation():
    snf, sig2 = to_standard_nf(parse_formula("exists x p(x)", L2), L2)
    assert snf.multiplicity == 1
    assert print_formula(snf.thetas[0]) == "p(x) | p(y)"
    assert sig2 == L2


#: One top-level conjunct per shape, and its parts as conjunct_parts prints
#: them; None where the shape needs fresh definitions.
CONJUNCT_SHAPES = [
    # Quantifier-free: a closed one reads as unary, one with y free as a pair.
    (FALSE, [("unary", "false")]),
    (Or((Atom("r", ("x", "y")), Eq("x", "y"))), [("pair", "r(x, y)")]),
    ("forall y (p(y) | q(y))", [("unary", "p(x) | q(x)")]),
    ("forall x forall y (x = y | r(x,y))", [("pair", "r(x, y)")]),
    # Without the x = y guard the diagonal instance is a unary part.
    ("forall y forall x r(x,y)", [("pair", "r(y, x)"), ("unary", "r(x, x)")]),
    ("forall x exists y (x != y & r(x,y))", [("witness", "r(x, y)")]),
    # Without x != y the element may be its own witness.
    ("forall x exists y r(x,y)", [("witness", "r(x, y) | r(x, x)")]),
    ("forall x (p(x) -> exists y r(x,y))", [("witness", "p(x) -> r(x, y) | r(x, x)")]),
    ("exists y (p(y) & !q(y))", [("exists", "p(x) & !q(x)")]),
    ("exists x forall y r(x,y)", None),
    # Two positive existentials, and a quantifier in a consequent.
    ("forall x (exists y r(x,y) & exists y r(y,x))", None),
    ("forall x (p(x) -> forall y r(x,y))", None),
    # The existential must occur positively: not in an antecedent, not
    # under one negation, but under two.
    ("forall x (exists y r(x,y) -> p(x))", None),
    ("forall x (p(x) | !exists y r(x,y))", None),
    ("forall x !(p(x) & !exists y r(x,y))", [("witness", "!(p(x) & !(r(x, y) | r(x, x)))")]),
    # An existential that rebinds the outer variable.
    ("forall x (exists x r(x,x) | p(x))", None),
]


@pytest.mark.parametrize("g, parts", CONJUNCT_SHAPES)
def test_conjunct_parts_one_input_per_shape(g, parts):
    got = conjunct_parts(parse_formula(g, L2) if isinstance(g, str) else g)
    assert (got if got is None else [(kind, print_formula(f)) for kind, f in got]) == parts


def test_forall_unary_direct_translation():
    snf, _ = to_standard_nf(parse_formula("forall x p(x)", L2), L2)
    assert snf.multiplicity == 1 and snf.thetas[0] == TRUE
    # eta entails p(x): together with the x=y guard this means every element.
    for k in (2, 3, 4):
        m = find_model(snf.to_formula(), L2, k)
        sat_input = sat_at(parse_formula("forall x p(x)", L2), L2, k)
        assert (m is not None) == sat_input
        if m is not None:
            assert m.unary_of("p") == frozenset(range(k))


ANTICHAIN_TEXTS = [
    "exists x p(x)",
    "forall x forall y (p(x) & p(y) -> (x < y | x = y | y < x))",
    "forall x (p(x) -> exists y (!(x<y) & !(y<x) & q(y)))",
    "forall x (q(x) -> exists y (x < y & p(y)))",
    "forall x forall y (q(x) & q(y) -> (!(x<y) & !(y<x)))",
]


def antichain_formula():
    return conj(tuple(parse_formula(t, POU) for t in ANTICHAIN_TEXTS))


def test_antichain_standard_nf_matches_direct_sat_verdicts():
    snf, sig2 = to_standard_nf(antichain_formula(), POU)
    for k in (2, 3, 4):
        assert not sat_at(snf.to_formula(), sig2, k)
        assert not sat_at(antichain_formula(), POU, k)


def test_closed_subformula_marker_sits_on_the_nearest_binder():
    # exists x q(x) is closed; its marker d0 takes the variable of the
    # nearest quantifier above it, forall y.
    phi = parse_formula("forall x forall y (r(x,y) | exists x q(x))", L2)
    snf, _ = to_standard_nf(phi, L2)
    assert "r(x, y) | d0(y)" in [print_formula(g) for g in snf.eta.subs]


def test_nested_quantification_uses_fresh_definitions():
    phi = parse_formula("forall x (p(x) -> exists y (r(x,y) & forall x q(x)))", L2)
    snf, sig2 = to_standard_nf(phi, L2)
    assert len(sig2.unary) > len(L2.unary)
    for k in (2, 3):
        m = find_model(snf.to_formula(), sig2, k)
        assert sat_at(phi, L2, k) == (m is not None)
        if m is not None:
            assert evaluate(m, phi)


def test_standard_nf_equisatisfiable_on_random_formulas():
    checked = 0
    for seed in range(40):
        phi = random_formula(seed, L2, depth=3)
        snf, sig2 = to_standard_nf(phi, L2)
        for k in (2, 3):
            m = find_model(snf.to_formula(), sig2, k)
            assert sat_at(phi, L2, k) == (m is not None), f"seed {seed} size {k}"
            checked += 1
            if m is not None:
                assert evaluate(m, phi) and snf.holds(m)
            s = random_structure(seed, sig2, k)
            assert snf.holds(s) == evaluate(s, snf.to_formula()), f"seed {seed} size {k}"
    assert checked


def test_model_expansion_over_fresh_predicates_only():
    for seed in (3, 7, 11, 19):
        phi = random_formula(seed, L2, depth=3)
        snf, sig2 = to_standard_nf(phi, L2)
        m = find_model(phi, L2, 3)
        if m is None:
            continue
        assert find_expansion(m, snf.to_formula(), sig2) is not None


def test_weak_to_standard_bookkeeping():
    eta = TRUE
    theta = Atom("p", ("x",))
    w0 = WeakNF((), eta, (theta,))
    assert weak_to_standard(w0) == StandardNF(eta, (theta,))
    w1 = WeakNF((Atom("p", ("x",)),), eta, (theta,))
    out = weak_to_standard(w1)
    assert out.multiplicity == 2
    assert print_formula(out.thetas[1]) == "p(x) | p(y)"
    w2 = WeakNF((Atom("p", ("x",)), Atom("q", ("x",))), eta, (theta,))
    assert weak_to_standard(w2).multiplicity == 3


def test_to_basic_vacuous_input():
    w = WeakNF((), TRUE, (TRUE,))
    psis, sig_star = to_basic(w, POU)
    assert len(sig_star.unary) == len(POU.unary) + 3
    kinds = {p.kind for p in psis}
    assert BasicKind.B9 in kinds
    # The vacuous universal part contributes nothing.
    assert not kinds & {BasicKind.B1A, BasicKind.B1B, BasicKind.B3}


def test_to_basic_rejects_ordinary_binaries():
    sig = Signature(("p",), ("r",), DistKind.PARTIAL_ORDER)
    with pytest.raises(Exception):
        to_basic(WeakNF((), TRUE, (TRUE,)), sig)


def test_antichain_basic_kind_inventory():
    # The natural weak normal form keeps the existential conjunct in Z, so
    # only the two witness conjuncts contribute direction labels.
    eta = conj(
        (
            parse_formula(
                "p(x) & p(y) -> (x < y | y < x)", POU
            ),
            parse_formula("q(x) & q(y) -> (!(x<y) & !(y<x))", POU),
        )
    )
    thetas = (
        parse_formula("p(x) -> (!(x<y) & !(y<x) & q(y))", POU),
        parse_formula("q(x) -> (x < y & p(y))", POU),
    )
    w = WeakNF((Atom("p", ("x",)),), eta, thetas)
    psis, sig_star = to_basic(w, POU)
    assert len(sig_star.unary) == len(POU.unary) + 3 * w.multiplicity
    kinds = {p.kind for p in psis}
    # p-elements are forced linear: a same-type comparability shape must be
    # present for some type carrying p.
    b5a = [p for p in psis if p.kind is BasicKind.B5A and p.alpha.unary_polarity("p")]
    assert b5a
    # the incomparable q-witness survives as an incomparability witness shape
    b8 = [p for p in psis if p.kind is BasicKind.B8]
    assert b8
    # the existential conjunct passes through untouched
    assert any(p.kind is BasicKind.B10 for p in psis)


def test_to_basic_preserves_satisfiability_small():
    for seed in (0, 2, 5):
        sigu = Signature(("p",), (), DistKind.PARTIAL_ORDER)
        theta = [
            parse_formula("p(y) & x < y", sigu),
            parse_formula("!p(y) & !(x < y) & !(y < x)", sigu),
            parse_formula("p(x) | p(y)", sigu),
        ][seed % 3]
        eta = [
            parse_formula("p(x) -> (x < y | y < x | p(y))", sigu),
            TRUE,
            parse_formula("!(x<y) | p(y)", sigu),
        ][seed % 3]
        w = WeakNF((), eta, (theta,))
        psis, sig_star = to_basic(w, sigu)
        for k in (2, 3, 4):
            lhs = sat_at(w.to_formula(), sigu, k)
            rhs = sat_at(basic_set_formula(psis), sig_star, k)
            assert lhs == rhs, f"seed {seed} size {k}"


def test_fc_subset_contents():
    sig = POU
    t = enumerate_one_types(sig)
    b3 = BasicFormula(BasicKind.B3, alpha=t[0], beta=t[1])
    b5b = BasicFormula(BasicKind.B5B, alpha=t[0], beta=t[2])
    b9 = BasicFormula(BasicKind.B9, mu=TRUE)
    b10 = BasicFormula(BasicKind.B10, mu=TRUE)
    assert fc_subset([b3]) == (b3,)
    assert fc_subset([b9, b10]) == ()
    assert len(fc_subset([b3, b9, b5b, b10])) == 2


def test_transitive_nf_infinity_axiom():
    tsig = Signature((), (), DistKind.TRANSITIVE)
    phi = parse_formula("forall x !t(x,x) & forall x exists y t(x,y)", tsig)
    tnf, sig2 = to_transitive_nf(phi, tsig)
    assert len(sig2.unary) == 4 * tnf.multiplicity
    for k in (2, 3, 4):
        assert not sat_at(tnf.to_formula(), sig2, k)


def test_transitive_nf_satisfiable_case():
    tsig = Signature(("p",), (), DistKind.TRANSITIVE)
    phi = parse_formula("forall x t(x,x) & exists x p(x)", tsig)
    tnf, sig2 = to_transitive_nf(phi, tsig)
    m = find_model(tnf.to_formula(), sig2, 2)
    assert m is not None and evaluate(m, phi)


def test_transitive_nf_substitutes_cross_atoms():
    tsig = Signature((), (), DistKind.TRANSITIVE)
    phi = parse_formula("forall x exists y t(x,y)", tsig)
    tnf, _ = to_transitive_nf(phi, tsig)
    # The witness matrix is t(x,y) | t(x,x) (the witness may be the element
    # itself); the incomparable branch replaces the cross atom by falsum,
    # leaving only the diagonal disjunct.
    assert tnf.thetas[0][3] == Atom("t", ("x", "x"))


def test_transitive_nf_equisatisfiable_random():
    tsig = Signature(("p",), (), DistKind.TRANSITIVE)
    for seed in range(12):
        phi = random_formula(seed, tsig, depth=2)
        tnf, sig2 = to_transitive_nf(phi, tsig)
        for k in (2, 3):
            m = find_model(tnf.to_formula(), sig2, k)
            assert sat_at(phi, tsig, k) == (m is not None), seed
            if m is not None:
                assert evaluate(m, phi)


BAD_MATRICES = {
    "be quantifier-free": Exists("y", Atom("p", ("y",))),
    "be equality-free": Eq("x", "y"),
    "mention only the variables x and y": Atom("p", ("z",)),
}


@pytest.mark.parametrize("flaw", BAD_MATRICES)
def test_normal_forms_reject_bad_matrices(flaw):
    good = Atom("p", ("x",))
    bad = Not(And((good, BAD_MATRICES[flaw])))

    def rejects(what, build):
        with pytest.raises(LogicError, match=f"^{what} must {flaw}$"):
            build()

    rejects("normal-form matrix", lambda: StandardNF(bad, (good,)))
    rejects("normal-form matrix", lambda: StandardNF(good, (good, bad)))
    rejects("normal-form matrix", lambda: WeakNF((), bad, (good,)))
    rejects("existential parts", lambda: WeakNF((good, bad), good, (good,)))
    guards = (("g0", "g1", "g2", "g3"),)
    rejects("transitive-NF matrix", lambda: TransitiveNF((good, good, bad, good), guards, ((good,) * 4,)))
    rejects("transitive-NF matrix", lambda: TransitiveNF((good,) * 4, guards, ((good, bad, good, good),)))


def test_normal_forms_reject_misplaced_atoms():
    good = Atom("p", ("x",))
    with pytest.raises(LogicError, match="^existential parts must be unary in x$"):
        WeakNF((Atom("p", ("y",)),), good, (good,))
    cross = Or((good, Atom("t", ("y", "x"))))
    with pytest.raises(LogicError, match="must not mention cross atoms of t"):
        TransitiveNF((good, cross, good, good), (("g0", "g1", "g2", "g3"),), ((good,) * 4,))
    # A diagonal t atom is allowed.
    TransitiveNF((Atom("t", ("x", "x")),) * 4, (("g0", "g1", "g2", "g3"),), ((good,) * 4,))


def test_strip_distinct_eq_agrees_on_distinct_pairs():
    for s, formulas in rewrite_cases():
        for f in formulas:
            g = strip_distinct_eq(f)
            for a, b in itertools.permutations(s.domain(), 2):
                assert evaluate(s, g, {"x": a, "y": b}) == evaluate(s, f, {"x": a, "y": b})
