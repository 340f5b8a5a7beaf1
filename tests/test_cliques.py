"""Clique decomposition, small cliques, cells/diatoms, cliquify."""

import dataclasses
import itertools

import pytest

import finsat.cliques
from finsat.logic import (
    DistKind,
    Implies,
    PreconditionError,
    Signature,
    Structure,
    check_distinguished,
    evaluate,
    one_type_of,
    simplify,
)
from finsat.cliques import (
    EnumerationBudget,
    EnumerationBudgetError,
    abstract_model,
    bound_cliques,
    cliques_of,
    cliquify,
    enumerate_cells,
    enumerate_diatoms,
    expand_model,
    _restrict,
    _structure_key,
    max_clique_size,
    order_atom,
    realized_diatoms,
    shrink_clique,
    shrink_substructure,
)
from finsat.normal_forms import TransitiveNF, to_transitive_nf
from finsat.parsing import parse_formula
from finsat.solver import find_model, random_structure
from finsat.verify import pipeline_verify

from fixtures import MIN_INF, TS
from oracles import formula_size, scc_partition

BARE = Signature((), (), DistKind.TRANSITIVE)


def test_cliques_total_relation_single_clique():
    total = frozenset((i, j) for i in range(3) for j in range(3))
    s = Structure(TS, 3, {}, {}, total)
    dec = cliques_of(s)
    assert len(dec.cliques) == 1


def test_cliques_one_edge():
    s = Structure(TS, 3, {}, {}, frozenset({(0, 1)}))
    dec = cliques_of(s)
    assert len(dec.cliques) == 3
    clique_of = {a: i for i, c in enumerate(dec.cliques) for a in c}
    i0, i1 = clique_of[0], clique_of[1]
    assert (i0, i1) in dec.order
    i2 = clique_of[2]
    assert dec.relation(i2, i0) == "sim" and dec.relation(i2, i1) == "sim"


def test_cliques_match_networkx_scc():
    for seed in range(120):
        s = random_structure(seed, TS, 3 + seed % 6)
        dec = cliques_of(s)
        assert set(dec.cliques) == scc_partition(s)


def test_order_atom_cases():
    s = Structure(
        TS, 4, {}, {},
        frozenset({(0, 1), (1, 0), (0, 0), (1, 1), (0, 2), (1, 2)}),
    )
    assert order_atom(s, 0, 0) == "="
    assert order_atom(s, 0, 1) == "eq"
    assert order_atom(s, 0, 2) == "lt"
    assert order_atom(s, 2, 0) == "gt"
    assert order_atom(s, 2, 3) == "sim"


NOSIG = Signature(("a", "b"), ("r",), DistKind.NONE)


def test_shrink_substructure_small_part_untouched():
    s = random_structure(3, NOSIG, 5)
    out = shrink_substructure(s, frozenset({0, 1}))
    assert out.structure.size == 5


def test_shrink_substructure_same_type_part():
    # ten same-type elements, no cross structure: three representatives do
    s = Structure(
        NOSIG, 11,
        {"a": frozenset(range(10)), "b": frozenset({10})},
        {"r": frozenset()},
    )
    out = shrink_substructure(s, frozenset(range(10)))
    assert out.structure.size <= 4


def test_shrink_substructure_keeps_complement_menus():
    # property (v): the complement keeps every 2-type into the part
    s = Structure(
        NOSIG, 6,
        {"a": frozenset(range(5)), "b": frozenset({5})},
        {"r": frozenset({(5, 0), (5, 1)})},
    )
    b = frozenset(range(5))
    out = shrink_substructure(s, b)
    from finsat.logic import two_type_of

    want = {two_type_of(s, 5, x) for x in b}
    new_b = [out.element_map[x] for x in sorted(b) if x in out.element_map]
    have = {two_type_of(out.structure, out.element_map[5], x) for x in new_b}
    assert want <= have


def test_shrink_clique_singleton_unchanged():
    s = Structure(TS, 3, {}, {}, frozenset({(0, 1)}))
    out = shrink_clique(s, frozenset({2}))
    assert out.structure == s


def test_shrink_clique_preserves_chain_shape():
    # three cliques in a chain; the middle one is large
    big = set(range(1, 7))
    t = set()
    t.update((i, j) for i in big for j in big)  # middle clique total
    t.update((0, i) for i in big)  # bottom below middle
    t.update((i, 7) for i in big)  # middle below top
    t.add((0, 7))
    s = Structure(TS, 8, {"a": frozenset(big)}, {}, frozenset(t))
    dec = cliques_of(s)
    assert len(dec.cliques) == 3
    out = shrink_clique(s, frozenset(big))
    assert check_distinguished(out.structure) == []
    new_dec = cliques_of(out.structure)
    assert len(new_dec.cliques) == 3
    sizes = sorted(len(c) for c in new_dec.cliques)
    assert sizes[0] == 1 and sizes[-1] < len(big)
    # chain shape preserved
    assert len(new_dec.order) == 3


def tnf_fixture():
    return TransitiveNF(
        etas=tuple(parse_formula("t(x,x)", TS) for _ in range(4)),
        guards=(("a", "a", "b", "b"),),
        thetas=((parse_formula("true", TS),) * 4,),
    )


def two_clique_model():
    return Structure(
        TS, 4,
        {"a": frozenset({0, 1}), "b": frozenset({2, 3})}, {},
        frozenset({(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (3, 3),
                   (0, 2), (1, 2), (0, 3), (1, 3)}),
    )


def test_bound_cliques_keeps_formula():
    tnf = tnf_fixture()
    # inflate the first clique
    big = set(range(6))
    rel = {(i, j) for i in big for j in big}
    rel |= {(i, 6) for i in big} | {(i, 7) for i in big} | {(6, 6), (7, 7)}
    s = Structure(TS, 8, {"a": frozenset(big), "b": frozenset({6, 7})}, {},
                  frozenset(rel))
    assert evaluate(s, tnf.to_formula())
    out = bound_cliques(s, tnf)
    assert evaluate(out, tnf.to_formula())
    assert out.size < s.size
    assert all(len(c) <= max_clique_size(TS) for c in cliques_of(out).cliques)


def test_enumerate_cells_bare_signature():
    cells = enumerate_cells(BARE, 1)
    assert len(cells) == 2  # the loop on the singleton is free either way
    cells2 = enumerate_cells(BARE, 2)
    assert len(cells2) == 3


def test_enumerate_diatoms_consistency_tables():
    table = enumerate_diatoms(BARE, 1)
    assert table.n_diatoms == 12  # 2 x 2 cells x 3 order types
    for k in range(table.n_diatoms):
        assert table.inverse[table.inverse[k]] == k
        assert table.left[table.inverse[k]] == table.right[k]
    # brute-force recount: all 2-element transitive structures with exactly
    # two cliques
    count = 0
    for dist in itertools.product((False, True), repeat=4):
        pairs = frozenset(
            p for p, keep in zip(((0, 0), (0, 1), (1, 0), (1, 1)), dist) if keep
        )
        s = Structure(BARE, 2, {}, {}, pairs)
        if check_distinguished(s):
            continue
        if len(cliques_of(s).cliques) == 2:
            count += 1
    assert count == table.n_diatoms


def test_diatom_budget_counts_before_building(monkeypatch):
    # One binary r: 4 cells of size 1, and 4 cross bits per cell pair.
    sig = Signature((), ("r",), DistKind.TRANSITIVE)
    assert enumerate_diatoms(sig, 1, EnumerationBudget(max_diatoms=192)).n_diatoms == 192

    def refuse_to_build(*args):
        raise AssertionError("built a cell before the count refused")

    monkeypatch.setattr(finsat.cliques, "_unary_assignments", refuse_to_build)
    with pytest.raises(EnumerationBudgetError, match="192 diatoms exceed the budget of 191"):
        enumerate_diatoms(sig, 1, EnumerationBudget(max_diatoms=191))
    # a and b over cliques up to size 3: 8 + 16 + 64 cells.
    with pytest.raises(EnumerationBudgetError, match="^diatom enumeration refused: 23232 diatoms"):
        enumerate_cells(TS, 3)


def test_enumeration_budget_refusal():
    wide = Signature(("a", "b", "c"), (), DistKind.TRANSITIVE)
    with pytest.raises(EnumerationBudgetError, match="3 unary predicates exceed the budget of 2"):
        enumerate_cells(wide, 2)


#: The enumeration budget's knobs: a unary width and one count, checked
#: before any cell is built.
BUDGET_KNOBS = ["max_unary", "max_diatoms"]


def test_enumeration_budget_knobs():
    assert [f.name for f in dataclasses.fields(EnumerationBudget)] == BUDGET_KNOBS


def test_cliquify_multiplicity_bookkeeping():
    res = cliquify(tnf_fixture(), TS, 2, EnumerationBudget(max_diatoms=100000))
    assert res.multiplicity == 4 * 1 * 2


def test_cliquify_round_trip():
    tnf = tnf_fixture()
    model = two_clique_model()
    assert evaluate(model, tnf.to_formula())
    res = cliquify(tnf, TS, 2, EnumerationBudget(max_diatoms=100000))
    hat = abstract_model(res, model)
    assert evaluate(hat, res.snf.to_formula())
    back = expand_model(res, hat)
    assert back.size <= 2 * hat.size
    assert check_distinguished(back) == []
    assert evaluate(back, tnf.to_formula())


def test_abstract_model_needs_two_cliques():
    tnf = tnf_fixture()
    res = cliquify(tnf, TS, 2, EnumerationBudget(max_diatoms=100000))
    single = Structure(
        TS, 2, {"a": frozenset({0, 1}), "b": frozenset()}, {},
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    )
    with pytest.raises(PreconditionError):
        abstract_model(res, single)


def test_expand_rejects_mislabelled_models():
    tnf = tnf_fixture()
    res = cliquify(tnf, TS, 2, EnumerationBudget(max_diatoms=100000))
    bogus = Structure(
        res.sig_hat, 2,
        {p: frozenset({0, 1}) for p in res.sig_hat.unary},
        {q: frozenset() for q in res.sig_hat.binary},
        frozenset(),
    )
    assert not res.snf.holds(bogus)
    with pytest.raises(PreconditionError, match="not a model of the clique-level formula"):
        expand_model(res, bogus)


def test_minimal_infinity_fixture_is_finitely_unsatisfiable():
    for k in (2, 3, 4):
        assert find_model(MIN_INF.to_formula(), TS, k) is None


def test_cliquify_of_infinity_fixture_has_no_small_model():
    res = cliquify(MIN_INF, TS, 1, EnumerationBudget(max_diatoms=100000))
    for k in (2, 3, 4, 5, 6):
        assert find_model(res.snf.to_formula(), res.sig_hat, k) is None


@pytest.mark.parametrize(
    "tnf, n, eta_size",
    [(MIN_INF, 1, 42_025), (tnf_fixture(), 2, 584_349)],
    ids=["min-inf", "two-clique"],
)
def test_cliquify_output_shape(tnf, n, eta_size):
    res = cliquify(tnf, TS, n, EnumerationBudget(max_diatoms=100000))
    eta = res.snf.eta
    assert simplify(eta) == eta
    assert all(simplify(theta) == theta for theta in res.snf.thetas)
    assert formula_size(eta) == eta_size
    # Three implications per diatom, all led by its one shared label.
    lefts = [g.left for g in eta.subs if isinstance(g, Implies)]
    assert len(lefts) == 3 * res.table.n_diatoms
    assert len({id(f) for f in lefts}) == res.table.n_diatoms


def test_standard_nf_holds_agrees_with_evaluate():
    res = cliquify(MIN_INF, TS, 1, EnumerationBudget(max_diatoms=100000))
    phi = res.snf.to_formula()
    for seed in range(20):
        s = random_structure(seed, res.sig_hat, 2)
        assert res.snf.holds(s) == evaluate(s, phi)
    res = cliquify(tnf_fixture(), TS, 2, EnumerationBudget(max_diatoms=100000))
    hat = abstract_model(res, two_clique_model())
    assert res.snf.holds(hat) and evaluate(hat, res.snf.to_formula())


def test_round_trip_runs_under_the_default_budget():
    phi = parse_formula("forall x exists y (x != y & !t(x,y) & !t(y,x))", BARE)
    report = pipeline_verify(phi, BARE, "l2-1t")
    assert report.stages[-1].stage == "clique abstraction round trip"
    assert report.stages[-1].status == "pass", report.render()


def test_round_trip_refusal_names_the_diatom_count():
    # Two cliques give two ordered clique pairs, counted before any is built.
    phi = parse_formula("forall x exists y (x != y & !t(x,y) & !t(y,x))", BARE)
    report = pipeline_verify(phi, BARE, "l2-1t", enum_budget=EnumerationBudget(max_diatoms=1))
    last = report.stages[-1]
    assert (last.stage, last.status) == ("clique abstraction round trip", "skipped")
    assert last.detail == "diatom enumeration refused: 2 clique pairs exceed the budget of 1 diatoms"


def test_round_trip_runs_where_the_full_table_is_refused():
    # m = 2: 8 guard predicates give 2 * 2**8 one-element cells and
    # 3 * 512**2 diatoms in the full table, far past the default 8192.  The
    # model's own table has one cell and two diatoms.
    text = "forall x exists y (x != y & !t(x,y) & !t(y,x)) & forall x exists y (x != y & !t(x,y))"
    phi = parse_formula(text, BARE)
    tnf, sig1 = to_transitive_nf(phi, BARE)
    with pytest.raises(EnumerationBudgetError, match="786432 diatoms exceed the budget of 8192"):
        cliquify(tnf, sig1, 1, EnumerationBudget(max_unary=8))
    last = pipeline_verify(phi, BARE, "l2-1t").stages[-1]
    assert (last.stage, last.status) == ("clique abstraction round trip", "pass")


def test_realized_table_inverts_and_indexes_every_clique_pair():
    # Cliques {0, 1} < {2}, and {3}, {4} apart from them and each other:
    # {3} and {4} restrict to the same cell, so their pairs with each other
    # name one diatom, its own inverse, and their pairs with {0, 1} or {2}
    # name one diatom per direction: 4 cliques, 3 cells, 7 diatoms.
    total = {(a, b) for a in (0, 1) for b in (0, 1, 2)} | {(2, 2)}
    s = Structure(
        TS, 5, {"a": frozenset({0, 3, 4}), "b": frozenset({1})}, {}, frozenset(total)
    )
    dec = cliques_of(s)
    table = realized_diatoms(s)
    assert (len(dec.cliques), table.m_cells, table.n_diatoms) == (4, 3, 7)
    for k, ik in enumerate(table.inverse):
        assert table.inverse[ik] == k
        assert (table.left[ik], table.right[ik]) == (table.right[k], table.left[k])
    for u, v in itertools.permutations(range(4), 2):
        pair = _restrict(s, sorted(dec.cliques[u]) + sorted(dec.cliques[v])).structure
        k = table.diatom_index[_structure_key(pair)]
        assert table.order_type[k] == dec.relation(u, v)
    with pytest.raises(EnumerationBudgetError, match="12 clique pairs exceed the budget of 11"):
        realized_diatoms(s, EnumerationBudget(max_diatoms=11))
