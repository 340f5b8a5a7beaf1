"""Core syntax, semantics and type machinery."""

import ast
import itertools
import pathlib
import random

import pytest

from finsat.logic import (
    And,
    Atom,
    DistKind,
    Eq,
    Exists,
    Forall,
    Implies,
    LogicError,
    Not,
    OneType,
    Or,
    PreconditionError,
    Signature,
    SignatureMismatchError,
    Structure,
    TwoType,
    check_distinguished,
    enumerate_one_types,
    enumerate_semi_diagonal_types,
    eval_unary_on_type,
    evaluate,
    free_vars,
    is_quantifier_free,
    occurrences,
    one_type_of,
    order_violations,
    pair_structure,
    subformulas,
    substitute,
    swap_xy,
    tarski,
    two_type_of,
)
from finsat.parsing import parse_formula
from finsat.solver import random_formula, random_structure

from fixtures import rewrite_cases
from oracles import brute_closure, naive_eval, naive_free_vars, quadratic_order_violations

PO = Signature(("p",), (), DistKind.PARTIAL_ORDER)
TR = Signature(("p",), (), DistKind.TRANSITIVE)


def two_elem(sig=PO, **kw):
    return Structure(sig, 2, **kw)


def test_cardinality_two_validity_and_contradiction():
    s = two_elem()
    assert evaluate(s, parse_formula("forall x exists y (x != y)", PO))
    assert not evaluate(s, parse_formula("forall x forall y (x = y)", PO))


def test_witness_pair():
    s = Structure(PO, 2, {"p": frozenset()}, {}, frozenset({(0, 1)}))
    assert evaluate(s, parse_formula("exists x exists y (x < y)", PO))


def test_unknown_predicate_rejected():
    s = two_elem()
    zz = Atom("zz", ("x",))
    with pytest.raises(SignatureMismatchError):
        evaluate(s, zz, {"x": 0})
    # Only an atom the walk reaches is looked up.
    assert evaluate(s, Forall("x", Or((Eq("x", "x"), zz))))
    assert not evaluate(s, Exists("x", And((Not(Eq("x", "x")), zz))))
    for f in (Exists("x", zz), Forall("x", Or((Not(Eq("x", "x")), zz)))):
        with pytest.raises(SignatureMismatchError):
            evaluate(s, f)
    xy = {"x": 0, "y": 1}
    with pytest.raises(SignatureMismatchError):
        evaluate(s, Atom("t", ("x", "y")), xy)
    for pred in ("<", "~"):
        with pytest.raises(SignatureMismatchError):
            evaluate(Structure(TR, 2), Atom(pred, ("x", "y")), xy)


def test_unassigned_free_variable_rejected():
    with pytest.raises(PreconditionError):
        evaluate(two_elem(), Atom("p", ("x",)))
    sig = Signature((), ("r",))
    f = Exists("y", Atom("r", ("x", "y")))
    with pytest.raises(PreconditionError):
        evaluate(Structure(sig, 2), f, {"y": 0})
    assert not evaluate(Structure(sig, 2), f, {"x": 0})


def test_one_type_of_polarity():
    s = Structure(PO, 2, {"p": frozenset({0})}, {}, frozenset())
    assert one_type_of(s, 0).unary_polarity("p")
    assert not one_type_of(s, 1).unary_polarity("p")


def test_one_type_transitive_diagonal():
    s = Structure(TR, 2, {}, {}, frozenset({(0, 0)}))
    assert one_type_of(s, 0).t_diag
    assert not one_type_of(s, 1).t_diag


def test_two_type_navigational_alternatives():
    s = Structure(PO, 2, {}, {}, frozenset({(0, 1)}))
    assert two_type_of(s, 0, 1).nav == (True, False)  # 0 < 1
    assert two_type_of(s, 1, 0).nav == (False, True)  # 1 > 0
    empty = Structure(PO, 2, {}, {}, frozenset())
    assert two_type_of(empty, 0, 1).nav == (False, False)  # 0 ~ 1


def test_two_type_requires_distinct_elements():
    with pytest.raises(PreconditionError):
        two_type_of(two_elem(), 0, 0)


def test_enumerate_one_type_counts():
    assert len(enumerate_one_types(Signature(("p",), (), DistKind.PARTIAL_ORDER))) == 2
    assert len(enumerate_one_types(Signature(("p", "q"), (), DistKind.PARTIAL_ORDER))) == 4
    assert len(enumerate_one_types(Signature(("p",), (), DistKind.TRANSITIVE))) == 4


def test_check_distinguished_reports():
    s = Structure(TR, 3, {}, {}, frozenset({(0, 1), (1, 2)}))
    assert any("(0,2)" in v for v in check_distinguished(s))
    ok = Structure(TR, 3, {}, {}, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert check_distinguished(ok) == []
    bad = Structure(PO, 1, {}, {}, frozenset({(0, 0)}))
    assert any("irreflexivity" in v for v in check_distinguished(bad))


def test_order_violations_match_the_quadratic_scan():
    rng = random.Random(0)
    kinds = {"transitive": 0, "violated": 0, "reflexive": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        rel = frozenset(
            (a, b) for a in range(n) for b in range(n) if rng.random() < rng.choice((0.2, 0.5))
        )
        for r in (rel, brute_closure(rel)):
            kinds["reflexive"] += any(a == b for a, b in r)
            for strict in (True, False):
                got = order_violations(r, strict)
                assert got == quadratic_order_violations(r, strict), (sorted(r), strict)
                if not strict:
                    kinds["violated" if got else "transitive"] += 1
    assert min(kinds.values()) > 50, kinds


def test_two_type_restriction_matches_one_type():
    for seed in range(20):
        sig = Signature(("p", "q"), ("r",), DistKind.PARTIAL_ORDER)
        s = random_structure(seed, sig, 4)
        for a, b in itertools.permutations(range(4), 2):
            assert two_type_of(s, a, b).x == one_type_of(s, a)


def test_exactly_one_navigational_alternative():
    for seed in range(20):
        s = random_structure(seed, PO, 5)
        for a, b in itertools.permutations(range(5), 2):
            nav = two_type_of(s, a, b).nav
            count = sum((nav == (True, False), nav == (False, True), nav == (False, False)))
            assert count == 1


def test_mutual_t_forces_diagonals():
    sig = Signature((), (), DistKind.TRANSITIVE)
    s = Structure(sig, 2, {}, {}, frozenset({(0, 1), (1, 0), (0, 0), (1, 1)}))
    tau = two_type_of(s, 0, 1)
    assert tau.nav == (True, True) and tau.x.t_diag and tau.y.t_diag


@pytest.mark.parametrize("dist", list(DistKind), ids=lambda d: d.value)
def test_a_two_type_is_the_pair_of_distinguished_bits(dist):
    sig = Signature(("p",), ("r",), dist)
    texts = ["p(x) & !p(y)", "r(x,y) & !r(y,x)", "r(x,x) | r(y,y) & x != y", "p(y) -> r(y,x)"]
    texts += {
        DistKind.NONE: [],
        DistKind.PARTIAL_ORDER: ["x < y", "y < x | p(x)", "x ~ y"],
        DistKind.TRANSITIVE: ["t(x,y)", "t(y,x) & t(x,x) | p(x)"],
    }[dist]
    formulas = [parse_formula(text, sig) for text in texts]
    seen = set()
    for semi in enumerate_semi_diagonal_types(sig):
        for tau in semi.extensions():
            assert two_type_of(pair_structure(tau), 0, 1) == tau
            assert tau.swap().swap() == tau
            assert tau.swap() == two_type_of(pair_structure(tau), 1, 0)
            # So reading tau's structure at (1, 0) reads tau.swap().
            for f in formulas:
                swapped = evaluate(pair_structure(tau.swap()), f, {"x": 0, "y": 1})
                assert tarski(pair_structure(tau), {"x": 1, "y": 0})(f) == swapped
            seen.add(tau.nav)
    want = {
        DistKind.NONE: {(False, False)},
        DistKind.PARTIAL_ORDER: {(False, False), (True, False), (False, True)},
        DistKind.TRANSITIVE: {(False, False), (True, False), (False, True), (True, True)},
    }[dist]
    assert seen == want


@pytest.mark.parametrize(
    "dist, nav",
    [
        (DistKind.NONE, (True, False)),
        (DistKind.NONE, (False, True)),
        (DistKind.NONE, (True, True)),
        (DistKind.PARTIAL_ORDER, (True, True)),
        (DistKind.TRANSITIVE, (True, True)),  # the endpoints have no t loops
        (DistKind.PARTIAL_ORDER, None),
        (DistKind.TRANSITIVE, (True,)),
    ],
)
def test_a_two_type_rejects_bits_its_signature_forbids(dist, nav):
    sig = Signature((), (), dist)
    bare = OneType(sig, (False,) * len(sig.one_type_keys()))
    with pytest.raises(LogicError):
        TwoType(sig, bare, bare, (), nav)


def test_semi_diagonal_enumeration_counts():
    sig = Signature(("p",), ("r",), DistKind.PARTIAL_ORDER)
    # 1-types: p-bit x r-diagonal-bit; three navigational alternatives.
    assert len(list(enumerate_semi_diagonal_types(sig))) == 4 * 4 * 3


def test_evaluate_agrees_with_naive_oracle():
    sig = Signature(("p", "q"), ("r",), DistKind.PARTIAL_ORDER)
    tsig = Signature(("p", "q"), ("r",), DistKind.TRANSITIVE)
    for seed in range(60):
        use = sig if seed % 2 else tsig
        s = random_structure(seed, use, 2 + seed % 4)
        f = random_formula(seed, use, depth=3)
        assert evaluate(s, f) == naive_eval(s, f)


def test_evaluate_under_partial_assignments_agrees_with_naive_oracle():
    sig = Signature(("p", "q"), ("r",), DistKind.PARTIAL_ORDER)
    tsig = Signature(("p", "q"), ("r",), DistKind.TRANSITIVE)
    rng = random.Random(1)
    seen = {0: 0, 1: 0, 2: 0}
    for seed in range(60):
        use = sig if seed % 2 else tsig
        s = random_structure(seed, use, 2 + seed % 4)
        for g in subformulas(random_formula(seed, use, depth=4)):
            free = free_vars(g)
            assert free == naive_free_vars(g)
            env = {v: rng.randrange(s.size) for v in free}
            seen[len(env)] += 1
            assert evaluate(s, g, env) == naive_eval(s, g, env)
            both = {**env, "x": 0, "y": s.size - 1}
            assert evaluate(s, g, both) == naive_eval(s, g, both)
    assert min(seen.values()) > 50, seen


def test_free_vars_under_shadowing():
    px, qy = Atom("p", ("x",)), Atom("q", ("y",))
    inner = Exists("x", And((px, Forall("x", px))))
    assert free_vars(And((inner, qy))) == {"y"}
    assert free_vars(Forall("y", And((inner, px, qy)))) == {"x"}
    assert free_vars(Or((Forall("x", Eq("x", "y")), Not(Eq("x", "x"))))) == {"x", "y"}


def test_evaluate_reads_the_distinguished_relation():
    po = Structure(PO, 3, {}, {}, frozenset({(0, 1), (0, 2)}))
    lt, sim = Atom("<", ("x", "y")), Atom("~", ("x", "y"))
    truth = {
        (a, b): (evaluate(po, lt, {"x": a, "y": b}), evaluate(po, sim, {"x": a, "y": b}))
        for a in range(3) for b in range(3)
    }
    assert truth == {
        (0, 0): (False, False), (0, 1): (True, False), (0, 2): (True, False),
        (1, 0): (False, False), (1, 1): (False, False), (1, 2): (False, True),
        (2, 0): (False, False), (2, 1): (False, True), (2, 2): (False, False),
    }
    tr = Structure(TR, 2, {}, {}, frozenset({(0, 0), (0, 1)}))
    t = Atom("t", ("x", "y"))
    assert [evaluate(tr, t, {"x": a, "y": b}) for a in range(2) for b in range(2)] == [
        True, True, False, False
    ]
    assert [evaluate(tr, Atom("t", ("x", "x")), {"x": a}) for a in range(2)] == [True, False]


def test_swap_xy_is_an_involution_that_swaps_the_assignment():
    for s, formulas in rewrite_cases():
        for f in formulas:
            g = swap_xy(f)
            assert swap_xy(g) == f
            for a, b in itertools.product(s.domain(), repeat=2):
                assert evaluate(s, g, {"x": b, "y": a}) == evaluate(s, f, {"x": a, "y": b})


def test_substitute_y_by_x_evaluates_at_the_diagonal():
    for s, formulas in rewrite_cases():
        for f in formulas:
            g = substitute(f, {"y": "x"})
            assert "y" not in free_vars(g)
            for a in s.domain():
                assert evaluate(s, g, {"x": a}) == evaluate(s, f, {"x": a, "y": a})


def test_eval_unary_on_type_agrees_with_one_type_of():
    seen = 0
    for s, formulas in rewrite_cases():
        for f in formulas:
            for var in ("x", "y"):
                if not is_quantifier_free(f) or not free_vars(f) <= {var}:
                    continue
                for a in s.domain():
                    seen += 1
                    assert eval_unary_on_type(f, one_type_of(s, a), var) == evaluate(s, f, {var: a})
    assert seen > 100


def test_subformulas_yield_each_shared_node_once_occurrences_each_occurrence():
    a = Atom("p", ("x",))
    f = And((a, a))
    assert list(subformulas(f)) == [f, a]
    assert list(occurrences(f)) == [(f, True, None), (a, True, None), (a, True, None)]


def test_occurrences_carry_polarity_and_nearest_binder():
    p, r = Atom("p", ("x",)), Atom("r", ("x", "y"))
    inner = Exists("y", Not(r))
    body = Implies(Not(p), Forall("x", inner))
    f = Forall("x", body)
    assert list(occurrences(f)) == [
        (f, True, None),
        (body, True, "x"),
        (Not(p), False, "x"),  # an antecedent flips polarity
        (p, True, "x"),  # and a negation flips it back
        (body.right, True, "x"),
        (inner, True, "x"),  # the binder above is the inner forall x
        (Not(r), True, "y"),
        (r, False, "y"),
    ]


def test_eval_unary_on_type_errors():
    tp = one_type_of(Structure(TR, 2, {}, {}, frozenset({(0, 0)})), 0)
    assert eval_unary_on_type(Atom("t", ("x", "x")), tp)
    with pytest.raises(PreconditionError):
        eval_unary_on_type(Atom("p", ("y",)), tp)
    with pytest.raises(SignatureMismatchError):
        eval_unary_on_type(Atom("zz", ("x",)), tp)


#: The functions that may test for a Not node (see _tests_for_not): the formula
#: rewriter and two iterators, and the walkers that are hot or need their
#: own shape (polarity, sharing, printing).  Any other formula walk goes
#: through logic.rewrite, logic.subformulas or logic.occurrences.
NOT_BRANCHES = {
    "cnf.walk",
    "free_vars",
    "neg",
    "occurrences",
    "rewrite",
    "simplify",
    "subformulas",
    "_fold",
    "_plan",
    "_print",
    "tarski.holds",
}


#: (importing module, imported module, name) of each private name a module of
#: src/finsat may import from another: none.  A name another module needs is
#: public, with its contract in its docstring, as logic.tarski's is.
PRIVATE_IMPORTS = set()


def test_no_module_imports_another_modules_private_name():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "finsat"
    found = {
        (path.stem, node.module.rpartition(".")[2], alias.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found - PRIVATE_IMPORTS == set(), "import a public name, or move the function to its caller"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list
    )


def test_every_record_field_is_read():
    # A field written at construction and never read as an attribute is
    # dead weight on every record built.
    root = pathlib.Path(__file__).resolve().parent.parent
    src = [ast.parse(p.read_text()) for p in sorted((root / "src" / "finsat").glob("*.py"))]
    tests = [ast.parse(p.read_text()) for p in sorted((root / "tests").glob("*.py"))]
    read = {
        node.attr
        for tree in src + tests
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {
        (cls.name, stmt.target.id)
        for tree in src
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    assert {f for f in fields if f[1] not in read} == set(), "read the field, or delete it"


def _tests_for_not(node: ast.AST) -> bool:
    """isinstance(_, Not), or an is/== comparison against Not, as in
    type(_) is Not, type(_) == Not or t is Not."""
    if isinstance(node, ast.Call):
        return (
            getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(getattr(n, "id", None) == "Not" for n in ast.walk(node.args[1]))
        )
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.Eq)) for op in node.ops)
        and any(getattr(n, "id", None) == "Not" for n in (node.left, *node.comparators))
    )


def _not_branches(tree: ast.AST, scope: str = ""):
    """The qualified name of each function that tests for a Not node."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _not_branches(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if any(_tests_for_not(sub) for sub in ast.walk(node)):
            yield scope


def test_not_branch_lint_sees_type_dispatch():
    for src in ("isinstance(f, Not)", "isinstance(f, (And, Not))", "type(f) is Not",
                "type(f) == Not", "t is Not", "Not is t"):
        tree = ast.parse(f"def walk(f):\n    return {src}\n")
        assert list(_not_branches(tree)) == ["walk"], src
    assert list(_not_branches(ast.parse("def walk(f):\n    return type(f) is And\n"))) == []


def test_only_listed_functions_branch_on_negation():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "finsat"
    found = {}
    for path in sorted(src.glob("*.py")):
        for name in _not_branches(ast.parse(path.read_text())):
            found.setdefault(name, path.name)
    unlisted = {name: where for name, where in found.items() if name not in NOT_BRANCHES}
    assert not unlisted, f"new Not-testing ladders: {unlisted}; use logic.rewrite, logic.subformulas or logic.occurrences"
