"""Bounded model search: decide, smallest_model, and the engines checked
against each other and against brute-force enumeration."""

import itertools
import random

import pytest

from finsat import ground, logic, solver
from finsat.cdcl import CDCL
from finsat.cliques import EnumerationBudget, cliquify
from finsat.ground import GroundEngine
from finsat.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    DistKind,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    PreconditionError,
    Signature,
    Structure,
    VerificationFailure,
    enumerate_nav,
    enumerate_one_types,
    evaluate,
    subformulas,
)
from finsat.normal_forms import (
    BasicFormula,
    BasicKind,
    basic_set_formula,
    conjunct_parts,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
)
from finsat.parsing import parse_formula, print_formula, write_structure
from finsat.solver import (
    BudgetExceeded,
    SearchBudget,
    decide,
    find_expansion,
    find_model,
    random_formula,
    random_structure,
    smallest_model,
    _decompose,
    _engine,
    _subst_t_top,
)

from fixtures import BUDGET_OUT, MIN_INF, TS, rewrite_cases
from oracles import (
    all_structures,
    cnf_satisfiable,
    expand_definitions,
    expansion_by_enumeration,
    naive_eval,
    pair_structure,
    unit_propagate,
)

T0 = Signature((), (), DistKind.TRANSITIVE)
T1 = Signature(("p",), (), DistKind.TRANSITIVE)
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


def test_decide_tries_both_searches_at_each_size():
    # A single-clique model needs three elements; a model with a
    # non-t pair needs only two.
    sig = Signature(("p", "q", "r"), (), DistKind.TRANSITIVE)
    phi = parse_formula(
        "(exists x (p(x) & !q(x) & !r(x)) & exists x (q(x) & !p(x) & !r(x))"
        " & exists x (r(x) & !p(x) & !q(x))) | exists x exists y (x != y & !t(x,y))",
        sig,
    )
    assert find_model(phi, sig, 2) is not None
    out = decide(phi, sig, "l2-1t", SearchBudget(max_size=4))
    assert out.kind == "sat" and out.size == 2
    assert evaluate(out.model, phi)


def test_decide_builds_the_general_engine_only_when_the_clique_search_fails(monkeypatch):
    built = []
    monkeypatch.setattr(solver, "_engine", lambda phi, sig: built.append(sig.dist) or _engine(phi, sig))
    # The random-6 transitive NF has a single-clique model of size 2, so
    # only the clique engine, over the plain signature, is built.
    sig = Signature(("p",), (), DistKind.TRANSITIVE)
    tnf, sig1 = to_transitive_nf(random_formula(6, sig, depth=2), sig)
    out = decide(tnf.to_formula(), sig1, "l2-1t", SearchBudget(max_size=3))
    assert (out.kind, out.size, built) == ("sat", 2, [DistKind.NONE])
    # The axiom of infinity has no model: both engines, each built once.
    built.clear()
    assert decide(parse_formula(AXIOM, T0), T0, "l2-1t", SearchBudget(max_size=3)).kind == "no_model_up_to"
    assert built == [DistKind.NONE, DistKind.TRANSITIVE]
    # A free variable is refused before any engine is built.
    built.clear()
    with pytest.raises(PreconditionError, match=r"unassigned free variables \['y'\]"):
        decide(parse_formula("exists x t(x,y)", T0), T0, "l2-1t")
    assert built == []


def test_decide_no_model_up_to_the_bound():
    out = decide(parse_formula(AXIOM, T0), T0, "l2-1t", SearchBudget(max_size=3))
    assert out.kind == "no_model_up_to" and out.bound == 3 and out.model is None
    assert "beyond the bound" in out.report


def test_decide_budget_out_is_unknown():
    budget = SearchBudget(max_size=4, node_limit=10)
    out = decide(parse_formula(BUDGET_OUT, TS), TS, "l2-1t", budget)
    assert out.kind == "unknown" and "10 nodes" in out.report


def test_node_limit_applies_per_size_searched():
    phi = parse_formula(AXIOM, T0)
    per_size = []
    for k in (2, 3, 4):
        engine = _engine(phi, T0)
        assert engine.run(k, 10**6) is None
        per_size.append(engine.nodes)
    limit = max(per_size)
    assert sum(per_size) > limit
    budget = SearchBudget(max_size=4, node_limit=limit)
    assert smallest_model(phi, T0, budget) is None
    assert decide(phi, T0, "l2-1t", budget).kind == "no_model_up_to"


def test_typed_node_counts_on_the_axiom_of_infinity():
    # Each element's witnesses are tested as soon as its later partners can
    # no longer supply them; a search that loses the test takes more nodes.
    engine = _engine(parse_formula(AXIOM, T0), T0, "typed")
    nodes = []
    for k in range(2, 7):
        assert engine.run(k, 10**6) is None
        nodes.append(engine.nodes)
    assert nodes == [5, 23, 143, 1164, 12008]


def test_witness_pruning_cuts_only_subtrees_without_a_model(monkeypatch):
    cases = [(random_formula(seed, sig, depth=3), sig) for sig in (T1, DIFF_SIGS["po"]) for seed in range(40)]

    def search(phi, sig):
        engine = _engine(phi, sig, "typed")
        out = []
        for k in (2, 3, 4):
            m = engine.run(k, 10**7)
            out.append((m and write_structure(m), engine.nodes if engine.types else 0))
        return out

    pruned = [search(phi, sig) for phi, sig in cases]
    # The reference search prunes on no witness at all: neither per element
    # nor per 1-type.  Only _finish rejects a leaf that lacks one.
    monkeypatch.setattr(solver._TypedEngine, "_starved", lambda self, k, j: False)
    monkeypatch.setattr(solver._TypedEngine, "_future_mask", lambda self, ti, lo: self.full_mask)
    cut = 0
    for (phi, sig), runs in zip(cases, pruned):
        for (m, nodes), (m_ref, nodes_ref) in zip(runs, search(phi, sig)):
            assert m == m_ref and nodes <= nodes_ref, print_formula(phi)
            cut += nodes < nodes_ref
    assert cut > 0


def _counter_chain() -> str:
    """a, b count 0..3 up a strictly increasing t-chain: at least 4 elements."""

    def val(v: int, var: str) -> str:
        return " & ".join(f"{'' if v >> i & 1 else '!'}{p}({var})" for i, p in enumerate("ab"))

    steps = [
        f"forall x ({val(v, 'x')} -> exists y (t(x,y) & !t(y,x) & {val(v + 1, 'y')}))"
        for v in range(3)
    ]
    return " & ".join([f"exists x ({val(0, 'x')})", *steps])


# The typed node search's hard inputs: two axioms of infinity, and a 2-bit
# counter whose value-3 elements, and some value-0 element, carry t-loops.
# name: (text, signature, largest size searched, smallest model size or None)
TYPED_SEARCH_CASES = {
    "axiom": (AXIOM, T0, 6, None),
    "strict-successor": ("forall x exists y (t(x,y) & !t(y,x)) & forall x (t(x,x) | p(x))", T1, 5, None),
    "counter-loop": (
        _counter_chain() + " & forall x (a(x) & b(x) -> t(x,x)) & exists x (!a(x) & !b(x) & t(x,x))",
        Signature(("a", "b"), (), DistKind.TRANSITIVE),
        4,
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(TYPED_SEARCH_CASES))
def test_typed_and_ground_agree_on_the_typed_search_inputs(name):
    text, sig, bound, smallest = TYPED_SEARCH_CASES[name]
    phi = parse_formula(text, sig)
    typed, ground = _engine(phi, sig, "typed"), _engine(phi, sig, "ground")
    for k in range(2, bound + 1):
        got = [engine.run(k, 10**7) for engine in (typed, ground)]
        for m in got:
            assert m is None or (m.size == k and evaluate(m, phi))
        assert [m is not None for m in got] == [k == smallest] * 2, k


EXPANSION_SIGS = {
    "l2": Signature(("p",), ("r",), DistKind.NONE),
    "po": Signature(("p",), (), DistKind.PARTIAL_ORDER),
    "t": Signature(("p",), (), DistKind.TRANSITIVE),
}


@pytest.mark.parametrize("name", sorted(EXPANSION_SIGS))
def test_find_expansion_agrees_with_brute_force(name):
    # Standard NF adds fresh unary predicates; base keeps its own atoms.
    sig = EXPANSION_SIGS[name]
    found = []
    for seed in range(40):
        snf, sig2 = to_standard_nf(random_formula(seed, sig, depth=3), sig)
        f = snf.to_formula()
        base = random_structure(seed, sig, 2 + seed % 2)
        if (len(sig2.unary) - len(sig.unary)) * base.size > 12:
            continue
        want = expansion_by_enumeration(base, f, sig2)
        got = find_expansion(base, f, sig2)
        assert (got is None) == (want is None), seed
        if got is not None:
            assert naive_eval(got, f)
            own = {p: got.unary_of(p) for p in sig.unary}
            assert Structure(sig, got.size, own, got.binary, got.dist) == base
        found.append(got is not None)
    assert True in found and False in found


def test_find_expansion_adds_unary_predicates_only():
    sig = EXPANSION_SIGS["po"]
    base = random_structure(0, sig, 2)
    with pytest.raises(PreconditionError):
        find_expansion(base, TRUE, Signature(("p",), ("r",), DistKind.PARTIAL_ORDER))


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


# A transitive relation needs loops only at both ends of a mutual pair, so
# both formulas have models with mutual pairs.
LOOP_CASES = (
    (
        "exists x exists y (x != y & t(x,y) & t(y,x))"
        " & exists x exists y (x != y & !t(x,y))",
        {2: False, 3: True},
    ),
    ("forall x forall y t(x,y)", {2: True, 3: True}),
)


@pytest.mark.parametrize("text, sat", LOOP_CASES)
def test_ground_agrees_with_brute_force_on_mutual_pairs(text, sat):
    phi = parse_formula(text, T0)
    for k, want in sat.items():
        m = find_model(phi, T0, k, engine="ground")
        assert any(evaluate(s, phi) for s in all_structures(T0, k)) == want
        assert (m is not None) == want
        assert m is None or (m.size == k and evaluate(m, phi))


@pytest.mark.parametrize("text, sat", LOOP_CASES)
def test_typed_engine_auto_and_decide_find_mutual_pairs(text, sat):
    phi = parse_formula(text, T0)
    # A t cross atom without a t(u,u) atom goes to the grounded engine.
    assert isinstance(_engine(phi, T0), GroundEngine)
    for engine in ("auto", "typed"):
        for k, want in sat.items():
            m = find_model(phi, T0, k, engine=engine)
            assert (m is not None) == want, (engine, k)
            assert m is None or (m.size == k and evaluate(m, phi))
    out = decide(phi, T0, "l2-1t", SearchBudget(max_size=3))
    assert out.kind == "sat" and out.size == min(k for k, want in sat.items() if want)
    assert evaluate(out.model, phi)


def test_a_reused_engine_carries_no_state_between_sizes():
    cases = [(random_formula(seed, sig, depth=3), sig) for sig in DIFF_SIGS.values() for seed in range(20)]
    cases += [(parse_formula(text, T0), T0) for text, _ in LOOP_CASES]
    found = 0
    for phi, sig in cases:
        m = smallest_model(phi, sig, SearchBudget(max_size=3))
        assert m == next(filter(None, (find_model(phi, sig, k) for k in (2, 3))), None)
        found += m is not None
    assert 0 < found < len(cases)
    # The grounded engine keeps its compiled templates from size 3 to 2.
    phi = parse_formula("forall x (p(x) | exists y (x != y & r(x,y) & !p(y))) & exists x !p(x)", DIFF_SIGS["l2"])
    reused = GroundEngine(phi, DIFF_SIGS["l2"])
    assert reused.run(3, 10**6) is not None
    again = reused.run(2, 10**6)
    assert again is not None and again == GroundEngine(phi, DIFF_SIGS["l2"]).run(2, 10**6)


def _atom_holds(s, key) -> bool:
    if key[0] == "u":
        return key[2] in s.unary[key[1]]
    if key[0] == "b":
        return key[2:] in s.binary[key[1]]
    return key[1:] in s.dist  # "lt" or "t"


def _check_grounding(phi, sig, k, structures) -> set[bool]:
    """The grounded CNF at size k plus a structure's atom units propagates
    to a conflict exactly when the structure is not a model; otherwise
    propagation fixes every variable and satisfies every clause.  Returns
    the truth values seen."""
    engine = GroundEngine(phi, sig)
    encoded = engine.encode(k)
    seen = set()
    for s in structures:
        holds = evaluate(s, phi)
        seen.add(holds)
        if not encoded:
            assert not holds
            continue
        units = [[v if _atom_holds(s, key) else -v] for key, v in engine.var_of.items()]
        clauses = expand_definitions(engine.clauses)
        fixed = unit_propagate(clauses + units)
        assert (fixed is not None) == holds
        if fixed is not None:
            assert len(fixed) == engine.n_vars
            assert all(any(fixed[abs(lit)] == (lit > 0) for lit in c) for c in clauses)
    return seen


@pytest.mark.parametrize("name", sorted(DIFF_SIGS))
def test_grounding_propagates_like_evaluate(name):
    sig = DIFF_SIGS[name]
    formulas = [random_formula(seed, sig, depth=3) for seed in range(20)]
    if name == "l2":
        formulas += [parse_formula(text, sig) for text in DIAGONAL_CASES]
    every2 = list(all_structures(sig, 2))
    some3 = random.Random(0).sample(list(all_structures(sig, 3)), 16)
    seen = set()
    for phi in formulas:
        seen |= _check_grounding(phi, sig, 2, every2)
        seen |= _check_grounding(phi, sig, 3, some3)
    assert seen == {True, False}


def test_grounding_of_a_cliquify_output_propagates_like_evaluate():
    res = cliquify(MIN_INF, TS, 1, EnumerationBudget(max_diatoms=100000))
    structures = [random_structure(seed, res.sig_hat, 2) for seed in range(20)]
    assert _check_grounding(res.snf.to_formula(), res.sig_hat, 2, structures) == {False}


def test_separate_copies_of_a_formula_share_every_variable():
    sig = DIFF_SIGS["l2"]
    text = "forall x (p(x) | exists y (x != y & r(x,y) & !p(y))) & exists x !p(x)"
    one = parse_formula(text, sig)
    both = And((parse_formula(text, sig), parse_formula(text, sig)))
    for k in (2, 3):
        a, b = GroundEngine(one, sig), GroundEngine(both, sig)
        assert a.encode(k) and b.encode(k)
        assert a.n_vars > len(a.var_of)  # so there are gates to share
        assert b.n_vars == a.n_vars


def test_typed_parts_hoist_and_split_what_conjunct_parts_leaves():
    sig = Signature(("p",), ("r",), DistKind.NONE)

    def parts(text):
        shape = _decompose(parse_formula(text, sig))
        return {k: [print_formula(f) for f in v] for k, v in vars(shape).items() if v}

    # Both inputs have no direct shape; the typed engine's own two steps
    # give them one.
    hoisted, split = "forall x (p(x) -> forall y r(x,y))", "forall x (exists y r(x,y) & exists y r(y,x))"
    assert conjunct_parts(parse_formula(hoisted, sig)) is None
    assert parts(hoisted) == {"universal1": ["p(x) -> r(x, x)"], "universal2": ["p(x) -> r(x, y)"]}
    assert conjunct_parts(parse_formula(split, sig)) is None
    assert parts(split) == {"thetas": ["r(x, y) | r(x, x)", "r(y, x) | r(x, x)"]}
    assert parts("exists x forall y r(x,y)") == {"residual": ["exists x forall y r(x, y)"]}


def test_grounded_engine_refuses_a_free_variable():
    phi = parse_formula("exists x (t(x,y) & !t(y,x))", T0)
    # The t cross atom without a t(u,u) atom sends auto to the grounded engine.
    for engine in ("ground", "auto"):
        with pytest.raises(PreconditionError, match=r"unassigned free variables \['y'\]"):
            find_model(phi, T0, 2, engine=engine)
    sig = Signature(("p",), (), DistKind.TRANSITIVE)
    with pytest.raises(PreconditionError, match="unassigned free variables"):
        find_expansion(random_structure(0, T0, 2), parse_formula("exists x (p(x) & t(x,y))", sig), sig)
    # The typed engine refuses it at construction, before any run.
    plain = Signature(("p",), (), DistKind.NONE)
    with pytest.raises(PreconditionError, match=r"unassigned free variables \['y'\]"):
        _engine(parse_formula("exists x (p(x) & !p(y))", plain), plain, "typed")


def _random_3_tnf():
    """The transitive NF of random formula 3 over (p): 64 candidate
    1-types, half with a t loop, so mutual t pairs are candidates."""
    sig = Signature(("p",), (), DistKind.TRANSITIVE)
    tnf, sig1 = to_transitive_nf(random_formula(3, sig, depth=2), sig)
    return tnf.to_formula(), sig1


def test_pair_tables_read_each_two_type_on_one_structure(monkeypatch):
    engine = _engine(*_random_3_tnf(), "typed")
    sig1, types, thetas = engine.sig, engine.types, engine.shape.thetas
    assert engine.shape.universal2 and thetas
    built, walked, walks = [], [], []
    monkeypatch.setattr(solver, "TwoType", lambda *args: built.append(logic.TwoType(*args)) or built[-1])
    monkeypatch.setattr(solver, "tarski", lambda s, env: walked.append(s) or logic.tarski(s, env))
    for module in (solver, logic):
        monkeypatch.setattr(module, "free_vars", lambda f: walks.append(f) or logic.free_vars(f))
    pairs = list(itertools.product(range(len(types)), repeat=2))
    kept = {tau: (fwd, bwd) for ti, tj in pairs for tau, fwd, bwd in engine._pair_entries(ti, tj)}
    monkeypatch.undo()
    # One candidate read per unordered pair of 1-types, on one structure,
    # and no free-variable walk.
    crosses = len(list(itertools.product(*engine._cross_choices())))
    want = sum(crosses * len(enumerate_nav(sig1, types[ti], types[tj])) for ti, tj in pairs if ti <= tj)
    assert len(built) == len(set(built)) == len(walked) == want
    assert all(types.index(tau.x) <= types.index(tau.y) for tau in built)
    assert walks == []

    def reads(tau, f):
        """f at (0, 1) on tau's structure and on tau.swap()'s."""
        xy = {"x": 0, "y": 1}
        return evaluate(pair_structure(tau), f, xy), evaluate(pair_structure(tau.swap()), f, xy)

    for tau, masks in kept.items():
        bits = [reads(tau, th) for th in thetas]
        assert masks == tuple(sum(b[side] << h for h, b in enumerate(bits)) for side in (0, 1))
    # The universal part decides which candidates are kept.  evaluate is
    # slow, so this checks only the candidates of the first row that kept any.
    row = next(iter(kept)).x
    for tau in built:
        if tau.x == row:
            assert (tau in kept) == all(reads(tau, engine.u2))


def _direct_table(engine, ti, tj):
    """The (ti, tj) pair table as a direct build lists it: every candidate
    in _cross_choices() product order, then enumerate_nav order, read with
    evaluate on oracles.pair_structure and kept if u2 holds both ways."""
    tx, ty = engine.types[ti], engine.types[tj]
    use = engine.usage
    navs = enumerate_nav(engine.sig, tx, ty) if use.nav or use.t_cross else ((False, False),)
    xy, yx = {"x": 0, "y": 1}, {"x": 1, "y": 0}
    out = []
    for cross, nav in itertools.product(itertools.product(*engine._cross_choices()), navs):
        tau = logic.TwoType(engine.sig, tx, ty, cross, nav)
        s = pair_structure(tau)
        if evaluate(s, engine.u2, xy) and evaluate(s, engine.u2, yx):
            fwd, bwd = (sum(evaluate(s, th, env) << h for h, th in enumerate(engine.shape.thetas)) for env in (xy, yx))
            out.append((tau, fwd, bwd))
    return out


PO_PQ = Signature(("p", "q"), (), DistKind.PARTIAL_ORDER)
PO_PR = Signature(("p",), ("r",), DistKind.PARTIAL_ORDER)
#: Pair-table inputs besides the random-3 transitive NF: a partial order
#: whose universal part reads < and ~, and one with r in both directions.
MIRROR_CASES = {
    "po-nav": (
        "forall x forall y (x ~ y -> p(x) | q(y)) & forall x forall y (x < y & p(x) -> !q(y))"
        " & forall x exists y (x < y & q(y) | y < x & !p(y)) & forall x exists y (x ~ y & p(y))",
        PO_PQ,
    ),
    "po-cross": (
        "forall x forall y (r(x,y) & x < y -> !r(y,x) | p(y)) & forall x forall y (x ~ y -> r(x,y) | p(x))"
        " & forall x exists y (r(x,y) & !r(y,x)) & forall x exists y (y < x & r(y,x) & p(y))",
        PO_PR,
    ),
}


@pytest.mark.parametrize("case", ["random-3-tnf", *MIRROR_CASES])
def test_a_mirrored_pair_table_equals_a_direct_build(case):
    if case == "random-3-tnf":
        phi, sig = _random_3_tnf()
    else:
        text, sig = MIRROR_CASES[case]
        phi = parse_formula(text, sig)
    engine = _engine(phi, sig, "typed")
    u2_preds = {f.pred for f in subformulas(engine.u2) if isinstance(f, Atom)}
    assert {
        # Two t loops make the mutual t pair a candidate.
        "random-3-tnf": engine.usage.t_cross and any(tp.t_diag for tp in engine.types),
        "po-nav": {"<", "~"} <= u2_preds,
        "po-cross": engine.usage.cross == {"r"} and engine.usage.nav,
    }[case]
    count = len(engine.types)
    tables = {(ti, tj): engine._pair_entries(ti, tj) for ti in range(count) for tj in range(count)}
    for (ti, tj), table in tables.items():
        assert table == _direct_table(engine, ti, tj), (ti, tj)
    # The mirror reorders its entries and exchanges fwd and bwd.
    mirrored = [(ti, tj) for ti, tj in tables if ti > tj]
    assert any([tau.swap() for tau, _, _ in tables[tj, ti]] != [tau for tau, _, _ in tables[ti, tj]] for ti, tj in mirrored)
    assert any(fwd != bwd for ti, tj in mirrored for _, fwd, bwd in tables[ti, tj])


def _unshared(f):
    """A copy of f in which every connective and quantifier is a node of
    its own: each non-atom node is rebuilt by its constructor.
    logic.rewrite would not do, since its neg collapses !!f."""
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        return Not(_unshared(f.sub))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_unshared(s) for s in f.subs))
    if isinstance(f, Implies):
        return Implies(_unshared(f.left), _unshared(f.right))
    return type(f)(f.var, _unshared(f.body))


def _basic_sets():
    """Two basic sets as (sentence, signature, basic formulas): the basic
    compilation of an l2-1po-u input, and every pair-kind formula over the
    1-types of (p, q; <), 5 kinds times 12 pairs of distinct 1-types."""
    po = DIFF_SIGS["po"]
    phi = parse_formula("forall x (p(x) -> exists y (x < y & q(y))) & exists x p(x)", po)
    snf, sig1 = to_standard_nf(phi, po)
    compiled, sig_star = to_basic(snf, sig1)
    pair_kinds = (BasicKind.B1B, BasicKind.B2B, BasicKind.B3, BasicKind.B4, BasicKind.B5B)
    types = enumerate_one_types(po)
    pairs = [BasicFormula(k, alpha=a, beta=b) for k in pair_kinds for a, b in itertools.permutations(types, 2)]
    return [(basic_set_formula(psis), sig, psis) for psis, sig in ((compiled, sig_star), (pairs, po))]


def _shared_cases():
    res = cliquify(MIN_INF, TS, 1, EnumerationBudget(max_diatoms=100000))
    l2 = DIFF_SIGS["l2"]
    # Each '<->' holds both of its sides twice.
    iff = "r(x,y)"
    for atom in ("p(x)", "p(y)", "r(y,x)", "r(x,x)") * 2:
        iff = f"{atom} <-> ({iff})"
    cases = [(res.snf.to_formula(), res.sig_hat), (parse_formula(f"forall x exists y ({iff})", l2), l2)]
    # Here '<->' holds each quantified side under both polarities.
    quantified = "forall x ((exists y (r(x,y) & p(y))) <-> (forall y (r(y,x) -> !p(y))))"
    cases.append((parse_formula(quantified, l2), l2))
    cases += [(phi, sig) for phi, sig, _ in _basic_sets()]
    cases += [(random_formula(seed, sig, depth=3), sig) for sig in DIFF_SIGS.values() for seed in range(20)]
    return cases


def test_a_shared_formula_grounds_like_an_unshared_copy():
    for phi, sig in _shared_cases():
        for k in (2, 3):
            shared, copy = GroundEngine(phi, sig), GroundEngine(_unshared(phi), sig)
            assert shared.encode(k) == copy.encode(k)
            assert shared.n_vars == copy.n_vars
            assert list(shared.var_of.items()) == list(copy.var_of.items())
            assert shared.clauses == copy.clauses


def test_grounding_reads_each_shared_subformula_once(monkeypatch):
    res = cliquify(MIN_INF, TS, 1, EnumerationBudget(max_diatoms=100000))
    phi = res.snf.to_formula()
    folds = 0
    read = set()  # (atom, polarity) pairs the current _compile has read
    fold, atom_node, compile_ = ground._fold, ground._atom_node, ground._compile

    def counted_fold(*args):
        nonlocal folds
        folds += 1
        return fold(*args)

    def read_once(f, env, pol, *rest):
        assert (id(f), pol) not in read, f"{f} read twice in one compile"
        read.add((id(f), pol))
        return atom_node(f, env, pol, *rest)

    def compile_afresh(*args):
        read.clear()
        return compile_(*args)

    monkeypatch.setattr(ground, "_fold", counted_fold)
    monkeypatch.setattr(ground, "_atom_node", read_once)
    monkeypatch.setattr(ground, "_compile", compile_afresh)
    seen = []
    for f in (phi, _unshared(phi)):
        folds = 0
        assert GroundEngine(f, res.sig_hat).encode(2)
        seen.append(folds)
    # Atoms stay shared in the copy, so only the memo on negations and
    # connectives tells the two apart: 8,774 folds against 20,871.
    assert 2 * seen[0] <= seen[1]


def _record_compiles(monkeypatch) -> list:
    """(id(matrix), polarity, pattern) of each _compile call from now on."""
    calls = []
    compile_ = ground._compile

    def recorded(f, pol, env, sig):
        calls.append((id(f), pol, tuple(sorted(env.items()))))
        return compile_(f, pol, env, sig)

    monkeypatch.setattr(ground, "_compile", recorded)
    return calls


def test_grounding_compiles_each_matrix_once_per_polarity_and_pattern(monkeypatch):
    phi, sig, _ = _basic_sets()[0]
    calls = _record_compiles(monkeypatch)
    engine = GroundEngine(phi, sig)
    for k in (2, 3):
        assert engine.encode(k)
    # With one matrix per occurrence, the 770 basic formulas compiled 2,306
    # times for 1,790 distinct triples.
    assert len(calls) == len(set(calls))


def test_a_pair_kind_body_compiles_once_per_kind_and_beta(monkeypatch):
    phi, sig, psis = _basic_sets()[1]
    calls = _record_compiles(monkeypatch)
    engine = GroundEngine(phi, sig)
    for k in (2, 3):
        engine.encode(k)
    # Each formula is Forall x (alpha(x) -> Forall y body).
    bodies = {id(psi.formula.body.right.body) for psi in psis}
    shared = {(psi.kind, psi.beta) for psi in psis}
    assert len(psis) == 60 and len(bodies) == len(shared) == 20
    # One compile per body for x = y and one for x != y.
    patterns = sorted(c[2] for c in calls if c[0] in bodies)
    assert patterns == [(("x", 0), ("y", 0))] * 20 + [(("x", 0), ("y", 1))] * 20


def test_grounded_search_branches_on_atoms_only(monkeypatch):
    res = cliquify(MIN_INF, TS, 1, EnumerationBudget(max_diatoms=100000))
    solvers = []

    class Recorded(CDCL):
        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

    monkeypatch.setattr(ground, "CDCL", Recorded)
    engine = GroundEngine(res.snf.to_formula(), res.sig_hat)
    for k in (2, 3):
        assert engine.run(k, 10**6) is None
    # Branching on gate variables too took 1,263 and 2,215 decisions;
    # branching on atoms only takes 25 and 69.
    decisions = [s.decisions for s in solvers]
    assert len(decisions) == 2 and max(decisions) <= 200, decisions


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


def _cdcl(n_vars, clauses, node_limit=10**6, branch_on=None):
    """The solver's answer, with any assignment checked against the
    clauses (the solver takes its input over, so it gets copies)."""
    assignment = CDCL(n_vars, [list(c) for c in clauses], branch_on).solve(node_limit)
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


def _circuit(seed: int) -> tuple[int, int, list]:
    """A random circuit: inputs 1..n_in, then gates, each the definition
    item (z, lits), z <-> AND(lits), of an "and" or "or" of earlier
    literals, then a few random clauses over the gates.  Returns (n_in,
    n_vars, items); expand_definitions gives its Tseitin CNF."""
    rng = random.Random(seed)
    n_in, n_vars = rng.randint(3, 6), rng.randint(9, 15)
    items = []
    for z in range(n_in + 1, n_vars + 1):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, z), rng.randint(2, 3))]
        if rng.random() < 0.5:  # z is the "or" of lits: -z is the "and" of their negations
            z, lits = -z, [-lit for lit in lits]
        items.append((z, tuple(lits)))
    gates = range(n_in + 1, n_vars + 1)
    for _ in range(rng.randint(1, 4)):
        items.append([v if rng.random() < 0.5 else -v for v in rng.sample(gates, rng.randint(1, 3))])
    return n_in, n_vars, items


def test_cdcl_branching_on_inputs_only_is_complete():
    answers = set()
    for seed in range(300):
        n_in, n_vars, items = _circuit(seed)
        clauses = expand_definitions(items)
        sat = _cdcl(n_vars, clauses, branch_on=range(1, n_in + 1)) is not None
        assert sat == cnf_satisfiable(n_vars, clauses), f"seed {seed}"
        answers.add(sat)
    assert answers == {True, False}


def _loaded(n_vars, items, branch_on=None) -> CDCL:
    """A solver loaded with copies of items: clause lists copied, definition
    items as they are."""
    return CDCL(n_vars, [c if isinstance(c, tuple) else list(c) for c in items], branch_on)


def test_cdcl_loads_definition_items_as_their_clauses():
    for seed in range(300):
        n_in, n_vars, items = _circuit(seed)
        clauses = expand_definitions(items)
        sat = cnf_satisfiable(n_vars, clauses)
        runs = []
        for given in (items, clauses):
            cdcl = _loaded(n_vars, given, range(1, n_in + 1))
            loaded = ([[list(c) for c in w] for w in cdcl.watches], [list(i) for i in cdcl.implied])
            assignment = cdcl.solve(10**6)
            assert (assignment is not None) == sat, f"seed {seed}"
            if assignment is not None:
                assert all(any(assignment[lit] == 1 for lit in c) for c in clauses)
                assignment = list(assignment)
            runs.append((loaded, assignment, cdcl.decisions, cdcl.conflicts))
        assert runs[0] == runs[1], f"seed {seed}"


@pytest.mark.parametrize(
    "items, sat",
    [
        ([(3, (1, 2))], True),  # width 2
        ([(3, (1, 2)), [1], [2], [-3]], False),
        ([(-3, (-1, -2)), [-1], [3]], True),  # an "or" gate
        ([(3, (-1, 2)), [3], [1]], False),
        ([(3, (-2, 1, 2)), [1]], True),  # a literal and its negation
        ([(3, (-2, 1, 2)), [3]], False),
    ],
)
def test_cdcl_loads_degenerate_definition_items(items, sat):
    clauses = expand_definitions(items)
    cdcl, written = _loaded(3, items), _loaded(3, clauses)
    assert cdcl.watches == written.watches and cdcl.implied == written.implied
    assert (cdcl.solve(100) is not None) == sat == cnf_satisfiable(3, clauses)


def test_cdcl_keeps_no_long_clause_for_a_gate_on_a_literal_and_its_negation():
    cdcl = CDCL(3, [(3, (-2, 1, 2))])
    assert not any(cdcl.watches)
    assert cdcl.implied[3] == [2, 1, -2]
    # z is forced false: no assignment of the inputs makes it true.
    for units in itertools.product((1, -1), (2, -2)):
        assignment = CDCL(3, [(3, (-2, 1, 2))] + [[u] for u in units]).solve(10)
        assert assignment[3] == -1


def test_cdcl_refuses_a_variable_nothing_fixes():
    # 3 <-> (1 & 2) is fixed once 1 and 2 are; 3 <- (1 & 2) alone is not.
    assert CDCL(3, [[-3, 1], [-3, 2], [3, -1, -2]], [1, 2]).solve(10) is not None
    with pytest.raises(VerificationFailure, match="not branched on"):
        CDCL(3, [[3, -1, -2]], [1, 2]).solve(10)


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


def test_subst_t_top_agrees_on_the_total_relation():
    for s, formulas in rewrite_cases():
        if s.sig.dist is not DistKind.TRANSITIVE:
            continue
        total = Structure(s.sig, s.size, s.unary, s.binary, frozenset(itertools.product(s.domain(), repeat=2)))
        for f in formulas:
            g = _subst_t_top(f)
            # Negations are rebuilt with neg, so no negated constant is left.
            assert not any(isinstance(h, Not) and h.sub in (TRUE, FALSE) for h in subformulas(g))
            for a, b in itertools.product(s.domain(), repeat=2):
                assert evaluate(total, g, {"x": a, "y": b}) == evaluate(total, f, {"x": a, "y": b})
