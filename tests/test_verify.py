"""pipeline_verify: the declared stage rows per logic, the basic-compilation
refusal, and the failure minimizer."""

import collections
import time

import pytest

import finsat.normal_forms
import finsat.verify
from finsat import cli
from finsat.cliques import EnumerationBudget, EnumerationBudgetError, cliquify
from finsat.factorization import TypedPartialOrder
from finsat.logic import TRUE, DistKind, Signature, Structure, VerificationFailure, enumerate_one_types
from finsat.normal_forms import (
    StandardNF,
    basic_set_formula,
    label_witnesses,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
)
from finsat.parsing import parse_formula
from finsat.solver import SearchBudget, random_formula, smallest_model
from finsat.verify import pipeline_verify

T0 = Signature((), (), DistKind.TRANSITIVE)
TAB = Signature(("a", "b"), (), DistKind.TRANSITIVE)
T_P = Signature(("p",), (), DistKind.TRANSITIVE)
PO0 = Signature((), (), DistKind.PARTIAL_ORDER)
PO_PQ = Signature(("p", "q"), (), DistKind.PARTIAL_ORDER)
PO_PR = Signature(("p",), ("r",), DistKind.PARTIAL_ORDER)
L2 = Signature(("p",), ("r",), DistKind.NONE)
NODES = 100_000_000
#: The pipeline sweep's search budget, for depth-3 random formulas.
SWEEP_BUDGET = SearchBudget(max_size=3, node_limit=200_000)

PO_CHAIN = "forall x (p(x) -> exists y (x < y & r(x,y))) & exists x p(x)"

#: The 2-bit counter over <: values 0-3 as (p, q) = 00, 10, 01, 11, and
#: each value below 3 has a greater element of the next value.  Its
#: smallest model is the 4-element chain.
COUNTER_2 = (
    "exists x (!p(x) & !q(x))"
    " & forall x (!p(x) & !q(x) -> exists y (x < y & p(y) & !q(y)))"
    " & forall x (p(x) & !q(x) -> exists y (x < y & !p(y) & q(y)))"
    " & forall x (!p(x) & q(x) -> exists y (x < y & p(y) & q(y)))"
)

BLOCKS_SKIPPED = [
    ("basic-set model search", "skipped", ""),
    ("factorization (unitary, controlled)", "skipped", ""),
    ("thinning preserves the basic set", "skipped", ""),
    ("block-count reduction", "skipped", ""),
    ("block-size reduction", "skipped", ""),
]

#: The benchmark's four pipeline_verify inputs at bound 4, plus one l2
#: input: formula, signature, logic, node limit, enumeration budget, rows.
CASES = {
    "l2-1po-u": (
        "forall x (p(x) -> exists y (x < y & q(y))) & exists x p(x)", PO_PQ, "l2-1po-u", NODES, None,
        [
            ("standard normal form", "pass", "multiplicity 2, 0 fresh predicates"),
            ("normal form implies the input", "pass", "checked on the found model"),
            ("basic compilation", "pass", "7 basic formulas over 2 realized 1-types, signature growth exactly 6"),
            ("basic-set model search", "pass", "model of size 2"),
            ("factorization (unitary, controlled)", "pass", "2 blocks, 0 controlled constraints"),
            ("thinning preserves the basic set", "pass", ""),
            ("block-count reduction", "pass", "2 -> 2 blocks, no equivalent cuts remain"),
            ("block-size reduction", "pass", "carrier 2 -> 2, basic set re-verified"),
        ],
    ),
    "l2-1po": (
        "forall x exists y r(x,y) & exists x p(x)", PO_PR, "l2-1po", NODES, None,
        [
            ("standard normal form", "pass", "multiplicity 2, 0 fresh predicates"),
            ("normal form implies the input", "pass", "checked on the found model"),
            ("spread normal form", "pass", "multiplicity 6, witness model of size 2"),
            ("binary elimination", "pass", "model of size 2 reconstructed and re-verified"),
            ("basic compilation", "pass", "14 basic formulas over 2 realized 1-types, signature growth exactly 18"),
            ("basic-set model search", "pass", "model of size 2"),
            ("factorization (unitary, controlled)", "pass", "2 blocks, 0 controlled constraints"),
            ("thinning preserves the basic set", "pass", ""),
            ("block-count reduction", "pass", "2 -> 2 blocks, no equivalent cuts remain"),
            ("block-size reduction", "pass", "carrier 2 -> 2, basic set re-verified"),
        ],
    ),
    # The full basic set of both l2-1po inputs has 31 bits, which the
    # basic-formula count refuses; over the 2 realized 1-types it is small.
    "l2-1po-chain": (
        PO_CHAIN, PO_PR, "l2-1po", NODES, None,
        [
            ("standard normal form", "pass", "multiplicity 2, 0 fresh predicates"),
            ("normal form implies the input", "pass", "checked on the found model"),
            ("spread normal form", "pass", "multiplicity 6, witness model of size 2"),
            ("binary elimination", "pass", "model of size 2 reconstructed and re-verified"),
            ("basic compilation", "pass", "13 basic formulas over 2 realized 1-types, signature growth exactly 18"),
            ("basic-set model search", "pass", "model of size 2"),
            ("factorization (unitary, controlled)", "pass", "2 blocks, 1 controlled constraints"),
            ("thinning preserves the basic set", "pass", ""),
            ("block-count reduction", "pass", "2 -> 2 blocks, no equivalent cuts remain"),
            ("block-size reduction", "pass", "carrier 2 -> 2, basic set re-verified"),
        ],
    ),
    # The full basic set of the 2-bit counter has 98,308 formulas, past the
    # count; its 4 realized 1-types give a basic set whose smallest model,
    # like the input's, has 4 elements.
    "l2-1po-u-counter": (
        COUNTER_2, PO_PQ, "l2-1po-u", NODES, None,
        [
            ("standard normal form", "pass", "multiplicity 4, 0 fresh predicates"),
            ("normal form implies the input", "pass", "checked on the found model"),
            ("basic compilation", "pass", "17 basic formulas over 4 realized 1-types, signature growth exactly 12"),
            ("basic-set model search", "pass", "model of size 4"),
            ("factorization (unitary, controlled)", "pass", "4 blocks, 0 controlled constraints"),
            ("thinning preserves the basic set", "pass", ""),
            ("block-count reduction", "pass", "4 -> 4 blocks, no equivalent cuts remain"),
            ("block-size reduction", "pass", "carrier 4 -> 4, basic set re-verified"),
        ],
    ),
    "l2-1t": (
        "forall x exists y (x != y & !t(x,y) & !t(y,x))", T0, "l2-1t", NODES,
        EnumerationBudget(max_unary=4),
        [
            ("transitive normal form", "pass", "multiplicity 1, 4m = 4 guard predicates"),
            ("normal form implies the input", "pass", "checked on the found model"),
            ("clique bounding", "pass", "size 2 -> 2, formula re-verified"),
            ("clique abstraction round trip", "pass", "2 elements -> 2 cliques -> 2 elements"),
        ],
    ),
    "l2-1t-budget": (
        "forall x exists y (t(x,y) & !t(y,x) & b(y)) & exists x (a(x) & !t(x,x))", TAB, "l2-1t", 20_000, None,
        [
            ("transitive normal form", "pass", "multiplicity 2, 4m = 8 guard predicates"),
            ("normal form implies the input", "skipped", "no model up to size 4"),
            ("clique bounding", "skipped", ""),
            ("clique abstraction round trip", "skipped", ""),
        ],
    ),
    "l2": (
        "forall x exists y r(x,y) & exists x p(x)", L2, "l2", NODES, None,
        [
            ("standard normal form", "pass", "multiplicity 2, 0 fresh predicates"),
            ("normal form implies the input", "pass", "checked on the found model"),
        ],
    ),
}


def rows(report):
    return [(s.stage, s.status, s.detail) for s in report.stages]


@pytest.mark.parametrize("name", CASES)
def test_report_rows(name):
    text, sig, logic, nodes, enum, want = CASES[name]
    budget = SearchBudget(max_size=4, node_limit=nodes)
    report = pipeline_verify(parse_formula(text, sig), sig, logic, budget, enum)
    assert rows(report) == want
    assert [s[0] for s in want] == list(finsat.verify.CHAINS[logic])


def test_to_basic_refuses_eleven_bits_at_once():
    # m = 3 adds 9 direction labels to the 2 predicates of the signature,
    # and the universal constraint relates every one of the 4**11 pairs of
    # 1-types: 3 + 9 * 2**10 + 4**11 basic formulas.
    w = StandardNF(parse_formula("x < y | y < x", PO_PQ), (TRUE, TRUE, TRUE))
    start = time.perf_counter()
    with pytest.raises(
        EnumerationBudgetError,
        match="^basic compilation refused: at least 4203523 basic formulas to build exceed the budget of 32768$",
    ):
        to_basic(w, PO_PQ)
    assert time.perf_counter() - start < 1.0


def test_to_basic_compiles_eleven_bits_when_the_count_is_small():
    # The same 11 bits without a universal constraint: 3 + 9 * 2**10
    # built.  The three witness conjuncts are alike, so a 1-type that
    # carries a direction's label of any of them gets one formula for that
    # direction: 3 + 3 * (2**11 - 2**8) are kept.
    psis, sig_star = to_basic(StandardNF(TRUE, (TRUE, TRUE, TRUE)), PO_PQ)
    assert (len(psis), len(sig_star.unary)) == (5379, 11)


# Three witness conjuncts over p and q (m = 3, 11 bits): every element
# has a greater p-element, yet p-elements are pairwise incomparable, so
# there is no model.  The one constrained class pair, p with p, gives 4**10
# basic formulas on top of 3 + 9 * 2**10.
THREE_WITNESSES = (
    "forall x exists y (x < y & p(y)) & forall x exists y (y < x & q(y))"
    " & forall x exists y (x != y & !(x < y) & !(y < x))"
    " & forall x forall y (p(x) & p(y) -> !(x < y))"
)
THREE_WITNESSES_REFUSAL = "basic compilation refused: at least 1057795 basic formulas to build exceed the budget of 32768"


def test_unary_chain_skips_a_refused_compilation():
    # The full compilation would be refused, but without a model there are
    # no realized 1-types to compile over.
    report = pipeline_verify(
        parse_formula(THREE_WITNESSES, PO_PQ), PO_PQ, "l2-1po-u", SearchBudget(max_size=4)
    )
    assert rows(report) == [
        ("standard normal form", "pass", "multiplicity 3, 0 fresh predicates"),
        ("normal form implies the input", "skipped", "no model up to size 4"),
        ("basic compilation", "skipped", "no model up to size 4"),
    ] + BLOCKS_SKIPPED


def test_unary_chain_without_a_model_compiles_nothing():
    # l2-1po-u sweep seed 28 has no model at any size; over the full set of
    # 1-types its basic set had 16,577 formulas.
    start = time.perf_counter()
    report = pipeline_verify(random_formula(28, PO_PQ, 3), PO_PQ, "l2-1po-u", SWEEP_BUDGET)
    assert time.perf_counter() - start < 1.0
    assert rows(report) == [
        ("standard normal form", "pass", "multiplicity 1, 2 fresh predicates"),
        ("normal form implies the input", "skipped", "no model up to size 3"),
        ("basic compilation", "skipped", "no model up to size 3"),
    ] + BLOCKS_SKIPPED


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("built before the count refused")


def test_to_basic_counts_before_building(monkeypatch):
    monkeypatch.setattr(finsat.normal_forms, "enumerate_one_types", _refuse_to_build)
    monkeypatch.setattr(finsat.normal_forms, "BasicFormula", _refuse_to_build)
    snf, sig1 = to_standard_nf(parse_formula(THREE_WITNESSES, PO_PQ), PO_PQ)
    with pytest.raises(EnumerationBudgetError, match=f"^{THREE_WITNESSES_REFUSAL}$"):
        to_basic(snf, sig1)


# Every element has an incomparable partner: 13 basic formulas.
INCOMPARABLE = "forall x exists y (x != y & !(x < y) & !(y < x))"


def _broken_shrink_blocks(*args):
    raise VerificationFailure("sub-block check broken on purpose")


def test_block_failure_is_minimized(monkeypatch):
    monkeypatch.setattr(finsat.verify, "shrink_blocks", _broken_shrink_blocks)
    report = pipeline_verify(parse_formula(INCOMPARABLE, PO0), PO0, "l2-1po-u", SearchBudget(max_size=4))
    assert not report.ok
    last = report.stages[-1]
    assert (last.stage, last.status) == ("block stages", "fail")
    assert last.detail.startswith("sub-block check broken on purpose\nminimized:\n")
    assert last.detail.endswith("# 0 basic formulas retained\n")


def test_block_failure_on_770_formulas_is_minimized_in_seconds(monkeypatch):
    # Every rerun fails, so dropping halves first empties the full
    # 770-formula basic set in about ten reruns of the block stages, not
    # one per formula.
    monkeypatch.setattr(finsat.verify, "shrink_blocks", _broken_shrink_blocks)
    text, sig = CASES["l2-1po-u"][:2]
    snf, sig1 = to_standard_nf(parse_formula(text, sig), sig)
    psis, sig_star = to_basic(snf, sig1)
    assert len(psis) == 770
    model = smallest_model(basic_set_formula(psis), sig_star, SearchBudget(max_size=4, node_limit=NODES))
    start = time.perf_counter()
    tpo, kept = finsat.verify.minimize_basic_failure(TypedPartialOrder.from_structure(model), psis)
    assert time.perf_counter() - start < 10
    assert (tpo.size, kept) == (2, ())


def test_block_failure_is_caught_on_an_l2_1po_input(monkeypatch):
    monkeypatch.setattr(finsat.verify, "shrink_blocks", _broken_shrink_blocks)
    report = pipeline_verify(parse_formula(PO_CHAIN, PO_PR), PO_PR, "l2-1po", SearchBudget(max_size=4))
    assert not report.ok
    assert rows(report)[:5] == CASES["l2-1po-chain"][5][:5]
    last = report.stages[-1]
    assert (last.stage, last.status) == ("block stages", "fail")
    assert last.detail.startswith("sub-block check broken on purpose\nminimized:\n")


def test_a_labelling_with_a_label_dropped_is_rejected(monkeypatch):
    # Each element's one witness is incomparable, so it carries exactly
    # one label; without it element 0 breaks "every element has a witness".
    def drop_one(w, model):
        s = label_witnesses(w, model)
        label = next(p for p in s.sig.unary if 0 in s.unary_of(p))
        return Structure(s.sig, s.size, {**s.unary, label: s.unary_of(label) - {0}}, s.binary, s.dist)

    monkeypatch.setattr(finsat.verify, "label_witnesses", drop_one)
    report = pipeline_verify(parse_formula(INCOMPARABLE, PO0), PO0, "l2-1po-u", SearchBudget(max_size=4))
    assert rows(report)[-1] == ("pipeline", "fail", "the labelled model fails the relative basic set")


def test_minimizer_keeps_exactly_the_formulas_a_failure_needs(monkeypatch):
    # The last chunk size is 1, so the result is 1-minimal: no formula of
    # it can go on its own.
    def block_stages(tpo, psis):
        if {17, 63} <= set(psis):
            raise VerificationFailure("needs formulas 17 and 63")
        return ()

    monkeypatch.setattr(finsat.verify, "block_stages", block_stages)
    tpo = TypedPartialOrder(enumerate_one_types(PO0) * 2, frozenset())
    assert finsat.verify.minimize_basic_failure(tpo, tuple(range(100))) == (tpo, (17, 63))


def test_verify_pipeline_exits_70_on_a_block_failure(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(finsat.verify, "shrink_blocks", _broken_shrink_blocks)
    path = tmp_path / "phi.txt"
    path.write_text(INCOMPARABLE)
    assert cli.main(["verify-pipeline", "--logic", "l2-1po-u", "--bound", "4", str(path)]) == cli.EXIT_INTERNAL == 70
    assert "[FAIL] block stages -- sub-block check broken on purpose" in capsys.readouterr().out


#: l2-1t sweep seed 3 (random_formula at depth 3 over (p; t)): its transitive
#: NF has 5 unary predicates, so the full cell and diatom table holds 12,288
#: diatoms, past the default budget of 8,192.
SWEEP_T = random_formula(3, T_P, 3)


def test_round_trip_runs_on_a_sweep_input_the_full_table_refuses():
    tnf, sig1 = to_transitive_nf(SWEEP_T, T_P)
    with pytest.raises(EnumerationBudgetError, match="12288 diatoms exceed the budget of 8192"):
        cliquify(tnf, sig1, 1, EnumerationBudget(max_unary=5))
    report = pipeline_verify(SWEEP_T, T_P, "l2-1t", SWEEP_BUDGET)
    assert rows(report)[-1] == ("clique abstraction round trip", "pass", "2 elements -> 2 cliques -> 2 elements")


def test_a_wrong_expansion_is_reported_as_fail(monkeypatch):
    # The broken expansion complements every unary predicate and checks
    # nothing; the input, forall x !p(x), then fails on it.
    def expand_model(res, hat):
        s = real_expand(res, hat)
        flipped = {p: frozenset(s.domain()) - s.unary_of(p) for p in s.sig.unary}
        return Structure(s.sig, s.size, flipped, s.binary, s.dist)

    real_expand = finsat.verify.expand_model
    monkeypatch.setattr(finsat.verify, "expand_model", expand_model)
    report = pipeline_verify(SWEEP_T, T_P, "l2-1t", SWEEP_BUDGET)
    assert not report.ok
    assert rows(report)[-1] == ("clique abstraction round trip", "fail", "expanded model fails the input")


#: The sweep's signature per logic, and what seeds 0-39 reach: the count
#: of reports per last passed stage, and of skipped rows per reason.
SWEEP = {
    "l2": (L2, {"normal form implies the input": 35, "standard normal form": 5}, {"normal form implies the input": 5}),
    "l2-1po-u": (
        PO_PQ,
        {"block-size reduction": 33, "standard normal form": 7},
        {"normal form implies the input": 7, "basic compilation": 7},
    ),
    "l2-1po": (PO_PR, {"block-size reduction": 33, "standard normal form": 7}, {"normal form implies the input": 7}),
    "l2-1t": (T_P, {"clique abstraction round trip": 35, "transitive normal form": 5}, {"normal form implies the input": 5}),
}


@pytest.mark.parametrize("logic", SWEEP)
def test_sweep_slice(logic):
    sig, want_reach, want_skips = SWEEP[logic]
    reach, skips = collections.Counter(), collections.Counter()
    for seed in range(40):
        report = pipeline_verify(random_formula(seed, sig, 3), sig, logic, SWEEP_BUDGET)
        assert [s.stage for s in report.stages] == list(finsat.verify.CHAINS[logic]), seed
        assert all(s.status in ("pass", "skipped") for s in report.stages), seed
        reach[[s.stage for s in report.stages if s.status == "pass"][-1]] += 1
        for s in report.stages:
            if s.detail and s.status == "skipped":
                assert s.detail == "no model up to size 3", seed
                skips[s.stage] += 1
    assert (reach, skips) == (want_reach, want_skips)
