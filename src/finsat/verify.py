"""End-to-end pipeline verification.

Runs the applicable transformation chain with every per-stage assertion
enabled and reports the outcome per stage.  Each logic's stages are
declared once, in ``CHAINS``, and a report lists exactly those, in order,
unless it ends in a failed row or in one row for a check or search budget
that escaped a stage.  A chain that stops early (no model at the bound, a
refused enumeration, a single-clique model) gives the reason on the stage
it stops at and skips the rest.

The four block stages run as one function.  When one of them fails, the
offending fixture is minimized (drop chunks of constraints, halving the
chunk size down to single constraints, then drop elements) and reported in
one row in their place, because a small reproduction is the useful artifact
when one of these constructions breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .logic import (
    EnumerationBudgetError,
    Formula,
    LogicError,
    Signature,
    Structure,
    VerificationFailure,
    evaluate,
    one_type_of,
)
from .normal_forms import (
    BasicFormula,
    StandardNF,
    basic_set_formula,
    fc_subset,
    label_witnesses,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
)
from .factorization import TypedPartialOrder, factorize_for, thin
from .cuts import shrink_block_count
from .subblocks import incomparable_witness_check, shrink_blocks
from .resolution import eliminate_binaries, reconstruct_model, to_spread
from .cliques import (
    EnumerationBudget,
    abstract_model,
    bound_cliques,
    cliques_of,
    cliquify_over,
    expand_model,
    realized_diatoms,
)
from .parsing import write_structure
from .solver import BudgetExceeded, SearchBudget, smallest_model

_IMPLIES = "normal form implies the input"
_SNF = ("standard normal form", _IMPLIES)
_BASIC = (
    "basic compilation",
    "basic-set model search",
    "factorization (unitary, controlled)",
    "thinning preserves the basic set",
    "block-count reduction",
    "block-size reduction",
)

#: The declared stages of each logic's chain, in report order.
CHAINS = {
    "l2": _SNF,
    "l2-1po-u": _SNF + _BASIC,
    "l2-1po": _SNF + ("spread normal form", "binary elimination") + _BASIC,
    "l2-1t": ("transitive normal form", _IMPLIES, "clique bounding", "clique abstraction round trip"),
}


@dataclass
class StageResult:
    stage: str
    status: str  # 'pass' | 'fail' | 'skipped' | 'unknown'
    detail: str = ""


@dataclass
class VerificationReport:
    logic: str
    stages: list[StageResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.status != "fail" for s in self.stages)

    def add(self, stage: str, status: str, detail: str = "") -> None:
        self.stages.append(StageResult(stage, status, detail))

    def step(self, status: str, detail: str = "") -> None:
        """Record the next declared stage of this report's logic."""
        self.add(CHAINS[self.logic][len(self.stages)], status, detail)

    def skip_rest(self) -> None:
        """Record every declared stage not yet reported as skipped."""
        for stage in CHAINS[self.logic][len(self.stages) :]:
            self.add(stage, "skipped")

    def render(self) -> str:
        lines = [f"pipeline verification ({self.logic})"]
        for s in self.stages:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip", "unknown": "?"}[s.status]
            extra = f" -- {s.detail}" if s.detail else ""
            lines.append(f"  [{mark:4}] {s.stage}{extra}")
        return "\n".join(lines) + "\n"


def block_stages(tpo: TypedPartialOrder, psis: Sequence[BasicFormula]) -> tuple[str, ...]:
    """Factorize and thin a model of the basic set, then run both block
    reductions; the detail of each of the four stages, in order.  Raises
    VerificationFailure when a stage breaks its postcondition."""
    f = factorize_for(tpo, psis)
    dotted = f.with_tpo(thin(f))
    if not dotted.tpo.satisfies(psis):
        raise VerificationFailure("thinning lost the basic set")
    g = shrink_block_count(dotted, psis)
    hat = shrink_blocks(g, psis)
    bad = incomparable_witness_check(g, hat)
    if bad:
        raise VerificationFailure("; ".join(bad))
    return (
        f"{f.n_blocks} blocks, {len(fc_subset(psis))} controlled constraints",
        "",
        f"{dotted.n_blocks} -> {g.n_blocks} blocks, no equivalent cuts remain",
        f"carrier {g.tpo.size} -> {hat.tpo.size}, basic set re-verified",
    )


def minimize_basic_failure(
    tpo: TypedPartialOrder, psis: Sequence[BasicFormula]
) -> tuple[TypedPartialOrder, tuple[BasicFormula, ...]]:
    """Shrink a fixture on which ``block_stages`` fails, by delta debugging
    (Zeller and Hildebrandt, IEEE TSE 2002).

    Tries dropping chunks of half the basic formulas, then a quarter, and
    so on down to single formulas, then single carrier elements; any change
    under which the block stages still raise a verification failure is
    kept, and the search starts over.  It ends when no single formula or
    element can go, so the result is 1-minimal.
    """

    def fails(t: TypedPartialOrder, ps: Sequence[BasicFormula]) -> bool:
        try:
            block_stages(t, ps)
            return False
        except VerificationFailure:
            return True
        except LogicError:
            return False

    def candidates(t: TypedPartialOrder, ps: tuple[BasicFormula, ...]):
        chunk = len(ps)
        while chunk:
            chunk = (chunk + 1) // 2
            for i in range(0, len(ps), chunk):
                yield t, ps[:i] + ps[i + chunk :]
            if chunk == 1:
                break
        for drop in range(t.size if t.size > 2 else 0):
            keep = [a for a in t.carrier() if a != drop]
            emap = {a: i for i, a in enumerate(keep)}
            order = frozenset((emap[a], emap[b]) for a, b in t.order if a in emap and b in emap)
            yield TypedPartialOrder(tuple(t.types[a] for a in keep), order), ps

    psis = tuple(psis)
    while True:
        for cand in candidates(tpo, psis):
            if fails(*cand):
                tpo, psis = cand
                break
        else:
            return tpo, psis


def _search_outcome(
    report: VerificationReport, model: Optional[Structure], phi: Formula, budget: SearchBudget
) -> None:
    """Record whether the normal form's smallest model satisfies the input."""
    if model is None:
        report.step("skipped", f"no model up to size {budget.max_size}")
    elif evaluate(model, phi):
        report.step("pass", "checked on the found model")
    else:
        report.step("fail")


def _po_unary_chain(
    report: VerificationReport,
    w: StandardNF,
    budget: SearchBudget,
    model: Optional[Structure],
) -> None:
    """Compile w's basic set relative to the 1-types its model realizes
    once labelled, check the labelled model against it, and run the block
    stages on the basic set's smallest model."""
    if model is None:
        report.step("skipped", f"no model up to size {budget.max_size}")
        return
    labelled = label_witnesses(w, model)
    types = {one_type_of(labelled, a) for a in labelled.domain()}
    try:
        psis, sig_star = to_basic(w, model.sig, types)
    except EnumerationBudgetError as e:
        report.step("skipped", str(e))
        return
    if len(sig_star.unary) != len(model.sig.unary) + 3 * w.multiplicity:
        report.step("fail", "signature growth is not 3m")
        return
    phi = basic_set_formula(psis)
    if not evaluate(labelled, phi):
        raise VerificationFailure("the labelled model fails the relative basic set")
    report.step(
        "pass",
        f"{len(psis)} basic formulas over {len(types)} realized 1-type{'s' * (len(types) != 1)},"
        f" signature growth exactly {3 * w.multiplicity}",
    )
    found = smallest_model(phi, sig_star, budget)
    if found is None:
        report.step("fail", f"no model up to size {budget.max_size}, yet the labelled model is one")
        return
    report.step("pass", f"model of size {found.size}")
    tpo = TypedPartialOrder.from_structure(found)
    try:
        details = block_stages(tpo, psis)
    except VerificationFailure as e:
        small_tpo, small_psis = minimize_basic_failure(tpo, psis)
        bundle = (
            write_structure(small_tpo.to_structure())
            + f"# {len(small_psis)} basic formulas retained\n"
        )
        report.add("block stages", "fail", f"{e}\nminimized:\n{bundle}")
        return
    for detail in details:
        report.step("pass", detail)


def _snf_chain(
    report: VerificationReport, phi: Formula, sig: Signature, budget: SearchBudget
) -> None:
    snf, sig1 = to_standard_nf(phi, sig)
    report.step(
        "pass",
        f"multiplicity {snf.multiplicity}, {len(sig1.unary) - len(sig.unary)} fresh predicates",
    )
    model = smallest_model(snf.to_formula(), sig1, budget)
    _search_outcome(report, model, phi, budget)
    if not report.ok or report.logic == "l2":
        return
    if report.logic == "l2-1po-u":
        _po_unary_chain(report, snf, budget, model)
        return
    if model is None:
        return
    spread_res = to_spread(snf, model)
    if not evaluate(spread_res.model, phi):
        report.step("fail", "witness model lost the input")
        return
    report.step(
        "pass",
        f"multiplicity {spread_res.spread.multiplicity}, witness model of size {spread_res.model.size}",
    )
    elim = eliminate_binaries(spread_res.spread)
    m2 = smallest_model(elim.weak.to_formula(), elim.sig_prime, budget)
    if m2 is None:
        report.step("fail", "eliminated formula lost satisfiability at the bound")
        return
    if not evaluate(reconstruct_model(spread_res.spread, elim, m2), phi):
        report.step("fail", "reconstructed model fails the input")
        return
    report.step("pass", f"model of size {m2.size} reconstructed and re-verified")
    _po_unary_chain(report, elim.weak, budget, m2)


def _transitive_chain(
    report: VerificationReport,
    phi: Formula,
    sig: Signature,
    budget: SearchBudget,
    enum_budget: Optional[EnumerationBudget],
) -> None:
    tnf, sig1 = to_transitive_nf(phi, sig)
    report.step(
        "pass",
        f"multiplicity {tnf.multiplicity}, 4m = {4 * tnf.multiplicity} guard predicates",
    )
    model = smallest_model(tnf.to_formula(), sig1, budget)
    _search_outcome(report, model, phi, budget)
    if model is None or not report.ok:
        return
    bounded = bound_cliques(model, tnf)
    report.step("pass", f"size {model.size} -> {bounded.size}, formula re-verified")
    if len(cliques_of(bounded).cliques) < 2:
        report.step("skipped", "single-clique model")
        return
    try:
        res = cliquify_over(tnf, realized_diatoms(bounded, enum_budget))
    except EnumerationBudgetError as e:
        report.step("skipped", str(e))
        return
    hat = abstract_model(res, bounded)
    back = expand_model(res, hat)
    if not evaluate(back, phi):
        report.step("fail", "expanded model fails the input")
        return
    report.step(
        "pass", f"{bounded.size} elements -> {hat.size} cliques -> {back.size} elements"
    )


def pipeline_verify(
    phi: Formula,
    sig: Signature,
    logic: str,
    budget: Optional[SearchBudget] = None,
    enum_budget: Optional[EnumerationBudget] = None,
) -> VerificationReport:
    """Run the full transformation chain for the given logic with every
    stage's postconditions checked; the report is the oracle output.  A
    model search that exhausts its node budget ends the report with an
    'unknown' stage.  A table that would pass its limit is counted before
    it is built and skips its stage with the count: basic compilation past
    ``MAX_BASIC_FORMULAS``, the clique round trip past ``enum_budget``'s
    ``max_diatoms`` (default 8192).  The round trip runs over the cells and
    diatoms the bounded model realizes, at most L(L-1) for L cliques.

    The partial-order chains compile the basic set relative to the 1-types
    T of a labelled expansion (``label_witnesses``) of the model they
    already hold: the standard normal form's for l2-1po-u, the eliminated
    formula's for l2-1po.  So it has at most 3m|T| witness and |T|**2
    universal formulas, plus one B9 conjunct that every 1-type is in T.
    The labelled model is checked against that set with ``evaluate``
    before the search, and a failure ends the report in a 'fail' row.
    Without a model there is no T, and basic compilation is skipped."""
    if logic not in CHAINS:
        raise LogicError(f"unknown logic tag {logic!r}")
    budget = budget or SearchBudget()
    report = VerificationReport(logic)
    try:
        if logic == "l2-1t":
            _transitive_chain(report, phi, sig, budget, enum_budget)
        else:
            _snf_chain(report, phi, sig, budget)
    except (VerificationFailure, BudgetExceeded) as e:
        status = "fail" if isinstance(e, VerificationFailure) else "unknown"
        report.add("pipeline", status, str(e))
        return report
    if report.ok:
        report.skip_rest()
    return report
