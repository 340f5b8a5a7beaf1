"""End-to-end pipeline verification.

Runs the applicable transformation chain with every per-stage assertion
enabled and reports the outcome per stage.  On a failed assertion, the
offending fixture is greedily minimized (drop constraints, then elements)
before being attached to the report, because a small reproduction is the
useful artifact when one of these constructions breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .logic import (
    DistKind,
    Formula,
    LogicError,
    Signature,
    Structure,
    VerificationFailure,
    evaluate,
)
from .normal_forms import (
    BasicFormula,
    TransitiveNF,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
)
from .factorization import (
    Factorization,
    TypedPartialOrder,
    factorize_for,
    fc_holds,
    fc_subset,
    is_thin,
    thin,
)
from .cuts import shrink_block_count
from .subblocks import incomparable_witness_check, shrink_blocks
from .resolution import eliminate_binaries, reconstruct_model, to_spread
from .cliques import (
    EnumerationBudget,
    EnumerationBudgetError,
    abstract_model,
    bound_cliques,
    cliques_of,
    cliquify,
    expand_model,
)
from .solver import BudgetExceeded, SearchBudget, smallest_model


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

    def render(self) -> str:
        lines = [f"pipeline verification ({self.logic})"]
        for s in self.stages:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip", "unknown": "?"}[s.status]
            extra = f" -- {s.detail}" if s.detail else ""
            lines.append(f"  [{mark:4}] {s.stage}{extra}")
        return "\n".join(lines) + "\n"


def minimize_basic_failure(
    tpo: TypedPartialOrder,
    psis: Sequence[BasicFormula],
    run: Callable[[TypedPartialOrder, Sequence[BasicFormula]], object],
) -> tuple[TypedPartialOrder, tuple[BasicFormula, ...]]:
    """Greedy shrinking of a failing (order, basic set) fixture.

    Drops basic formulas one at a time, then carrier elements, keeping any
    change under which the runner still raises a verification failure.
    """

    def fails(t: TypedPartialOrder, ps: Sequence[BasicFormula]) -> bool:
        try:
            run(t, ps)
            return False
        except VerificationFailure:
            return True
        except LogicError:
            return False

    psis = tuple(psis)
    changed = True
    while changed:
        changed = False
        for i in range(len(psis)):
            cand = psis[:i] + psis[i + 1 :]
            if fails(tpo, cand):
                psis = cand
                changed = True
                break
        else:
            for drop in range(tpo.size):
                if tpo.size <= 2:
                    break
                keep = [a for a in tpo.carrier() if a != drop]
                emap = {a: i for i, a in enumerate(keep)}
                cand_tpo = TypedPartialOrder(
                    tuple(tpo.types[a] for a in keep),
                    frozenset(
                        (emap[a], emap[b])
                        for a, b in tpo.order
                        if a in emap and b in emap
                    ),
                )
                if fails(cand_tpo, psis):
                    tpo = cand_tpo
                    changed = True
                    break
    return tpo, psis


def _po_unary_chain(
    report: VerificationReport,
    psis: tuple[BasicFormula, ...],
    sig_star: Signature,
    budget: SearchBudget,
) -> None:
    from .normal_forms import basic_set_formula

    model = smallest_model(basic_set_formula(psis), sig_star, budget)
    if model is None:
        report.add(
            "basic-set model search",
            "pass",
            f"no model up to size {budget.max_size}; block stages skipped",
        )
        for stage in (
            "factorization (unitary, controlled)",
            "thinning preserves the basic set",
            "block-count reduction",
            "block-size reduction",
        ):
            report.add(stage, "skipped")
        return
    report.add("basic-set model search", "pass", f"model of size {model.size}")
    tpo = TypedPartialOrder.from_structure(model)

    def run_blocks(t: TypedPartialOrder, ps: Sequence[BasicFormula]) -> None:
        f = factorize_for(t, ps)
        dotted = f.with_tpo(thin(f))
        if not dotted.tpo.satisfies(ps):
            raise VerificationFailure("thinning lost the basic set")
        g = shrink_block_count(dotted, ps)
        hat = shrink_blocks(g, ps)
        bad = incomparable_witness_check(g, hat)
        if bad:
            raise VerificationFailure("; ".join(bad))

    try:
        f = factorize_for(tpo, psis)
        report.add(
            "factorization (unitary, controlled)",
            "pass",
            f"{f.n_blocks} blocks, {len(fc_subset(psis))} controlled constraints",
        )
        dotted = f.with_tpo(thin(f))
        if not dotted.tpo.satisfies(psis):
            raise VerificationFailure("thinning lost the basic set")
        report.add("thinning preserves the basic set", "pass")
        g = shrink_block_count(dotted, psis)
        report.add(
            "block-count reduction",
            "pass",
            f"{dotted.n_blocks} -> {g.n_blocks} blocks, no equivalent cuts remain",
        )
        hat = shrink_blocks(g, psis)
        bad = incomparable_witness_check(g, hat)
        if bad:
            raise VerificationFailure("; ".join(bad))
        report.add(
            "block-size reduction",
            "pass",
            f"carrier {g.tpo.size} -> {hat.tpo.size}, basic set re-verified",
        )
    except VerificationFailure as e:
        small_tpo, small_psis = minimize_basic_failure(tpo, psis, run_blocks)
        from .parsing import write_structure

        bundle = (
            write_structure(small_tpo.to_structure())
            + f"# {len(small_psis)} basic formulas retained\n"
        )
        report.add("block stages", "fail", f"{e}\nminimized:\n{bundle}")


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
    'unknown' stage.  Without ``enum_budget``, the clique round trip runs
    under the default budget with the transitive normal form's 4m guard
    predicates added to ``max_unary``."""
    budget = budget or SearchBudget()
    report = VerificationReport(logic)
    try:
        if logic in ("l2", "l2-1po-u", "l2-1po"):
            snf, sig1 = to_standard_nf(phi, sig)
            report.add(
                "standard normal form",
                "pass",
                f"multiplicity {snf.multiplicity}, {len(sig1.unary) - len(sig.unary)} fresh predicates",
            )
            model = smallest_model(snf.to_formula(), sig1, budget)
            if model is not None and not evaluate(model, phi):
                report.add("normal form implies the input", "fail")
                return report
            report.add(
                "normal form implies the input",
                "pass" if model is not None else "skipped",
                "checked on the found model" if model is not None else "no model at the bound",
            )
            if logic == "l2":
                return report
            if logic == "l2-1po":
                if model is None:
                    report.add("spread normal form", "skipped", "no model at the bound")
                    return report
                spread_res = to_spread(snf, model)
                if not evaluate(spread_res.model, phi):
                    report.add("spread normal form", "fail", "witness model lost the input")
                    return report
                report.add(
                    "spread normal form",
                    "pass",
                    f"multiplicity {spread_res.spread.multiplicity}, witness model of size {spread_res.model.size}",
                )
                elim = eliminate_binaries(spread_res.spread)
                m2 = smallest_model(elim.weak.to_formula(), elim.sig_prime, budget)
                if m2 is None:
                    report.add(
                        "binary elimination",
                        "fail",
                        "eliminated formula lost satisfiability at the bound",
                    )
                    return report
                rebuilt = reconstruct_model(spread_res.spread, elim, m2)
                if not evaluate(rebuilt, phi):
                    report.add("binary elimination", "fail", "reconstructed model fails the input")
                    return report
                report.add(
                    "binary elimination",
                    "pass",
                    f"model of size {m2.size} reconstructed and re-verified",
                )
                # The eliminated signature grows by court labels, family
                # labels and diagonal markers; compiling it to basic
                # formulas enumerates 1-types over all of them plus 3m
                # direction labels, which is the construction's genuine
                # doubly exponential step.  Refuse beyond desk scale.
                bits = len(elim.sig_prime.unary) + 3 * elim.weak.multiplicity
                if 2**bits > 1024:
                    report.add(
                        "basic compilation",
                        "skipped",
                        f"{bits}-bit 1-types exceed the desk-scale enumeration budget",
                    )
                    for stage in (
                        "basic-set model search",
                        "factorization (unitary, controlled)",
                        "thinning preserves the basic set",
                        "block-count reduction",
                        "block-size reduction",
                    ):
                        report.add(stage, "skipped")
                    return report
                psis, sig_star = to_basic(elim.weak, elim.sig_prime)
                report.add(
                    "basic compilation",
                    "pass",
                    f"{len(psis)} basic formulas over {len(sig_star.unary)} unary predicates",
                )
                _po_unary_chain(report, psis, sig_star, budget)
                return report
            # l2-1po-u
            psis, sig_star = to_basic(snf.to_weak(), sig1)
            if len(sig_star.unary) != len(sig1.unary) + 3 * snf.multiplicity:
                report.add("basic compilation", "fail", "signature growth is not 3m")
                return report
            report.add(
                "basic compilation",
                "pass",
                f"{len(psis)} basic formulas, signature growth exactly {3 * snf.multiplicity}",
            )
            _po_unary_chain(report, psis, sig_star, budget)
            return report
        if logic == "l2-1t":
            tnf, sig1 = to_transitive_nf(phi, sig)
            report.add(
                "transitive normal form",
                "pass",
                f"multiplicity {tnf.multiplicity}, 4m = {4 * tnf.multiplicity} guard predicates",
            )
            model = smallest_model(tnf.to_formula(), sig1, budget)
            if model is None:
                report.add("transitive model search", "pass", f"no model up to size {budget.max_size}")
                for stage in ("clique bounding", "clique abstraction round trip"):
                    report.add(stage, "skipped")
                return report
            if not evaluate(model, phi):
                report.add("normal form implies the input", "fail")
                return report
            report.add("normal form implies the input", "pass", "checked on the found model")
            bounded = bound_cliques(model, tnf)
            report.add(
                "clique bounding",
                "pass",
                f"size {model.size} -> {bounded.size}, formula re-verified",
            )
            dec = cliques_of(bounded)
            if len(dec.cliques) < 2:
                report.add(
                    "clique abstraction round trip", "skipped", "single-clique model"
                )
                return report
            n = max(len(c) for c in dec.cliques)
            if enum_budget is None:
                enum_budget = EnumerationBudget(
                    max_unary=EnumerationBudget.max_unary + 4 * tnf.multiplicity
                )
            try:
                res = cliquify(tnf, sig1, n, enum_budget)
            except EnumerationBudgetError as e:
                report.add("clique abstraction round trip", "skipped", str(e))
                return report
            hat = abstract_model(res, bounded)
            back = expand_model(res, hat)
            if back.size > n * hat.size:
                report.add("clique abstraction round trip", "fail", "size bound violated")
                return report
            report.add(
                "clique abstraction round trip",
                "pass",
                f"{bounded.size} elements -> {hat.size} cliques -> {back.size} elements",
            )
            return report
        raise LogicError(f"unknown logic tag {logic!r}")
    except VerificationFailure as e:
        report.add("pipeline", "fail", str(e))
        return report
    except BudgetExceeded as e:
        report.add("pipeline", "unknown", str(e))
        return report
