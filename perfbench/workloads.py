"""The four workloads: their fixed corpus, the operations of one pass, and
the checks that compare every result with the reference checker.

Each workload drives finsat only through public names, looked up on the
``finsat`` package at call time so that the tracer can wrap them.  Each
operation returns a plain dict of the results its check needs; a pass runs
every operation once.  The corpus is fixed: the run seed only orders the
operations within a pass, so node-count-driven work repeats exactly.
"""

from __future__ import annotations

import itertools

import finsat
from finsat.logic import DistKind

import reference as ref

T0 = finsat.Signature((), (), DistKind.TRANSITIVE)
TP = finsat.Signature(("p",), (), DistKind.TRANSITIVE)
TAB = finsat.Signature(("a", "b"), (), DistKind.TRANSITIVE)
PO_PQ = finsat.Signature(("p", "q"), (), DistKind.PARTIAL_ORDER)
PO_PR = finsat.Signature(("p",), ("r",), DistKind.PARTIAL_ORDER)

#: The paper's axiom of infinity for a transitive relation.
AXIOM = "forall x !t(x,x) & forall x exists y t(x,y)"
#: Every element has a strictly greater one: also no finite model.
STRICT_SUCC = "forall x exists y (t(x,y) & !t(y,x)) & forall x (t(x,x) | p(x))"

#: A large node limit, so that no verdict depends on how the limit is
#: accounted (per size today, per call once budgets are made per call).
NODES = 100_000_000


def _counter_chain() -> str:
    """a, b count 0..3 up a strictly increasing t-chain: at least 4 elements."""

    def val(v: int, var: str) -> str:
        return " & ".join(
            f"{'' if (v >> i) & 1 else '!'}{p}({var})" for i, p in enumerate("ab")
        )

    steps = [
        f"forall x ({val(v, 'x')} -> exists y (t(x,y) & !t(y,x) & {val(v + 1, 'y')}))"
        for v in range(3)
    ]
    return " & ".join([f"exists x ({val(0, 'x')})"] + steps)


def _structure(m):
    """A finsat model as plain tuples, to compare models between passes."""
    return (
        m.size,
        tuple(sorted((p, tuple(sorted(v))) for p, v in m.unary.items())),
        tuple(sorted((r, tuple(sorted(v))) for r, v in m.binary.items())),
        tuple(sorted(m.dist)),
    )


def brute_force_smallest(phi, sig, sizes=(2, 3)):
    """The smallest size in ``sizes`` with a model, or None."""
    for n in sizes:
        if ref.has_model(phi, sig, n):
            return n
    return None


class Workload:
    """Holds the corpus, the operations of one pass and the checks."""

    #: Operation names whose failure is a known fault of the program.
    known_failures: frozenset = frozenset()

    def __init__(self) -> None:
        self.ops: dict = {}

    def check(self, first: dict, later: list[dict]) -> list[str]:
        """Errors found in the results of a run; empty if correct.

        ``first`` holds the first pass's results, checked in full; ``later``
        holds the ``summarize``d later passes, which must repeat the first
        pass's verdicts and models exactly.
        """
        errors: list[str] = []
        for name, result in first.items():
            if not isinstance(result, Exception):
                errors.extend(f"{name}: {e}" for e in self.check_op(name, result))
        want = summarize(first)
        for i, summary in enumerate(later, 2):
            errors.extend(f"{name}: pass {i} differs from pass 1" for name in want if summary[name] != want[name])
        return errors

    def check_op(self, name: str, result: dict) -> list[str]:
        raise NotImplementedError


def summarize(results: dict) -> dict:
    """What must repeat exactly from pass to pass, without the bulky
    results, so that memory does not grow with the number of passes."""
    return {
        name: type(r).__name__ if isinstance(r, Exception)
        else (r["verdict"], tuple(m and _structure(m) for m in r.get("models", ())))
        for name, r in results.items()
    }


def model_errors(m, formulas, what: str) -> list[str]:
    """Reference checks on a returned model: it satisfies every formula
    given and its distinguished relation has the shape its signature needs."""
    model = ref.model_of(m)
    out = []
    if not ref.distinguished_ok(model):
        out.append(f"{what}: distinguished relation has the wrong shape")
    if not all(ref.holds(model, f) for f in formulas):
        out.append(f"{what}: model of size {m.size} fails its input")
    return out


def _verdict(o) -> tuple:
    return (o.kind, o.size if o.kind == "sat" else o.bound)


class TypedTables(Workload):
    """decide at bound 3 on seeded random formulas and on their transitive
    normal forms, where the typed engine's 1-type and pair tables dominate."""

    SEEDS = (3, 6, 8)
    BOUND = 3

    def __init__(self) -> None:
        super().__init__()
        self.cases = {
            f"random-{s}": (finsat.random_formula(s, TP, depth=2), TP) for s in self.SEEDS
        }
        self.cases["axiom"] = (finsat.parse_formula(AXIOM, T0), T0)
        for name, (phi, sig) in self.cases.items():
            self.ops[name] = lambda phi=phi, sig=sig: self.run_case(phi, sig)

    def run_case(self, phi, sig) -> dict:
        budget = finsat.SearchBudget(max_size=self.BOUND, node_limit=NODES)
        tnf, sig1 = finsat.to_transitive_nf(phi, sig)
        tnf_phi = tnf.to_formula()
        direct = finsat.decide(phi, sig, "l2-1t", budget)
        normal = finsat.decide(tnf_phi, sig1, "l2-1t", budget)
        return {
            "verdict": (_verdict(direct), _verdict(normal)),
            "models": (direct.model, normal.model),
            "tnf": tnf_phi,
        }

    def check_op(self, name: str, result: dict) -> list[str]:
        phi, sig = self.cases[name]
        smallest = brute_force_smallest(phi, sig)
        want = ("sat", smallest) if smallest else ("no_model_up_to", self.BOUND)
        direct, normal = result["verdict"]
        errors = []
        if direct != want:
            errors.append(f"decide gave {direct}, brute force {want}")
        if normal != direct:
            errors.append(f"transitive NF gave {normal}, input {direct}")
        m, m_nf = result["models"]
        if m is not None:
            errors += model_errors(m, (phi,), "decide")
        if m_nf is not None:
            errors += model_errors(m_nf, (result["tnf"], phi), "decide on the NF")
        return errors


class TypedSearch(Workload):
    """decide at bounds 4-7 on formulas with one to four 1-types, where the
    typed engine's node search dominates."""

    # name: (text, signature, bound, expected smallest size or None)
    CORPUS = {
        # Axioms of infinity: no finite model at all.
        "axiom": (AXIOM, T0, 7, None),
        "strict-successor": (STRICT_SUCC, TP, 5, None),
        # The counter needs 4 comparable elements; demanding an
        # incomparable partner for each needs a fifth.
        "counter-loop": (
            _counter_chain() + " & forall x (a(x) & b(x) -> t(x,x))"
            " & exists x (!a(x) & !b(x) & t(x,x))",
            TAB, 4, 4,
        ),
        "counter-incomparable": (
            _counter_chain() + " & forall x exists y (x != y & !t(x,y) & !t(y,x))",
            TAB, 5, 5,
        ),
    }

    def __init__(self) -> None:
        super().__init__()
        self.cases = {
            name: (finsat.parse_formula(text, sig), sig, bound, size)
            for name, (text, sig, bound, size) in self.CORPUS.items()
        }
        for name, (phi, sig, bound, _) in self.cases.items():
            budget = finsat.SearchBudget(max_size=bound, node_limit=NODES)
            self.ops[name] = lambda phi=phi, sig=sig, budget=budget: self.run_case(phi, sig, budget)

    @staticmethod
    def run_case(phi, sig, budget) -> dict:
        o = finsat.decide(phi, sig, "l2-1t", budget)
        return {"verdict": _verdict(o), "models": (o.model,)}

    def check_op(self, name: str, result: dict) -> list[str]:
        phi, sig, bound, size = self.cases[name]
        want = ("sat", size) if size else ("no_model_up_to", bound)
        errors = []
        if brute_force_smallest(phi, sig) is not None:
            errors.append("brute force finds a model below the expected smallest size")
        if result["verdict"] != want:
            errors.append(f"decide gave {result['verdict']}, expected {want}")
        (m,) = result["models"]
        if m is not None:
            errors += model_errors(m, (phi,), "decide")
        return errors


def _tnf(etas: str, guards: tuple, thetas: tuple) -> finsat.TransitiveNF:
    p = lambda text: finsat.parse_formula(text, TAB)  # noqa: E731
    return finsat.TransitiveNF(
        etas=(p(etas),) * 4, guards=(guards,), thetas=(tuple(p(t) for t in thetas),)
    )


class Ground(Workload):
    """The grounded engine on cliquify outputs (3 unary, 8 binary
    predicates): a proof of no model beside model finds."""

    SIZES = (2, 3)
    CLIQUE_BOUND = 1
    ENUM = finsat.EnumerationBudget(max_diatoms=100_000)

    def __init__(self) -> None:
        super().__init__()
        # The smallest transitive-NF axiom of infinity: every element is an
        # a-element without a t-loop, and every a-element has a strictly
        # t-greater element.
        min_inf = _tnf("!t(x,x) & a(x)", ("b", "a", "b", "b"), ("false", "true", "false", "false"))
        # Satisfied by two cliques: an a-clique below a b-clique.
        two = _tnf("t(x,x)", ("a", "a", "b", "b"), ("true",) * 4)
        self.cases = {"min-inf": (min_inf, False), "two-clique": (two, True)}
        for name, (tnf, _) in self.cases.items():
            self.ops[name] = lambda tnf=tnf: self.run_case(tnf)

    def run_case(self, tnf) -> dict:
        res = finsat.cliquify(tnf, TAB, self.CLIQUE_BOUND, self.ENUM)
        phi = res.snf.to_formula()
        budget = finsat.SearchBudget(max_size=max(self.SIZES), node_limit=NODES)
        models = [finsat.find_model(phi, res.sig_hat, k, budget, engine="ground") for k in self.SIZES]
        return {
            "verdict": tuple(m is not None for m in models),
            "models": tuple(models),
            "res": res,
            "snf": phi,
        }

    def check_op(self, name: str, result: dict) -> list[str]:
        tnf, sat = self.cases[name]
        errors = []
        if (brute_force_smallest(tnf.to_formula(), TAB) is not None) != sat:
            errors.append("brute force disagrees with the fixture's design")
        if result["verdict"] != (sat,) * len(self.SIZES):
            errors.append(f"grounded search gave {result['verdict']}")
        for hat in filter(None, result["models"]):
            errors += model_errors(hat, (result["snf"],), "grounded model")
            back = finsat.expand_model(result["res"], hat)
            # The clique bound n is 1, so L cliques expand to at most L elements.
            if back.size > self.CLIQUE_BOUND * hat.size:
                errors.append(f"expand_model gave {back.size} elements from {hat.size} cliques")
            errors += model_errors(back, (tnf.to_formula(),), "expand_model")
        return errors


def _closure(pairs) -> frozenset:
    out = set(pairs)
    while True:
        new = {(a, d) for a, b in out for c, d in out if b == c} - out
        if not new:
            return frozenset(out)
        out |= new


def ladder(shape: int, reps: int):
    """A stacked-block factorization with a repeated middle segment, and
    every basic formula of kinds B1-B5 over its 1-types that holds in it
    (and, if factor-controllable, is controlled by the factorization).

    The element order equals the inter-block order, so it is thin over the
    factorization, and the repeated segment gives equivalent cuts for the
    block-count reduction to remove.
    """
    sig = finsat.Signature(("p", "q", "r")[: 2 + shape % 2], (), DistKind.PARTIAL_ORDER)
    types = finsat.enumerate_one_types(sig)
    period = [types[1], types[2], types[4]] if shape % 2 else [types[1], types[2]]
    sizes = [2 if shape % 4 == 1 and i == 0 else 1 for i in range(len(period))]
    blocks = [(types[0], 1)] + [b for _ in range(reps) for b in zip(period, sizes)] + [(types[0], 1)]
    members, tps = [], []
    for tp, size in blocks:
        members.append(frozenset(range(len(tps), len(tps) + size)))
        tps.extend([tp] * size)
    block_order = _closure((i, i + 1) for i in range(len(blocks) - 1))
    order = frozenset(
        (a, b) for i, j in block_order for a in members[i] for b in members[j]
    )
    tpo = finsat.TypedPartialOrder(tuple(tps), order)
    fact = finsat.Factorization(tpo, tuple(members), block_order)
    model = ref.model_of(tpo.to_structure())
    kinds = finsat.BasicKind
    realized = sorted(set(tps), key=lambda t: t.bits)
    candidates = [finsat.BasicFormula(k, alpha=a) for a in realized for k in (kinds.B1A, kinds.B2A, kinds.B5A)]
    candidates += [
        finsat.BasicFormula(k, alpha=a, beta=b)
        for a, b in itertools.permutations(realized, 2)
        for k in (kinds.B1B, kinds.B2B, kinds.B3, kinds.B4, kinds.B5B)
    ]
    psis = tuple(
        psi
        for psi in candidates
        if ref.holds(model, psi.to_formula())
        and (not psi.factor_controllable or finsat.fc_holds(fact, psi))
    )
    return fact, psis


class Pipeline(Workload):
    """The proof's constructions: pipeline_verify for each logic, the
    l2-1po chain called step by step, and the block reductions on ladders."""

    VERIFY = {
        "verify-l2-1po-u": (
            "forall x (p(x) -> exists y (x < y & q(y))) & exists x p(x)", PO_PQ, "l2-1po-u", None,
        ),
        "verify-l2-1po": ("forall x exists y r(x,y) & exists x p(x)", PO_PR, "l2-1po", None),
        # m = 1 gives 4 guard predicates; the default max_unary of 2 would
        # skip the clique round trip.
        "verify-l2-1t": (
            "forall x exists y (x != y & !t(x,y) & !t(y,x))", T0, "l2-1t",
            finsat.EnumerationBudget(max_unary=4),
        ),
        # Known fault: the grounded engine's BudgetExceeded escapes
        # pipeline_verify instead of being reported as an unknown stage.
        "verify-l2-1t-budget": (
            "forall x exists y (t(x,y) & !t(y,x) & b(y)) & exists x (a(x) & !t(x,x))",
            TAB, "l2-1t", None,
        ),
    }
    NODE_LIMITS = {"verify-l2-1t-budget": 20_000}
    CHAIN = ("forall x (p(x) -> exists y (x < y & r(x,y))) & exists x p(x)", PO_PR)
    LADDERS = {"ladder-0": (0, 12), "ladder-1": (1, 8), "ladder-5": (5, 10)}
    BOUND = 4
    known_failures = frozenset({"verify-l2-1t-budget"})

    def __init__(self) -> None:
        super().__init__()
        for name, (text, sig, logic, enum) in self.VERIFY.items():
            phi = finsat.parse_formula(text, sig)
            budget = finsat.SearchBudget(max_size=self.BOUND, node_limit=self.NODE_LIMITS.get(name, NODES))
            self.ops[name] = lambda a=(phi, sig, logic, budget, enum): self.run_verify(*a)
        text, sig = self.CHAIN
        self.chain = finsat.parse_formula(text, sig)
        self.ops["chain-l2-1po"] = lambda: self.run_chain(self.chain, sig)
        self.ladders = {name: ladder(*args) for name, args in self.LADDERS.items()}
        for name, (fact, psis) in self.ladders.items():
            self.ops[name] = lambda fact=fact, psis=psis: self.run_ladder(fact, psis)

    @staticmethod
    def run_verify(phi, sig, logic, budget, enum) -> dict:
        report = finsat.pipeline_verify(phi, sig, logic, budget, enum)
        return {"verdict": tuple((s.stage, s.status) for s in report.stages)}

    def run_chain(self, phi, sig) -> dict:
        budget = finsat.SearchBudget(max_size=self.BOUND, node_limit=NODES)

        def smallest(f, s):
            for k in range(2, self.BOUND + 1):
                m = finsat.find_model(f, s, k, budget)
                if m is not None:
                    return m
            return None

        snf, sig1 = finsat.to_standard_nf(phi, sig)
        spread = finsat.to_spread(snf, smallest(snf.to_formula(), sig1))
        elim = finsat.eliminate_binaries(spread.spread)
        m2 = smallest(elim.weak.to_formula(), elim.sig_prime)
        rebuilt = finsat.reconstruct_model(spread.spread, elim, m2)
        return {"verdict": (m2.size, rebuilt.size), "models": (m2, rebuilt),
                "weak": elim.weak.to_formula()}

    @staticmethod
    def run_ladder(fact, psis) -> dict:
        reduced = finsat.shrink_block_count(fact, psis)
        hat = finsat.shrink_blocks(reduced, psis)
        return {
            "verdict": (fact.n_blocks, reduced.n_blocks, hat.factorization.n_blocks),
            "models": (reduced.tpo.to_structure(), hat.tpo.to_structure()),
        }

    def check_op(self, name: str, result: dict) -> list[str]:
        if name.startswith("verify"):
            bad = [stage for stage, status in result["verdict"] if status == "fail"]
            errors = [f"stage failed: {s}" for s in bad]
            if not any(status == "pass" for _, status in result["verdict"]):
                errors.append("no stage passed")
            if name == "verify-l2-1t" and ("clique abstraction round trip", "pass") not in result["verdict"]:
                errors.append("the clique round trip did not run")
            return errors
        if name == "chain-l2-1po":
            m2, rebuilt = result["models"]
            return model_errors(m2, (result["weak"],), "eliminated model") + model_errors(
                rebuilt, (self.chain,), "reconstruct_model"
            )
        _, psis = self.ladders[name]
        before, after, hat_blocks = result["verdict"]
        errors = []
        if not before >= after >= hat_blocks:
            errors.append(f"block count went {before} -> {after} -> {hat_blocks}")
        formulas = tuple(psi.to_formula() for psi in psis)
        reduced, hat = result["models"]
        errors += model_errors(reduced, formulas, "shrink_block_count")
        errors += model_errors(hat, formulas, "shrink_blocks")
        return errors


WORKLOADS = {
    "typed-tables": TypedTables,
    "typed-search": TypedSearch,
    "ground": Ground,
    "pipeline": Pipeline,
}
