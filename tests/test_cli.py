"""The finsat command line: one exit code per kind of outcome."""

import functools
import time

import pytest

from finsat import cli, ground, solver
from finsat.logic import DistKind, Signature, Structure
from finsat.parsing import parse_formula
from finsat.solver import SearchBudget
from finsat.verify import pipeline_verify

from fixtures import BUDGET_OUT
from oracles import dot_is_wellformed

AXIOM = "forall x !t(x,x) & forall x exists y t(x,y)"


@pytest.fixture
def formula_file(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "phi.txt"
        path.write_text(text)
        return str(path)

    return write


def test_decide_finds_a_model(formula_file, capsys):
    code = cli.main(["decide", "--logic", "l2", "--unary", "p", formula_file("exists x p(x)")])
    assert code == cli.EXIT_OK == 0
    assert "sat at size 2" in capsys.readouterr().out


def test_axiom_of_infinity_has_no_model_up_to_the_bound(formula_file):
    args = ["decide", "--logic", "l2-1t", "--bound", "3", formula_file(AXIOM)]
    assert cli.main(args) == cli.EXIT_NO_MODEL == 1


@pytest.mark.parametrize("command", ["decide", "verify-pipeline"])
def test_budget_out_exits_2(command, formula_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SearchBudget", functools.partial(SearchBudget, node_limit=50))
    args = [command, "--logic", "l2-1t", "--unary", "a,b", "--bound", "8", formula_file(BUDGET_OUT)]
    assert cli.main(args) == cli.EXIT_UNKNOWN == 2
    assert "exceeded 50 nodes" in capsys.readouterr().out


# A 3-element model of FACTOR_PHI; its basic set has 6 fresh labels.
FACTOR_MODEL = """signature: partial_order
unary: p q
binary:
size: 3
set p: 0 1
set q: 1 2
dist: 0,1 0,2 1,2
"""
FACTOR_PHI = "forall x (p(x) -> exists y (x < y & q(y))) & exists x p(x)"


def test_factorize_labels_a_model_by_search(tmp_path, capsys):
    (tmp_path / "s.txt").write_text(FACTOR_MODEL)
    (tmp_path / "phi.txt").write_text(FACTOR_PHI)
    start = time.perf_counter()
    code = cli.main(["factorize", str(tmp_path / "s.txt"), "--formula", str(tmp_path / "phi.txt")])
    assert code == cli.EXIT_OK
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("block ") for line in out) == 3


def test_factorize_budget_out_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "s.txt").write_text(FACTOR_MODEL)
    (tmp_path / "phi.txt").write_text(FACTOR_PHI)
    monkeypatch.setattr(cli, "SearchBudget", functools.partial(SearchBudget, node_limit=0))
    code = cli.main(["factorize", str(tmp_path / "s.txt"), "--formula", str(tmp_path / "phi.txt")])
    assert code == cli.EXIT_UNKNOWN == 2
    assert "exceeded 0 nodes" in capsys.readouterr().err


def test_pipeline_verify_reports_a_budget_out_as_unknown():
    sig = Signature(("a", "b"), (), DistKind.TRANSITIVE)
    report = pipeline_verify(
        parse_formula(BUDGET_OUT, sig), sig, "l2-1t", SearchBudget(max_size=4, node_limit=50)
    )
    assert report.ok
    assert report.stages[-1].status == "unknown"
    assert "[?   ] pipeline -- grounded search exceeded 50 nodes" in report.render()


def test_factorize_prints_dot_and_the_dot_command_is_gone(tmp_path, capsys):
    (tmp_path / "s.txt").write_text(FACTOR_MODEL)
    assert cli.main(["factorize", str(tmp_path / "s.txt"), "--format", "dot"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert dot_is_wellformed(out)
    assert cli.main(["dot", str(tmp_path / "s.txt")]) == cli.EXIT_USAGE


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["parse", "--unary", "p", str(tmp_path / "absent.txt")])
    assert code == cli.EXIT_USAGE == 64
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("logic", ["l2", "l2-1t"])
def test_a_free_variable_is_a_usage_error_on_either_engine(formula_file, capsys, logic):
    # The plain signature reaches the typed engine; the t cross atom
    # without a t(u,u) atom reaches the grounded engine.
    text = "exists x (t(x,y) & !t(y,x))" if logic == "l2-1t" else "exists x (p(x) & !p(y))"
    args = ["decide", "--logic", logic, "--unary", "p", formula_file(text)]
    assert cli.main(args) == cli.EXIT_USAGE == 64
    assert "unassigned free variables ['y']" in capsys.readouterr().err


def test_seed_is_not_a_decide_option(formula_file):
    args = ["decide", "--logic", "l2", "--unary", "p", "--seed", "3", formula_file("exists x p(x)")]
    assert cli.main(args) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "text",
    ["exists x (p(x) &", "exists x " + "(" * 3000 + "p(x)" + ")" * 3000],
    ids=["syntax", "nesting"],
)
def test_parse_errors_exit_65(text, formula_file, capsys):
    assert cli.main(["parse", "--unary", "p", formula_file(text)]) == cli.EXIT_PARSE == 65
    assert capsys.readouterr().err.startswith("error: ")


def test_a_long_iff_chain_exits_65_at_once(formula_file, capsys):
    # Expanding each <-> doubles the tree: 30 links would give 2**30 copies.
    path = formula_file("forall x (" + " <-> ".join(["p(x)"] * 31) + ")")
    start = time.perf_counter()
    assert cli.main(["parse", "--unary", "p", path]) == cli.EXIT_PARSE
    assert time.perf_counter() - start < 1.0
    assert "'<->' nested deeper" in capsys.readouterr().err


def test_bound_below_two_is_a_usage_error(formula_file, capsys):
    args = ["decide", "--logic", "l2", "--unary", "p", "--bound", "0", formula_file("exists x p(x)")]
    assert cli.main(args) == cli.EXIT_USAGE
    assert "2-element convention" in capsys.readouterr().err


def test_a_refused_basic_compilation_exits_2(formula_file, capsys):
    # Three witness conjuncts over p and q compile to 2 + 9 = 11 bits, and
    # the p-antichain constraint relates 4**10 pairs of 1-types.
    text = (
        "forall x exists y (x < y & p(y)) & forall x exists y (y < x & q(y))"
        " & forall x exists y (x != y & !(x < y) & !(y < x))"
        " & forall x forall y (p(x) & p(y) -> !(x < y))"
    )
    args = ["normalize", "--to", "basic", "--logic", "l2-1po-u", "--unary", "p,q", formula_file(text)]
    assert cli.main(args) == cli.EXIT_UNKNOWN
    assert "at least 1057795 basic formulas to build exceed" in capsys.readouterr().err


def test_a_runaway_basic_compilation_is_skipped_at_once(formula_file, capsys):
    # The standard normal form adds 2 predicates and m = 2 adds 6 labels:
    # 10 bits.  Over every 1-type its universal part d0(x) gave 2 * 4**9
    # basic formulas on top of 2 + 6 * 2**9, and was refused; the model
    # realizes one 1-type, and the compilation over it is small.
    args = ["verify-pipeline", "--logic", "l2-1po-u", "--unary", "p,q", "--bound", "3"]
    start = time.perf_counter()
    assert cli.main(args + [formula_file("exists x exists y x = y")]) == cli.EXIT_OK
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out == (
        "pipeline verification (l2-1po-u)\n"
        "  [ok  ] standard normal form -- multiplicity 2, 2 fresh predicates\n"
        "  [ok  ] normal form implies the input -- checked on the found model\n"
        "  [ok  ] basic compilation -- 4 basic formulas over 1 realized 1-type, signature growth exactly 6\n"
        "  [ok  ] basic-set model search -- model of size 2\n"
        "  [ok  ] factorization (unitary, controlled) -- 1 blocks, 0 controlled constraints\n"
        "  [ok  ] thinning preserves the basic set\n"
        "  [ok  ] block-count reduction -- 1 -> 1 blocks, no equivalent cuts remain\n"
        "  [ok  ] block-size reduction -- carrier 2 -> 2, basic set re-verified\n"
    )


def test_a_crash_exits_70_not_1(formula_file, monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_parse", crash)
    assert cli.main(["parse", "--unary", "p", formula_file("exists x p(x)")]) == cli.EXIT_INTERNAL
    assert "RuntimeError: boom" in capsys.readouterr().err


def _without_unary(s):
    """The same structure with every unary predicate empty."""
    return Structure(s.sig, s.size, {p: frozenset() for p in s.sig.unary}, s.binary, s.dist)


@pytest.mark.parametrize("engine", ["typed", "grounded"])
@pytest.mark.parametrize("command", ["decide", "verify-pipeline"])
def test_a_non_model_from_an_engine_exits_70(engine, command, formula_file, monkeypatch, capsys):
    # Each engine re-checks its model with evaluate; a model of exists x p(x)
    # with p emptied fails that self-check, an internal fault, not misuse.
    if engine == "typed":
        build = solver._TypedEngine._build
        monkeypatch.setattr(solver._TypedEngine, "_build", lambda self: _without_unary(build(self)))
    else:
        monkeypatch.setattr(solver, "_TYPED_TYPE_LIMIT", 0)  # route every formula to the grounded engine
        decode = ground.GroundEngine._decode
        monkeypatch.setattr(ground.GroundEngine, "_decode", lambda self, a: _without_unary(decode(self, a)))
    args = [command, "--logic", "l2", "--unary", "p", formula_file("exists x p(x)")]
    assert cli.main(args) == cli.EXIT_INTERNAL == 70
    captured = capsys.readouterr()
    assert f"{engine} engine produced a non-model" in captured.out + captured.err
