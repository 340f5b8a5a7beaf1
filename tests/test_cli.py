"""The finsat command line: one exit code per kind of outcome."""

import functools
import time

import pytest

from finsat import cli
from finsat.logic import DistKind, Signature
from finsat.parsing import parse_formula
from finsat.solver import SearchBudget
from finsat.verify import pipeline_verify

AXIOM = "forall x !t(x,x) & forall x exists y t(x,y)"
# The grounded engine settles this one at sizes 2-4 in about 1,000
# decisions, so a 50-node budget runs out.
BUDGET_OUT = "forall x exists y (t(x,y) & !t(y,x) & b(y)) & exists x (a(x) & !t(x,x))"


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
    args = [command, "--logic", "l2-1t", "--unary", "a,b", "--bound", "3", formula_file(BUDGET_OUT)]
    assert cli.main(args) == cli.EXIT_UNKNOWN == 2
    assert "exceeded 50 nodes" in capsys.readouterr().out


def test_pipeline_verify_reports_a_budget_out_as_unknown():
    sig = Signature(("a", "b"), (), DistKind.TRANSITIVE)
    report = pipeline_verify(
        parse_formula(BUDGET_OUT, sig), sig, "l2-1t", SearchBudget(max_size=4, node_limit=50)
    )
    assert report.ok
    assert report.stages[-1].status == "unknown"
    assert "[?   ] pipeline -- grounded search exceeded 50 nodes" in report.render()


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["parse", "--unary", "p", str(tmp_path / "absent.txt")])
    assert code == cli.EXIT_USAGE == 64
    assert "cannot read" in capsys.readouterr().err


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
