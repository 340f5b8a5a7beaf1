"""Tests of the benchmark itself: the reference checker, the benchmark's
description, and the independence of verdicts from the hash seed.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import finsat  # noqa: E402
from finsat.logic import DistKind  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
from workloads import AXIOM, WORKLOADS  # noqa: E402


def test_relation_counts():
    assert [len(ref.relations(n, DistKind.TRANSITIVE)) for n in (2, 3)] == [13, 171]
    assert [len(ref.relations(n, DistKind.PARTIAL_ORDER)) for n in (2, 3)] == [3, 19]


def test_structure_enumeration_is_complete():
    sig = finsat.Signature(("p",), ("r",), DistKind.NONE)
    models = list(ref.structures(sig, 2))
    assert len(models) == ref.structure_count(sig, 2) == 2**2 * 2**4
    assert len({(m.unary["p"], m.binary["r"]) for m in models}) == len(models)


def test_reference_evaluator():
    t0 = finsat.Signature((), (), DistKind.TRANSITIVE)
    po = finsat.Signature(("p",), (), DistKind.PARTIAL_ORDER)
    chain = ref.Model(3, {"p": frozenset({2})}, {}, frozenset({(0, 1), (1, 2), (0, 2)}), DistKind.PARTIAL_ORDER)
    assert ref.holds(chain, finsat.parse_formula("forall x (p(x) | exists y x < y)", po))
    assert not ref.holds(chain, finsat.parse_formula("exists x exists y x ~ y", po))
    assert ref.holds(chain, finsat.parse_formula("forall x exists y (x = y | x < y | y < x)", po))
    axiom = finsat.parse_formula(AXIOM, t0)
    assert not any(ref.has_model(axiom, t0, n) for n in (2, 3))
    assert ref.has_model(finsat.parse_formula("forall x exists y t(x,y)", t0), t0, 2)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mib"}
    names = [m["name"] for m in bench["per_layer"]]
    assert names == list(spans.TIME_METRICS + spans.COUNT_METRICS + spans.RUN_METRICS)


def test_no_private_finsat_names():
    # A single leading underscore; dunders such as ``__file__`` are public.
    private = re.compile(r"finsat(\.\w+)*\._(?!_)|from finsat\S* import [^\n]*\b_(?!_)\w")
    for name in os.listdir(HERE):
        if name.endswith(".py") and name != "test_perfbench.py":
            with open(os.path.join(HERE, name)) as fh:
                assert not private.search(fh.read()), name


VERDICTS = """
import json
from workloads import WORKLOADS
out = {}
for wname, cls in WORKLOADS.items():
    workload = cls()
    for op, fn in workload.ops.items():
        try:
            r = fn()
            sizes = [m and m.size for m in r.get("models", ())]
            out[f"{wname}/{op}"] = repr((r["verdict"], sizes))
        except Exception as e:
            out[f"{wname}/{op}"] = type(e).__name__
print(json.dumps(out))
"""


def test_verdicts_do_not_depend_on_the_hash_seed():
    seen = {}
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", VERDICTS], cwd=HERE, env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        seen[seed] = json.loads(proc.stdout.splitlines()[-1])
    assert seen["0"] == seen["1"] == seen["2"]
