"""Reference checker written apart from finsat's evaluator and model finder.

It reads finsat formulas and structures only through their public fields
(the formula node classes of ``finsat.logic`` and the ``Structure``
dataclass), evaluates them by the plain Tarski clauses, and enumerates every
structure of a given small size by brute force.  No workload verdict is
accepted unless this module agrees with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from finsat.logic import And, Atom, DistKind, Eq, Exists, Forall, Implies, Not, Or


@dataclass(frozen=True)
class Model:
    """A finite structure over 0..size-1, as plain sets."""

    size: int
    unary: dict
    binary: dict
    dist: frozenset
    kind: DistKind


def model_of(s) -> Model:
    """Copy a finsat ``Structure`` into a reference ``Model``."""
    return Model(
        s.size,
        {p: frozenset(s.unary.get(p, ())) for p in s.sig.unary},
        {r: frozenset(s.binary.get(r, ())) for r in s.sig.binary},
        frozenset(s.dist),
        s.sig.dist,
    )


def compile_formula(f):
    """Turn a formula into a function ``(model, env) -> bool``.

    ``env`` maps variable names to elements.  Each clause is the textbook
    Tarski condition; compiling once only saves re-dispatching on node types
    when the same formula is checked against many structures.
    """
    if isinstance(f, Atom):
        pred, args = f.pred, f.args
        if len(args) == 1:
            (u,) = args
            return lambda m, env: env[u] in m.unary[pred]
        u, v = args
        if pred == "~":
            return lambda m, env: env[u] != env[v] and (env[u], env[v]) not in m.dist and (env[v], env[u]) not in m.dist
        if pred in ("<", "t"):
            return lambda m, env: (env[u], env[v]) in m.dist
        return lambda m, env: (env[u], env[v]) in m.binary[pred]
    if isinstance(f, Eq):
        u, v = f.left, f.right
        return lambda m, env: env[u] == env[v]
    if isinstance(f, Not):
        sub = compile_formula(f.sub)
        return lambda m, env: not sub(m, env)
    if isinstance(f, And):
        subs = [compile_formula(g) for g in f.subs]
        return lambda m, env: all(g(m, env) for g in subs)
    if isinstance(f, Or):
        subs = [compile_formula(g) for g in f.subs]
        return lambda m, env: any(g(m, env) for g in subs)
    if isinstance(f, Implies):
        left, right = compile_formula(f.left), compile_formula(f.right)
        return lambda m, env: not left(m, env) or right(m, env)
    if isinstance(f, (Forall, Exists)):
        var, body = f.var, compile_formula(f.body)
        quant = all if isinstance(f, Forall) else any

        return lambda m, env: quant(body(m, {**env, var: a}) for a in range(m.size))
    raise TypeError(f"not a formula node: {f!r}")


def holds(model: Model, f) -> bool:
    return compile_formula(f)(model, {})


def is_transitive(rel) -> bool:
    return all((a, d) in rel for a, b in rel for c, d in rel if b == c)


def is_strict_partial_order(rel) -> bool:
    return all(a != b for a, b in rel) and is_transitive(rel)


def distinguished_ok(model: Model) -> bool:
    """The distinguished relation has the shape its signature requires."""
    if model.kind is DistKind.TRANSITIVE:
        return is_transitive(model.dist)
    if model.kind is DistKind.PARTIAL_ORDER:
        return is_strict_partial_order(model.dist)
    return not model.dist


def relations(n: int, kind: DistKind) -> list[frozenset]:
    """Every distinguished relation of the given kind on n points."""
    if kind is DistKind.NONE:
        return [frozenset()]
    pairs = list(itertools.product(range(n), repeat=2))
    out = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = frozenset(p for p, keep in zip(pairs, bits) if keep)
        if is_transitive(rel) and (kind is DistKind.TRANSITIVE or all(a != b for a, b in rel)):
            out.append(rel)
    return out


def subsets(items) -> list[frozenset]:
    items = list(items)
    return [
        frozenset(x for x, keep in zip(items, bits) if keep)
        for bits in itertools.product((False, True), repeat=len(items))
    ]


def structure_count(sig, n: int) -> int:
    return len(relations(n, sig.dist)) * 2 ** (n * len(sig.unary) + n * n * len(sig.binary))


def structures(sig, n: int):
    """Every structure of size n over the signature."""
    sets_u = subsets(range(n))
    sets_b = subsets(itertools.product(range(n), repeat=2))
    for dist in relations(n, sig.dist):
        for us in itertools.product(sets_u, repeat=len(sig.unary)):
            for bs in itertools.product(sets_b, repeat=len(sig.binary)):
                yield Model(n, dict(zip(sig.unary, us)), dict(zip(sig.binary, bs)), dist, sig.dist)


def has_model(f, sig, n: int) -> bool:
    """Brute force: does some structure of size n satisfy f?"""
    test = compile_formula(f)
    return any(test(m, {}) for m in structures(sig, n))
