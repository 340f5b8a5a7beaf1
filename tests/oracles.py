"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the bare
definitions, without touching the package's own evaluation or search code
paths, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import re

import networkx as nx

from finsat.logic import (
    And,
    Atom,
    DistKind,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    SemiDiagonalTwoType,
    Structure,
    enumerate_nav,
    enumerate_one_types,
)


def naive_eval(s: Structure, f, env=None) -> bool:
    """A second, plain-recursion Tarski evaluator (the oracle of record)."""
    env = dict(env or {})

    def holds(pred, args):
        vals = tuple(env[a] for a in args)
        if pred in s.sig.unary:
            return vals[0] in s.unary.get(pred, frozenset())
        if pred in s.sig.binary:
            return vals in s.binary.get(pred, frozenset())
        if pred == "<":
            return vals in s.dist
        if pred == "~":
            u, v = vals
            return u != v and (u, v) not in s.dist and (v, u) not in s.dist
        if pred == "t":
            return vals in s.dist
        raise KeyError(pred)

    def rec(node) -> bool:
        if isinstance(node, Atom):
            return holds(node.pred, node.args)
        if isinstance(node, Eq):
            return env[node.left] == env[node.right]
        if isinstance(node, Not):
            return not rec(node.sub)
        if isinstance(node, And):
            for sub in node.subs:
                if not rec(sub):
                    return False
            return True
        if isinstance(node, Or):
            for sub in node.subs:
                if rec(sub):
                    return True
            return False
        if isinstance(node, Implies):
            return rec(node.right) if rec(node.left) else True
        if isinstance(node, (Forall, Exists)):
            old = env.get(node.var)
            results = []
            for value in range(s.size):
                env[node.var] = value
                results.append(rec(node.body))
            if old is None:
                del env[node.var]
            else:
                env[node.var] = old
            return all(results) if isinstance(node, Forall) else any(results)
        raise TypeError(node)

    return rec(f)


def naive_free_vars(f) -> frozenset[str]:
    """Free variables by plain recursion over the definition."""
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return naive_free_vars(f.sub)
    if isinstance(f, (And, Or)):
        return frozenset().union(*map(naive_free_vars, f.subs))
    if isinstance(f, Implies):
        return naive_free_vars(f.left) | naive_free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return naive_free_vars(f.body) - {f.var}
    raise TypeError(f)


def formula_size(f) -> int:
    """Node occurrences, plus one per atom argument and per binder, by
    plain recursion."""
    if isinstance(f, Atom):
        return 1 + len(f.args)
    if isinstance(f, Eq):
        return 3
    if isinstance(f, Not):
        return 1 + formula_size(f.sub)
    if isinstance(f, (And, Or)):
        return 1 + sum(map(formula_size, f.subs))
    if isinstance(f, Implies):
        return 1 + formula_size(f.left) + formula_size(f.right)
    if isinstance(f, (Forall, Exists)):
        return 2 + formula_size(f.body)
    raise TypeError(f)


def pair_structure(tau) -> Structure:
    """The 2-element structure realizing the 2-type tau on the pair (0, 1),
    read literal by literal off its 1-types, its cross bits and its
    distinguished bits."""
    sig, ends = tau.sig, (tau.x, tau.y)

    def relation(loop_key, fwd: bool, bwd: bool) -> frozenset:
        out = {(e, e) for e in (0, 1) if loop_key is not None and ends[e].polarity(loop_key)}
        if fwd:
            out.add((0, 1))
        if bwd:
            out.add((1, 0))
        return frozenset(out)

    unary = {p: frozenset(e for e in (0, 1) if ends[e].polarity(("u", p, "x"))) for p in sig.unary}
    binary = {r: relation(("b", r, "x", "x"), *bits) for r, bits in zip(sig.binary, tau.cross)}
    loop = ("t", "x", "x") if sig.dist is DistKind.TRANSITIVE else None
    return Structure(sig, 2, unary, binary, relation(loop, *tau.nav))


def enumerate_semi_diagonal_types(sig):
    """Every semi-diagonal 2-type over sig: each ordered pair of 1-types,
    with each distinguished bit pair their loops allow."""
    types = enumerate_one_types(sig)
    for tx in types:
        for ty in types:
            for nav in enumerate_nav(sig, tx, ty):
                yield SemiDiagonalTwoType(sig, tx, ty, nav)


def extensions(semi):
    """Every 2-type refining the semi-diagonal 2-type semi."""
    bits = itertools.product((False, True), repeat=2)
    for cross in itertools.product(tuple(bits), repeat=len(semi.sig.binary)):
        yield semi.with_cross(cross)


def quadratic_order_violations(rel, strict: bool) -> list[str]:
    """Transitivity (and, when strict, irreflexivity) failures of rel by
    the all-pairs scan: irreflexivity in element order, then each (a,b),
    (b,c) in rel's iteration order."""
    out = []
    if strict:
        out.extend(f"irreflexivity violated at {a}" for a in sorted(a for a, b in rel if a == b))
    for a, b in rel:
        for b2, c in rel:
            if b2 == b and (a, c) not in rel:
                out.append(f"transitivity violated: ({a},{b}),({b},{c}) without ({a},{c})")
    return out


def scc_partition(s: Structure) -> set[frozenset[int]]:
    """Strongly connected components of the distinguished relation via
    networkx, as the clique oracle."""
    g = nx.DiGraph()
    g.add_nodes_from(range(s.size))
    g.add_edges_from(s.dist)
    return {frozenset(c) for c in nx.strongly_connected_components(g)}


def longest_path_lengths(n_blocks: int, order) -> dict[int, int]:
    """Longest ascending chain from each node, by memo-free dynamic walk."""
    out = {}

    def walk(i, seen):
        best = 0
        for j in range(n_blocks):
            if (i, j) in order and j not in seen:
                best = max(best, 1 + walk(j, seen | {j}))
        return best

    for i in range(n_blocks):
        out[i] = walk(i, {i})
    return out


def refines(fine, coarse) -> bool:
    """Refinement per the bare definition, written against block sets."""
    for small in fine.blocks:
        containers = [big for big in coarse.blocks if small <= big]
        if len(containers) != 1:
            return False
    for i, small_a in enumerate(fine.blocks):
        for j, small_b in enumerate(fine.blocks):
            if i == j:
                continue
            big_a = next(k for k, big in enumerate(coarse.blocks) if small_a <= big)
            big_b = next(k for k, big in enumerate(coarse.blocks) if small_b <= big)
            if (big_a, big_b) in coarse.order and (i, j) not in fine.order:
                return False
    return True


def brute_closure(pairs) -> frozenset:
    out = set(pairs)
    while True:
        extra = {
            (a, d)
            for (a, b) in out
            for (c, d) in out
            if b == c and (a, d) not in out
        }
        if not extra:
            return frozenset(out)
        out |= extra


def frontier_map_by_search(fact, blocks1, blocks2, below1, below2, above1, above2):
    """Exhaustive search over type-respecting bijections for a frontier map
    satisfying the requirements; confirms the constructed map is unique.

    Only bijections matching 1-types are enumerated (anything else fails
    the isomorphism requirement outright)."""
    blocks1 = sorted(blocks1)
    blocks2 = sorted(blocks2)
    if len(blocks1) != len(blocks2):
        return []
    by_type1: dict = {}
    by_type2: dict = {}
    for i in blocks1:
        by_type1.setdefault(fact.block_types[i], []).append(i)
    for j in blocks2:
        by_type2.setdefault(fact.block_types[j], []).append(j)
    if {t: len(v) for t, v in by_type1.items()} != {
        t: len(v) for t, v in by_type2.items()
    }:
        return []
    types = sorted(by_type1, key=lambda t: t.bits)
    per_type_perms = [
        [list(zip(by_type1[t], perm)) for perm in itertools.permutations(by_type2[t])]
        for t in types
    ]
    found = []
    for combo in itertools.product(*per_type_perms):
        mapping = {i: j for pairs in combo for i, j in pairs}
        ok = True
        for i, j in mapping.items():
            if i in fact.extremal_blocks and j != i:
                ok = False
                break
            if i in below1 and j not in below2:
                ok = False
                break
            if i in above1 and j not in above2:
                ok = False
                break
        if not ok:
            continue
        for i, j in itertools.permutations(blocks1, 2):
            if fact.less(i, j) != fact.less(mapping[i], mapping[j]):
                ok = False
                break
        if not ok:
            continue
        boundary = (set(below1) | set(above1)) - set(fact.extremal_blocks)
        for i in boundary:
            for e in fact.extremal_blocks:
                if fact.less(i, e) != fact.less(mapping[i], e) or fact.less(
                    e, i
                ) != fact.less(e, mapping[i]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(mapping)
    return found


def all_structures(sig, size):
    """Every structure of the given size over a small signature, including
    only valid interpretations of the distinguished relation."""
    elements = range(size)
    unary_choices = [
        [frozenset(c) for r in range(size + 1) for c in itertools.combinations(elements, r)]
        for _ in sig.unary
    ]
    pairs = [(a, b) for a in elements for b in elements]
    binary_choices = [
        [frozenset(c) for r in range(len(pairs) + 1) for c in itertools.combinations(pairs, r)]
        for _ in sig.binary
    ]
    if sig.dist is DistKind.NONE:
        dists = [frozenset()]
    else:
        dists = []
        for r in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, r):
                rel = frozenset(combo)
                transitive = all(
                    (a, d) in rel
                    for (a, b) in rel
                    for (c, d) in rel
                    if b == c
                )
                if not transitive:
                    continue
                if sig.dist is DistKind.PARTIAL_ORDER and any(a == b for a, b in rel):
                    continue
                dists.append(rel)
    for unary in itertools.product(*unary_choices) if sig.unary else [()]:
        for binary in itertools.product(*binary_choices) if sig.binary else [()]:
            for dist in dists:
                yield Structure(
                    sig,
                    size,
                    dict(zip(sig.unary, unary)),
                    dict(zip(sig.binary, binary)),
                    dist,
                )


def expansion_by_enumeration(base: Structure, f, sig):
    """The first expansion of base to sig that satisfies f, trying every
    labelling of the unary predicates base lacks, or None."""
    fresh = [p for p in sig.unary if p not in base.sig.unary]
    n = base.size
    for bits in itertools.product((False, True), repeat=n * len(fresh)):
        unary = dict(base.unary)
        for i, p in enumerate(fresh):
            unary[p] = frozenset(a for a in range(n) if bits[i * n + a])
        cand = Structure(sig, n, unary, base.binary, base.dist)
        if naive_eval(cand, f):
            return cand
    return None


def cnf_satisfiable(n_vars: int, clauses) -> bool:
    """Whether some assignment of variables 1..n_vars satisfies every
    clause (lists of nonzero integers, -v for "not v"), by trying all
    2**n_vars assignments at once: bit a of a mask stands for assignment
    a, in which variable v is true iff bit v - 1 of a is set."""
    n_assignments = 1 << n_vars
    every = (1 << n_assignments) - 1
    true_in = [0]
    for v in range(1, n_vars + 1):
        half = 1 << (v - 1)
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < n_assignments:
            mask |= mask << width
            width *= 2
        true_in.append(mask)
    alive = every
    for clause in clauses:
        sat = 0
        for lit in clause:
            sat |= true_in[lit] if lit > 0 else every & ~true_in[-lit]
        alive &= sat
    return alive != 0


def expand_definitions(clauses) -> list[list[int]]:
    """The clauses with each definition item (z, key), z <-> AND(key),
    written out as its two-sided definition: [-z, l] for each l in key,
    then [z, -l1, ..., -lk]."""
    out = []
    for c in clauses:
        if isinstance(c, tuple):
            z, key = c
            out += [[-z, lit] for lit in key]
            out.append([z] + [-lit for lit in key])
        else:
            out.append(list(c))
    return out


def unit_propagate(clauses) -> dict[int, bool] | None:
    """The values that unit propagation forces on the clauses' variables,
    or None when it reaches a clause with every literal false.  A plain
    fixpoint of full passes over the clauses."""
    value: dict[int, bool] = {}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unset = []
            for lit in clause:
                v = value.get(abs(lit))
                if v is None:
                    unset.append(lit)
                elif v == (lit > 0):
                    break
            else:
                if not unset:
                    return None
                if len(unset) == 1:
                    value[abs(unset[0])] = unset[0] > 0
                    changed = True
    return value


_DOT_NODE = re.compile(r'^[A-Za-z_][A-Za-z0-9_]* \[label="[^"]*"(, penwidth=\d+)?\];$')
_DOT_EDGE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]* -> [A-Za-z_][A-Za-z0-9_]*;$")


def dot_is_wellformed(text: str) -> bool:
    """Minimal check against the DOT grammar subset the exporter uses."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "digraph factorization {" or lines[-1] != "}":
        return False
    for line in lines[1:-1]:
        if line in ("rankdir=BT;",):
            continue
        if _DOT_NODE.match(line) or _DOT_EDGE.match(line):
            continue
        return False
    return True
