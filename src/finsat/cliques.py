"""Clique decomposition and the reduction from a transitive relation to a
partial order.

Cliques (maximal strongly connected sets) of a transitive relation are
partially ordered, and between distinct cliques the relation is uniform.
Bounding clique sizes, enumerating all possible one-clique structures
(cells) and two-clique structures (diatoms) over canonical carriers, and
labelling each clique with its reference cell and each clique pair with its
reference diatom turns a transitive-signature problem into a partial-order
problem over the cliques.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .logic import (
    And,
    Atom,
    DistKind,
    EnumerationBudgetError,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    LogicError,
    Or,
    Pair,
    PreconditionError,
    Signature,
    Structure,
    TRUE,
    VerificationFailure,
    atom,
    disj,
    evaluate,
    free_vars,
    neg,
    one_type_of,
    t_rel,
    tarski,
)
from .normal_forms import S_ORDER, StandardNF, TransitiveNF, fresh_names
from .resolution import labels


# ---------------------------------------------------------------------------
# Clique decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueDecomposition:
    cliques: tuple[frozenset[int], ...]  # sorted by least member
    order: frozenset[Pair]  # clique indices, the induced strict order

    @cached_property
    def clique_of(self) -> dict[int, int]:
        return {a: i for i, c in enumerate(self.cliques) for a in c}

    def relation(self, i: int, j: int) -> str:
        if i == j:
            return "eq"
        if (i, j) in self.order:
            return "lt"
        if (j, i) in self.order:
            return "gt"
        return "sim"


def cliques_of(s: Structure) -> CliqueDecomposition:
    """Maximal strongly connected sets and their induced order.

    The induced order is verified to be a strict partial order with the
    uniform trichotomy between distinct cliques.
    """
    if s.sig.dist is not DistKind.TRANSITIVE:
        raise PreconditionError("cliques are defined for transitive signatures")
    t = s.dist
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in s.domain():
        parent[a] = a
    for a, b in itertools.combinations(s.domain(), 2):
        if (a, b) in t and (b, a) in t:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for a in s.domain():
        groups.setdefault(find(a), set()).add(a)
    cliques = tuple(sorted((frozenset(g) for g in groups.values()), key=min))
    order = set()
    for i, ci in enumerate(cliques):
        for j, cj in enumerate(cliques):
            if i == j:
                continue
            flags = {
                ((a, b) in t, (b, a) in t) for a in ci for b in cj
            }
            if len(flags) != 1:
                raise VerificationFailure(
                    f"relation between cliques {i} and {j} is not uniform"
                )
            fwd, bwd = flags.pop()
            if fwd and bwd:
                raise VerificationFailure("mutually related cliques were not merged")
            if fwd:
                order.add((i, j))
    for a, b in order:
        if (b, a) in order:
            raise VerificationFailure("clique order is not antisymmetric")
        for b2, c in order:
            if b2 == b and (a, c) not in order:
                raise VerificationFailure("clique order is not transitive")
    return CliqueDecomposition(cliques, frozenset(order))


def order_atom(s: Structure, a: int, b: int) -> str:
    """Which of the five order alternatives the pair realizes."""
    if a == b:
        return "="
    fwd, bwd = (a, b) in s.dist, (b, a) in s.dist
    if fwd and bwd:
        return "eq"
    if fwd:
        return "lt"
    if bwd:
        return "gt"
    return "sim"


# ---------------------------------------------------------------------------
# Small substructures and small cliques
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkResult:
    structure: Structure
    element_map: dict[int, int]  # old element -> new element (kept only)
    kept: tuple[int, ...]


def _restrict(s: Structure, kept: Sequence[int]) -> ShrinkResult:
    """The substructure on kept, whose i-th element becomes element i."""
    kept = tuple(kept)
    emap = {a: i for i, a in enumerate(kept)}
    unary = {
        p: frozenset(emap[a] for a in s.unary_of(p) if a in emap)
        for p in s.sig.unary
    }
    binary = {
        r: frozenset(
            (emap[a], emap[b])
            for a, b in s.binary_of(r)
            if a in emap and b in emap
        )
        for r in s.sig.binary
    }
    dist = frozenset(
        (emap[a], emap[b]) for a, b in s.dist if a in emap and b in emap
    )
    return ShrinkResult(Structure(s.sig, len(kept), unary, binary, dist), emap, kept)


def _shrink_properties_hold(
    s: Structure, out: ShrinkResult, b_old: frozenset[int]
) -> bool:
    """Check substructure-replacement properties against the original."""
    from .logic import two_type_of

    c_old = [a for a in s.domain() if a not in b_old]
    b_new = [out.element_map[a] for a in out.kept if a in b_old]
    c_new = [out.element_map[a] for a in out.kept if a not in b_old]
    if len(c_new) != len(c_old):
        return False
    r = out.structure
    # (i) the complement part is untouched (modulo renaming)
    for a, b in itertools.permutations(c_old, 2):
        if two_type_of(s, a, b) != two_type_of(r, out.element_map[a], out.element_map[b]):
            return False
    for a in c_old:
        if one_type_of(s, a) != one_type_of(r, out.element_map[a]):
            return False
    # (ii) the same 1-types are realized on the replaced part
    if {one_type_of(s, a) for a in b_old} != {one_type_of(r, a) for a in b_new}:
        return False
    # (iii) 2-type sets within the part and towards the complement
    def pair_types(struct, xs, ys):
        return {
            two_type_of(struct, a, b)
            for a in xs
            for b in ys
            if a != b
        }

    if pair_types(s, b_old, b_old) != pair_types(r, b_new, b_new):
        return False
    if pair_types(s, b_old, c_old) != pair_types(r, b_new, c_new):
        return False
    # (iv) every replacement element covers some original's 2-types
    orig_menus = {
        b: {two_type_of(s, b, u) for u in s.domain() if u != b} for b in b_old
    }
    for b in b_new:
        menu = {two_type_of(r, b, u) for u in r.domain() if u != b}
        if not any(orig <= menu for orig in orig_menus.values()):
            return False
    # (v) every complement element keeps all its 2-types into the part
    for a in c_old:
        want = {two_type_of(s, a, b) for b in b_old}
        have = {two_type_of(r, out.element_map[a], b) for b in b_new}
        if not want <= have:
            return False
    return True


def shrink_substructure(
    s: Structure, b: frozenset[int], bound: Optional[int] = None
) -> ShrinkResult:
    """Replace a part of a structure by a bounded selection of it.

    Keeps up to three representatives per 1-type realized in the part and
    verifies the replacement properties directly; if the selection fails,
    an exhaustive search over subsets within the bound is attempted, and
    exhausting that too is a hard error (it would contradict the cited
    small-substructure property at this instance).
    """
    if s.sig.dist is not DistKind.NONE:
        raise PreconditionError("substructure shrinking expects no distinguished relation")
    by_type: dict = {}
    for a in sorted(b):
        by_type.setdefault(one_type_of(s, a), []).append(a)
    if bound is None:
        bound = 3 * len(by_type)
    keep = set(a for a in s.domain() if a not in b)
    if len(b) <= bound:
        return _restrict(s, sorted(keep | set(b)))
    reps = {a for members in by_type.values() for a in members[:3]}
    out = _restrict(s, sorted(keep | reps))
    if len(reps) <= bound and _shrink_properties_hold(s, out, b):
        return out
    for size in range(1, bound + 1):
        for combo in itertools.combinations(sorted(b), size):
            cand = _restrict(s, sorted(keep | set(combo)))
            if _shrink_properties_hold(s, cand, b):
                return cand
    raise VerificationFailure(
        "no small replacement satisfies the substructure properties; "
        "this instance contradicts the cited small-substructure fact"
    )


def shrink_clique(s: Structure, b: frozenset[int]) -> ShrinkResult:
    """Replace one clique by a bounded one, preserving the clique order.

    Marks the clique and its trichotomy classes with fresh unary
    predicates, demotes the transitive relation to an ordinary predicate,
    shrinks, and undoes the marking.  The result's cliques are the old ones
    with the replaced clique swapped out, isomorphically ordered.
    """
    dec = cliques_of(s)
    if b not in dec.cliques:
        raise PreconditionError("the given set is not a clique")
    if len(b) == 1:
        return _restrict(s, range(s.size))
    markers = fresh_names(s.sig, "mk", 4)
    q0 = fresh_names(s.sig, "q", 1)[0]
    marked_sig = Signature(s.sig.unary + markers, s.sig.binary + (q0,), DistKind.NONE)
    rep = min(b)
    unary = dict(s.unary)
    unary[markers[0]] = frozenset(b)
    for idx, kind in enumerate(("lt", "gt", "sim")):
        unary[markers[1 + idx]] = frozenset(
            a
            for a in s.domain()
            if a not in b and order_atom(s, a, rep) == kind
        )
    binary = dict(s.binary)
    binary[q0] = s.dist
    marked = Structure(marked_sig, s.size, unary, binary, frozenset())
    shrunk = shrink_substructure(marked, b)
    inner = shrunk.structure
    out = Structure(
        s.sig,
        inner.size,
        {p: inner.unary_of(p) for p in s.sig.unary},
        {r: inner.binary_of(r) for r in s.sig.binary},
        inner.binary_of(q0),
    )
    from .logic import check_distinguished

    if check_distinguished(out):
        raise VerificationFailure("clique replacement broke transitivity")
    # Clique order must be isomorphic under the replacement.
    new_dec = cliques_of(out)
    old_reps = {i: min(c) for i, c in enumerate(dec.cliques)}
    for i, j in itertools.permutations(range(len(dec.cliques)), 2):
        a_old, b_old_rep = old_reps[i], old_reps[j]
        a_new = shrunk.element_map.get(a_old)
        b_new = shrunk.element_map.get(b_old_rep)
        if a_new is None or b_new is None:
            # The replaced clique's least member may be dropped; use any
            # survivor of the same clique.
            survivors_i = [shrunk.element_map[a] for a in dec.cliques[i] if a in shrunk.element_map]
            survivors_j = [shrunk.element_map[a] for a in dec.cliques[j] if a in shrunk.element_map]
            if not survivors_i or not survivors_j:
                raise VerificationFailure("a clique disappeared during replacement")
            a_new, b_new = survivors_i[0], survivors_j[0]
        rel_old = dec.relation(i, j)
        rel_new = order_atom(out, a_new, b_new)
        if rel_old != rel_new:
            raise VerificationFailure("clique order changed during replacement")
    return ShrinkResult(out, shrunk.element_map, shrunk.kept)


def max_clique_size(sig: Signature) -> int:
    """The bound guaranteed by clique shrinking: three representatives per
    1-type over the marked signature."""
    marked_bits = len(sig.unary) + 4 + len(sig.binary) + 1
    return 3 * 2 ** marked_bits


def bound_cliques(s: Structure, tnf: TransitiveNF) -> Structure:
    """Shrink every oversized clique, re-verifying the formula each step."""
    phi = tnf.to_formula()
    if not evaluate(s, phi):
        raise PreconditionError("structure is not a model of the input")
    bound = max_clique_size(s.sig)
    while True:
        dec = cliques_of(s)
        big = [c for c in dec.cliques if len(c) > bound]
        small_enough = [c for c in dec.cliques if 1 < len(c) <= bound]
        # Desk-scale structures rarely exceed the theoretical bound; shrink
        # any clique that the replacement would make smaller.
        target = None
        for c in big + small_enough:
            if len(c) > 3 * len({one_type_of(s, a) for a in c}):
                target = c
                break
        if target is None:
            return s
        s = shrink_clique(s, target).structure
        if not evaluate(s, phi):
            from .parsing import write_structure

            raise VerificationFailure(
                "clique shrinking lost the formula", write_structure(s)
            )


# ---------------------------------------------------------------------------
# Cells, diatoms and the cliquify reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationBudget:
    """Limits on the cell and diatom tables, checked before any cell is
    built: the full table takes at most max_unary unary predicates and
    max_diatoms diatoms, a model's realized table at most max_diatoms
    clique pairs."""

    max_unary: int = 2
    max_diatoms: int = 8192


def _check_budget(sig: Signature, n: int, budget: EnumerationBudget) -> None:
    """Refuse the tables of cliques up to size n before building any: a
    size-1 cell carries the distinguished relation either way, a size-s
    cell has it total, and each ordered cell pair gives three order types
    times every cross assignment of the ordinary binaries."""
    if n < 1:
        raise PreconditionError("clique size bound must be positive")
    u, b = len(sig.unary), len(sig.binary)
    if u > budget.max_unary:
        raise EnumerationBudgetError(
            f"enumeration refused: {u} unary predicates exceed the budget of "
            f"{budget.max_unary}"
        )
    cells = {s: 2 ** (u * s + b * s * s) for s in range(1, n + 1)}
    cells[1] *= 2
    predicted = sum(
        3 * ka * kb * 2 ** (2 * b * sa * sb)
        for sa, ka in cells.items()
        for sb, kb in cells.items()
    )
    if predicted > budget.max_diatoms:
        raise EnumerationBudgetError(
            f"diatom enumeration refused: {predicted} diatoms exceed the "
            f"budget of {budget.max_diatoms}"
        )


def _unary_assignments(sig: Signature, size: int):
    for bits in itertools.product(
        *(itertools.product((False, True), repeat=size) for _ in sig.unary)
    ):
        yield {
            p: frozenset(a for a in range(size) if row[a])
            for p, row in zip(sig.unary, bits)
        }


def _binary_assignments(sig: Signature, pairs: Sequence[Pair]):
    for bits in itertools.product(
        *(itertools.product((False, True), repeat=len(pairs)) for _ in sig.binary)
    ):
        yield {
            r: frozenset(p for p, present in zip(pairs, row) if present)
            for r, row in zip(sig.binary, bits)
        }


def enumerate_cells(
    sig: Signature, n: int, budget: Optional[EnumerationBudget] = None
) -> tuple[Structure, ...]:
    """All labelled one-clique structures over initial-segment carriers of
    size up to n.  A singleton carrier may carry the distinguished relation
    either way; larger cliques have it total."""
    budget = budget or EnumerationBudget()
    _check_budget(sig, n, budget)
    if sig.dist is not DistKind.TRANSITIVE:
        raise PreconditionError("cells are defined over transitive signatures")
    out: list[Structure] = []
    for size in range(1, n + 1):
        all_pairs = [(a, b) for a in range(size) for b in range(size)]
        if size == 1:
            dists = [frozenset(), frozenset({(0, 0)})]
        else:
            dists = [frozenset(all_pairs)]
        for dist in dists:
            for unary in _unary_assignments(sig, size):
                for binary in _binary_assignments(sig, all_pairs):
                    out.append(Structure(sig, size, unary, binary, dist))
    if len(out) < 2:
        raise VerificationFailure("cell enumeration is impossibly small")
    return tuple(out)


@dataclass(frozen=True)
class DiatomTable:
    """Two-clique structures over canonical carriers with their index
    algebra: left/right reference cells, the inverse involution and the
    order type."""

    sig: Signature
    n: int
    cells: tuple[Structure, ...]
    diatoms: tuple[Structure, ...]
    left: tuple[int, ...]  # L(k): cell index of the left clique
    right: tuple[int, ...]  # R(k)
    inverse: tuple[int, ...]  # I(k)
    order_type: tuple[str, ...]  # 'lt' | 'gt' | 'sim'
    # _structure_key of each cell and diatom -> its index
    cell_index: dict[tuple, int] = field(compare=False, repr=False)
    diatom_index: dict[tuple, int] = field(compare=False, repr=False)

    @property
    def m_cells(self) -> int:
        return len(self.cells)

    @property
    def n_diatoms(self) -> int:
        return len(self.diatoms)


def _structure_key(s: Structure, perm: Sequence[int] = ()) -> tuple:
    """A hashable key of s, or of its image under perm (a to perm[a])."""
    perm = perm or range(s.size)

    def pairs(ps: frozenset[Pair]) -> tuple:
        return tuple(sorted((perm[a], perm[b]) for a, b in ps))

    return (
        s.size,
        tuple(tuple(sorted(perm[a] for a in s.unary_of(p))) for p in s.sig.unary),
        tuple(pairs(s.binary_of(r)) for r in s.sig.binary),
        pairs(s.dist),
    )


def _diatom_structure(
    sig: Signature,
    left_cell: Structure,
    right_cell: Structure,
    kind: str,
    cross_binary: dict[str, frozenset[Pair]],
) -> Structure:
    ml, mr = left_cell.size, right_cell.size
    size = ml + mr
    unary = {
        p: frozenset(left_cell.unary_of(p))
        | frozenset(a + ml for a in right_cell.unary_of(p))
        for p in sig.unary
    }
    binary = {}
    for r in sig.binary:
        ext = set(left_cell.binary_of(r))
        ext.update((a + ml, b + ml) for a, b in right_cell.binary_of(r))
        ext.update(cross_binary.get(r, frozenset()))
        binary[r] = frozenset(ext)
    dist = set(left_cell.dist)
    dist.update((a + ml, b + ml) for a, b in right_cell.dist)
    if kind == "lt":
        dist.update((a, b + ml) for a in range(ml) for b in range(mr))
    elif kind == "gt":
        dist.update((b + ml, a) for a in range(ml) for b in range(mr))
    return Structure(sig, size, unary, binary, frozenset(dist))


def enumerate_diatoms(
    sig: Signature, n: int, budget: Optional[EnumerationBudget] = None
) -> DiatomTable:
    """All labelled two-clique structures built from cell pairs, an order
    type and (when ordinary binaries exist) all cross assignments."""
    cells = enumerate_cells(sig, n, budget)
    diatoms: list[tuple] = []
    for li, lc in enumerate(cells):
        for ri, rc in enumerate(cells):
            cross_pairs = [
                (a, b + lc.size) for a in range(lc.size) for b in range(rc.size)
            ] + [(b + lc.size, a) for a in range(lc.size) for b in range(rc.size)]
            for kind in ("lt", "gt", "sim"):
                for cross in _binary_assignments(sig, cross_pairs):
                    diatoms.append((_diatom_structure(sig, lc, rc, kind, cross), li, ri, kind))
    return _diatom_table(sig, n, cells, diatoms)


def realized_diatoms(s: Structure, budget: Optional[EnumerationBudget] = None) -> DiatomTable:
    """The cells and diatoms s realizes: one cell per distinct clique
    restriction, one diatom per distinct restriction to an ordered pair of
    cliques, with that pair's order type.  Its L(L-1) clique pairs are
    counted against max_diatoms before any is built."""
    budget = budget or EnumerationBudget()
    dec = cliques_of(s)
    if len(dec.cliques) < 2:
        raise PreconditionError("a realized table needs at least two cliques")
    pairs = list(itertools.permutations(range(len(dec.cliques)), 2))
    if len(pairs) > budget.max_diatoms:
        raise EnumerationBudgetError(
            f"diatom enumeration refused: {len(pairs)} clique pairs exceed the "
            f"budget of {budget.max_diatoms} diatoms"
        )
    members = [sorted(c) for c in dec.cliques]
    cells: dict[tuple, Structure] = {}
    keys = []
    for c in members:
        cell = _restrict(s, c).structure
        keys.append(_structure_key(cell))
        cells.setdefault(keys[-1], cell)
    cell_of = [list(cells).index(key) for key in keys]
    diatoms: dict[tuple, tuple] = {}
    for u, v in pairs:
        d = _restrict(s, members[u] + members[v]).structure
        diatoms.setdefault(_structure_key(d), (d, cell_of[u], cell_of[v], dec.relation(u, v)))
    return _diatom_table(s.sig, max(map(len, members)), tuple(cells.values()), list(diatoms.values()))


def _diatom_table(sig: Signature, n: int, cells: tuple, diatoms: Sequence[tuple]) -> DiatomTable:
    """The table of the given (diatom, left cell, right cell, order type)
    entries.  A diatom's inverse is the diatom with its two cliques
    swapped, found by key, and the index algebra is checked."""
    ds, lefts, rights, kinds = zip(*diatoms)
    index = {_structure_key(d): k for k, d in enumerate(ds)}
    inverse = tuple(
        index.get(_structure_key(d, [a + d.size - ml if a < ml else a - ml for a in range(d.size)]))
        for d, ml in zip(ds, (cells[j].size for j in lefts))
    )
    flip = {"lt": "gt", "gt": "lt", "sim": "sim"}
    for k, ik in enumerate(inverse):
        if ik is None or inverse[ik] != k:
            raise VerificationFailure("diatom inversion is not an involution")
        if kinds[ik] != flip[kinds[k]]:
            raise VerificationFailure("diatom inversion mishandles the order type")
        if lefts[ik] != rights[k] or rights[ik] != lefts[k]:
            raise VerificationFailure("diatom inversion mishandles the reference cells")
    if not 1 <= len(cells) <= len(ds):
        raise VerificationFailure("cell/diatom counts violate their basic bounds")
    cell_index = {_structure_key(c): j for j, c in enumerate(cells)}
    return DiatomTable(sig, n, cells, ds, lefts, rights, inverse, kinds, cell_index, index)


@dataclass(frozen=True)
class CliquifyResult:
    snf: StandardNF
    sig_hat: Signature
    table: DiatomTable
    tnf: TransitiveNF
    sig_t: Signature
    p_preds: tuple[str, ...]
    q_preds: tuple[str, ...]

    @property
    def multiplicity(self) -> int:
        return self.snf.multiplicity


def _literals(label: Formula) -> tuple[Formula, ...]:
    """A label's literals; a one-predicate label is its literal."""
    return label.subs if isinstance(label, And) else (label,)


def cliquify(
    tnf: TransitiveNF,
    sig_t: Signature,
    n: int,
    budget: Optional[EnumerationBudget] = None,
) -> CliquifyResult:
    """Compile a transitive-normal-form formula into a partial-order
    standard normal form over clique labels, over the full table of the
    cells and diatoms of cliques up to size n.

    A model with at least two cliques, all of size at most n, abstracts to
    a model of the output; any model of the output of size L expands to a
    model of the input of size at most n * L.  The output's multiplicity is
    exactly 4mn.
    """
    if sig_t.dist is not DistKind.TRANSITIVE:
        raise PreconditionError("cliquify needs a transitive signature")
    return cliquify_over(tnf, enumerate_diatoms(sig_t, n, budget))


def cliquify_over(tnf: TransitiveNF, table: DiatomTable) -> CliquifyResult:
    """cliquify over the full table, or over the cells and diatoms one
    model realizes; then "every element names a cell, every pair a diatom"
    restricts the output to them.  Each label is built once and shared
    wherever it occurs, and ``simplify`` leaves eta and every theta
    unchanged."""
    sig_t, n, m = table.sig, table.n, tnf.multiplicity
    m_cells, n_diatoms = table.m_cells, table.n_diatoms
    s_bits = max(1, math.ceil(math.log2(m_cells)))
    t_bits = max(1, math.ceil(math.log2(n_diatoms)))
    p_preds = tuple(f"cp{i}" for i in range(s_bits))
    q_preds = tuple(f"dq{i}" for i in range(t_bits))
    sig_hat = Signature(p_preds, q_preds, DistKind.PARTIAL_ORDER)
    cell_x = labels(p_preds, m_cells, ("x",))
    cell_y = labels(p_preds, m_cells, ("y",))
    diatom_xy = labels(q_preds, n_diatoms, ("x", "y"))
    diatom_yx = labels(q_preds, n_diatoms, ("y", "x"))

    within = Forall("x", Forall("y", Or((Eq("x", "y"), tnf.etas[0]))))
    acrosses = [
        Forall("x", Forall("y", Implies(t_rel(s), tnf.etas[s_idx])))
        for s_idx, s in enumerate(S_ORDER[1:], start=1)
    ]
    # Within-clique witnesses, read at each carrier position x.
    witnesses = [
        Implies(
            Atom(tnf.guards[h][0], ("x",)),
            Exists("y", And((neg(Eq("x", "y")), t_rel("eq"), tnf.thetas[h][0]))),
        )
        for h in range(m)
    ]
    # evaluate's check, made once: the unchecked reads below bind x and y.
    cross = tuple(th for ths in tnf.thetas for th in ths[1:])
    free = free_vars(And((within, *acrosses, *witnesses, *cross))) - {"x", "y"}
    if free:
        raise PreconditionError(f"unassigned free variables {sorted(free)}")
    env: dict[str, int] = {}

    def positions(holds, f: Formula, xs: range, ys: range = range(1)) -> frozenset[int]:
        """The x in xs at which f holds for some y in ys."""
        out = set()
        for x, y in itertools.product(xs, ys):
            env["x"], env["y"] = x, y
            if x not in out and holds(f):
                out.add(x)
        return frozenset(out)

    # One truth walk per cell reads its within part and witnesses, one per
    # diatom its three cross parts and each theta of its order type.
    cell_reads = []
    for c in table.cells:
        holds = tarski(c, env)
        cell_reads.append((holds(within), [positions(holds, w, range(c.size)) for w in witnesses]))
    diatom_reads = []
    for k, d in enumerate(table.diatoms):
        holds = tarski(d, env)
        ml, s_idx = table.cells[table.left[k]].size, S_ORDER.index(table.order_type[k])
        diatom_reads.append((
            [holds(f) for f in acrosses],
            [positions(holds, tnf.thetas[h][s_idx], range(ml), range(ml, d.size)) for h in range(m)],
        ))

    eta_parts: list[Formula] = []
    # Every element names a cell, every ordered pair a diatom.
    eta_parts.append(disj(tuple(cell_x)))
    eta_parts.append(disj(tuple(diatom_xy)))
    # Diatom labels agree with the cell labels of their endpoints.
    eta_parts.extend(
        Implies(
            diatom_xy[k],
            And(_literals(cell_x[table.left[k]]) + _literals(cell_y[table.right[k]])),
        )
        for k in range(n_diatoms)
    )
    # The reversed pair names the inverse diatom.
    eta_parts.extend(
        Implies(diatom_xy[k], diatom_yx[table.inverse[k]]) for k in range(n_diatoms)
    )
    # The partial order mirrors the diatom's order type.
    nav_atom = {"lt": atom("<", "x", "y"), "gt": atom("<", "y", "x"), "sim": atom("~", "x", "y")}
    eta_parts.extend(
        Implies(diatom_xy[k], nav_atom[table.order_type[k]]) for k in range(n_diatoms)
    )
    # Universal matrix: within cells and across diatoms.  Over the full
    # table each list holds at least two labels, so each part is a
    # disjunction: vacuously, every one-element cell passes the within-cell
    # check, every sim diatom the lt and gt checks, and every lt diatom the
    # sim check.
    eta_parts.append(disj(tuple(cell_x[j] for j, r in enumerate(cell_reads) if r[0])))
    for s_idx in range(3):
        eta_parts.append(
            disj(tuple(diatom_xy[k] for k, r in enumerate(diatom_reads) if r[0][s_idx]))
        )
    eta = And(tuple(eta_parts))

    thetas: list[Formula] = []
    for h in range(m):
        guards = tnf.guards[h]
        # Within-clique witnesses, one conjunct per carrier position.
        for i in range(n):
            ok = [
                j
                for j, c in enumerate(table.cells)
                if i >= c.size or i in cell_reads[j][1][h]
            ]
            thetas.append(disj(tuple(cell_x[j] for j in ok)))
        # Cross-clique witnesses per order type and carrier position.
        for s_idx, s in enumerate(S_ORDER[1:], start=1):
            for i in range(n):
                nu = disj(
                    tuple(
                        cell_x[j]
                        for j, c in enumerate(table.cells)
                        if i < c.size and i in c.unary_of(guards[s_idx])
                    )
                )
                xi = disj(
                    tuple(
                        diatom_xy[k]
                        for k in range(n_diatoms)
                        if table.order_type[k] == s and i in diatom_reads[k][1][h]
                    )
                )
                # nu -> xi, with the constants folded as simplify would.
                if nu == FALSE:
                    thetas.append(TRUE)
                else:
                    thetas.append(neg(nu) if xi == FALSE else Implies(nu, xi))
    snf = StandardNF(eta, tuple(thetas))
    if snf.multiplicity != 4 * m * n:
        raise VerificationFailure("cliquify multiplicity bookkeeping is off")
    return CliquifyResult(snf, sig_hat, table, tnf, sig_t, p_preds, q_preds)


def abstract_model(res: CliquifyResult, s: Structure) -> Structure:
    """Map a model of the transitive formula to a model of the clique-level
    formula: one element per clique, labelled by reference cell and
    reference diatom, ordered by the clique order."""
    if not evaluate(s, res.tnf.to_formula()):
        raise PreconditionError("structure is not a model of the input")
    dec = cliques_of(s)
    if len(dec.cliques) < 2:
        raise PreconditionError("abstraction needs at least two cliques")
    cell_of = []
    for c in dec.cliques:
        if len(c) > res.table.n:
            raise PreconditionError(f"clique of size {len(c)} exceeds the bound {res.table.n}")
        cell_of.append(res.table.cell_index[_structure_key(_restrict(s, sorted(c)).structure)])
    n_cl = len(dec.cliques)
    unary = {
        p: frozenset(u for u in range(n_cl) if (cell_of[u] >> i) & 1)
        for i, p in enumerate(res.p_preds)
    }
    binary = {q: set() for q in res.q_preds}
    for u, v in itertools.permutations(range(n_cl), 2):
        pair = _restrict(s, sorted(dec.cliques[u]) + sorted(dec.cliques[v]))
        k = res.table.diatom_index[_structure_key(pair.structure)]
        for i, q in enumerate(res.q_preds):
            if (k >> i) & 1:
                binary[q].add((u, v))
    order = frozenset(dec.order)
    out = Structure(
        res.sig_hat,
        n_cl,
        unary,
        {q: frozenset(v) for q, v in binary.items()},
        order,
    )
    if not res.snf.holds(out):
        from .parsing import write_structure

        raise VerificationFailure(
            "abstraction fails the clique-level formula", write_structure(s)
        )
    return out


def expand_model(res: CliquifyResult, b: Structure) -> Structure:
    """Expand a model of the clique-level formula: a fresh copy of each
    element's reference cell, cross structure per reference diatom.

    Consistency of the copies (no clashes, transitivity) is asserted and
    the result is verified against the transitive formula; the size is at
    most n times the input's."""
    if not res.snf.holds(b):
        raise PreconditionError("structure is not a model of the clique-level formula")
    table = res.table
    cell_of = []
    for u in b.domain():
        j = sum(
            (1 << i) for i, p in enumerate(res.p_preds) if u in b.unary_of(p)
        )
        if j >= table.m_cells:
            raise VerificationFailure("element labelled with a nonexistent cell")
        cell_of.append(j)
    offsets = []
    total = 0
    for u in b.domain():
        offsets.append(total)
        total += table.cells[cell_of[u]].size
    sig = res.sig_t
    unary = {p: set() for p in sig.unary}
    binary = {r: set() for r in sig.binary}
    dist: set[Pair] = set()
    for u in b.domain():
        cell = table.cells[cell_of[u]]
        off = offsets[u]
        for p in sig.unary:
            unary[p].update(a + off for a in cell.unary_of(p))
        for r in sig.binary:
            binary[r].update((a + off, c + off) for a, c in cell.binary_of(r))
        dist.update((a + off, c + off) for a, c in cell.dist)
    for u, v in itertools.combinations(b.domain(), 2):
        k = sum(
            (1 << i)
            for i, q in enumerate(res.q_preds)
            if (u, v) in b.binary_of(q)
        )
        k_rev = sum(
            (1 << i)
            for i, q in enumerate(res.q_preds)
            if (v, u) in b.binary_of(q)
        )
        if k >= table.n_diatoms or k_rev != table.inverse[k]:
            raise VerificationFailure("pair labels are inconsistent with inversion")
        if table.left[k] != cell_of[u] or table.right[k] != cell_of[v]:
            raise VerificationFailure("pair label clashes with its endpoint cells")
        d = table.diatoms[k]
        ml = table.cells[table.left[k]].size
        for a in range(ml):
            for c in range(d.size - ml):
                ga, gc = a + offsets[u], c + offsets[v]
                for r in sig.binary:
                    if (a, c + ml) in d.binary_of(r):
                        binary[r].add((ga, gc))
                    if (c + ml, a) in d.binary_of(r):
                        binary[r].add((gc, ga))
                if (a, c + ml) in d.dist:
                    dist.add((ga, gc))
                if (c + ml, a) in d.dist:
                    dist.add((gc, ga))
    out = Structure(
        sig,
        total,
        {p: frozenset(v) for p, v in unary.items()},
        {r: frozenset(v) for r, v in binary.items()},
        frozenset(dist),
    )
    from .logic import check_distinguished

    if check_distinguished(out):
        raise VerificationFailure("expansion broke transitivity")
    if total > table.n * b.size:
        raise VerificationFailure("expansion exceeded its size bound")
    if not evaluate(out, res.tnf.to_formula()):
        from .parsing import write_structure

        raise VerificationFailure(
            "expansion fails the transitive formula", write_structure(b)
        )
    return out
