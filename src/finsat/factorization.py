"""Typed partial orders and their factorization algebra.

A factorization partitions a typed partial order into type-homogeneous
blocks with a block order that is linear per 1-type and implies the
element order block-wise.  Refinement, unit refinement and the derived
orders (inter-block, intra-block, extremal) are the raw material for the
block-count and block-size reductions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .logic import (
    DistKind,
    LogicError,
    OneType,
    Pair,
    PreconditionError,
    Signature,
    Structure,
    VerificationFailure,
    evaluate,
    one_type_of,
    order_violations,
)
from .normal_forms import BasicFormula, BasicKind, basic_set_formula, fc_subset


def transitive_closure(pairs: Iterable[Pair]) -> frozenset[Pair]:
    """The pairs joined by a path of one or more steps: Warshall's
    algorithm over bit rows, bit j of rows[i] standing for (nodes[i],
    nodes[j])."""
    pairs = list(pairs)
    nodes = sorted({a for pair in pairs for a in pair})
    index = {a: i for i, a in enumerate(nodes)}
    rows = [0] * len(nodes)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    for k in range(len(nodes)):
        rk, bit = rows[k], 1 << k
        if rk:
            rows = [r | rk if r & bit else r for r in rows]
    bits = (enumerate(reversed(bin(r))) for r in rows)
    return frozenset((a, nodes[j]) for a, row in zip(nodes, bits) for j, c in row if c == "1")


def _extremal(types: Sequence[OneType], less) -> frozenset[int]:
    """The indices that are minimal or maximal among those of their type."""
    out = set()
    for a, tp in enumerate(types):
        same = [b for b, other in enumerate(types) if other == tp]
        if not any(less(a, b) for b in same) or not any(less(b, a) for b in same):
            out.add(a)
    return frozenset(out)


@dataclass(frozen=True)
class TypedPartialOrder:
    """Carrier 0..n-1 with a strict order and a 1-type per element."""

    types: tuple[OneType, ...]
    order: frozenset[Pair]

    def __post_init__(self) -> None:
        if len(self.types) < 2:
            raise LogicError("typed partial orders have at least 2 elements")
        sig = self.types[0].sig
        if any(tp.sig != sig for tp in self.types):
            raise LogicError("mixed signatures in type map")
        if sig.dist is not DistKind.PARTIAL_ORDER or sig.binary:
            raise LogicError("typed partial orders live over unary partial-order signatures")
        n = len(self.types)
        if not all(0 <= a < n and 0 <= b < n for a, b in self.order):
            raise LogicError("order pair outside carrier")
        if order_violations(self.order, strict=True):
            raise LogicError("element order is not a strict partial order")

    @property
    def sig(self) -> Signature:
        return self.types[0].sig

    @property
    def size(self) -> int:
        return len(self.types)

    def carrier(self) -> range:
        return range(self.size)

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.order

    def sim(self, a: int, b: int) -> bool:
        return a != b and (a, b) not in self.order and (b, a) not in self.order

    @cached_property
    def extremal_elements(self) -> frozenset[int]:
        return _extremal(self.types, self.less)

    def to_structure(self) -> Structure:
        sig = self.sig
        unary = {
            p: frozenset(a for a in self.carrier() if self.types[a].unary_polarity(p))
            for p in sig.unary
        }
        return Structure(sig, self.size, unary, {}, self.order)

    @classmethod
    def from_structure(cls, s: Structure) -> "TypedPartialOrder":
        return cls(tuple(one_type_of(s, a) for a in s.domain()), s.dist)

    def satisfies(self, psis: Sequence[BasicFormula]) -> bool:
        return evaluate(self.to_structure(), basic_set_formula(psis))


@dataclass(frozen=True)
class Factorization:
    """Blocks (sorted by least member) plus the full strict block order."""

    tpo: TypedPartialOrder
    blocks: tuple[frozenset[int], ...]
    order: frozenset[Pair]  # over block indices

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise LogicError("empty block")
            if seen & b:
                raise LogicError("blocks overlap")
            seen |= b
        if seen != set(self.tpo.carrier()):
            raise LogicError("blocks do not cover the carrier")
        if order_violations(self.order, strict=True):
            raise LogicError("block order is not a strict partial order")
        k = len(self.blocks)
        if not all(0 <= i < k and 0 <= j < k for i, j in self.order):
            raise LogicError("block order index out of range")
        # (F1) type homogeneity
        for b in self.blocks:
            types = {self.tpo.types[a] for a in b}
            if len(types) != 1:
                raise LogicError("block is not type-homogeneous")
        # (F2) per-type linearity
        for pi in set(self.block_types):
            idxs = [i for i, t in enumerate(self.block_types) if t == pi]
            for i, j in itertools.combinations(idxs, 2):
                if (i, j) not in self.order and (j, i) not in self.order:
                    raise LogicError("same-type blocks incomparable")
        # (F3) block order implies element order
        for i, j in self.order:
            for a in self.blocks[i]:
                for b in self.blocks[j]:
                    if not self.tpo.less(a, b):
                        raise LogicError("block order not supported by element order")

    @cached_property
    def block_types(self) -> tuple[OneType, ...]:
        return tuple(self.tpo.types[min(b)] for b in self.blocks)

    @cached_property
    def depths(self) -> dict[int, int]:
        """Longest ascending chain length from each block; 0 at the top.

        The order is transitive, so a block has fewer blocks above it than
        any block below it: ordering by that count visits successors first."""
        above: dict[int, list[int]] = {i: [] for i in range(self.n_blocks)}
        for i, j in self.order:
            above[i].append(j)
        out: dict[int, int] = {}
        for i in sorted(above, key=lambda i: len(above[i])):
            out[i] = 1 + max((out[j] for j in above[i]), default=-1)
        return out

    @cached_property
    def block_of(self) -> dict[int, int]:
        return {a: i for i, b in enumerate(self.blocks) for a in b}

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def less(self, i: int, j: int) -> bool:
        return (i, j) in self.order

    def is_unit(self, i: int) -> bool:
        return len(self.blocks[i]) == 1

    def linearly_ordered(self, i: int) -> bool:
        return all(
            self.tpo.less(a, b) or self.tpo.less(b, a)
            for a, b in itertools.combinations(sorted(self.blocks[i]), 2)
        )

    @property
    def is_unitary(self) -> bool:
        return all(self.is_unit(i) or not self.linearly_ordered(i) for i in range(self.n_blocks))

    @cached_property
    def extremal_blocks(self) -> frozenset[int]:
        return _extremal(self.block_types, self.less)

    def covers(self) -> frozenset[Pair]:
        """Transitive reduction of the block order."""
        return frozenset(
            (i, j)
            for i, j in self.order
            if not any((i, k) in self.order and (k, j) in self.order for k in range(self.n_blocks))
        )

    def with_tpo(self, tpo: TypedPartialOrder) -> "Factorization":
        return Factorization(tpo, self.blocks, self.order)


def _mk(tpo: TypedPartialOrder, blocks: Iterable[frozenset[int]], pairs: Iterable[tuple[frozenset[int], frozenset[int]]]) -> Factorization:
    """Build a factorization with canonically sorted blocks."""
    blist = sorted(blocks, key=min)
    index = {b: i for i, b in enumerate(blist)}
    order = frozenset((index[a], index[b]) for a, b in pairs)
    return Factorization(tpo, tuple(blist), order)


def _type_classes(tpo: TypedPartialOrder) -> dict[OneType, frozenset[int]]:
    out: dict[OneType, set[int]] = {}
    for a in tpo.carrier():
        out.setdefault(tpo.types[a], set()).add(a)
    return {t: frozenset(s) for t, s in out.items()}


def trivial_factorization(tpo: TypedPartialOrder) -> Factorization:
    """One block per realized 1-type, empty block order."""
    return _mk(tpo, _type_classes(tpo).values(), ())


def factor_for_b3(tpo: TypedPartialOrder, alpha: OneType, beta: OneType) -> Factorization:
    """A factorization putting the alpha class below the beta class.

    Requires every alpha element to lie below every beta element.
    """
    classes = _type_classes(tpo)
    a_cls = classes.get(alpha, frozenset())
    b_cls = classes.get(beta, frozenset())
    for a in a_cls:
        for b in b_cls:
            if not tpo.less(a, b):
                raise PreconditionError(f"pair ({a},{b}) violates the forced order")
    pairs = [(a_cls, b_cls)] if a_cls and b_cls else []
    return _mk(tpo, classes.values(), pairs)


def factor_for_b5b(tpo: TypedPartialOrder, alpha: OneType, beta: OneType) -> Factorization:
    """A factorization whose alpha-or-beta blocks form a chain.

    Requires every alpha element to be comparable with every beta element;
    blocks are the classes of elements indistinguishable by the opposite
    class.
    """
    classes = _type_classes(tpo)
    a0 = sorted(classes.get(alpha, frozenset()))
    b0 = sorted(classes.get(beta, frozenset()))
    for a in a0:
        for b in b0:
            if not (tpo.less(a, b) or tpo.less(b, a)):
                raise PreconditionError(f"pair ({a},{b}) is incomparable")
    if not a0 or not b0:
        return trivial_factorization(tpo)
    blocks: list[frozenset[int]] = []
    for side, other in ((a0, b0), (b0, a0)):
        groups: dict[frozenset[int], set[int]] = {}
        for a in side:
            key = frozenset(b for b in other if tpo.less(a, b))
            groups.setdefault(key, set()).add(a)
        blocks.extend(frozenset(g) for g in groups.values())
    ab = set(blocks)
    blocks.extend(
        cls for t, cls in classes.items() if t not in (alpha, beta)
    )
    pairs = [
        (c, d)
        for c in ab
        for d in ab
        if c != d and any(tpo.less(x, y) for x in c for y in d)
    ]
    return _mk(tpo, blocks, pairs)


def common_refinement(f1: Factorization, f2: Factorization) -> Factorization:
    """The pairwise-intersection factorization refining both inputs."""
    if f1.tpo != f2.tpo:
        raise PreconditionError("factorizations of different typed partial orders")
    cells = [
        b1 & b2 for b1 in f1.blocks for b2 in f2.blocks if b1 & b2
    ]
    loc = {min(c): (f1.block_of[min(c)], f2.block_of[min(c)]) for c in cells}
    base = []
    for c, d in itertools.permutations(cells, 2):
        a1, a2 = loc[min(c)]
        b1, b2 = loc[min(d)]
        if f1.less(a1, b1) or f2.less(a2, b2):
            base.append((min(c), min(d)))
    closure = transitive_closure(base)
    by_min = {min(c): c for c in cells}
    return _mk(
        f1.tpo,
        cells,
        [(by_min[a], by_min[b]) for a, b in closure],
    )


def unit_refinement(f: Factorization) -> Factorization:
    """Split every linearly ordered block into a chain of unit blocks."""
    tpo = f.tpo
    pieces: dict[int, list[frozenset[int]]] = {}
    for i in range(f.n_blocks):
        if f.linearly_ordered(i) and not f.is_unit(i):
            pieces[i] = [frozenset((a,)) for a in sorted(f.blocks[i])]
        else:
            pieces[i] = [f.blocks[i]]
    base: list[tuple[frozenset[int], frozenset[int]]] = []
    for i, j in f.order:
        base.extend((c, d) for c in pieces[i] for d in pieces[j])
    for i, parts in pieces.items():
        if len(parts) > 1:
            base.extend(
                (c, d)
                for c, d in itertools.permutations(parts, 2)
                if tpo.less(min(c), min(d))
            )
    blocks = [c for parts in pieces.values() for c in parts]
    by_min = {min(c): c for c in blocks}
    closure = transitive_closure([(min(c), min(d)) for c, d in base])
    return _mk(tpo, blocks, [(by_min[a], by_min[b]) for a, b in closure])


def fc_holds(f: Factorization, psi: BasicFormula) -> bool:
    """Whether the block order alone guarantees a factor-controllable
    constraint."""
    if not psi.factor_controllable:
        raise PreconditionError(f"{psi.kind.value} is not factor-controllable")
    a_idx = [i for i, t in enumerate(f.block_types) if t == psi.alpha]
    b_idx = [i for i, t in enumerate(f.block_types) if t == psi.beta]
    if psi.kind is BasicKind.B3:
        return all(f.less(i, j) for i in a_idx for j in b_idx)
    both = a_idx + b_idx
    return all(
        f.less(i, j) or f.less(j, i) for i, j in itertools.combinations(both, 2)
    )


def factorize_for(
    tpo: TypedPartialOrder, psis: Sequence[BasicFormula]
) -> Factorization:
    """A unitary factorization controlling every factor-controllable member.

    The typed partial order must satisfy the whole basic set; built by
    refining the per-formula factorizations and then splitting linearly
    ordered blocks into units.
    """
    if not tpo.satisfies(psis):
        raise PreconditionError("structure does not satisfy the basic set")
    f = trivial_factorization(tpo)
    for psi in fc_subset(psis):
        if psi.kind is BasicKind.B3:
            g = factor_for_b3(tpo, psi.alpha, psi.beta)
        else:
            g = factor_for_b5b(tpo, psi.alpha, psi.beta)
        f = common_refinement(f, g)
    f = unit_refinement(f)
    if not f.is_unitary:
        raise VerificationFailure("unit refinement failed to produce a unitary factorization")
    for psi in fc_subset(psis):
        if not fc_holds(f, psi):
            raise VerificationFailure("refinement lost a factor-controllable constraint")
    return f


@dataclass(frozen=True)
class DerivedOrders:
    """Inter-block, intra-block and extremal element orders plus their
    transitive closure."""

    inter: frozenset[Pair]
    intra: frozenset[Pair]
    extremal: frozenset[Pair]

    @cached_property
    def lessdot(self) -> frozenset[Pair]:
        return transitive_closure(self.inter | self.intra | self.extremal)


def derived_orders(f: Factorization) -> DerivedOrders:
    tpo = f.tpo
    inter = frozenset(
        (a, b)
        for i, j in f.order
        for a in f.blocks[i]
        for b in f.blocks[j]
    )
    intra = frozenset(
        (a, b) for a, b in tpo.order if f.block_of[a] == f.block_of[b]
    )
    ext = tpo.extremal_elements
    extremal = frozenset((a, b) for a, b in tpo.order if a in ext and b in ext)
    return DerivedOrders(inter, intra, extremal)


def thin(f: Factorization) -> TypedPartialOrder:
    """Replace the element order by the closure of the derived orders."""
    return TypedPartialOrder(f.tpo.types, derived_orders(f).lessdot)


def is_thin(f: Factorization) -> bool:
    return derived_orders(f).lessdot == f.tpo.order


def block_invariant_violation(f: Factorization, psis: Sequence[BasicFormula]) -> Optional[str]:
    """The first of the block reductions' four invariants that fails, or
    None: the order satisfies the basic set, the factorization is unitary,
    the order is thin over it, and it controls every factor-controllable
    member of the basic set."""
    if not f.tpo.satisfies(psis):
        return "the basic set does not hold"
    if not f.is_unitary:
        return "the factorization is not unitary"
    if not is_thin(f):
        return "the order is not thin over the factorization"
    if not all(fc_holds(f, psi) for psi in fc_subset(psis)):
        return "a factor-controllable member is not controlled"
    return None
