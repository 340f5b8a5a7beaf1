"""Block-size reduction: sub-blocks and the two-object replacement.

Elements of a block are grouped by their sub-type (which blocks lie below
and above them); each sub-block is replaced by one object when its block is
a unit block and by a pair of left/right objects otherwise.  Existential
edges relate like sides only, so left objects stay incomparable to the
right objects of incomparable partners, which preserves incomparable
witnesses; universal edges from the block order relate everything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .factorization import (
    Factorization,
    TypedPartialOrder,
    block_invariant_violation,
    transitive_closure,
)
from .logic import LogicError, Pair, PreconditionError, VerificationFailure
from .normal_forms import BasicFormula
from .parsing import write_structure


@dataclass(frozen=True)
class SubType:
    """Blocks below the element, its own block, blocks above it.

    The element's own block may appear on either side (or both).
    """

    below: frozenset[int]
    block: int
    above: frozenset[int]


@dataclass(frozen=True)
class SubBlock:
    members: frozenset[int]
    sub_type: SubType


def sub_blocks(f: Factorization) -> tuple[SubBlock, ...]:
    """Partition of the carrier into maximal same-sub-type groups."""
    tpo = f.tpo
    groups: dict[SubType, set[int]] = {}
    for a in tpo.carrier():
        below = frozenset(
            i for i in range(f.n_blocks) if any(tpo.less(b, a) for b in f.blocks[i])
        )
        above = frozenset(
            i for i in range(f.n_blocks) if any(tpo.less(a, b) for b in f.blocks[i])
        )
        st = SubType(below, f.block_of[a], above)
        groups.setdefault(st, set()).add(a)
    out = tuple(
        SubBlock(frozenset(members), st)
        for st, members in sorted(groups.items(), key=lambda kv: min(kv[1]))
    )
    n_types = 2 ** len(tpo.sig.one_type_keys())
    if exceeds_power(len(out), f.n_blocks, 2 * n_types + 1):
        raise VerificationFailure("sub-block count exceeds its stated bound")
    return out


def exceeds_power(n: int, base: int, exp: int) -> bool:
    """n > base ** exp for n, base, exp >= 0, without building the power
    when it is past n: a base of at least 2 and an exponent of at least
    n's bit length give a power above n."""
    if base >= 2 and exp >= n.bit_length():
        return False
    return n > base**exp


def _monotone_step(s: SubType, t: SubType) -> bool:
    """The strict monotonicity every existential or universal edge must
    satisfy; rules out directed cycles through distinct sub-types."""
    if not (s.below <= t.below and s.above >= t.above):
        return False
    s_up = {s.block} | s.above
    t_up = {t.block} | t.above
    if not s_up >= t_up:
        return False
    return s.below != t.below or s.above != t.above or s_up != t_up


@dataclass(frozen=True)
class HatResult:
    """The shrunken order plus enough construction detail to audit it."""

    tpo: TypedPartialOrder
    factorization: Factorization
    subs: tuple[SubBlock, ...]
    object_of: dict[tuple[int, int], int]  # (sub-block index, side) -> object
    sub_of_object: dict[int, int]
    r_exists: frozenset[Pair]
    r_forall: frozenset[Pair]
    block_map: dict[int, int]  # original block index -> hat block index


def shrink_blocks(f: Factorization, psis: Sequence[BasicFormula]) -> HatResult:
    """Replace every sub-block by at most two objects, preserving the basic
    set.

    Preconditions: the block invariants of ``block_invariant_violation``.
    The result satisfies the basic set (checked), its factorization is
    isomorphic to the input's (checked), and its size is at most twice the
    number of sub-blocks and at least 2.
    """
    broken = block_invariant_violation(f, psis)
    if broken:
        raise PreconditionError(broken)
    tpo = f.tpo
    subs = sub_blocks(f)
    object_of: dict[tuple[int, int], int] = {}
    sub_of_object: dict[int, int] = {}
    next_id = 0
    for si, sb in enumerate(subs):
        if f.is_unit(sb.sub_type.block):
            object_of[(si, 0)] = object_of[(si, 1)] = next_id
            sub_of_object[next_id] = si
            next_id += 1
        else:
            for side in (0, 1):
                object_of[(si, side)] = next_id
                sub_of_object[next_id] = si
                next_id += 1
    if next_id < 2:
        raise VerificationFailure("shrunken carrier below the 2-element convention")

    r_exists: set[Pair] = set()
    r_forall: set[Pair] = set()
    member_min = [min(sb.members) for sb in subs]
    for si, sb in enumerate(subs):
        for ti, tb in enumerate(subs):
            if si == ti:
                continue
            edge_e = any(
                tpo.less(a, b) for a in sb.members for b in tb.members
            )
            edge_a = f.less(sb.sub_type.block, tb.sub_type.block)
            if edge_e:
                for side in (0, 1):
                    r_exists.add((object_of[(si, side)], object_of[(ti, side)]))
            if edge_a:
                for i, j in itertools.product((0, 1), repeat=2):
                    r_forall.add((object_of[(si, i)], object_of[(ti, j)]))
            if edge_e or edge_a:
                if not _monotone_step(sb.sub_type, tb.sub_type):
                    raise VerificationFailure(
                        f"edge {member_min[si]}->{member_min[ti]} violates sub-type monotonicity"
                    )
    order = transitive_closure(r_exists | r_forall)
    types = tuple(
        f.block_types[subs[sub_of_object[o]].sub_type.block] for o in range(next_id)
    )
    hat_tpo = TypedPartialOrder(types, order)  # validates acyclicity

    blocks: dict[int, set[int]] = {}
    for (si, _side), obj in object_of.items():
        blocks.setdefault(subs[si].sub_type.block, set()).add(obj)
    hat_blocks = sorted(blocks.items(), key=lambda kv: min(kv[1]))
    block_map = {orig: k for k, (orig, _objs) in enumerate(hat_blocks)}
    hat_order = frozenset(
        (block_map[i], block_map[j]) for i, j in f.order
    )
    hat_f = Factorization(
        hat_tpo, tuple(frozenset(objs) for _orig, objs in hat_blocks), hat_order
    )
    # The factorizations must be isomorphic as typed partial orders.
    for i, j in itertools.permutations(range(f.n_blocks), 2):
        if f.less(i, j) != hat_f.less(block_map[i], block_map[j]):
            raise VerificationFailure("hat factorization is not order-isomorphic")
    for i in range(f.n_blocks):
        if f.block_types[i] != hat_f.block_types[block_map[i]]:
            raise VerificationFailure("hat factorization is not type-isomorphic")
    if hat_tpo.size > 2 * len(subs):
        raise VerificationFailure("shrunken carrier exceeds twice the sub-block count")
    if not hat_tpo.satisfies(psis):
        raise VerificationFailure(
            "shrunken order lost the basic set",
            write_structure(tpo.to_structure()) + write_structure(hat_tpo.to_structure()),
        )
    return HatResult(
        hat_tpo,
        hat_f,
        subs,
        object_of,
        sub_of_object,
        frozenset(r_exists),
        frozenset(r_forall),
        block_map,
    )


def incomparable_witness_check(f: Factorization, hat: HatResult) -> list[str]:
    """Every incomparable pair must survive objectwise: for incomparable
    a, b with sub-blocks s, t, each object of s has an incomparable partner
    among t's objects.  Returns violations; expected empty."""
    tpo = f.tpo
    sub_index: dict[int, int] = {}
    for si, sb in enumerate(hat.subs):
        for a in sb.members:
            sub_index[a] = si
    out = []
    for a, b in itertools.permutations(tpo.carrier(), 2):
        if not tpo.sim(a, b):
            continue
        si, ti = sub_index[a], sub_index[b]
        for side in (0, 1):
            c = hat.object_of[(si, side)]
            if not any(
                hat.tpo.sim(c, hat.object_of[(ti, other)])
                for other in (0, 1)
            ):
                out.append(f"object {c} of sub-block {si} lost its incomparable partner in {ti}")
    return out
