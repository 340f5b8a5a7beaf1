"""The grounded engine: a formula over a fixed domain as propositional
clauses, solved by the CDCL solver in cdcl.py.

The root is asserted, not named: conjunctions split into separate
constraints and a disjunction becomes one clause, so only what sits below
a disjunction gets a definition variable.  Quantifiers expand over the
domain, but each maximal quantifier-free subformula (a matrix) is compiled,
under the polarity it occurs with, only once per equality pattern of its
free variables (x = y or x != y, say).  The compiled template lists the atoms the
matrix still reads, keyed by pattern positions rather than elements, its
gates in topological order, and its top node, kept unlowered so that an
asserted matrix still splits into clauses.  An instance maps the atoms to
variables and re-hashes the gates; a pattern under which the matrix is
constant costs nothing and creates no variables.  Every gate is an "and" of
literals (an "or" is the negated "and" of the negated literals), keyed by
its sorted literal set, so one distinct gate gets one variable per size
searched, wherever it occurs.  Gate definitions are two-sided, and reach
the solver as items (z, key), z <-> AND(key), in the clause list where
their clauses would stand: the solver loads an item straight into its
watch and implication lists, so the k + 1 clauses are never built.

Grounding cost follows distinct nodes, not occurrences: a shared
subformula is one object reached along several paths, as in cliquify's
output, the bodies basic formulas share, or a parsed '<->'.  Plans:
_plan walks a quantifier-free node once whatever its polarity, and gives
each (node, polarity) one _Matrix, so each template is compiled once.
Templates: folding and lowering visit each node of a matrix once per
compile.  Instances: one encode instances each matrix and quantified plan
once per assignment of its free variables, and lowers each instanced node
to a literal once.  The clauses are those of an unshared copy.

cdcl.py follows Chaff (Moskewicz et al., DAC 2001) and MiniSat (Een and
Sorensson, SAT 2003).  Unit propagation watches two literals of each long
clause; a binary clause lives only in two implication lists.  Each
conflict is analysed back to its first unique implication point, and the
learnt clause is minimized locally: a literal goes if its reason holds only
literals already in the clause.  Branching takes the unassigned atom
variable of highest VSIDS activity from a heap that holds each at most
once, and gives it the polarity it last had (phase saving), false at
first.  Gate variables are never branched on: once every atom is set, the
two-sided definitions fix them by propagation.  The search restarts after
100 times the next Luby term of conflicts.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .cdcl import CDCL
from .logic import (
    And,
    Atom,
    DistKind,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    LogicError,
    Not,
    Or,
    PreconditionError,
    Signature,
    Structure,
    VerificationFailure,
    atom_key,
    tarski,
)


class _Matrix:
    """A maximal quantifier-free subformula under the polarity it occurs
    with, and its compiled templates, one per equality pattern of its free
    variables."""

    __slots__ = ("formula", "pol", "vars", "templates")

    def __init__(self, formula: Formula, pol: bool, free: frozenset[str]) -> None:
        self.formula = formula
        self.pol = pol
        self.vars = tuple(sorted(free))
        self.templates: dict[tuple[int, ...], _Template] = {}


class _Template:
    """A matrix compiled under one polarity and equality pattern.

    Local literals number the atoms 1..len(atoms) and then the gates in
    order.  An atom is a key prefix and the pattern positions that complete
    it; a gate is the sorted tuple of local literals it conjoins.  top is
    a bool, a local literal, ("or", literals) or ("and", kids), each kid
    again a top other than a bool."""

    __slots__ = ("atoms", "gates", "top")

    def __init__(self, atoms: list, gates: list, top) -> None:
        self.atoms = atoms
        self.gates = gates
        self.top = top


def _plan(f: Formula, pol: bool, memo: dict):
    """f under polarity pol, with negations pushed into the connectives
    and quantifiers and its maximal quantifier-free subformulas replaced by
    _Matrix nodes, and f's free variables: polarity flows down and free
    variables up, in one pass.  The plan is None when f is quantifier-free;
    otherwise it is ("and" | "or", plans) or ("forall" | "exists", var,
    plan, free), free sorted.  memo holds, under id(g) alone, the result
    (None, free) of each quantifier-free g already planned, since free
    variables do not depend on polarity, and under (id(g), pol) the one
    _Matrix of such a g, or the result for any other g: a shared
    subformula yields one plan, and its quantifier-free part is walked
    once."""
    out = memo.get(id(f)) or memo.get((id(f), pol))
    if out is not None:
        return out
    if isinstance(f, Atom):
        free = frozenset(f.args)
    elif isinstance(f, Eq):
        free = frozenset((f.left, f.right))
    elif isinstance(f, Not):
        out = _plan(f.sub, not pol, memo)
        if out[0] is None:
            out, free = None, out[1]
    elif isinstance(f, (Forall, Exists)):
        part = _plan(f.body, pol, memo)
        bound = part[1] - {f.var}
        kind = "forall" if isinstance(f, Forall) == pol else "exists"
        out = (kind, f.var, _matrix(f.body, pol, part, memo), tuple(sorted(bound))), bound
    else:
        if isinstance(f, Implies):
            subs, pols, conjunctive = (f.left, f.right), (not pol, pol), not pol
        elif isinstance(f, (And, Or)):
            subs, pols, conjunctive = f.subs, [pol] * len(f.subs), isinstance(f, And) == pol
        else:
            raise LogicError(f"bad formula node {f!r}")
        # A quantifier-free kid planned before costs no call.
        parts = [memo.get(id(s)) or _plan(s, q, memo) for s, q in zip(subs, pols)]
        free = frozenset().union(*[fv for _, fv in parts])
        if [p for p, _ in parts].count(None) < len(parts):
            plans = [_matrix(s, q, part, memo) for s, q, part in zip(subs, pols, parts)]
            out = ("and" if conjunctive else "or", plans), free
    if out is None:
        out = memo[id(f)] = None, free
    else:
        memo[id(f), pol] = out
    return out


def _matrix(f: Formula, pol: bool, part, memo: dict):
    """The plan of f under pol, given part = _plan(f, pol, memo): for a
    quantifier-free f, its one _Matrix under pol."""
    if part[0] is None and (id(f), pol) not in memo:
        memo[id(f), pol] = _Matrix(f, pol, part[1])
    return part[0] or memo[id(f), pol]


def _gather(kids: Iterable, conjunctive: bool):
    """The and (or) of kids, with constants folded; kids are not drawn
    past one that decides the result.  Nested nodes of the same kind are
    not flattened: on cliquify outputs, a nested disjunction kept as its
    own gate gave far fewer conflicts than one long clause."""
    flat = []
    for k in kids:
        if type(k) is bool:
            if k is conjunctive:
                continue
            return k
        flat.append(k)
    if not flat:
        return conjunctive
    if len(flat) == 1:
        return flat[0]
    return ("and" if conjunctive else "or", flat)


def _atom_node(f: Atom, env: dict[str, int], pol: bool, sig: Signature, var):
    """The node of atom f under env: a bool, or literals that var makes
    from an atom key's prefix (its kind and predicate) and its arguments."""
    key = atom_key(f, sig)
    args = tuple(env[a] for a in f.args)
    if key[0] in ("lt", "sim") and args[0] == args[1]:
        return not pol
    if key[0] == "sim":
        u, v = var(("lt",), args), var(("lt",), args[::-1])
        return ("and", [-u, -v]) if pol else ("or", [u, v])
    lit = var(key[: len(key) - len(args)], args)
    return lit if pol else -lit


def _fold(f: Formula, env: dict[str, int], pol: bool, sig: Signature, var, memo: dict):
    """Quantifier-free f under env and polarity as a node: a bool, a
    literal, or ("and" | "or", kids).  memo[pol] holds the node for each
    id(g) of a g already folded under env and pol."""
    node = memo[pol].get(id(f))
    if node is not None:
        return node
    if isinstance(f, Atom):
        node = _atom_node(f, env, pol, sig, var)
    elif isinstance(f, Eq):
        node = (env[f.left] == env[f.right]) == pol
    elif isinstance(f, Not):
        node = _fold(f.sub, env, not pol, sig, var, memo)
    elif isinstance(f, (And, Or)):
        # A memo hit costs no call (a False node is folded again, as a hit).
        known = memo[pol]
        kids = (known.get(id(s)) or _fold(s, env, pol, sig, var, memo) for s in f.subs)
        node = _gather(kids, isinstance(f, And) == pol)
    elif isinstance(f, Implies):
        kids = (_fold(s, env, p, sig, var, memo) for s, p in ((f.left, not pol), (f.right, pol)))
        node = _gather(kids, not pol)
    else:
        raise LogicError(f"bad formula node {f!r}")
    memo[pol][id(f)] = node
    return node


def _compile(f: Formula, pol: bool, env: dict[str, int], sig: Signature) -> _Template:
    """The template of matrix f, with env mapping its free variables to
    pattern positions.  The folded tree shares a shared subformula's
    node, and numbering and lowering visit each node once."""
    first: dict[tuple, int] = {}  # (prefix, positions) -> provisional variable
    tree = _fold(f, env, pol, sig, lambda *key: first.setdefault(key, len(first) + 1), ({}, {}))
    if isinstance(tree, bool):
        return _Template([], [], tree)
    # Number only the atoms that survived folding.
    reached = set()
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            reached.add(abs(node))
        elif id(node) not in seen:
            seen.add(id(node))
            stack.extend(node[1])
    local = {}  # provisional literal -> local literal
    atoms = []
    for key, v in first.items():
        if v in reached:
            atoms.append(key)
            local[v], local[-v] = len(atoms), -len(atoms)
    gates: list[tuple[int, ...]] = []
    gate_of: dict[tuple[int, ...], int] = {}
    lowered: dict[int, int] = {}  # id(node) -> local literal

    def lower(node) -> int:
        if isinstance(node, int):
            return local[node]
        lit = lowered.get(id(node))
        if lit is not None:
            return lit
        kind, kids = node
        lits = [local[k] if isinstance(k, int) else lower(k) for k in kids]
        if kind == "or":
            lits = [-lit for lit in lits]
        key = tuple(sorted(set(lits)))
        z = key[0] if len(key) == 1 else gate_of.get(key)
        if z is None:
            gates.append(key)
            z = gate_of[key] = len(atoms) + len(gates)
        lit = lowered[id(node)] = z if kind == "and" else -z
        return lit

    def lower_top(node):
        if isinstance(node, int):
            return lower(node)
        kind, kids = node
        if kind == "and":
            return ("and", [lower_top(k) for k in kids])
        return ("or", [lower(k) for k in kids])

    return _Template(atoms, gates, lower_top(tree))


def _holds(s: Structure, key: tuple) -> bool:
    """The truth in s of the ground atom with this key."""
    if key[0] == "u":
        return key[2] in s.unary_of(key[1])
    if key[0] == "b":
        return key[2:] in s.binary_of(key[1])
    return key[1:] in s.dist


def _relabel(node, lit: list[int]):
    """A template's top node with local literals mapped through lit,
    which holds both signs."""
    if isinstance(node, int):
        return lit[node]
    kind, kids = node
    if kind == "or":
        return (kind, [lit[k] for k in kids])
    return (kind, [_relabel(k, lit) for k in kids])


class GroundEngine:
    """The engine for every signature past the typed engine's limits.
    One engine serves every size searched: the plan and its compiled
    templates are kept, and each run grounds its size afresh.  A formula
    with free variables is refused, as evaluate refuses it."""

    def __init__(self, phi: Formula, sig: Signature) -> None:
        self.phi = phi
        self.sig = sig
        memo: dict = {}
        part = _plan(phi, True, memo)
        if part[1]:
            raise PreconditionError(f"unassigned free variables {sorted(part[1])}")
        self.plan = _matrix(phi, True, part, memo)

    def run(self, n: int, node_limit: int, base: Optional[Structure] = None) -> Optional[Structure]:
        """A model of size n, or None.  With base, a structure of size n
        over fewer unary predicates, the model expands base: a unit clause
        fixes each atom of base's predicates."""
        if not self.encode(n):
            return None
        if base is not None:
            self.clauses.extend(
                [v if _holds(base, key) else -v]
                for key, v in self.var_of.items()
                if key[0] != "u" or key[1] in base.sig.unary
            )
        # The solver branches on atoms only, and empties self.clauses.
        cdcl = CDCL(self.n_vars, self.clauses, self.var_of.values())
        assignment = cdcl.solve(node_limit)
        if assignment is None:
            return None
        s = self._decode(assignment)
        if base is not None:
            # Atoms the formula never reads decode false; base decides them.
            s = Structure(self.sig, n, {**s.unary, **base.unary}, base.binary, base.dist)
        if not tarski(s, {})(self.phi):
            raise VerificationFailure("grounded engine produced a non-model; grounding is wrong")
        return s

    def encode(self, n: int) -> bool:
        """Fill clauses and var_of (atom key -> variable) for domain size
        n; False if the formula is false outright.  clauses holds clause
        lists and the definition items (z, key) of the gates.

        The root is asserted, not named: conjunctions split into separate
        constraints and a disjunction becomes one clause."""
        self.n = n
        self.var_of: dict[tuple, int] = {}
        self.gate_of: dict[tuple[int, ...], int] = {}
        self.clauses: list = []
        self.n_vars = 0
        root = self._node(self.plan, {}, {})
        if isinstance(root, bool):
            return root
        stack = [root]
        lowered: dict[int, int] = {}  # id(node) -> literal, as _cnfify gave it
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                self.clauses.append([node])
            elif node[0] == "and":
                stack.extend(node[1])
            else:
                self.clauses.append([k if type(k) is int else self._cnfify(k, lowered) for k in node[1]])
        self._axioms()
        return True

    def _var(self, key: tuple) -> int:
        v = self.var_of.get(key)
        if v is None:
            self.n_vars += 1
            v = self.n_vars
            self.var_of[key] = v
        return v

    def _gate(self, lits) -> int:
        """The literal of the "and" of lits."""
        key = tuple(sorted(set(lits)))
        return key[0] if len(key) == 1 else self._define(key)

    def _define(self, key: tuple[int, ...]) -> int:
        """The variable of the "and" of key, sorted distinct literals, at
        least two; defined on first use by the item (z, key)."""
        z = self.gate_of.get(key)
        if z is None:
            # Full two-sided definitions: the weaker one-sided variant is
            # sound here but propagates too little for unsatisfiable cores.
            self.n_vars += 1
            z = self.gate_of[key] = self.n_vars
            self.clauses.append((z, key))
        return z

    def _cnfify(self, node, lowered: dict[int, int]) -> int:
        if id(node) not in lowered:
            kind, kids = node
            lits = [k if type(k) is int else self._cnfify(k, lowered) for k in kids]
            lowered[id(node)] = self._gate(lits) if kind == "and" else -self._gate([-lit for lit in lits])
        return lowered[id(node)]

    def _node(self, plan, env: dict[str, int], memo: dict):
        """The node of plan under env.  memo, kept for one encode, holds
        the node of each matrix and quantified plan for each assignment of
        its free variables, so a shared one is instanced once."""
        matrix = isinstance(plan, _Matrix)
        if not matrix and len(plan) == 2:
            kind, parts = plan
            return _gather((self._node(p, env, memo) for p in parts), kind == "and")
        key = (id(plan), *[env[v] for v in (plan.vars if matrix else plan[3])])
        node = memo.get(key)
        if node is None and matrix:
            node = memo[key] = self._instance(plan, env)
        elif node is None:
            kind, var, body, _ = plan
            kids = (self._node(body, {**env, var: a}, memo) for a in range(self.n))
            node = memo[key] = _gather(kids, kind == "forall")
        return node

    def _instance(self, m: _Matrix, env: dict[str, int]):
        # The pattern numbers the distinct elements in order of first use,
        # and at lists them; two variables take no generator.
        vs = m.vars
        if len(vs) == 2 and env[vs[0]] != env[vs[1]]:
            pattern, at = (0, 1), (env[vs[0]], env[vs[1]])
        else:
            at = tuple(dict.fromkeys([env[v] for v in vs]))
            pattern = tuple([at.index(env[v]) for v in vs])
        t = m.templates.get(pattern)
        if t is None:
            t = _compile(m.formula, m.pol, dict(zip(m.vars, pattern)), self.sig)
            m.templates[pattern] = t
        if isinstance(t.top, bool):
            return t.top
        # lit[x] for each local literal x, both signs: lit[-x] sits at the
        # far end.  The atom map is injective, so a gate's mapped
        # literals are distinct and need no set.
        lit = [0] * (2 * (len(t.atoms) + len(t.gates)) + 1)
        var, define = self._var, self._define
        for x, (prefix, pos) in enumerate(t.atoms, 1):
            v = lit[x] = var(prefix + tuple([at[p] for p in pos]))
            lit[-x] = -v
        for x, g in enumerate(t.gates, len(t.atoms) + 1):
            v = lit[x] = define(tuple(sorted([lit[y] for y in g])))
            lit[-x] = -v
        return _relabel(t.top, lit)

    def _axioms(self) -> None:
        n = self.n
        if self.sig.dist is DistKind.PARTIAL_ORDER and any(
            k[0] == "lt" for k in self.var_of
        ):
            lt = {
                (a, b): self._var(("lt", a, b))
                for a in range(n)
                for b in range(n)
                if a != b
            }
            for a in range(n):
                for b in range(a + 1, n):
                    self.clauses.append([-lt[(a, b)], -lt[(b, a)]])
            for a, b, c in itertools.permutations(range(n), 3):
                self.clauses.append([-lt[(a, b)], -lt[(b, c)], lt[(a, c)]])
        if self.sig.dist is DistKind.TRANSITIVE and any(
            k[0] == "t" for k in self.var_of
        ):
            t = {
                (a, b): self._var(("t", a, b))
                for a in range(n)
                for b in range(n)
            }
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    for c in range(n):
                        if c == b:
                            continue
                        self.clauses.append([-t[(a, b)], -t[(b, c)], t[(a, c)]])

    def _decode(self, assign: list[int]) -> Structure:
        unary = {p: set() for p in self.sig.unary}
        binary = {r: set() for r in self.sig.binary}
        dist = set()
        for key, v in self.var_of.items():
            if assign[v] <= 0:
                continue
            if key[0] == "u":
                unary[key[1]].add(key[2])
            elif key[0] == "b":
                binary[key[1]].add((key[2], key[3]))
            elif key[0] in ("lt", "t"):
                dist.add((key[1], key[2]))
        return Structure(
            self.sig,
            self.n,
            {p: frozenset(s) for p, s in unary.items()},
            {r: frozenset(s) for r, s in binary.items()},
            frozenset(dist),
        )
