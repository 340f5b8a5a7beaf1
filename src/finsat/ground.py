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
searched, wherever it occurs.  Gate definitions are two-sided.

Planning, folding and lowering visit each shared subformula (one object
reached along several paths, as in cliquify's output or a parsed '<->')
once per call, so their cost is per distinct node; the clauses are the
same as for an unshared copy of the formula.

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
    evaluate,
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
    plan).  memo holds the result for each (id(g), pol) of a g already
    planned, so a shared subformula yields one plan."""
    out = memo.get((id(f), pol))
    if out is not None:
        return out
    if isinstance(f, Atom):
        out = None, frozenset(f.args)
    elif isinstance(f, Eq):
        out = None, frozenset((f.left, f.right))
    elif isinstance(f, Not):
        out = _plan(f.sub, not pol, memo)
    elif isinstance(f, (Forall, Exists)):
        p, free = _plan(f.body, pol, memo)
        kind = "forall" if isinstance(f, Forall) == pol else "exists"
        out = (kind, f.var, _Matrix(f.body, pol, free) if p is None else p), free - {f.var}
    else:
        if isinstance(f, Implies):
            subs, conjunctive = ((f.left, not pol), (f.right, pol)), not pol
        elif isinstance(f, (And, Or)):
            subs, conjunctive = [(s, pol) for s in f.subs], isinstance(f, And) == pol
        else:
            raise LogicError(f"bad formula node {f!r}")
        parts = [_plan(s, q, memo) for s, q in subs]
        free = frozenset().union(*(fv for _, fv in parts))
        if all(p is None for p, _ in parts):
            out = None, free
        else:
            plans = [_Matrix(s, q, fv) if p is None else p for (s, q), (p, fv) in zip(subs, parts)]
            out = ("and" if conjunctive else "or", plans), free
    memo[id(f), pol] = out
    return out


def _gather(kids: Iterable, conjunctive: bool):
    """The and (or) of kids, with constants folded; kids are not drawn
    past one that decides the result.  Nested nodes of the same kind are
    not flattened: on cliquify outputs, a nested disjunction kept as its
    own gate gave far fewer conflicts than one long clause."""
    flat = []
    for k in kids:
        if isinstance(k, bool):
            if k == conjunctive:
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
    literal, or ("and" | "or", kids).  memo holds the node for each
    (id(g), pol) of a g already folded under env."""
    node = memo.get((id(f), pol))
    if node is not None:
        return node
    if isinstance(f, Atom):
        node = _atom_node(f, env, pol, sig, var)
    elif isinstance(f, Eq):
        node = (env[f.left] == env[f.right]) == pol
    elif isinstance(f, Not):
        node = _fold(f.sub, env, not pol, sig, var, memo)
    elif isinstance(f, (And, Or)):
        kids = (_fold(s, env, pol, sig, var, memo) for s in f.subs)
        node = _gather(kids, isinstance(f, And) == pol)
    elif isinstance(f, Implies):
        kids = (_fold(s, env, p, sig, var, memo) for s, p in ((f.left, not pol), (f.right, pol)))
        node = _gather(kids, not pol)
    else:
        raise LogicError(f"bad formula node {f!r}")
    memo[id(f), pol] = node
    return node


def _compile(f: Formula, pol: bool, env: dict[str, int], sig: Signature) -> _Template:
    """The template of matrix f, with env mapping its free variables to
    pattern positions.  The folded tree shares a shared subformula's
    node, and numbering and lowering visit each node once."""
    first: dict[tuple, int] = {}  # (prefix, positions) -> provisional variable
    tree = _fold(f, env, pol, sig, lambda *key: first.setdefault(key, len(first) + 1), {})
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
    local = {}
    atoms = []
    for key, v in first.items():
        if v in reached:
            atoms.append(key)
            local[v] = len(atoms)
    gates: list[tuple[int, ...]] = []
    gate_of: dict[tuple[int, ...], int] = {}
    lowered: dict[int, int] = {}  # id(node) -> local literal

    def lower(node) -> int:
        if isinstance(node, int):
            return local[node] if node > 0 else -local[-node]
        lit = lowered.get(id(node))
        if lit is not None:
            return lit
        kind, kids = node
        lits = [lower(k) for k in kids]
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
    """A template's top node with local literals mapped through lit."""
    if isinstance(node, int):
        return lit[node] if node > 0 else -lit[-node]
    return (node[0], [_relabel(k, lit) for k in node[1]])


class GroundEngine:
    """The engine for every signature past the typed engine's limits.
    One engine serves every size searched: the plan and its compiled
    templates are kept, and each run grounds its size afresh.  A formula
    with free variables is refused, as evaluate refuses it."""

    def __init__(self, phi: Formula, sig: Signature) -> None:
        self.phi = phi
        self.sig = sig
        plan, free = _plan(phi, True, {})
        if free:
            raise PreconditionError(f"unassigned free variables {sorted(free)}")
        self.plan = _Matrix(phi, True, free) if plan is None else plan

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
        if not evaluate(s, self.phi):
            raise VerificationFailure("grounded engine produced a non-model; grounding is wrong")
        return s

    def encode(self, n: int) -> bool:
        """Fill clauses and var_of (atom key -> variable) for domain size
        n; False if the formula is false outright.

        The root is asserted, not named: conjunctions split into separate
        constraints and a disjunction becomes one clause."""
        self.n = n
        self.var_of: dict[tuple, int] = {}
        self.gate_of: dict[tuple[int, ...], int] = {}
        self.clauses: list[list[int]] = []
        self.n_vars = 0
        root = self._node(self.plan, {})
        if isinstance(root, bool):
            return root
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                self.clauses.append([node])
            elif node[0] == "and":
                stack.extend(node[1])
            else:
                self.clauses.append([self._cnfify(k) for k in node[1]])
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
        """The variable of the "and" of lits, defined on first use."""
        key = tuple(sorted(set(lits)))
        if len(key) == 1:
            return key[0]
        z = self.gate_of.get(key)
        if z is None:
            # Full two-sided definitions: the weaker one-sided variant is
            # sound here but propagates too little for unsatisfiable cores.
            self.n_vars += 1
            z = self.gate_of[key] = self.n_vars
            self.clauses.extend([-z, lit] for lit in key)
            self.clauses.append([z] + [-lit for lit in key])
        return z

    def _cnfify(self, node) -> int:
        if isinstance(node, int):
            return node
        kind, kids = node
        lits = [self._cnfify(k) for k in kids]
        if kind == "and":
            return self._gate(lits)
        return -self._gate([-lit for lit in lits])

    def _node(self, plan, env: dict[str, int]):
        if isinstance(plan, _Matrix):
            return self._instance(plan, env)
        if plan[0] in ("and", "or"):
            kind, parts = plan
            return _gather((self._node(p, env) for p in parts), kind == "and")
        kind, var, body = plan
        kids = (self._node(body, {**env, var: a}) for a in range(self.n))
        return _gather(kids, kind == "forall")

    def _instance(self, m: _Matrix, env: dict[str, int]):
        # The pattern numbers the distinct elements in order of first use.
        elems: dict[int, int] = {}
        pattern = tuple(elems.setdefault(env[v], len(elems)) for v in m.vars)
        t = m.templates.get(pattern)
        if t is None:
            t = _compile(m.formula, m.pol, dict(zip(m.vars, pattern)), self.sig)
            m.templates[pattern] = t
        if isinstance(t.top, bool):
            return t.top
        at = tuple(elems)
        lit = [0]
        var, gate = self._var, self._gate
        for prefix, pos in t.atoms:
            lit.append(var(prefix + tuple(at[p] for p in pos)))
        for g in t.gates:
            lit.append(gate([lit[x] if x > 0 else -lit[-x] for x in g]))
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
