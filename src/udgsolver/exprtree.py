"""Binary expression trees over problem quantities.

Leaves hold 0-based quantity indices (mention order), internal nodes hold one
of the operations ``+ - -r * / /r``. The reversed variants ``-r`` and ``/r``
apply their operands right-to-left. Canonical (monotone) form rewrites every
maximal +/- region as a left-deep chain of additions over positive terms in
ascending index order followed by subtractions of negative terms, and every
maximal */ region likewise; this gives each unordered pair of used quantities
a unique lowest-common-ancestor operation.

A candidate tree is a canonical structure over k leaves placed on an
increasing k-subset of the quantities. Each structure is compiled once per k
into a ``TreePlan`` (serial template, the LCA operation of every leaf-position
pair), and ``search_order(n)`` ranks every placed plan once per n by (nodes,
serial), so a candidate is scored and tie-broken without building its tree.
``evaluate`` is the one evaluator, and ``enumerate_trees`` builds and
evaluates every candidate as the exhaustive reference.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

ADD, SUB, SUB_R, MUL, DIV, DIV_R = "+", "-", "-r", "*", "/", "/r"
OPS = (ADD, SUB, SUB_R, MUL, DIV, DIV_R)
_OP_INDEX = {op: i for i, op in enumerate(OPS)}

#: Most quantities a problem may have: ``search_order`` covers every subset
#: of them and refuses more, rather than cover only the smaller subsets.
MAX_ENUM_LEAVES = 6


class ExprError(ValueError):
    """Malformed tree or invalid tree query."""


class EvaluationError(ArithmeticError):
    """Evaluation hit a division by zero."""


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Op:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in OPS:
            raise ExprError(f"unknown operation {self.op!r}")
        # trees are hashed heavily by the path caches; precompute once
        object.__setattr__(self, "_hash", hash((self.op, self.left, self.right)))

    def __hash__(self):
        return self._hash


Expr = Leaf | Op


def base_op(op: str) -> str:
    """Strip the reverse marker: '-r' -> '-', '/r' -> '/'."""
    return op[0]


def is_reversed(op: str) -> bool:
    return op.endswith("r")


#: each region's join operation (between positive terms, and the region's
#: name) and tail operation (applying each negative term)
_REGION_OPS = {ADD: (ADD, SUB), MUL: (MUL, DIV)}


def region(op: str) -> str:
    """The region an operation chains in: ADD for + - -r, MUL for * / /r."""
    return MUL if base_op(op) in (MUL, DIV) else ADD


def used_indices(expr: Expr) -> frozenset[int]:
    """Set of quantity indices appearing at the leaves."""
    return frozenset(_collect_indices(expr))


def _collect_indices(expr: Expr) -> list[int]:
    if isinstance(expr, Leaf):
        return [expr.index]
    return _collect_indices(expr.left) + _collect_indices(expr.right)


def node_count(expr: Expr) -> int:
    if isinstance(expr, Leaf):
        return 1
    return 1 + node_count(expr.left) + node_count(expr.right)


def format_rational(value: Fraction) -> str:
    """Exact string form: integers bare, terminating decimals as decimals,
    everything else as p/q."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        shift = max(twos, fives)
        scaled = value.numerator * 10**shift // value.denominator
        digits = str(abs(scaled)).rjust(shift + 1, "0")
        sign = "-" if scaled < 0 else ""
        return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
    return f"{value.numerator}/{value.denominator}"


def serialize(expr: Expr, values: Mapping[int, Fraction] | Sequence[Fraction] | None = None) -> str:
    """Prefix notation, e.g. "(/ (- 66 10) 8)" when quantity values are given.

    Without values, leaves print as q<index>; with values, as the exact value
    string (the on-disk gold-tree format).
    """
    if isinstance(expr, Leaf):
        if values is None:
            return f"q{expr.index}"
        return format_rational(Fraction(values[expr.index]))
    return f"({expr.op} {serialize(expr.left, values)} {serialize(expr.right, values)})"


def tree_signature(expr: Expr) -> str:
    """Operation skeleton with anonymized leaves, e.g. "(/ (- # #) #)"."""
    if isinstance(expr, Leaf):
        return "#"
    return f"({expr.op} {tree_signature(expr.left)} {tree_signature(expr.right)})"


def parse_prefix(text: str, values: Sequence[Fraction]) -> Expr:
    """Parse prefix notation with literal quantity values at the leaves.

    Each leaf value is bound to the lowest-index quantity with that value not
    yet used, so duplicated values resolve deterministically.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    values = [Fraction(v) for v in values]
    used: set[int] = set()

    def bind(token: str) -> Leaf:
        try:
            val = Fraction(token)
        except ValueError:
            raise ExprError(f"bad leaf token {token!r} in {text!r}") from None
        for i, v in enumerate(values):
            if i not in used and v == val:
                used.add(i)
                return Leaf(i)
        raise ExprError(f"leaf value {token} matches no unused quantity in {text!r}")

    pos = 0

    def parse() -> Expr:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprError(f"unexpected end of tree text {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in OPS:
                raise ExprError(f"expected operation in {text!r}")
            op = tokens[pos]
            pos += 1
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ExprError(f"missing ')' in {text!r}")
            pos += 1
            return Op(op, left, right)
        if tok == ")":
            raise ExprError(f"unexpected ')' in {text!r}")
        return bind(tok)

    tree = parse()
    if pos != len(tokens):
        raise ExprError(f"trailing tokens in {text!r}")
    return tree


def evaluate(expr: Expr, values: Mapping[int, Fraction] | Sequence[Fraction]) -> Fraction:
    """Exact rational evaluation; reversed operations apply right-to-left."""
    if isinstance(expr, Leaf):
        try:
            return Fraction(values[expr.index])
        except (KeyError, IndexError):
            raise ExprError(f"no value for quantity {expr.index}") from None
    lhs = evaluate(expr.left, values)
    rhs = evaluate(expr.right, values)
    if is_reversed(expr.op):
        lhs, rhs = rhs, lhs
    op = base_op(expr.op)
    if op == ADD:
        return lhs + rhs
    if op == SUB:
        return lhs - rhs
    if op == MUL:
        return lhs * rhs
    if rhs == 0:
        raise EvaluationError(f"division by zero at {serialize(expr)}")
    return lhs / rhs


def _leaf_key(expr: Expr) -> tuple[int, ...]:
    return tuple(sorted(_collect_indices(expr)))


def _flatten(expr: Expr, kind: str, positive: bool, pos: list[Expr], neg: list[Expr]) -> None:
    # a reversed operation swaps its operands; the second keeps its sign only
    # under the region's join operation
    if isinstance(expr, Op) and region(expr.op) == kind:
        first, second = (expr.right, expr.left) if is_reversed(expr.op) else (expr.left, expr.right)
        _flatten(first, kind, positive, pos, neg)
        _flatten(second, kind, positive if expr.op == kind else not positive, pos, neg)
        return
    (pos if positive else neg).append(expr)


def _chain(pos: Sequence[Expr], neg: Sequence[Expr], kind: str) -> Expr:
    # the region's canonical chain: positive terms joined, then the negative
    # terms by the tail operation, each side in _leaf_key order
    join_op, tail_op = _REGION_OPS[kind]
    pos = sorted(pos, key=_leaf_key)
    acc = pos[0]
    for term in pos[1:]:
        acc = Op(join_op, acc, term)
    for term in sorted(neg, key=_leaf_key):
        acc = Op(tail_op, acc, term)
    return acc


def _canon(expr: Expr) -> Expr:
    if isinstance(expr, Leaf):
        return expr
    kind = region(expr.op)
    pos: list[Expr] = []
    neg: list[Expr] = []
    _flatten(expr, kind, True, pos, neg)
    return _chain([_canon(t) for t in pos], [_canon(t) for t in neg], kind)


def canonicalize(expr: Expr) -> Expr:
    """Value-preserving rewrite into monotone canonical form.

    Idempotent; trees with identical (positive-term, negative-term) region
    decompositions map to the same canonical tree. Raises if a quantity index
    appears more than once.
    """
    indices = _collect_indices(expr)
    if len(indices) != len(set(indices)):
        raise ExprError("a quantity is used more than once")
    return _canon(expr)


def root_path(expr: Expr, index: int) -> list[tuple[Op, bool]]:
    """Internal nodes from the root down to the leaf holding ``index``, each
    paired with whether the walk continued into the left child."""
    path: list[tuple[Op, bool]] = []

    def walk(node: Expr) -> bool:
        if isinstance(node, Leaf):
            return node.index == index
        path.append((node, True))
        if walk(node.left):
            return True
        path[-1] = (node, False)
        if walk(node.right):
            return True
        path.pop()
        return False

    if not walk(expr):
        raise ExprError(f"quantity {index} is not used in the tree")
    return path


def op_lca(expr: Expr, qi: int, qj: int) -> str:
    """Operation at the lowest common ancestor of the two leaves, with the
    reversed variant when the earlier-mentioned quantity sits on the right
    (subtrahend/divisor) side. Requires qi < qj (mention order)."""
    if qi >= qj:
        raise ExprError(f"op_lca requires mention order qi < qj, got ({qi}, {qj})")
    return _lca_op(root_path(expr, qi), root_path(expr, qj))


def _lca_op(path_i: list[tuple[Op, bool]], path_j: list[tuple[Op, bool]]) -> str:
    # op_lca from the root paths of the earlier and the later quantity
    k = 0
    while k < len(path_i) and k < len(path_j) and path_i[k][0] is path_j[k][0]:
        k += 1
    lca, qi_left = path_i[k - 1]
    op = base_op(lca.op)
    if is_reversed(lca.op):
        qi_left = not qi_left
    if op in (ADD, MUL) or qi_left:
        return op
    return SUB_R if op == SUB else DIV_R


def _set_partitions(items: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
    # items must be sorted ascending; blocks come out sorted internally
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]
        yield [(first,)] + part


def _trees_over(ids: tuple[int, ...]) -> list[Expr]:
    memo: dict[tuple[tuple[int, ...], str], list[Expr]] = {}

    def rooted(block: tuple[int, ...], kind: str) -> list[Expr]:
        # trees over block whose root region is kind; each part is a leaf or
        # a tree rooted in the other region
        if (block, kind) in memo:
            return memo[(block, kind)]
        other = MUL if kind == ADD else ADD
        out: list[Expr] = []
        for parts in _set_partitions(block):
            if len(parts) < 2:
                continue
            options = [[Leaf(b[0])] if len(b) == 1 else rooted(b, other) for b in sorted(parts)]
            for signs in itertools.product((True, False), repeat=len(options)):
                if not any(signs):
                    continue
                for choice in itertools.product(*options):
                    pos = [t for t, s in zip(choice, signs) if s]
                    neg = [t for t, s in zip(choice, signs) if not s]
                    out.append(_chain(pos, neg, kind))
        memo[(block, kind)] = out
        return out

    if len(ids) == 1:
        return [Leaf(ids[0])]
    return rooted(ids, ADD) + rooted(ids, MUL)


def _check_leaves(k: int) -> None:
    if k < 1:
        raise ExprError("need at least one leaf")
    if k > MAX_ENUM_LEAVES:
        raise ExprError(f"refusing to enumerate trees over {k} leaves (max {MAX_ENUM_LEAVES})")


@lru_cache(maxsize=MAX_ENUM_LEAVES)
def canonical_structures(k: int) -> tuple[Expr, ...]:
    """Every distinct canonical tree over leaves 0..k-1, deterministic order."""
    _check_leaves(k)
    trees = _trees_over(tuple(range(k)))
    return tuple(sorted(trees, key=lambda t: (node_count(t), serialize(t))))


def _relabel(expr: Expr, mapping: Sequence[int]) -> Expr:
    if isinstance(expr, Leaf):
        return Leaf(mapping[expr.index])
    return Op(expr.op, _relabel(expr.left, mapping), _relabel(expr.right, mapping))


def _template(expr: Expr) -> str:
    """``serialize`` with each leaf position as a ``str.format`` field."""
    if isinstance(expr, Leaf):
        return f"q{{{expr.index}}}"
    return f"({expr.op} {_template(expr.left)} {_template(expr.right)})"


@dataclass(frozen=True, slots=True)
class TreePlan:
    """One canonical structure over k leaves, compiled for placing on any
    increasing k-subset of the quantities.

    Relabeling by an increasing subset keeps mention order, so the placed
    tree's LCA operation of quantities ``subset[a] < subset[b]`` is the
    structure's ``op_lca(structure, a, b)``. ``op_positions`` holds those
    for every position pair ``a < b``, the p-th in lexicographic order, as
    positions in a row of every pair's ``OPS`` scores: ``p * len(OPS)`` plus
    the operation's index in ``OPS``. Positions are small ints, so plans of
    one size share their objects."""

    structure: Expr
    template: str
    op_positions: tuple[int, ...]

    def serial(self, subset: Sequence[int]) -> str:
        """``serialize`` of the tree placed on ``subset``."""
        return self.template.format(*subset)

    def tree(self, subset: Sequence[int]) -> Expr:
        return _relabel(self.structure, subset)


@lru_cache(maxsize=MAX_ENUM_LEAVES)
def size_plans(k: int) -> tuple[TreePlan, ...]:
    """Every canonical structure over k leaves as a ``TreePlan``, in
    ``canonical_structures`` order (cached by k only)."""
    structures = canonical_structures(k)
    pairs = tuple(itertools.combinations(range(k), 2))
    starts = range(0, len(pairs) * len(OPS), len(OPS))

    def op_positions(structure: Expr) -> tuple[int, ...]:
        paths = [root_path(structure, i) for i in range(k)]
        ops = (_lca_op(paths[a], paths[b]) for a, b in pairs)
        return tuple(map(operator.add, starts, map(_OP_INDEX.__getitem__, ops)))

    return tuple(TreePlan(s, _template(s), op_positions(s)) for s in structures)


@lru_cache(maxsize=MAX_ENUM_LEAVES)
def search_order(n: int) -> tuple[tuple[tuple[int, ...], TreePlan], ...]:
    """Every (subset, plan) placed on n quantities by (nodes, serial), that
    is k ascending (2k-1 nodes), then serial; serials of distinct trees
    differ, so a position breaks every tie. Each ``size_plans(k)`` is in
    serial order, kept by relabeling while every index is one digit, so a
    level merges its subsets' runs, formatting one serial per run at a time.
    More than MAX_ENUM_LEAVES quantities raise ExprError before any level
    is compiled."""
    _check_leaves(n)
    order: list[tuple[tuple[int, ...], TreePlan]] = []
    for k in range(1, n + 1):
        plans = size_plans(k)
        subsets = itertools.combinations(range(n), k)
        runs = [zip(itertools.repeat(subset), plans) for subset in subsets]
        order.extend(heapq.merge(*runs, key=lambda placed: placed[1].serial(placed[0])))
    return tuple(order)


def enumerate_trees(values: Sequence[Fraction]) -> Iterator[Expr]:
    """Yield every distinct canonical tree over every subset of quantities
    whose exact evaluation is strictly positive, subsets largest-first and
    lexicographic, plans in ``canonical_structures`` order. A tree with a
    division by zero anywhere in it is skipped."""
    n = len(values)
    _check_leaves(n)
    for size in range(n, 0, -1):
        subsets = itertools.combinations(range(n), size)
        for subset, plan in itertools.product(subsets, size_plans(size)):
            tree = plan.tree(subset)
            try:
                value = evaluate(tree, values)
            except EvaluationError:
                continue
            if value > 0:
                yield tree
