"""Binary expression trees over problem quantities.

Leaves hold 0-based quantity indices (mention order), internal nodes hold one
of the operations ``+ - -r * / /r``. The reversed variants ``-r`` and ``/r``
apply their operands right-to-left. Canonical (monotone) form rewrites every
maximal +/- region as a left-deep chain of additions over positive terms in
ascending index order followed by subtractions of negative terms, and every
maximal */ region likewise; this gives each unordered pair of used quantities
a unique lowest-common-ancestor operation.

Candidate trees over a problem's quantities are a canonical structure over k
leaves placed on an increasing k-subset of the quantities. Each structure is
compiled once per k into a ``TreePlan`` (node count, serial template, the LCA
operation of every leaf-position pair), and every structure over k leaves
shares one evaluation program, so ``enumerate_plans`` evaluates each distinct
sub-structure once per subset and builds no tree; ``enumerate_trees``
materializes its candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

ADD, SUB, SUB_R, MUL, DIV, DIV_R = "+", "-", "-r", "*", "/", "/r"
OPS = (ADD, SUB, SUB_R, MUL, DIV, DIV_R)

#: Largest leaf set enumerate_trees will search exhaustively.
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


def _flatten_add(expr: Expr, positive: bool, pos: list[Expr], neg: list[Expr]) -> None:
    if isinstance(expr, Op) and base_op(expr.op) in (ADD, SUB):
        op = expr.op
        if op == ADD:
            _flatten_add(expr.left, positive, pos, neg)
            _flatten_add(expr.right, positive, pos, neg)
        elif op == SUB:
            _flatten_add(expr.left, positive, pos, neg)
            _flatten_add(expr.right, not positive, pos, neg)
        else:  # SUB_R: right - left
            _flatten_add(expr.right, positive, pos, neg)
            _flatten_add(expr.left, not positive, pos, neg)
        return
    (pos if positive else neg).append(expr)


def _flatten_mul(expr: Expr, numerator: bool, nums: list[Expr], dens: list[Expr]) -> None:
    if isinstance(expr, Op) and base_op(expr.op) in (MUL, DIV):
        op = expr.op
        if op == MUL:
            _flatten_mul(expr.left, numerator, nums, dens)
            _flatten_mul(expr.right, numerator, nums, dens)
        elif op == DIV:
            _flatten_mul(expr.left, numerator, nums, dens)
            _flatten_mul(expr.right, not numerator, nums, dens)
        else:  # DIV_R: right / left
            _flatten_mul(expr.right, numerator, nums, dens)
            _flatten_mul(expr.left, not numerator, nums, dens)
        return
    (nums if numerator else dens).append(expr)


def _chain(first_terms: list[Expr], rest_terms: list[Expr], join_op: str, tail_op: str) -> Expr:
    acc = first_terms[0]
    for term in first_terms[1:]:
        acc = Op(join_op, acc, term)
    for term in rest_terms:
        acc = Op(tail_op, acc, term)
    return acc


def _canon(expr: Expr) -> Expr:
    if isinstance(expr, Leaf):
        return expr
    if base_op(expr.op) in (ADD, SUB):
        pos: list[Expr] = []
        neg: list[Expr] = []
        _flatten_add(expr, True, pos, neg)
        if not pos:
            raise ExprError("expression region has no positive term")
        pos = sorted((_canon(t) for t in pos), key=_leaf_key)
        neg = sorted((_canon(t) for t in neg), key=_leaf_key)
        return _chain(pos, neg, ADD, SUB)
    nums: list[Expr] = []
    dens: list[Expr] = []
    _flatten_mul(expr, True, nums, dens)
    if not nums:
        raise ExprError("expression region has no numerator factor")
    nums = sorted((_canon(t) for t in nums), key=_leaf_key)
    dens = sorted((_canon(t) for t in dens), key=_leaf_key)
    return _chain(nums, dens, MUL, DIV)


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
    memo_add: dict[tuple[int, ...], list[Expr]] = {}
    memo_mul: dict[tuple[int, ...], list[Expr]] = {}

    def add_rooted(block: tuple[int, ...]) -> list[Expr]:
        if block in memo_add:
            return memo_add[block]
        out: list[Expr] = []
        for parts in _set_partitions(block):
            if len(parts) < 2:
                continue
            parts = sorted(parts)
            options = [leaf_or_mul(b) for b in parts]
            for signs in itertools.product((True, False), repeat=len(parts)):
                if not any(signs):
                    continue
                for choice in itertools.product(*options):
                    pos = sorted((t for t, s in zip(choice, signs) if s), key=_leaf_key)
                    neg = sorted((t for t, s in zip(choice, signs) if not s), key=_leaf_key)
                    out.append(_chain(pos, neg, ADD, SUB))
        memo_add[block] = out
        return out

    def mul_rooted(block: tuple[int, ...]) -> list[Expr]:
        if block in memo_mul:
            return memo_mul[block]
        out: list[Expr] = []
        for parts in _set_partitions(block):
            if len(parts) < 2:
                continue
            parts = sorted(parts)
            options = [leaf_or_add(b) for b in parts]
            for in_num in itertools.product((True, False), repeat=len(parts)):
                if not any(in_num):
                    continue
                for choice in itertools.product(*options):
                    nums = sorted((t for t, s in zip(choice, in_num) if s), key=_leaf_key)
                    dens = sorted((t for t, s in zip(choice, in_num) if not s), key=_leaf_key)
                    out.append(_chain(nums, dens, MUL, DIV))
        memo_mul[block] = out
        return out

    def leaf_or_mul(block: tuple[int, ...]) -> list[Expr]:
        if len(block) == 1:
            return [Leaf(block[0])]
        return mul_rooted(block)

    def leaf_or_add(block: tuple[int, ...]) -> list[Expr]:
        if len(block) == 1:
            return [Leaf(block[0])]
        return add_rooted(block)

    if len(ids) == 1:
        return [Leaf(ids[0])]
    return add_rooted(ids) + mul_rooted(ids)


@lru_cache(maxsize=MAX_ENUM_LEAVES)
def canonical_structures(k: int) -> tuple[Expr, ...]:
    """Every distinct canonical tree over leaves 0..k-1, deterministic order."""
    if k < 1:
        raise ExprError("need at least one leaf")
    if k > MAX_ENUM_LEAVES:
        raise ExprError(f"refusing to enumerate trees over {k} leaves (max {MAX_ENUM_LEAVES})")
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
    structure's ``op_lca(structure, a, b)``; ``pair_ops`` holds those for
    every position pair ``a < b`` in lexicographic order. ``root`` is the
    structure's slot in its size's evaluation program."""

    structure: Expr
    nodes: int
    template: str
    pair_ops: tuple[str, ...]
    root: int

    def serial(self, subset: Sequence[int]) -> str:
        """``serialize`` of the tree placed on ``subset``."""
        return self.template.format(*subset)

    def tree(self, subset: Sequence[int]) -> Expr:
        return _relabel(self.structure, subset)


@dataclass(frozen=True)
class SizePlans:
    """Every canonical structure over k leaves as a ``TreePlan``, in
    ``canonical_structures`` order, plus their shared evaluation program.

    Slots 0..k-1 hold the leaf values; step s computes slot k+s as
    ``(op, left, right)`` with a base operation (reversed operations have
    their operands swapped), and every distinct sub-structure has one slot."""

    steps: tuple[tuple[str, int, int], ...]
    plans: tuple[TreePlan, ...]


@lru_cache(maxsize=MAX_ENUM_LEAVES)
def size_plans(k: int) -> SizePlans:
    """The compiled structures over k leaves (cached by k only)."""
    structures = canonical_structures(k)
    slots: dict[Expr, int] = {Leaf(i): i for i in range(k)}
    steps: list[tuple[str, int, int]] = []

    def slot(node: Expr) -> int:
        if node not in slots:
            left, right = slot(node.left), slot(node.right)
            if is_reversed(node.op):
                left, right = right, left
            steps.append((base_op(node.op), left, right))
            slots[node] = k + len(steps) - 1
        return slots[node]

    def pair_ops(structure: Expr) -> tuple[str, ...]:
        paths = [root_path(structure, i) for i in range(k)]
        return tuple(_lca_op(paths[a], paths[b]) for a, b in itertools.combinations(range(k), 2))

    plans = tuple(
        TreePlan(s, node_count(s), _template(s), pair_ops(s), slot(s)) for s in structures
    )
    return SizePlans(tuple(steps), plans)


def enumerate_plans(
    values: Sequence[Fraction], max_irrelevant: int | None = None
) -> Iterator[tuple[TreePlan, tuple[int, ...], Fraction]]:
    """Yield ``(plan, subset, value)`` for every distinct canonical tree over
    every subset of quantities whose exact evaluation is strictly positive.

    Subsets are visited largest-first, lexicographically within a size, and
    plans within a subset in ``canonical_structures`` order, so truncation by
    a beam is reproducible. ``max_irrelevant`` caps how many quantities may be
    left unused. Subsets larger than MAX_ENUM_LEAVES are not searched. A tree
    with a division by zero anywhere in it is skipped, as ``evaluate`` would
    raise on it.
    """
    vals = [Fraction(v) for v in values]
    n = len(vals)
    if n < 1:
        raise ExprError("need at least one quantity")
    min_size = 1 if max_irrelevant is None else max(1, n - max_irrelevant)
    if min_size > MAX_ENUM_LEAVES:
        raise ExprError(f"cannot enumerate subsets of size {min_size} (max {MAX_ENUM_LEAVES})")
    for size in range(min(n, MAX_ENUM_LEAVES), min_size - 1, -1):
        compiled = size_plans(size)
        for subset in itertools.combinations(range(n), size):
            # None marks a sub-structure that divides by zero
            slots: list[Fraction | None] = [vals[i] for i in subset]
            for op, left, right in compiled.steps:
                lhs, rhs = slots[left], slots[right]
                if lhs is None or rhs is None:
                    slots.append(None)
                elif op == ADD:
                    slots.append(lhs + rhs)
                elif op == SUB:
                    slots.append(lhs - rhs)
                elif op == MUL:
                    slots.append(lhs * rhs)
                else:
                    slots.append(None if rhs == 0 else lhs / rhs)
            for plan in compiled.plans:
                value = slots[plan.root]
                if value is not None and value > 0:
                    yield plan, subset, value


def enumerate_trees(
    values: Sequence[Fraction], max_irrelevant: int | None = None
) -> Iterator[Expr]:
    """Yield every distinct canonical tree over every subset of quantities
    whose exact evaluation is strictly positive: the candidates of
    ``enumerate_plans``, in its order, each built as an expression tree."""
    for plan, subset, _ in enumerate_plans(values, max_irrelevant):
        yield plan.tree(subset)
