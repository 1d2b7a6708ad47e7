"""Problem representation, dataset I/O, digit normalization, overlap pruning,
and cross-validation fold construction.

All objects here are immutable after construction and every operation is a
pure function, so concurrent read access is safe.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, sub
from typing import Callable, Iterable, Sequence

from . import exprtree
from .exprtree import Expr, format_rational

#: Vertex marker for the question in APIs that accept quantity-or-question.
QUESTION = "question"


class CorpusError(ValueError):
    """Malformed problem data."""


# ---------------------------------------------------------------------------
# tokenization

# a number is digits with an optional decimal part, the digits grouped in
# threes by commas ("1,000", "2,500.5") or not; "4,5" is two numbers. A
# decimal part with no digits before it (".5") is a number too, unless the
# dot follows a word or number character ("apples.5" is a sentence end). A
# fraction is digits over digits that are not all zeros ("1/2"; "1/0" is
# two numbers around a "/"), with no "/" or digit next to it ("3/4/2020" is
# no fraction), and a whole number and spaces before one make a mixed
# number ("3 1/2" is seven halves); a fraction is one token, so the "/" rate
# trigger never fires inside one. A "-" right before a number is its sign
# unless a word character, "/", "." or another "-" precedes it: "-4" is
# minus four, while "3-4" and "well-4" keep their "-" as a token
_FRACTION = r"(?<![/\d])(?:\d+ +)?\d+/0*[1-9]\d*(?![/\d])"
_DECIMAL = r"(?:(?:\d{1,3}(?:,\d{3})+(?!\d)|\d+)(?:\.\d+)?|(?<!\w)\.\d+)"
_UNSIGNED = rf"(?:{_FRACTION}|{_DECIMAL})"
# the signed form is its own alternative, so a token that does not start
# with "-" costs no more than before
_NUMBER = rf"(?:-(?<![\w/.-]-){_UNSIGNED}|{_UNSIGNED})"
_TOKEN_RE = re.compile(rf"{_NUMBER}|[A-Za-z]+(?:'[A-Za-z]+)*|\S")
_SENTENCE_END = {".", "!", "?"}
_NUMBER_TOKEN_RE = re.compile(rf"{_NUMBER}$")

#: (lowercased text, sentence index, (start, end) char span in the text)
Token = tuple[str, int, tuple[int, int]]


def tokenize(text: str) -> list[Token]:
    """Lowercased tokens split on whitespace and punctuation boundaries."""
    tokens: list[Token] = []
    sentence = 0
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        tokens.append((tok.lower(), sentence, m.span()))
        if tok in _SENTENCE_END:
            sentence += 1
    return tokens


# ---------------------------------------------------------------------------
# digit normalization

_ONES = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4,
    "five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9,
}
_TEENS = {
    "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}
_WORD_VALUES = {**_ONES, **_TEENS, **_TENS, "hundred": 100, "dozen": 12}

_tens_alt = "|".join(_TENS)
_ones_alt = "|".join(w for w in _ONES if w != "zero")
# Standalone "one" is deliberately not replaced: it is usually a pronoun
# ("each one", "one of them"). Compounds and bigrams that contain it still are.
_single_alt = "|".join(w for w in _WORD_VALUES if w != "one")
# the lookahead skips every word whose first letter starts no alternative
_first_letters = "".join(sorted({w[0] for w in (*_WORD_VALUES, "a")}))
_NUMBER_WORD_RE = re.compile(
    rf"\b(?=[{_first_letters}])(?:(?P<compound>(?:{_tens_alt})-(?:{_ones_alt}))"
    rf"|(?P<bigram>(?:a|one)\s+(?:dozen|hundred))"
    rf"|(?P<single>{_single_alt}))\b",
    re.IGNORECASE,
)


def _word_value(word: str, table: dict[str, int]) -> int:
    """The value of the table word that ``word`` matches case-insensitively,
    as the pattern matched it. Case-insensitive matching also equates a few
    non-ASCII letters with ASCII ones ("ſ" with "s", "ı" and "İ" with "i"),
    whose ``lower()`` is no table word, so those spellings are looked up by
    the same rule."""
    value = table.get(word.lower())
    if value is None:
        value = next(v for w, v in table.items() if re.fullmatch(w, word, re.IGNORECASE))
    return value


def _number_word_value(m: re.Match) -> str:
    if m.group("compound"):
        tens, ones = m.group("compound").split("-")
        return str(_word_value(tens, _TENS) + _word_value(ones, _ONES))
    if m.group("bigram"):
        return str(_word_value(m.group("bigram").split()[-1], _WORD_VALUES))
    return str(_word_value(m.group("single"), _WORD_VALUES))


def normalize_digits(text: str) -> str:
    """Rewrite number words ("ten", "twenty-one", "a dozen") as digit strings.

    All other text is preserved byte for byte; unrecognized words pass
    through; the function is idempotent.
    """
    return _NUMBER_WORD_RE.sub(_number_word_value, text)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Quantity:
    """One number mention. ``index`` is 0-based mention order."""

    index: int
    value: Fraction
    token_index: int
    span: tuple[int, int]  # char span in the problem text


@dataclass(frozen=True)
class GoldAnnotation:
    answer: Fraction
    tree: Expr | None = None
    rate_vertices: frozenset[int] | None = None  # question encoded as n

    def __post_init__(self):
        object.__setattr__(self, "answer", Fraction(self.answer))


@dataclass(frozen=True)
class Problem:
    id: str
    text: str
    tokens: tuple[Token, ...]
    quantities: tuple[Quantity, ...]
    question_span: tuple[int, int]  # token index range, end exclusive
    gold: GoldAnnotation | None = None

    def __post_init__(self):
        if not self.tokens:
            raise CorpusError(f"problem {self.id}: no tokens")
        sentences = [t[1] for t in self.tokens]
        if sentences[0] != 0 or not set(map(sub, sentences[1:], sentences)) <= {0, 1}:
            raise CorpusError(f"problem {self.id}: token sentence indices do not run 0, 1, ... in order")
        last = -1
        for q in self.quantities:
            if q.span[0] < last or q.span[1] > len(self.text):
                raise CorpusError(f"problem {self.id}: quantity spans overlap or escape text")
            last = q.span[1]
        for i, q in enumerate(self.quantities):
            if q.index != i:
                raise CorpusError(f"problem {self.id}: quantities out of mention order")
        lo, hi = self.question_span
        if not (0 <= lo < hi <= len(self.tokens)):
            raise CorpusError(f"problem {self.id}: empty or out-of-bounds question span")
        if self.gold is not None and self.gold.tree is not None:
            try:
                value = exprtree.evaluate(self.gold.tree, self.values)
            except exprtree.EvaluationError as exc:
                tree = exprtree.serialize(self.gold.tree, self.values)
                raise CorpusError(f"problem {self.id}: gold tree {tree} divides by zero") from exc
            if value != self.gold.answer:
                raise CorpusError(f"problem {self.id}: gold tree does not evaluate to the answer")

    @property
    def n(self) -> int:
        return len(self.quantities)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(q.value for q in self.quantities)

    def token_texts(self) -> list[str]:
        return [t[0] for t in self.tokens]


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint folds plus the recipe for carving a dev set out of training."""

    folds: tuple[tuple[str, ...], ...]
    dev_fraction: float
    seed: int

    def train_dev_test(self, fold: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        test = self.folds[fold]
        pool = [pid for i, f in enumerate(self.folds) if i != fold for pid in f]
        rng = random.Random(f"{self.seed}:dev:{fold}")
        rng.shuffle(pool)
        n_dev = max(1, int(len(pool) * self.dev_fraction))
        return tuple(pool[n_dev:]), tuple(pool[:n_dev]), test


# ---------------------------------------------------------------------------
# construction

def _number_value(tok: str) -> Fraction:
    """The exact value of a number token: "1,000", "2.5", ".5", "1/2", "3 1/2",
    "-4", "-3 1/2"."""
    whole, _, fraction = tok.removeprefix("-").rpartition(" ")
    value = int(whole or 0) + Fraction(fraction.replace(",", ""))
    return -value if tok[0] == "-" else value


def _token_quantities(tokens: Sequence[Token]) -> list[Quantity]:
    out = []
    for pos, (tok, _sent, span) in enumerate(tokens):
        # ``\d`` is exactly ``str.isdecimal``; any other number starts "-", "." or \d
        if tok.isdecimal():
            value = Fraction(int(tok))
        elif (tok[0] in "-." or tok[0].isdecimal()) and _NUMBER_TOKEN_RE.match(tok):
            value = _number_value(tok)
        else:
            continue
        out.append(Quantity(index=len(out), value=value, token_index=pos, span=span))
    return out


def extract_quantities(text: str) -> list[Quantity]:
    """All maximal number tokens (decimals, fractions and mixed numbers, each
    with an optional sign), in mention order, as exact rationals."""
    return _token_quantities(tokenize(text))


_QUESTION_TRIGGERS = {"how", "what", "find", "calculate"}


def _question_span(tokens: Sequence[Token]) -> tuple[int, int]:
    sent = None
    for tok, s, _ in tokens:
        if tok == "?":
            sent = s
    if sent is None:
        sent = tokens[-1][1]
    idxs = [i for i, t in enumerate(tokens) if t[1] == sent]
    lo, hi = idxs[0], idxs[-1] + 1
    for i in range(lo, hi):
        if tokens[i][0] in _QUESTION_TRIGGERS:
            return (i, hi)
    return (lo, hi)


def build_problem(
    pid: str,
    text: str,
    answer: Fraction | str | int | None = None,
    tree_text: str | None = None,
    rates: Iterable[int | str] | None = None,
) -> Problem:
    """Normalize, tokenize and assemble a Problem, binding any gold data."""
    text = normalize_digits(text)
    tokens = tuple(tokenize(text))
    if not tokens:
        raise CorpusError(f"problem {pid}: empty text")
    quantities = tuple(_token_quantities(tokens))
    gold = None
    if answer is not None:
        tree = None
        if tree_text:
            try:
                tree = exprtree.parse_prefix(tree_text, [q.value for q in quantities])
            except exprtree.ExprError as exc:
                raise CorpusError(f"problem {pid}: {exc}") from exc
        rate_vertices = None
        if rates is not None:
            n = len(quantities)
            resolved = set()
            for r in rates:
                if r == QUESTION:
                    resolved.add(n)
                elif not isinstance(r, int) or isinstance(r, bool):
                    raise CorpusError(
                        f"problem {pid}: rate {r!r} is not a quantity index or {QUESTION!r}"
                    )
                elif not 0 <= r < n:
                    raise CorpusError(f"problem {pid}: rate index {r} out of range")
                else:
                    resolved.add(r)
            rate_vertices = frozenset(resolved)
        try:
            value = Fraction(str(answer))
        except (ValueError, ZeroDivisionError) as exc:
            raise CorpusError(f"problem {pid}: answer {answer!r} is not a rational number") from exc
        gold = GoldAnnotation(answer=value, tree=tree, rate_vertices=rate_vertices)
    return Problem(
        id=pid,
        text=text,
        tokens=tokens,
        quantities=quantities,
        question_span=_question_span(tokens),
        gold=gold,
    )


# ---------------------------------------------------------------------------
# overlap, pruning, folds, subsets

def _ngram_set(problem: Problem) -> set[str]:
    words = [t for t in problem.token_texts() if any(c.isalnum() for c in t)]
    grams = set(words)
    grams.update(f"{a} {b}" for a, b in zip(words, words[1:]))
    return grams


def _set_overlap(s1: set[str], s2: set[str]) -> float:
    if not s1 or not s2:
        raise CorpusError("cannot compute overlap of a problem with no tokens")
    return len(s1 & s2) / min(len(s1), len(s2))


def ngram_overlap(p1: Problem, p2: Problem) -> float:
    """|S1 ∩ S2| / min(|S1|, |S2|) over combined unigram+bigram sets."""
    return _set_overlap(_ngram_set(p1), _ngram_set(p2))


def prune_near_duplicates(
    problems: Sequence[Problem],
    threshold: float = 0.8,
    overlap: Callable[[Problem, Problem], float] = ngram_overlap,
) -> list[Problem]:
    """Greedy keep-first dedup: a problem survives iff its overlap with every
    already-kept problem is <= threshold. Output preserves input order.
    With the default ``overlap``, each problem's n-gram set is built once."""
    if not 0 < threshold <= 1:
        raise CorpusError(f"threshold must be in (0, 1], got {threshold}")
    keys: Sequence = problems
    if overlap is ngram_overlap:
        keys, overlap = list(map(_ngram_set, problems)), _set_overlap
    kept: list[Problem] = []
    kept_keys: list = []
    for p, key in zip(problems, keys):
        if all(overlap(key, k) <= threshold for k in kept_keys):
            kept.append(p)
            kept_keys.append(key)
    return kept


def make_folds(problems: Sequence[Problem], k: int, seed: int, dev_fraction: float = 0.2) -> DatasetSplit:
    """Deterministic k-fold split; fold sizes differ by at most one."""
    if k < 2:
        raise CorpusError(f"need at least 2 folds, got {k}")
    if k > len(problems):
        raise CorpusError(f"cannot make {k} folds from {len(problems)} problems")
    ids = [p.id for p in problems]
    if len(set(ids)) != len(ids):
        raise CorpusError("duplicate problem ids")
    rng = random.Random(seed)
    rng.shuffle(ids)
    folds = tuple(tuple(ids[i::k]) for i in range(k))
    return DatasetSplit(folds=folds, dev_fraction=dev_fraction, seed=seed)


def _lowest_average_overlap_half(
    problems: Sequence[Problem],
    keys: Sequence,
    pairwise: Callable[..., float],
    fraction: float,
) -> list[Problem]:
    """The ``fraction`` of ``problems`` whose ``pairwise`` scores with the
    others, read off each problem's key in ``keys``, average lowest."""
    if len(problems) < 2:
        return list(problems)
    scores = {}
    for i, (p, key) in enumerate(zip(problems, keys)):
        # one addition at a time, so the average does not depend on the
        # Python version (sum() compensates from 3.12)
        total = reduce(add, (pairwise(key, other) for j, other in enumerate(keys) if j != i), 0)
        scores[p.id] = total / (len(problems) - 1)
    order = sorted(problems, key=lambda p: (scores[p.id], p.id))
    keep = {p.id for p in order[: max(1, int(len(problems) * fraction))]}
    return [p for p in problems if p.id in keep]


def lexical_subset(problems: Sequence[Problem], fraction: float = 0.5) -> list[Problem]:
    """The lowest-average-n-gram-overlap slice of the dataset."""
    return _lowest_average_overlap_half(problems, list(map(_ngram_set, problems)), _set_overlap, fraction)


def template_subset(problems: Sequence[Problem], fraction: float = 0.5) -> list[Problem]:
    """The slice with the least reuse of gold-tree operation skeletons."""
    sigs = []
    for p in problems:
        if p.gold is None or p.gold.tree is None:
            raise CorpusError(f"problem {p.id}: template subset needs gold trees")
        sigs.append(exprtree.tree_signature(exprtree.canonicalize(p.gold.tree)))

    def same_template(a, b) -> float:
        return 1.0 if a == b else 0.0

    return _lowest_average_overlap_half(problems, sigs, same_template, fraction)


# ---------------------------------------------------------------------------
# JSONL I/O

def problem_to_record(problem: Problem) -> dict:
    record: dict = {"id": problem.id, "text": problem.text}
    if problem.gold is not None:
        record["answer"] = format_rational(problem.gold.answer)
        if problem.gold.tree is not None:
            record["tree"] = exprtree.serialize(problem.gold.tree, problem.values)
        if problem.gold.rate_vertices is not None:
            record["rates"] = [
                QUESTION if v == problem.n else v
                for v in sorted(problem.gold.rate_vertices)
            ]
    return record


def record_to_problem(record: dict) -> Problem:
    if not isinstance(record, dict):
        raise CorpusError(f"record must be a JSON object, got {type(record).__name__}")
    try:
        pid = record["id"]
        text = record["text"]
    except KeyError as exc:
        raise CorpusError(f"record missing field {exc}") from exc
    tree_text = record.get("tree")
    rates = record.get("rates")
    if not all(isinstance(v, str) for v in (pid, text, "" if tree_text is None else tree_text)):
        raise CorpusError(f"problem {pid}: id, text and tree must be strings")
    if not isinstance(rates, (list, type(None))):
        raise CorpusError(f"problem {pid}: rates must be a list")
    return build_problem(pid, text, answer=record.get("answer"), tree_text=tree_text, rates=rates)


def load_problems(path) -> list[Problem]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                problems.append(record_to_problem(record))
            except (json.JSONDecodeError, CorpusError, ValueError) as exc:
                raise CorpusError(f"{path}, line {lineno}: {exc}") from exc
    return problems


def save_problems(problems: Iterable[Problem], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in problems:
            fh.write(json.dumps(problem_to_record(p), sort_keys=True) + "\n")
