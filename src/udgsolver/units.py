"""Rule-based unit and rate extraction.

A rate quantity measures one entity per unit of another ("40 miles per
hour", "Each student has 3 books"). Extraction finds the nearest noun phrase
as the surface unit and fills the numerator/denominator decomposition when a
lexical rate trigger ("per", "/", "each", "every", "a" in rate position)
fires. A feature pass tags the tokens once (``tag_tokens``) and reads every
vertex's unit off them (``unit_at``); all of it is immutable and thread-safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

from .corpus import QUESTION, Problem

#: How far past a number we look for its unit noun and rate triggers.
SEARCH_WINDOW = 5

NOUN, VERB, ADJ, NUM, OTHER = "NOUN", "VERB", "ADJ", "NUM", "OTHER"

_FUNCTION_WORDS = {
    "a", "an", "the", "this", "that", "these", "those", "each", "every",
    "all", "some", "any", "no", "more", "most", "other", "another", "much",
    "many", "few", "several", "of", "in", "on", "at", "for", "with", "from",
    "to", "by", "as", "into", "onto", "among", "per", "and", "or", "but",
    "if", "then", "than", "so", "not", "now", "still", "up", "down", "out",
    "over", "under", "off", "away", "again", "also", "too", "very", "just",
    "only", "there", "here", "when", "where", "how", "what", "which", "who",
    "why", "she", "he", "they", "them", "her", "him", "his", "hers", "their",
    "theirs", "its", "it", "you", "your", "i", "we", "us", "my", "our",
    "me", "before", "after", "during", "about", "because", "while", "both",
    "evenly", "currently", "yesterday", "today", "tomorrow", "apiece",
}

_VERB_WORDS = {
    "is", "are", "was", "were", "be", "been", "being", "am", "do", "does",
    "did", "done", "has", "have", "had", "will", "would", "can", "could",
    "should", "shall", "may", "might", "must", "make", "makes", "made",
    "making", "pick", "picks", "picked", "give", "gives", "gave", "given",
    "get", "gets", "got", "buy", "buys", "bought", "sell", "sells", "sold",
    "hold", "holds", "held", "fill", "fills", "filled", "collect", "collects",
    "collected", "pack", "packs", "packed", "split", "splits", "lose",
    "loses", "lost", "find", "finds", "found", "earn", "earns", "earned",
    "need", "needs", "needed", "plant", "plants", "planted", "grow", "grows",
    "grew", "went", "go", "goes", "leave", "leaves", "left", "win", "wins",
    "won", "serve", "serves", "served", "store", "stores", "stored", "ask",
    "asks", "asked", "travel", "travels", "traveled", "drive", "drives",
    "drove", "say", "says", "said", "share", "shares", "shared", "put",
    "puts", "remain", "remains", "remained",
}

_ADJ_WORDS = {
    "red", "blue", "green", "yellow", "big", "small", "large", "little",
    "new", "old", "long", "short", "tall", "same", "different", "extra",
}


def lemma(word: str) -> str:
    """Suffix-stripping noun lemmatizer; involutive on its own outputs."""
    w = word.lower()
    if w.endswith("'s"):
        w = w[:-2]
    if len(w) > 4 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 4 and w.endswith(("ches", "shes", "sses", "xes", "zes")):
        return w[:-2]
    if len(w) > 3 and w.endswith("s") and not w.endswith(("ss", "us", "is")):
        return w[:-1]
    return w


def pos_tag(token: str) -> str:
    """Coarse tag: NUM, OTHER (function words), VERB, ADJ, default NOUN."""
    body = token.removeprefix("-")  # "-4", "-.5"
    # the characters \d matches, so "²" is no number: "5", ".5", "1/2", "3 1/2"
    if body[:1].isdecimal() or body[:1] == "." and body[1:2].isdecimal():
        return NUM
    if not token.isalpha() and "'" not in token:
        return OTHER
    w = token.lower()
    if w in _FUNCTION_WORDS:
        return OTHER
    if w in _VERB_WORDS:
        return VERB
    if w in _ADJ_WORDS or w.endswith(("ful", "ous", "ive")):
        return ADJ
    if w.endswith(("ing", "ed")) and len(w) > 4:
        return VERB
    return NOUN


@dataclass(frozen=True)
class QuantityUnit:
    """Unit tokens for one vertex; rates carry a Num/Den decomposition."""

    surface_unit: tuple[str, ...]
    num_unit: tuple[str, ...] | None = None
    den_unit: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.den_unit is not None and self.num_unit is None:
            raise ValueError("a rate unit needs a numerator unit")

    @property
    def rule_rate_flag(self) -> bool:
        return self.den_unit is not None


def _noun_run(toks: list[str], tags: list[str], start: int, limit: int) -> tuple[str, ...]:
    """Lemmas of the consecutive noun run starting at ``start`` (max 2)."""
    run = [lemma(toks[start])]
    if start + 1 < limit and tags[start + 1] == NOUN:
        run.append(lemma(toks[start + 1]))
    return tuple(run)


def _nearest_noun_after(tags: list[str], pos: int, limit: int) -> int | None:
    for i in range(pos + 1, min(limit, pos + 1 + SEARCH_WINDOW)):
        if tags[i] == NOUN:
            return i
    return None


def _nearest_noun_before(tags: list[str], pos: int, lo: int) -> int | None:
    for i in range(pos - 1, max(lo - 1, pos - 1 - SEARCH_WINDOW), -1):
        if tags[i] == NOUN:
            return i
    return None


def _den_noun_after(toks: list[str], tags: list[str], pos: int, limit: int) -> int | None:
    # "each one" is anaphoric but still names the denominator entity
    for i in range(pos + 1, min(limit, pos + 1 + SEARCH_WINDOW)):
        if tags[i] == NOUN or toks[i] == "one":
            return i
    return None


def _extract_in_window(toks: list[str], tags: list[str], anchor: int, lo: int, hi: int) -> QuantityUnit:
    """Shared unit/rate logic for a quantity at ``anchor`` or a question span."""
    noun_i = _nearest_noun_after(tags, anchor, hi)
    if noun_i is None:
        noun_i = _nearest_noun_before(tags, anchor, lo)
    if noun_i is None:
        return QuantityUnit(())  # no surface unit, so no rate either
    surface = _noun_run(toks, tags, noun_i, hi)

    # explicit "per" / "/" beats "each"/"every" after the quantity ("8
    # flowers in each one"), which beats "each"/"every" before it, binding
    # the subject noun ("Each student has 3 books"); then "a"/"an" in rate
    # position ("60 miles an hour"), after the number or its unit noun, so
    # "gave 3 plums to a friend" stays flat
    after = range(anchor + 1, min(hi, anchor + 1 + SEARCH_WINDOW))
    triggers = chain(
        ((i, hi) for i in after if toks[i] in ("per", "/")),
        ((i, hi) for i in after if toks[i] in ("each", "every")),
        ((i, anchor) for i in range(lo, anchor) if toks[i] in ("each", "every")),
        ((i, hi) for i in after if toks[i] in ("a", "an") and (i == anchor + 1 or tags[i - 1] == NOUN)),
    )
    for i, limit in triggers:
        den_i = _den_noun_after(toks, tags, i, limit)
        if den_i is not None:
            return QuantityUnit(surface, num_unit=surface, den_unit=_noun_run(toks, tags, den_i, limit))
    return QuantityUnit(surface)


def check_vertices(problem: Problem, *vertices: int | str) -> None:
    """Raise ValueError unless each vertex is QUESTION or a quantity index
    (an int, not a bool, in 0..n-1)."""
    for vertex in vertices:
        if vertex != QUESTION and (type(vertex) is not int or not 0 <= vertex < problem.n):
            raise ValueError(f"no quantity with index {vertex!r}")


#: (token texts, their ``pos_tag`` tags, sentence starts); see ``tag_tokens``
Tagged = tuple[list[str], list[str], list[int]]


def tag_tokens(problem: Problem) -> Tagged:
    """The problem's token texts and tags, each token tagged once, and where
    its sentences start: sentence s spans tokens ``starts[s]:starts[s + 1]``
    (``Problem`` checks that its tokens' sentence indices run 0, 1, ... in
    order, with no gap)."""
    toks = problem.token_texts()
    sentences = [t[1] for t in problem.tokens]
    starts = [bisect_left(sentences, s) for s in range(sentences[-1] + 2)]
    return toks, list(map(pos_tag, toks)), starts


def unit_at(problem: Problem, vertex: int | str, tagged: Tagged) -> QuantityUnit:
    """``extract_unit(problem, vertex)`` for a vertex of the problem (see
    ``check_vertices``), read off the problem's ``tag_tokens``."""
    toks, tags, starts = tagged
    if vertex == QUESTION:
        lo, hi = problem.question_span
        anchor = next((i for i in range(lo, hi) if toks[i] in ("many", "much")), lo)
        return _extract_in_window(toks, tags, anchor, lo, hi)
    anchor = problem.quantities[vertex].token_index
    sentence = problem.tokens[anchor][1]
    return _extract_in_window(toks, tags, anchor, starts[sentence], starts[sentence + 1])


def extract_unit(problem: Problem, vertex: int | str) -> QuantityUnit:
    """Unit of a quantity (by index) or of the question (vertex=QUESTION).

    Never fails on a vertex of the problem: an empty surface unit is
    returned when no noun is found. Any other vertex raises ValueError."""
    check_vertices(problem, vertex)
    return unit_at(problem, vertex, tag_tokens(problem))


def units_share_tokens(u1: QuantityUnit, u2: QuantityUnit) -> bool:
    """Whether the surface lemma-token sets intersect."""
    return bool(set(u1.surface_unit) & set(u2.surface_unit))
