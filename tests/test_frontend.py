"""The solve path's front end against a copy of the per-vertex extraction it
replaced, and the vertex check every per-vertex entry point shares.

The copy below is the extraction as it was when each vertex listed the
tokens again, scanned all of them for its sentence and re-tagged its window,
every token was matched against the number pattern, and the context block
added one name at a time. Every fact the front end derives must be equal to
it: tokens, quantities (values and types), question span, units and every
feature vector's items in insertion order."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udgsolver import corpus, learn, units
from udgsolver.corpus import QUESTION
from udgsolver.learn import FeatureConfig

# --- the extraction before the one front-end pass ---------------------------------

_OLD_NUMBER_WORD_RE = re.compile(
    rf"\b(?:(?P<compound>(?:{'|'.join(corpus._TENS)})-(?:{'|'.join(w for w in corpus._ONES if w != 'zero')}))"
    rf"|(?P<bigram>(?:a|one)\s+(?:dozen|hundred))"
    rf"|(?P<single>{'|'.join(w for w in corpus._WORD_VALUES if w != 'one')}))\b",
    re.IGNORECASE,
)


def _old_build(text):
    text = _OLD_NUMBER_WORD_RE.sub(corpus._number_word_value, text)
    tokens = tuple(corpus.tokenize(text))
    quantities = []
    for pos, (tok, _sent, span) in enumerate(tokens):
        if corpus._NUMBER_TOKEN_RE.match(tok):
            value = corpus._number_value(tok)
            quantities.append(corpus.Quantity(len(quantities), value, pos, span))
    return text, tokens, tuple(quantities), corpus._question_span(tokens)


def _old_noun_at(tokens, i):
    return units.pos_tag(tokens[i]) == units.NOUN


def _old_noun_run(tokens, start, limit):
    run = [units.lemma(tokens[start])]
    if start + 1 < limit and _old_noun_at(tokens, start + 1):
        run.append(units.lemma(tokens[start + 1]))
    return tuple(run)


def _old_den_noun_after(tokens, pos, limit):
    for i in range(pos + 1, min(limit, pos + 1 + units.SEARCH_WINDOW)):
        if _old_noun_at(tokens, i) or tokens[i] == "one":
            return i
    return None


def _old_nearest_noun_after(tokens, pos, limit):
    for i in range(pos + 1, min(limit, pos + 1 + units.SEARCH_WINDOW)):
        if _old_noun_at(tokens, i):
            return i
    return None


def _old_nearest_noun_before(tokens, pos, lo):
    for i in range(pos - 1, max(lo - 1, pos - 1 - units.SEARCH_WINDOW), -1):
        if _old_noun_at(tokens, i):
            return i
    return None


def _old_extract_in_window(tokens, anchor, lo, hi):
    QuantityUnit = units.QuantityUnit
    noun_i = _old_nearest_noun_after(tokens, anchor, hi)
    if noun_i is None:
        noun_i = _old_nearest_noun_before(tokens, anchor, lo)
    surface = _old_noun_run(tokens, noun_i, hi) if noun_i is not None else ()

    window_end = min(hi, anchor + 1 + units.SEARCH_WINDOW)

    for i in range(anchor + 1, window_end):
        if tokens[i] in ("per", "/"):
            den_i = _old_den_noun_after(tokens, i, hi)
            if den_i is not None and surface:
                return QuantityUnit(surface, num_unit=surface, den_unit=_old_noun_run(tokens, den_i, hi))

    for i in range(anchor + 1, window_end):
        if tokens[i] in ("each", "every"):
            den_i = _old_den_noun_after(tokens, i, hi)
            if den_i is not None and surface:
                return QuantityUnit(surface, num_unit=surface, den_unit=_old_noun_run(tokens, den_i, hi))

    for i in range(lo, anchor):
        if tokens[i] in ("each", "every"):
            den_i = _old_den_noun_after(tokens, i, anchor)
            if den_i is not None and surface:
                return QuantityUnit(surface, num_unit=surface, den_unit=_old_noun_run(tokens, den_i, anchor))

    for i in range(anchor + 1, window_end):
        if tokens[i] in ("a", "an") and (i == anchor + 1 or _old_noun_at(tokens, i - 1)):
            den_i = _old_den_noun_after(tokens, i, hi)
            if den_i is not None and surface:
                return QuantityUnit(surface, num_unit=surface, den_unit=_old_noun_run(tokens, den_i, hi))

    return QuantityUnit(surface)


def _old_extract_unit(problem, vertex):
    tokens = problem.token_texts()
    if vertex == QUESTION:
        lo, hi = problem.question_span
        anchor = lo
        for i in range(lo, hi):
            if tokens[i] in ("many", "much"):
                anchor = i
                break
        return _old_extract_in_window(tokens, anchor, lo, hi)
    q = problem.quantities[vertex]
    sent = problem.tokens[q.token_index][1]
    sent_idx = [i for i, t in enumerate(problem.tokens) if t[1] == sent]
    return _old_extract_in_window(tokens, q.token_index, sent_idx[0], sent_idx[-1] + 1)


def _old_bump(fv, name):
    count = fv.get(name)
    fv[name] = 1.0 if count is None else count + 1.0


def _old_vertex_features(problem, vertex, config):
    fv = {"bias": 1.0}
    if vertex == QUESTION:
        _old_bump(fv, "is_question")
    if config.context_features:
        toks = problem.token_texts()
        tags = [units.pos_tag(t) for t in toks]
        if vertex == QUESTION:
            lo, hi = problem.question_span
            anchor = lo
        else:
            anchor = problem.quantities[vertex].token_index
            lo, hi = max(0, anchor - config.window), min(len(toks), anchor + config.window + 1)
        for i in range(lo, hi):
            for name in (f"u:{toks[i]}", f"u@{i - anchor}:{toks[i]}", f"p:{tags[i]}", f"wp:{toks[i]}_{tags[i]}"):
                _old_bump(fv, name)
        for i in range(lo, hi - 1):
            a, b, ta, tb = toks[i], toks[i + 1], tags[i], tags[i + 1]
            _old_bump(fv, f"b:{a} {b}")
            _old_bump(fv, f"pb:{ta} {tb}")
            if ta == units.NUM:
                _old_bump(fv, f"bn:<n> {b}")
            if tb == units.NUM:
                _old_bump(fv, f"bn:{a} <n>")
    if config.rule_features:
        unit = _old_extract_unit(problem, vertex)
        if unit.rule_rate_flag:
            _old_bump(fv, "rule:rate")
        for tok in unit.surface_unit:
            _old_bump(fv, f"unit:{tok}")
        for tok in unit.den_unit or ():
            _old_bump(fv, f"denu:{tok}")
    return fv


# --- texts ---------------------------------------------------------------------

_FRAGMENTS = (
    # number words, compounds and bigrams, in any case
    "twenty-one", "Forty-Two", "ninety-nine", "a dozen", "A dozen", "one hundred", "One Hundred",
    "ten", "Seven", "twelve", "zero", "one", "hundred", "dozen", "twenty-", "sixty-zero",
    # signed, mixed, decimal and thousands-separated numbers, fractions
    "3 1/2", "-4", "-3 1/2", "1,000", "2,500.5", "4,5", ".5", "1/2", "1/0", "3/4/2020", "12", "0",
    "3-4", "well-4", "007",
    # Unicode decimals, and a digit that is no decimal
    "٣", "３", "٣٤", "٣,٠٠٠", "３ １/２", "²", "x²",
    # rate triggers and unit nouns
    "per", "each", "every", "a", "an", "/", "miles/hour", "20/hour", "miles", "hour", "apples", "pens",
    "box", "boxes", "student's", "Sam", "had", "bought", "in", "the", "it",
    # question words and sentence ends
    "How", "many", "much", "what", "left", ".", "?", "!", ",", "apples.", "hour?",
)

_TEXTS = st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=30).map(" ".join)

_CONFIGS = (
    FeatureConfig(),
    FeatureConfig(context_features=False),
    FeatureConfig(rule_features=False),
    FeatureConfig(window=0),
    FeatureConfig(window=7),
)


def _typed(fv):
    return [(name, type(value), value) for name, value in fv.items()]


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
@example(
    "Sam had twenty-one apples and a dozen pears. He ate 3 1/2 apples. How many fruits are left?"
)
@example("Each box holds ٣ pens and ３ cups, one hundred x² per hour. It went 1,000 miles an hour! How much?")
@example("The car went -4 miles/hour and 2,500.5 miles each day . .5 of 1/2 every hour")
def test_front_end_equals_the_per_vertex_extraction(text):
    new = corpus.build_problem("t", text)
    old_text, tokens, quantities, question_span = _old_build(text)
    assert (new.text, new.tokens, new.question_span) == (old_text, tokens, question_span)
    assert new.quantities == quantities
    assert [type(q.value) for q in new.quantities] == [Fraction] * len(quantities)
    vertices = (*range(new.n), QUESTION)
    old_units = tuple(_old_extract_unit(new, v) for v in vertices)
    assert tuple(units.extract_unit(new, v) for v in vertices) == old_units
    for config in _CONFIGS:
        feats = learn.problem_features(new, config)
        assert feats.vertex_units == (old_units if config.rule_features else None)
        expected = [_typed(_old_vertex_features(new, v, config)) for v in vertices]
        assert [_typed(fv) for fv in feats.vectors] == expected
        assert [_typed(learn.vertex_features(new, v, config)) for v in vertices] == expected


# --- the shared vertex check ----------------------------------------------------------

TWO_QUANTITIES = "Sam has 3 apples and 5 pears. How many fruits does Sam have?"


@pytest.mark.parametrize("vertex", [True, False, -1, -2, 2, 5, 1.0, "1", None])
def test_every_per_vertex_entry_refuses_a_non_vertex(vertex):
    p = corpus.build_problem("t", TWO_QUANTITIES)
    assert p.n == 2
    calls = (
        lambda: units.extract_unit(p, vertex),
        *(lambda config=config: learn.vertex_features(p, vertex, config) for config in _CONFIGS),
        lambda: learn.edge_features(p, vertex, QUESTION),
        lambda: learn.edge_features(p, 0, vertex),
        lambda: learn.relevance_features(p, vertex),
        lambda: learn.lca_features(p, vertex, 1),
        lambda: learn.lca_features(p, 0, vertex),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"no quantity with index {vertex!r}")):
            call()


def test_every_per_vertex_entry_takes_each_vertex():
    p = corpus.build_problem("t", TWO_QUANTITIES)
    for v in (0, 1, QUESTION):
        units.extract_unit(p, v)
        learn.vertex_features(p, v)
    learn.edge_features(p, 1, QUESTION)
    learn.relevance_features(p, 1)
    learn.lca_features(p, 0, 1)
