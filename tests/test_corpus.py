import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgsolver import corpus, units
from udgsolver.corpus import (
    CorpusError,
    build_problem,
    extract_quantities,
    load_problems,
    make_folds,
    ngram_overlap,
    normalize_digits,
    prune_near_duplicates,
    save_problems,
)

from conftest import FIG1_TEXT, case_equated_letters


# --- digit normalization ---------------------------------------------------

def test_normalize_digits_identity_on_digits():
    text = "If 10 of the flowers wilted"
    assert normalize_digits(text) == text


def test_normalize_word_and_compound():
    assert normalize_digits("ten flowers") == "10 flowers"
    assert normalize_digits("twenty-one books") == "21 books"
    assert normalize_digits("a dozen eggs") == "12 eggs"
    assert normalize_digits("Ten flowers") == "10 flowers"


def _independent_number_words():
    # built from scratch, not from the module tables
    ones = "zero one two three four five six seven eight nine".split()
    teens = ("ten eleven twelve thirteen fourteen fifteen sixteen "
             "seventeen eighteen nineteen").split()
    tens = "twenty thirty forty fifty sixty seventy eighty ninety".split()
    words = {}
    for v, w in enumerate(ones):
        words[v] = w
    for v, w in enumerate(teens, start=10):
        words[v] = w
    for i, w in enumerate(tens):
        base = 20 + 10 * i
        words[base] = w
        for unit in range(1, 10):
            words[base + unit] = f"{w}-{ones[unit]}"
    words[100] = "one hundred"
    return words


def test_normalize_against_hand_built_table():
    for value, word in _independent_number_words().items():
        if value == 1:
            continue  # standalone "one" is left alone (pronoun reading)
        assert normalize_digits(f"{word} apples") == f"{value} apples", word



def test_every_word_of_the_module_tables_is_rewritten():
    # the pattern's first-letter lookahead is built from these tables, so a
    # word added to them is matched in any case
    words = [w for w in corpus._WORD_VALUES if w != "one"]
    words += [f"{t}-{o}" for t in corpus._TENS for o in corpus._ONES if o != "zero"]
    words += ["a dozen", "one dozen", "a hundred", "one hundred"]
    for word in words:
        for cased in (word, word.title(), word.upper()):
            assert normalize_digits(f"{cased} apples")[0].isdigit(), cased

def test_number_words_spelled_with_case_equated_letters_are_rewritten():
    # the pattern matches case-insensitively, so a non-ASCII letter that such
    # matching equates to an ASCII one ("ſ" to "s") spells the same word
    equated = case_equated_letters()
    assert {"\u0130", "\u0131", "\u017f"} <= set(equated)
    words = {w: v for w, v in corpus._WORD_VALUES.items() if w != "one"}
    words |= {
        f"{t}-{o}": corpus._TENS[t] + corpus._ONES[o]
        for t in corpus._TENS
        for o in corpus._ONES
        if o != "zero"
    }
    words |= {f"{a} {w}": corpus._WORD_VALUES[w] for a in ("a", "one") for w in ("dozen", "hundred")}
    checked = 0
    for c, letter in equated.items():
        for word, value in words.items():
            for cased in (word, word.upper()):
                k = cased.lower().find(letter)
                if k < 0:
                    continue
                # every occurrence of the letter replaced, and only the first
                for spelled in (re.sub(letter, c, cased, flags=re.IGNORECASE), cased[:k] + c + cased[k + 1 :]):
                    text = f"Sam has {spelled} apples."
                    once = normalize_digits(text)
                    assert once == f"Sam has {value} apples.", spelled
                    assert normalize_digits(once) == once
                    checked += 1
    assert checked > 100


def test_standalone_one_passes_through():
    assert normalize_digits("with 8 flowers in each one") == "with 8 flowers in each one"
    assert normalize_digits("one of them left") == "one of them left"


@settings(max_examples=60)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=122), max_size=80))
def test_normalize_idempotent(text):
    once = normalize_digits(text)
    assert normalize_digits(once) == once


# --- quantity extraction ---------------------------------------------------

def test_extract_quantities_fig1():
    values = [q.value for q in extract_quantities(normalize_digits(FIG1_TEXT))]
    assert values == [66, 8, 10]


def test_extract_quantities_empty():
    assert extract_quantities("no numbers here") == []


def test_extract_quantities_decimals_exact():
    qs = extract_quantities("Her hair is 18.0 inches long. Now it is 24.0 inches long.")
    assert [q.value for q in qs] == [Fraction(18), Fraction(24)]
    assert all(isinstance(q.value, Fraction) for q in qs)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**12), st.one_of(st.none(), st.integers(0, 999)))
def test_thousands_separators_round_trip(whole, decimals):
    number = f"{whole:,}" if decimals is None else f"{whole:,}.{decimals}"
    text = f"They sold {number} tickets, 4,5 of them late."
    qs = extract_quantities(text)
    assert [q.value for q in qs] == [Fraction(number.replace(",", "")), 4, 5]
    assert text[qs[0].span[0] : qs[0].span[1]] == number


def test_leading_dot_decimal_is_one_quantity_inside_its_sentence():
    p = build_problem("t", "Sam paid .5 dollars for a pen. He had 3 apples.5 more fell. How many dollars?")
    assert [q.value for q in p.quantities] == [Fraction(1, 2), 3, 5]
    first = p.quantities[0]
    assert p.tokens[first.token_index][:2] == (".5", 0)  # the dot ends no sentence
    assert [p.tokens[q.token_index][1] for q in p.quantities] == [0, 1, 2]
    assert units.pos_tag(".5") == units.NUM and units.pos_tag(".") != units.NUM


def test_fractions_and_mixed_numbers_are_one_quantity():
    text = "Sam ate 1/2 of a pie and 3 1/2 cakes, then 1/0 more and 3/4/2020 at 40 miles/hour."
    p = build_problem("t", text)
    assert [q.value for q in p.quantities] == [Fraction(1, 2), Fraction(7, 2), 1, 0, 3, 4, 2020, 40]
    assert [text[slice(*q.span)] for q in p.quantities][:3] == ["1/2", "3 1/2", "1"]
    assert [t[0] for t in p.tokens].count("/") == 4  # "1/0", twice in the date, "miles/hour"
    assert [q.value for q in extract_quantities(text)] == [q.value for q in p.quantities]


def test_minus_sign_before_number_is_part_of_it():
    text = "It was -4 degrees, 3-4 hours and well-4 below, x--4, -3 1/2, -.5, 1/-2 and (-1,000)."
    qs = extract_quantities(text)
    assert [q.value for q in qs] == [-4, 3, 4, 4, 4, Fraction(-7, 2), Fraction(-1, 2), 1, 2, -1000]
    assert [text[slice(*q.span)] for q in qs][:6] == ["-4", "3", "4", "4", "4", "-3 1/2"]
    assert [t[0] for t in corpus.tokenize(text)].count("-") == 5  # "3-4", "well-4", "x--4" twice, "1/-2"
    assert units.pos_tag("-4") == units.pos_tag("-.5") == units.NUM
    assert units.pos_tag("-") != units.NUM
    p = build_problem(
        "t", "It was -4 degrees and rose 10 degrees. How warm is it?", answer=Fraction(6), tree_text="(+ -4 10)"
    )
    assert p.values == (-4, 10)
    assert corpus.record_to_problem(corpus.problem_to_record(p)) == p


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.none(), st.integers(0, 999)), st.integers(0, 10**6), st.integers(1, 10**6))
def test_fraction_round_trip(whole, num, den):
    number = f"{num}/{den}" if whole is None else f"{whole} {num}/{den}"
    qs = extract_quantities(f"They ate {number} pies.")
    assert [q.value for q in qs] == [(whole or 0) + Fraction(num, den)]
    assert qs[0].span == (9, 9 + len(number))


def test_quantity_spans_point_into_text():
    text = normalize_digits(FIG1_TEXT)
    for q in extract_quantities(text):
        assert text[q.span[0] : q.span[1]] == str(q.value)



def test_problem_refuses_tokens_whose_sentences_do_not_run_in_order():
    # a sentence's tokens are found by bisecting the sentence indices, so a
    # Problem built directly must number its sentences 0, 1, ... in order
    p = build_problem("a", "Sam has 3 apples. He eats 1. How many are left?")
    sentences = [t[1] for t in p.tokens]
    assert sentences[0] == 0 and set(b - a for a, b in zip(sentences, sentences[1:])) == {0, 1}
    assert dataclasses.replace(p, tokens=p.tokens).tokens == p.tokens
    for renumber in (
        lambda s: s + 1,  # starts at 1
        lambda s: s - 1,  # starts at -1
        lambda s: 2 * s,  # skips a sentence index
        lambda s: 2 - s,  # runs backwards
        lambda s: {0: 0, 1: 2, 2: 1}[s],  # out of order
    ):
        tokens = tuple((text, renumber(s), span) for text, s, span in p.tokens)
        with pytest.raises(CorpusError, match="sentence"):
            dataclasses.replace(p, tokens=tokens)

# --- n-gram overlap and pruning --------------------------------------------

def _problem(pid, text):
    return build_problem(pid, text)


def test_overlap_identical_is_one():
    p = _problem("a", "the cat sat on the mat")
    assert ngram_overlap(p, p) == 1.0


def test_overlap_disjoint_is_zero():
    assert ngram_overlap(_problem("a", "alpha beta gamma"), _problem("b", "delta epsilon zeta")) == 0.0


def test_overlap_hand_enumerated():
    # {a,b,c,ab,bc} vs {a,b,d,ab,bd}: intersection 3, min size 5
    p1 = _problem("a", "a b c")
    p2 = _problem("b", "a b d")
    assert ngram_overlap(p1, p2) == pytest.approx(0.6)


@settings(max_examples=40)
@given(
    st.lists(st.sampled_from("cat dog mat sat ran the a on".split()), min_size=1, max_size=12),
    st.lists(st.sampled_from("cat dog mat sat ran the a on".split()), min_size=1, max_size=12),
)
def test_overlap_symmetric_and_bounded(words1, words2):
    p1 = _problem("a", " ".join(words1))
    p2 = _problem("b", " ".join(words2))
    o = ngram_overlap(p1, p2)
    assert o == ngram_overlap(p2, p1)
    assert 0.0 <= o <= 1.0


def test_overlap_rejects_tokenless():
    with pytest.raises(CorpusError):
        build_problem("a", "")


def test_prune_drops_identical():
    p1 = _problem("a", "the cat sat on the mat")
    p2 = _problem("b", "the cat sat on the mat")
    kept = prune_near_duplicates([p1, p2], 0.8)
    assert [p.id for p in kept] == ["a"]


def test_prune_keeps_disjoint():
    ps = [_problem("a", "alpha beta"), _problem("b", "gamma delta"), _problem("c", "eps zeta")]
    assert prune_near_duplicates(ps, 0.8) == ps


def test_prune_greedy_chain():
    # A~B 0.9, B~C 0.9, A~C 0.1: greedy keeps A, drops B, keeps C
    ps = [_problem("A", "one text"), _problem("B", "two text"), _problem("C", "three text")]
    table = {("A", "B"): 0.9, ("B", "C"): 0.9, ("A", "C"): 0.1}

    def fake_overlap(p, q):
        key = tuple(sorted((p.id, q.id)))
        return table[key]

    kept = prune_near_duplicates(ps, 0.8, overlap=fake_overlap)
    assert [p.id for p in kept] == ["A", "C"]


def test_prune_posthoc_invariant(synthetic_corpus):
    sample = synthetic_corpus[:80]
    kept = prune_near_duplicates(sample, 0.8)
    for i, p in enumerate(kept):
        for q in kept[:i]:
            assert ngram_overlap(p, q) <= 0.8


_texts = st.lists(
    st.lists(st.sampled_from(["the", "cat", "sat", "on", "mat", "a", "dog", "."]), min_size=1, max_size=6).map(" ".join),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(_texts, st.sampled_from([1.0, 0.8, 0.5, 1e-9]) | st.floats(1e-9, 1.0))
def test_prune_equals_the_plain_loop(texts, threshold):
    # duplicate texts are common here, and a text of "." alone has no n-grams
    problems = [_problem(f"p{k}", text) for k, text in enumerate(texts)]
    kept = []
    try:
        for p in problems:
            if all(ngram_overlap(p, k) <= threshold for k in kept):
                kept.append(p)
    except CorpusError:
        with pytest.raises(CorpusError, match="no tokens"):
            prune_near_duplicates(problems, threshold)
        return
    expected = [p.id for p in kept]
    assert [p.id for p in prune_near_duplicates(problems, threshold)] == expected
    custom = prune_near_duplicates(problems, threshold, overlap=lambda p, q: ngram_overlap(p, q))
    assert [p.id for p in custom] == expected


def test_prune_threshold_validation():
    with pytest.raises(CorpusError):
        prune_near_duplicates([], 0.0)


# --- folds ------------------------------------------------------------------

def _numbered_problems(n):
    return [_problem(f"p{i}", f"text number {i} with {i} things") for i in range(n)]


def test_folds_exact_division():
    split = make_folds(_numbered_problems(10), 5, seed=3)
    assert sorted(len(f) for f in split.folds) == [2, 2, 2, 2, 2]


def test_folds_pigeonhole():
    split = make_folds(_numbered_problems(11), 5, seed=3)
    assert sorted(len(f) for f in split.folds) == [2, 2, 2, 2, 3]


def test_folds_deterministic():
    ps = _numbered_problems(17)
    assert make_folds(ps, 5, seed=9) == make_folds(ps, 5, seed=9)


def test_folds_partition_and_dev():
    ps = _numbered_problems(23)
    split = make_folds(ps, 5, seed=1)
    all_ids = {p.id for p in ps}
    seen = set()
    for fold in split.folds:
        assert not (set(fold) & seen)
        seen.update(fold)
    assert seen == all_ids
    for i in range(5):
        train, dev, test = split.train_dev_test(i)
        assert set(test) == set(split.folds[i])
        assert not (set(dev) & set(test))
        assert not (set(train) & set(dev))
        assert set(train) | set(dev) | set(test) == all_ids
        assert len(dev) == max(1, int((len(ps) - len(test)) * 0.2))


def test_folds_too_many():
    with pytest.raises(CorpusError):
        make_folds(_numbered_problems(3), 5, seed=0)


# --- JSONL I/O ---------------------------------------------------------------

def test_jsonl_round_trip(tmp_path, synthetic_corpus):
    path = tmp_path / "probs.jsonl"
    sample = synthetic_corpus[:25]
    save_problems(sample, path)
    loaded = load_problems(path)
    assert [p.id for p in loaded] == [p.id for p in sample]
    for a, b in zip(sample, loaded):
        assert a.text == b.text
        assert a.gold.answer == b.gold.answer
        assert a.gold.tree == b.gold.tree
        assert a.gold.rate_vertices == b.gold.rate_vertices


def test_jsonl_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "has 3 things"}\nnot json\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_problems(path)


def test_gold_tree_must_match_answer():
    with pytest.raises(CorpusError):
        build_problem("x", "I have 3 cats and 4 dogs.", answer=99, tree_text="(+ 3 4)")


_ZERO_DIVISION_RECORDS = [
    ({"id": "a", "text": "Sam had 3 pears. How many pears?", "answer": answer},
     f"problem a: answer {answer!r} is not a rational number")
    for answer in ("1/0", "0/0", "-3/0")
] + [
    ({"id": "z", "text": "Joan had 44 cookies and 0 boxes. How many cookies per box?",
      "tree": "(/ 44 0)", "answer": "1"},
     "problem z: gold tree (/ 44 0) divides by zero"),
]


@pytest.mark.parametrize("record, message", _ZERO_DIVISION_RECORDS)
def test_records_that_divide_by_zero_are_corpus_errors(tmp_path, record, message):
    # a zero denominator in the answer or in the gold tree is bad input, not
    # a ZeroDivisionError or EvaluationError
    with pytest.raises(CorpusError, match=re.escape(message)):
        build_problem(record["id"], record["text"], answer=record["answer"], tree_text=record.get("tree"))
    path = tmp_path / "bad.jsonl"
    good = {"id": "ok", "text": "Sam had 3 pears. How many pears?", "answer": "3"}
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}, line 2: {message}")):
        load_problems(path)


def test_record_optional_fields_may_be_null():
    record = {"id": "a", "text": "Sam had 3 pears and ate 1 pear. How many?", "answer": "2"}
    problem = corpus.record_to_problem(record | {"tree": None, "rates": None})
    assert problem.gold.tree is None and problem.gold.rate_vertices is None
    problem = corpus.record_to_problem(record | {"rates": [0, "question"]})
    assert problem.gold.rate_vertices == {0, 2}


def test_fraction_answers_survive(tmp_path):
    p = build_problem("x", "Split 1 pie among 3 kids.", answer=Fraction(1, 3))
    path = tmp_path / "f.jsonl"
    save_problems([p], path)
    assert load_problems(path)[0].gold.answer == Fraction(1, 3)


# --- subsets ----------------------------------------------------------------

def test_average_overlap_adds_one_term_at_a_time():
    # sum() compensates rounding from Python 3.12 on: it would give "a" the
    # average 1/3 and keep "b"; added one term at a time "a" averages 0.0
    problems = [_problem(pid, f"text {pid}") for pid in "abcd"]
    table = {"a": {"b": 1e16, "c": 1.0, "d": -1e16}, "b": {}}

    def pairwise(p, q):
        return table.get(p.id, {}).get(q.id, 0.1 if p.id == "b" else 0.5)

    kept = corpus._lowest_average_overlap_half(problems, problems, pairwise, 0.25)
    assert [p.id for p in kept] == ["a"]


def test_lexical_subset_smaller_and_lower_overlap(synthetic_corpus):
    sample = synthetic_corpus[:60]
    subset = corpus.lexical_subset(sample, 0.5)
    assert len(subset) == 30
    ids = {p.id for p in sample}
    assert all(p.id in ids for p in subset)


def test_template_subset_prefers_rare_shapes(synthetic_corpus):
    sample = synthetic_corpus[:60]
    subset = corpus.template_subset(sample, 0.5)
    assert len(subset) == 30


def test_question_span_nonempty(synthetic_corpus):
    for p in synthetic_corpus[:50]:
        lo, hi = p.question_span
        assert lo < hi
        assert "?" in [t[0] for t in p.tokens[lo:hi]]
