from fractions import Fraction

import pytest

from udgsolver import learn, units
from udgsolver.corpus import QUESTION, build_problem
from udgsolver.units import QuantityUnit, extract_unit, lemma, units_share_tokens

from conftest import MELANIE_TEXT


def test_explicit_per_rate():
    p = build_problem("t", "The car went 40 miles per hour.")
    u = extract_unit(p, 0)
    assert u.num_unit == ("mile",)
    assert u.den_unit == ("hour",)
    assert u.rule_rate_flag


def test_each_subject_rate():
    p = build_problem("t", "Each student has 3 books.")
    u = extract_unit(p, 0)
    assert u.num_unit == ("book",)
    assert u.den_unit == ("student",)


def test_plain_quantity_not_rate(fig1_problem):
    u = extract_unit(fig1_problem, 0)
    assert u.surface_unit == ("flower",)
    assert u.den_unit is None
    assert not u.rule_rate_flag


def test_fig1_rate_detected(fig1_problem):
    assert extract_unit(fig1_problem, 1).rule_rate_flag


def test_question_unit(fig1_problem):
    assert extract_unit(fig1_problem, QUESTION).surface_unit == ("bouquet",)


def test_slash_rate():
    p = build_problem("t", "It runs at 40 miles / hour on the highway.")
    u = extract_unit(p, 0)
    assert u.num_unit == ("mile",)
    assert u.den_unit == ("hour",)


def test_slash_rate_without_spaces_but_not_inside_a_fraction():
    p = build_problem("t", "The car used 1/2 gallons. It went 40 miles/hour and 20/hour.")
    assert [q.value for q in p.quantities] == [Fraction(1, 2), 40, 20]
    assert not extract_unit(p, 0).rule_rate_flag
    assert extract_unit(p, 1).den_unit == ("hour",)
    assert extract_unit(p, 2).den_unit == ("hour",)
    assert units.pos_tag("1/2") == units.pos_tag("3 1/2") == units.NUM


def test_indefinite_article_rate():
    p = build_problem("t", "The train went 60 miles an hour.")
    u = extract_unit(p, 0)
    assert u.den_unit == ("hour",)


def test_indefinite_article_non_rate_guard():
    # "a" after a non-noun must not trigger the rate reading
    p = build_problem("t", "She gave 3 plums to a friend.")
    assert not extract_unit(p, 0).rule_rate_flag


def test_share_tokens():
    flower = QuantityUnit(("flower",))
    bouquet = QuantityUnit(("bouquet",))
    assert units_share_tokens(flower, QuantityUnit(("flower",)))
    assert not units_share_tokens(flower, bouquet)


def test_share_tokens_melanie():
    p = build_problem("m", MELANIE_TEXT)
    seven, four, three = (extract_unit(p, i) for i in range(3))
    assert units_share_tokens(seven, three)
    assert not units_share_tokens(seven, four)
    assert units_share_tokens(seven, extract_unit(p, QUESTION))


def test_rate_flag_iff_den_unit(synthetic_corpus):
    for p in synthetic_corpus[:120]:
        for v in list(range(p.n)) + [QUESTION]:
            u = extract_unit(p, v)
            assert u.rule_rate_flag == (u.den_unit is not None)
            if u.den_unit is not None:
                assert u.num_unit is not None


def test_den_without_num_rejected():
    with pytest.raises(ValueError):
        QuantityUnit(("mile",), num_unit=None, den_unit=("hour",))


def test_lemma_involutive():
    words = [
        "flowers", "bouquets", "boxes", "glasses", "flies", "plums",
        "pouches", "cities", "bus", "gas", "friend's", "miles", "hour",
        "students", "crates", "albums", "pencils",
    ]
    for w in words:
        once = lemma(w)
        assert lemma(once) == once, w


def test_lemma_plurals():
    assert lemma("flowers") == "flower"
    assert lemma("boxes") == "box"
    assert lemma("cities") == "city"
    assert lemma("friend's") == "friend"


def test_empty_unit_never_fails():
    p = build_problem("t", "7 and 9 and 11 and 13")
    for v in range(p.n):
        assert extract_unit(p, v).surface_unit == ()


def test_question_rate_detection():
    p = build_problem("t", "Priya split 48 beads evenly among 6 jars. How many beads are in each jar?")
    u = extract_unit(p, QUESTION)
    assert u.num_unit == ("bead",)
    assert u.den_unit == ("jar",)


def test_only_decimal_digits_tag_a_number():
    # "²" is a digit to str.isdigit but no number to \d or the quantity parser
    assert units.pos_tag("²") != units.NUM and units.pos_tag("-²") != units.NUM
    assert units.pos_tag("٣") == units.pos_tag("-.5") == units.NUM  # \d matches any decimal digit
    p = build_problem("t", "The room is 12 meters ² wide. How wide is the room?")
    assert [q.value for q in p.quantities] == [12]
    tokens = [tok for tok, _, _ in p.tokens]
    assert units.tag_tokens(p)[1][tokens.index("²")] != units.NUM
    fv = learn.vertex_features(p, 0)
    # only the one number, "12", gives number bigrams and a NUM tag
    assert {name for name in fv if name.startswith("bn:")} == {"bn:is <n>", "bn:<n> meters"}
    assert fv["p:NUM"] == 1.0
