import random
import unicodedata

import pytest

from capvqa.text_norm import PUNCTUATION, tokenize


def test_empty_input():
    assert tokenize("") == []


def test_separate_policy_splits_punctuation():
    assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]


@pytest.mark.parametrize("mark", PUNCTUATION)
def test_each_punctuation_mark_is_its_own_token(mark):
    assert tokenize(f"a{mark}b {mark}{mark}") == ["a", mark, "b", mark, mark]


@pytest.mark.parametrize("word", ["man's", "t-shirt", "50%", "a/b"])
def test_other_symbols_stay_inside_the_word(word):
    assert tokenize(f"A {word.upper()}.") == ["a", word, "."]


def test_tokenize_takes_no_config():
    with pytest.raises(TypeError):
        tokenize("a b", config=None)


def test_case_insensitive_by_default():
    assert tokenize("ABC") == tokenize("abc")


def test_whitespace_runs_and_unicode_whitespace():
    assert tokenize("a  b\t c\nd e") == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000", "\u2028", "\x1c"])
def test_any_unicode_whitespace_separates(space):
    assert tokenize(f"a{space}b{space}") == ["a", "b"]


def test_non_ascii_letters_are_lowercased_but_not_normalized():
    assert tokenize("ÉTÉ Straße") == ["été", "straße"]
    decomposed = unicodedata.normalize("NFD", "café")
    assert tokenize(decomposed) == [decomposed] != tokenize("café")


def test_tokens_never_empty_or_spacey():
    for text in ["", " ", "a.b,c", '  "quoted"  ', "!?![]()"]:
        for token in tokenize(text):
            assert token
            assert not any(ch.isspace() for ch in token)


def test_idempotent_on_random_text():
    rng = random.Random(13)
    alphabet = "ab .,!?\t\"()[]XY"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once
