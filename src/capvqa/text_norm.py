"""Caption normalization and tokenization shared by every metric.

All scores in this package are computed over word tokens produced here,
so the rules are intentionally small and deterministic: lowercase, handle
a fixed punctuation set, split on whitespace runs. No stemming, no
lemmatization, no Unicode normalization beyond treating any whitespace
codepoint as a separator.
"""

from .records import Frozen

# Punctuation handled by the tokenizer. Anything else is kept as part of
# the surrounding word.
PUNCTUATION = '.,;:!?"()[]'

_SEPARATE_TABLE = str.maketrans({c: f" {c} " for c in PUNCTUATION})
_STRIP_TABLE = str.maketrans("", "", PUNCTUATION)

PUNCTUATION_POLICIES = ("separate", "strip")


class TokenizerConfig(Frozen):
    """How raw captions are turned into tokens.

    `separate` splits punctuation into standalone tokens; `strip` deletes
    it. Both are exposed so results can be lined up against external
    scorers whose convention is unknown.
    """

    __slots__ = _fields = ("lowercase", "punctuation_policy")

    def __init__(self, lowercase: bool = True, punctuation_policy: str = "separate"):
        if punctuation_policy not in PUNCTUATION_POLICIES:
            raise ValueError(
                f"punctuation_policy must be one of {PUNCTUATION_POLICIES}, "
                f"got {punctuation_policy!r}"
            )
        self._set(lowercase=lowercase, punctuation_policy=punctuation_policy)


DEFAULT_TOKENIZER = TokenizerConfig()


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Normalize one caption into a list of tokens.

    Deterministic and idempotent: re-tokenizing the space-joined output
    yields the same sequence. Empty input gives an empty list.
    """
    if config.lowercase:
        text = text.lower()
    if config.punctuation_policy == "separate":
        text = text.translate(_SEPARATE_TABLE)
    else:
        text = text.translate(_STRIP_TABLE)
    return text.split()
