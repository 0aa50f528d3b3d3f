"""Caption normalization and tokenization shared by every metric.

All scores in this package are computed over word tokens produced here,
so the rules are intentionally small and deterministic: lowercase, split
a fixed punctuation set into standalone tokens, split on whitespace
runs. No stemming, no lemmatization, no Unicode normalization beyond
treating any whitespace codepoint as a separator.
"""

# Punctuation handled by the tokenizer. Anything else is kept as part of
# the surrounding word.
PUNCTUATION = '.,;:!?"()[]'

_SEPARATE_TABLE = str.maketrans({c: f" {c} " for c in PUNCTUATION})


def tokenize(text: str) -> list[str]:
    """Normalize one caption into a list of tokens.

    Deterministic and idempotent: re-tokenizing the space-joined output
    yields the same sequence. Empty input gives an empty list.
    """
    return text.lower().translate(_SEPARATE_TABLE).split()
