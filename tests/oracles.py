"""Brute-force reference implementations used to pin expected values.

Everything in here is deliberately slow and flat: explicit loops,
exhaustive enumeration, no shared code with the package under test.
These functions were written first and the test suites freeze values
computed by them.
"""

import itertools
import math
import re
from collections import Counter


# ---------------------------------------------------------------------------
# n-grams / BLEU


def ngram_list(tokens, n):
    out = []
    for i in range(len(tokens) - n + 1):
        out.append(tuple(tokens[i : i + n]))
    return out


def clipped_match_count(candidate_tokens, reference_token_lists, n):
    cand = ngram_list(candidate_tokens, n)
    total = 0
    for gram in set(cand):
        cand_count = cand.count(gram)
        best_ref = 0
        for ref in reference_token_lists:
            c = ngram_list(ref, n).count(gram)
            if c > best_ref:
                best_ref = c
        total += min(cand_count, best_ref)
    return total


def bleu4_reference(candidate_tokens, reference_token_lists):
    """Plain product-form BLEU-4: bp * (p1*p2*p3*p4)**0.25, hard zero."""
    c = len(candidate_tokens)
    if c == 0:
        return 0.0
    # effective reference length: closest to c, ties broken toward shorter
    r = None
    for ref in reference_token_lists:
        if r is None or abs(len(ref) - c) < abs(r - c) or (
            abs(len(ref) - c) == abs(r - c) and len(ref) < r
        ):
            r = len(ref)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    product = 1.0
    for n in (1, 2, 3, 4):
        total = max(0, c - n + 1)
        if total == 0:
            return 0.0
        p = clipped_match_count(candidate_tokens, reference_token_lists, n) / total
        if p == 0.0:
            return 0.0
        product *= p
    return bp * product**0.25


def clipped_counts_reference(candidate, references):
    """Clipped matches of one order through a per-gram ceiling dict.

    `candidate` and each reference are gram -> count mappings.
    """
    ceiling = {}
    for ref in references:
        for gram in candidate.keys() & ref.keys():
            ceiling[gram] = max(ceiling.get(gram, 0), ref[gram])
    return sum(min(candidate[gram], best) for gram, best in ceiling.items())


# ---------------------------------------------------------------------------
# LCS / ROUGE-L


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(tok in it for tok in sub)


def lcs_brute_force(x, y):
    """Longest common subsequence length by enumerating subsequences."""
    short, long = (x, y) if len(x) <= len(y) else (y, x)
    best = 0
    for size in range(len(short), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(short, size):
            if is_subsequence(combo, long):
                best = size
                break
    return best


def lcs_dp(x, y):
    """Longest common subsequence length by the quadratic dynamic program."""
    previous = [0] * (len(y) + 1)
    for xi in x:
        current = [0]
        for j, yj in enumerate(y, start=1):
            if xi == yj:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l_reference(candidate_tokens, reference_tokens):
    """Paper-convention ROUGE-L via the algebraic closed form."""
    if not candidate_tokens or not reference_tokens:
        return 0.0
    lcs = lcs_brute_force(candidate_tokens, reference_tokens)
    if lcs == 0:
        return 0.0
    r = lcs / len(reference_tokens)
    p = lcs / len(candidate_tokens)
    return r * p * (r * r + p * p) / (r**3 + p**3)


# ---------------------------------------------------------------------------
# METEOR alignment


def count_chunks(pairs):
    """Chunks in a matching given as (candidate_pos, reference_pos) pairs."""
    if not pairs:
        return 0
    pairs = sorted(pairs)
    chunks = 1
    for (c0, r0), (c1, r1) in zip(pairs, pairs[1:]):
        if not (c1 == c0 + 1 and r1 == r0 + 1):
            chunks += 1
    return chunks


def enumerate_max_matchings(candidate_tokens, reference_tokens):
    """Yield every maximum-cardinality one-to-one exact matching.

    Matchings are built per word: choose which candidate occurrences are
    matched, which reference occurrences they take, and in what pairing.
    """
    words = set(candidate_tokens) & set(reference_tokens)
    per_word = []
    for w in sorted(words):
        cand_pos = [i for i, t in enumerate(candidate_tokens) if t == w]
        ref_pos = [j for j, t in enumerate(reference_tokens) if t == w]
        m = min(len(cand_pos), len(ref_pos))
        choices = []
        for csub in itertools.combinations(cand_pos, m):
            for rperm in itertools.permutations(ref_pos, m):
                choices.append(list(zip(csub, rperm)))
        per_word.append(choices)
    if not per_word:
        yield []
        return
    for combo in itertools.product(*per_word):
        matching = [pair for group in combo for pair in group]
        yield matching


def best_alignment_brute_force(candidate_tokens, reference_tokens):
    """(matched unigrams, fewest chunks) over all max-cardinality matchings."""
    best_m = 0
    best_ch = 0
    for matching in enumerate_max_matchings(candidate_tokens, reference_tokens):
        m = len(matching)
        ch = count_chunks(matching)
        if m > best_m or (m == best_m and (best_ch == 0 or ch < best_ch)):
            best_m, best_ch = m, ch
    return best_m, best_ch


def greedy_alignment_reference(candidate_tokens, reference_tokens):
    """(matches, chunks) of METEOR's left-to-right greedy pass.

    Each candidate token takes the reference position that extends the
    current chunk if that one is free and holds the token, else its first
    free occurrence, found by rescanning the word's occurrences from the
    start: O(n^2 / |V|), where `meteor._align_greedy` keeps a cursor per word.
    """
    ref_positions = {}
    for j, tok in enumerate(reference_tokens):
        ref_positions.setdefault(tok, []).append(j)
    used = [False] * len(reference_tokens)
    matches = 0
    chunks = 0
    prev = None  # (candidate_pos, reference_pos) of the last match
    for i, tok in enumerate(candidate_tokens):
        positions = ref_positions.get(tok)
        if not positions:
            continue
        j = None
        if prev is not None and prev[0] == i - 1:
            ext = prev[1] + 1
            if ext < len(reference_tokens) and not used[ext] and reference_tokens[ext] == tok:
                j = ext
        if j is None:
            for cand_j in positions:
                if not used[cand_j]:
                    j = cand_j
                    break
        if j is None:
            continue
        used[j] = True
        matches += 1
        if prev is None or prev[0] != i - 1 or prev[1] != j - 1:
            chunks += 1
        prev = (i, j)
    return matches, chunks


def meteor_reference(candidate_tokens, reference_token_lists, alpha=0.9, beta=3.0, gamma=0.5):
    best = 0.0
    for ref in reference_token_lists:
        m, ch = best_alignment_brute_force(candidate_tokens, ref)
        if m == 0:
            continue
        p = m / len(candidate_tokens)
        r = m / len(ref)
        f_mean = p * r / (alpha * p + (1 - alpha) * r)
        penalty = gamma * (ch / m) ** beta
        best = max(best, f_mean * (1 - penalty))
    return best


# ---------------------------------------------------------------------------
# CIDEr


def cider_reference(candidate_token_lists, reference_set_token_lists, scale=10.0):
    """Corpus CIDEr: tf-idf cosine per order, averaged over refs then orders.

    `reference_set_token_lists[i]` is the list of reference token lists for
    candidate i; the idf corpus is exactly these reference sets.
    Returns a list of (per_n, score) tuples, one per candidate.
    """
    num_docs = len(reference_set_token_lists)

    def doc_freq(gram):
        df = 0
        for refs in reference_set_token_lists:
            grams = set()
            for ref in refs:
                grams.update(ngram_list(ref, len(gram)))
            if gram in grams:
                df += 1
        return max(df, 1)

    def tfidf(tokens, n):
        grams = ngram_list(tokens, n)
        vec = {}
        if not grams:
            return vec
        for gram in set(grams):
            tf = grams.count(gram) / len(grams)
            vec[gram] = tf * math.log(num_docs / doc_freq(gram))
        return vec

    def cosine(a, b):
        dot = sum(v * b.get(k, 0.0) for k, v in a.items())
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return dot / (na * nb)

    results = []
    for cand, refs in zip(candidate_token_lists, reference_set_token_lists):
        per_n = []
        for n in (1, 2, 3, 4):
            cand_vec = tfidf(cand, n)
            sims = [cosine(cand_vec, tfidf(ref, n)) for ref in refs]
            per_n.append(sum(sims) / len(refs))
        results.append((per_n, scale * sum(per_n) / 4.0))
    return results


def compute_idf_reference(corpus):
    """Per-order document frequencies, one `Counter.update` per set and order.

    Returns {n: Counter(gram -> number of reference sets holding it)}.
    """
    df = {n: Counter() for n in range(1, 5)}
    for references in corpus:
        for n in range(1, 5):
            seen = set()
            for reference in references:
                seen.update(zip(*(reference[k:] for k in range(n))))
            df[n].update(seen)
    return df


def cosine_reference(a, b):
    """Cosine of two sparse vectors, summing a product for every key of `a`."""
    # zero vectors (empty captions, single-document corpora) score 0
    norm_a = math.sqrt(math.fsum(v * v for v in a.values()))
    norm_b = math.sqrt(math.fsum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = math.fsum(v * b.get(k, 0.0) for k, v in a.items())
    return dot / (norm_a * norm_b)


# ---------------------------------------------------------------------------
# caption tokens: each punctuation mark spaced out by one translate table


_PUNCTUATION = '.,;:!?"()[]'
_SEPARATE_TABLE = str.maketrans({c: f" {c} " for c in _PUNCTUATION})


def tokenize_reference(text):
    return text.lower().translate(_SEPARATE_TABLE).split()


# ---------------------------------------------------------------------------
# VQA answer resolution: token tuples compared slice by slice


_CHOICE_LETTER = re.compile(r"\s*([A-Za-z])\s*(?:[.):]|$)")
_STRIP_TABLE = str.maketrans("", "", _PUNCTUATION)


def _normalize_tokens(text):
    return tuple(text.lower().translate(_STRIP_TABLE).split())


def normalize_answer_reference(raw, options):
    """Option index for a free-form answer, or None, by the slice-compare resolver."""
    return _resolve(raw, [_normalize_tokens(opt) for opt in options])


def _resolve(raw, normalized_options):
    match = _CHOICE_LETTER.match(raw)
    if match:
        index = ord(match.group(1).upper()) - ord("A")
        if index < len(normalized_options):
            return index

    raw_tokens = _normalize_tokens(raw)
    for index, opt_tokens in enumerate(normalized_options):
        if raw_tokens == opt_tokens:
            return index

    contained = []
    for index, opt_tokens in enumerate(normalized_options):
        if opt_tokens and _is_sublist(opt_tokens, raw_tokens):
            contained.append(index)
    if len(contained) == 1:
        return contained[0]
    return None


def _is_sublist(needle, haystack):
    span = len(needle)
    return any(
        haystack[i : i + span] == needle for i in range(len(haystack) - span + 1)
    )


# ---------------------------------------------------------------------------
# caption files


def scenario_set_to_dict(scenario_set):
    """The caption file a loader reads back as `scenario_set`, from its attributes."""
    scenarios = []
    for scenario in scenario_set.scenarios:
        record = {"id": scenario.id}
        if scenario.split is not None:
            record["split"] = scenario.split
        record["segments"] = [
            {
                "phase": segment.phase,
                "pedestrian_caption": segment.pedestrian_caption,
                "vehicle_caption": segment.vehicle_caption,
            }
            for segment in scenario.segments
        ]
        scenarios.append(record)
    return {"scenarios": scenarios}
