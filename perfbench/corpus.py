"""Seeded synthetic corpora for the benchmark workloads.

`write_workload(name, seed, directory)` writes the four input files that
`capvqa score-all` reads. The same (name, seed) always gives byte-equal
files; the scorer sees only the files, never the seed or the workload
name.

Each workload is a `Workload` record: its knobs, and why it is in the
benchmark. The knobs are the input properties the scorer's cost depends
on: how many scenarios, how long the captions are, how the words of a
caption repeat, how skewed the word distribution is, what share of the
prediction's tokens is substituted, and how many VQA questions there are
with which answer mix.

In-caption repetition is taken from data, not chosen here. A "fixture"
caption is a run of sentences patterned on the repository's caption
fixtures (`tests/fixtures/captions_*.json`, 40 one-sentence captions):
each sentence is a fixture caption whose function words and punctuation
are kept and whose content words are mapped, one-to-one for the whole
caption, onto words of the workload's vocabulary. A caption of n such
sentences repeats "the", ".", "a" and its subject ("pedestrian",
"driver") as often as n fixture captions do.
"""

import bisect
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

PHASES = ("prerecognition", "recognition", "judgment", "action", "avoidance")
PERSPECTIVES = ("pedestrian", "vehicle")

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
FIXTURE_FILES = ("captions_gt.json", "captions_pred.json")

# Words a fixture sentence keeps as they are: English function words,
# every one the fixtures use among them, and punctuation, which the
# scorer's tokenizer keeps as tokens.
FUNCTION_WORDS = frozenset((
    "the", "a", "of", "to", "and", "in", "on", "at", "is", "was", "with",
    "as", "while", "from", "near", "its", "his", "her", "then", "toward",
    "into", "by", "for", "it", "that", "before", "after", "still", "not",
    "across", "along", "behind", "beside", "down", "had", "off", "onto",
    "until", "without",
))
PUNCTUATION = frozenset(".,")
_TOKEN = re.compile(r"[a-z0-9']+|[.,]")

# Domain words ahead of the generated ones, so that the most frequent
# content words read like traffic captions.
DOMAIN_WORDS = (
    "pedestrian", "vehicle", "driver", "car", "crosswalk", "road", "lane",
    "intersection", "signal", "light", "curb", "sidewalk", "street", "speed",
    "brake", "braked", "stopped", "crossed", "walked", "looked", "turned",
    "approached", "noticed", "hesitated", "waited", "moved", "left", "right",
    "front", "side", "distance", "traffic", "camera", "bus", "truck", "bicycle",
    "phone", "umbrella", "bag", "child", "woman", "man", "wet", "dark", "bright",
    "fast", "quickly", "suddenly", "carefully", "danger", "collision", "horn",
)

_ONSETS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _ONSETS for v in _VOWELS)

CHOICE_LETTERS = "ABCD"


@dataclass(frozen=True)
class Workload:
    why: str
    scenarios: int
    caption_len: tuple[int, int]        # inclusive token-count range
    pattern: str                        # "fixture" sentences, or "distinct" words (see _Sampler)
    vocabulary: int                     # content words, domain words first
    skew: float                         # Zipf exponent over the content words
    substitution: float                 # share of prediction tokens replaced
    questions: int
    answer_mix: dict[str, float]        # share of answers of each kind, see `_answer`
    wrong_share: float = 0.3            # answers that name a wrong option


DEFAULT_ANSWER_MIX = {
    "letter": 0.35, "exact": 0.2, "contained": 0.2,
    "ambiguous": 0.08, "unresolvable": 0.1, "missing": 0.07,
}

WORKLOADS = {
    "long-captions": Workload(
        why="paper-shaped 40-100-token captions repeating words as the repo's caption fixtures "
        "do, 25% substituted: quadratic ROUGE, long n-grams and METEOR's greedy fallback",
        scenarios=30,
        caption_len=(40, 100),
        pattern="fixture",
        vocabulary=600,
        skew=0.5,
        substitution=0.25,
        questions=300,
        answer_mix=DEFAULT_ANSWER_MIX,
    ),
    "short-distinct": Workload(
        why="many scenarios of 10-25 distinct tokens over a large vocabulary: "
        "METEOR is trivial, so n-grams, IDF, ROUGE, tokenize and per-unit overhead dominate",
        scenarios=150,
        caption_len=(10, 25),
        pattern="distinct",
        vocabulary=20_000,
        skew=0.6,
        substitution=0.25,
        questions=1_500,
        answer_mix=DEFAULT_ANSWER_MIX,
    ),
    "vqa-bulk": Workload(
        why="a few caption scenarios and 50k questions mixing every answer form: "
        "the VQA loader and normalize_answer dominate and memory peaks",
        scenarios=4,
        caption_len=(10, 25),
        pattern="distinct",
        vocabulary=2_000,
        skew=1.0,
        substitution=0.25,
        questions=50_000,
        answer_mix=DEFAULT_ANSWER_MIX,
    ),
}


def fixture_sentences(directory: Path = FIXTURES) -> list[tuple[str, ...]]:
    """The fixture captions, lower-cased and split into words and punctuation."""
    sentences = []
    for filename in FIXTURE_FILES:
        document = json.loads((directory / filename).read_text(encoding="utf-8"))
        for scenario in document["scenarios"]:
            for segment in scenario["segments"]:
                for perspective in PERSPECTIVES:
                    text = segment[f"{perspective}_caption"].lower()
                    sentences.append(tuple(_TOKEN.findall(text)))
    return sentences


def _generated_word(index: int) -> str:
    """A pronounceable pseudo-word of at least two syllables, unique per index."""
    base = len(_SYLLABLES)
    parts = [_SYLLABLES[index % base]]
    index //= base
    parts.append(_SYLLABLES[index % base])
    index //= base
    while index:
        parts.append(_SYLLABLES[index % base])
        index //= base
    return "".join(parts)


def content_vocabulary(size: int) -> list[str]:
    words = list(DOMAIN_WORDS[:size])
    taken = set(words) | FUNCTION_WORDS
    index = 0
    while len(words) < size:
        word = _generated_word(index)
        index += 1
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class _Sampler:
    """Draws captions as token lists, content words by Zipf rank.

    A "distinct" caption is content words only, none repeated, closed by a
    period. A "fixture" caption is fixture sentences, drawn at random
    without replacement, until it is long enough; its content words map
    onto distinct vocabulary words, the same fixture word always onto the
    same one, so the caption repeats words exactly as its fixture
    sentences do.
    """

    def __init__(self, rng: random.Random, spec: Workload, sentences: list[tuple[str, ...]]):
        self.rng = rng
        self.spec = spec
        self.sentences = sentences
        self.content = content_vocabulary(spec.vocabulary)
        self.content_cum = _zipf_cumulative(len(self.content), spec.skew)

    def content_word(self, exclude=frozenset()) -> str:
        while True:
            point = self.rng.random() * self.content_cum[-1]
            rank = min(bisect.bisect_right(self.content_cum, point), len(self.content) - 1)
            word = self.content[rank]
            if word not in exclude:
                return word

    def caption(self, length: int) -> list[str]:
        if self.spec.pattern == "distinct":
            tokens: list[str] = []
            while len(tokens) < length:
                tokens.append(self.content_word(tokens))
            if length > 12:
                tokens.insert(length // 2 + 1, ",")
            return tokens + ["."]
        mapping: dict[str, str] = {}
        tokens = []
        for sentence in self.rng.sample(self.sentences, len(self.sentences)):
            if len(tokens) >= length:
                break
            for word in sentence:
                if word not in FUNCTION_WORDS and word not in PUNCTUATION:
                    if word not in mapping:
                        mapping[word] = self.content_word(set(mapping.values()))
                    word = mapping[word]
                tokens.append(word)
        return tokens

    def perturb(self, tokens: list[str]) -> list[str]:
        """Replace a fixed share of the tokens, content words only, by new content words."""
        content_positions = [
            i for i, t in enumerate(tokens) if t not in FUNCTION_WORDS and t not in PUNCTUATION
        ]
        count = min(round(self.spec.substitution * len(tokens)), len(content_positions))
        out = list(tokens)
        used = set(out)
        for i in self.rng.sample(content_positions, count):
            out[i] = self.content_word(used)
            used.add(out[i])
        return out


def _lengths(rng: random.Random, spec: Workload, count: int, longest_sentence: int) -> list[int]:
    """Target lengths of `count` captions, evenly spread and shuffled.

    Every seed gets the same lengths, in another order. A fixture caption
    stops at the first sentence that reaches its target, so its targets
    end `longest_sentence - 1` tokens short of the range's top.
    """
    low, high = spec.caption_len
    if spec.pattern == "fixture":
        high -= longest_sentence - 1
    lengths = [low + (2 * j + 1) * (high - low) // (2 * count) for j in range(count)]
    rng.shuffle(lengths)
    return lengths


def _zipf_cumulative(size: int, skew: float) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, size + 1):
        total += rank ** -skew
        cumulative.append(total)
    return cumulative


def _render(tokens: list[str]) -> str:
    """Caption text: punctuation attached, every sentence capitalised."""
    text = "".join(t if t in PUNCTUATION else " " + t for t in tokens).strip()
    return re.sub(r"(^|\. )([a-z])", lambda m: m.group(1) + m.group(2).upper(), text)


def _option_texts(sampler: _Sampler) -> list[str]:
    options: list[str] = []
    while len(options) < len(CHOICE_LETTERS):
        phrase = " ".join(
            sampler.content_word() for _ in range(sampler.rng.randint(2, 4))
        )
        # Options must stay distinct, and none may contain another, so
        # that the contained-answer kind resolves to exactly one option.
        if all(phrase not in o and o not in phrase for o in options):
            options.append(phrase)
    return options


def _answer(rng: random.Random, kind: str, options: list[str], pick: int) -> str | None:
    if kind == "letter":
        letter = CHOICE_LETTERS[pick]
        form = rng.randrange(4)
        return (letter, letter.lower() + ")", f"{letter}. {options[pick]}", f" {letter}:")[form]
    if kind == "exact":
        text = options[pick]
        return (text.upper(), text.capitalize() + ".", text)[rng.randrange(3)]
    if kind == "contained":
        return f"I think the answer is {options[pick]}, because of the scene"
    if kind == "ambiguous":
        other = (pick + 1) % len(options)
        return f"either {options[pick]} or {options[other]}"
    if kind == "unresolvable":
        return "hard to tell from the video"
    return None  # missing: no answer record at all


def generate(name: str, seed: int) -> dict[str, dict]:
    """The four input documents of workload `name` for `seed`."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    sentences = fixture_sentences()
    sampler = _Sampler(rng, spec, sentences)
    lengths = iter(_lengths(
        rng, spec, spec.scenarios * len(PHASES) * len(PERSPECTIVES), max(map(len, sentences))
    ))

    gt, pred = [], []
    segment_ids = []
    for s in range(spec.scenarios):
        scenario_id = f"scenario_{s:05d}"
        split = "internal" if s % 2 == 0 else "external"
        gt_segments, pred_segments = [], []
        for phase in PHASES:
            ped, veh = sampler.caption(next(lengths)), sampler.caption(next(lengths))
            gt_segments.append({
                "phase": phase,
                "pedestrian_caption": _render(ped),
                "vehicle_caption": _render(veh),
            })
            pred_segments.append({
                "phase": phase,
                "pedestrian_caption": _render(sampler.perturb(ped)),
                "vehicle_caption": _render(sampler.perturb(veh)),
            })
            segment_ids.append(f"{scenario_id}/{phase}")
        gt.append({"id": scenario_id, "split": split, "segments": gt_segments})
        pred.append({"id": scenario_id, "segments": pred_segments})

    kinds = list(spec.answer_mix)
    kind_cum = []
    total = 0.0
    for kind in kinds:
        total += spec.answer_mix[kind]
        kind_cum.append(total)

    questions, answers = [], []
    for q in range(spec.questions):
        question_id = f"q{q:06d}"
        options = _option_texts(sampler)
        gold = rng.randrange(len(options))
        questions.append({
            "id": question_id,
            "segment": segment_ids[q % len(segment_ids)],
            "question": "What does the road user do next?",
            "options": options,
            "correct": gold,
        })
        kind = kinds[bisect.bisect_right(kind_cum, rng.random() * total)]
        pick = gold
        if rng.random() < spec.wrong_share:
            pick = (gold + 1 + rng.randrange(len(options) - 1)) % len(options)
        raw = _answer(rng, kind, options, pick)
        if raw is not None:
            answers.append({"id": question_id, "raw": raw})
    rng.shuffle(answers)  # the scorer must not depend on answer order

    return {
        "gt_captions.json": {"scenarios": gt},
        "pred_captions.json": {"scenarios": pred},
        "gt_vqa.json": {"questions": questions},
        "pred_vqa.json": {"answers": answers},
    }


def write_workload(name: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's files into `directory`; return them by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for filename, document in generate(name, seed).items():
        path = directory / filename
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")
        paths[filename.removesuffix(".json")] = path
    return paths
