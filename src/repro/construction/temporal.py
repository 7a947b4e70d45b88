"""Zero-shot temporal relation extraction (survey §2.1.3, after Yuan et
al. [94]).

The survey's reading of that study: ChatGPT grasps complex temporal
relations zero-shot, *"but also noted its limitations in consistency and
handling long-dependency relations."* This module reproduces both halves:

* :class:`CueWordTemporalExtractor` — regex baseline: maps "before"/"after"
  cue words to an order, in surface order — wrong whenever the sentence
  inverts the clause order ("After Y came out, X premiered").
* :class:`ZeroShotTemporalExtractor` — the LLM path: grounds both event
  mentions, understands clause inversion, but degrades as the token
  distance between the two mentions grows (the long-dependency weakness),
  with a skill-scaled error rate.
* :class:`KnowledgeGroundedTemporalExtractor` — LLM + KG cooperation: the
  release years in the KG arbitrate, eliminating the long-dependency
  failures (the fix the survey's framing implies).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hashing import stable_unit
from repro.kg.datasets import Dataset, SCHEMA
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import IRI
from repro.llm.model import SimulatedLLM


@dataclass(frozen=True)
class TemporalRelation:
    """``earlier`` happened before ``later``."""

    earlier: str
    later: str


@dataclass
class AnnotatedTemporalSentence:
    """A sentence with its gold temporal relation and dependency length."""

    text: str
    gold: TemporalRelation
    dependency_tokens: int      # tokens between the two event mentions
    inverted: bool              # clause order opposite to temporal order


_FILLER = (" which critics praised for its ambitious photography and its"
           " remarkable ensemble cast,")


def generate_temporal_corpus(dataset: Dataset, n_sentences: int = 40,
                             seed: int = 0,
                             long_fraction: float = 0.5
                             ) -> List[AnnotatedTemporalSentence]:
    """Sentences about movie release order with controlled dependency length.

    Half the long-dependency sentences stuff a relative clause between the
    two mentions; ``inverted`` sentences phrase the later event first.
    """
    rng = random.Random(seed)
    kg = dataset.kg
    movies = []
    for movie_value in dataset.metadata["movies"]:
        movie = IRI(movie_value)
        year = kg.store.value(movie, SCHEMA.releaseYear)
        if year is not None:
            movies.append((movie, int(year.lexical)))
    movies.sort(key=lambda pair: (pair[1], pair[0].value))
    out: List[AnnotatedTemporalSentence] = []
    while len(out) < n_sentences and len(movies) >= 2:
        a, year_a = movies[rng.randrange(len(movies))]
        b, year_b = movies[rng.randrange(len(movies))]
        if a == b or year_a == year_b:
            continue
        if year_a > year_b:
            (a, year_a), (b, year_b) = (b, year_b), (a, year_a)
        earlier, later = kg.label(a), kg.label(b)
        long_dependency = rng.random() < long_fraction
        inverted = rng.random() < 0.5
        filler = _FILLER if long_dependency else ""
        if inverted:
            text = f"After {earlier}{filler} premiered, {later} opened."
        else:
            text = f"{earlier}{filler} premiered before {later} opened."
        between = text[text.index(earlier) + len(earlier):]
        gap = between[:between.index(later)]
        out.append(AnnotatedTemporalSentence(
            text=text, gold=TemporalRelation(earlier=earlier, later=later),
            dependency_tokens=len(gap.split()), inverted=inverted))
    return out


class CueWordTemporalExtractor:
    """Regex baseline: cue word + surface order of the two mentions.

    Correct for "X ... before Y", systematically wrong for the inverted
    "After X ..., Y" construction — it has no notion of clause structure.
    """

    def extract(self, sentence: str) -> Optional[TemporalRelation]:
        """First-mention-is-earlier heuristic, flipped only by 'before'."""
        mentions = _title_mentions(sentence)
        if len(mentions) < 2:
            return None
        first, second = mentions[0], mentions[1]
        lowered = sentence.lower()
        if "before" in lowered:
            return TemporalRelation(earlier=first, later=second)
        # The naive reading of "after": the thing after the cue came first —
        # but the baseline cannot see which clause the cue attaches to, so
        # it just keeps surface order.
        return TemporalRelation(earlier=second, later=first)


class ZeroShotTemporalExtractor:
    """LLM zero-shot extraction with the long-dependency degradation."""

    def __init__(self, llm: SimulatedLLM, long_threshold: int = 8):
        self.llm = llm
        self.long_threshold = long_threshold

    def extract(self, sentence: str) -> Optional[TemporalRelation]:
        """Ground both mentions, read the clause structure, with distance-
        scaled error (the Yuan et al. finding)."""
        mentions = [m for m in self.llm.find_mentions(sentence)
                    if m.iri is not None]
        if len(mentions) < 2:
            return None
        first, second = mentions[0], mentions[1]
        lowered = sentence.lower()
        # Clause reading: "after X ..." puts X earlier even though a naive
        # surface reading would not.
        if lowered.startswith("after"):
            relation = TemporalRelation(earlier=first.label, later=second.label)
        elif "before" in lowered:
            relation = TemporalRelation(earlier=first.label, later=second.label)
        elif "after" in lowered:
            relation = TemporalRelation(earlier=second.label, later=first.label)
        else:
            return None
        # Long-dependency degradation: the further apart the mentions, the
        # likelier the model swaps the arguments.
        gap_tokens = len(sentence[first.end:second.start].split())
        error = (1.0 - self.llm.config.skill) * 0.4
        if gap_tokens > self.long_threshold:
            error = min(0.9, error + 0.05 * (gap_tokens - self.long_threshold))
        if stable_unit(str(self.llm.config.seed), "temporal", sentence) < error:
            relation = TemporalRelation(earlier=relation.later,
                                        later=relation.earlier)
        return relation


class KnowledgeGroundedTemporalExtractor(ZeroShotTemporalExtractor):
    """LLM extraction with KG release years as the arbiter.

    When both events carry a year in the KG, the graph decides the order —
    long-dependency errors cannot survive the check.
    """

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph,
                 long_threshold: int = 8):
        super().__init__(llm, long_threshold=long_threshold)
        self.kg = kg

    def extract(self, sentence: str) -> Optional[TemporalRelation]:
        """Zero-shot extraction, then a KG year check that can flip it."""
        relation = super().extract(sentence)
        if relation is None:
            return None
        earlier_year = self._year(relation.earlier)
        later_year = self._year(relation.later)
        if earlier_year is not None and later_year is not None and \
                earlier_year > later_year:
            return TemporalRelation(earlier=relation.later,
                                    later=relation.earlier)
        return relation

    def _year(self, label: str) -> Optional[int]:
        entities = self.kg.find_by_label(label)
        if not entities:
            return None
        year = self.kg.store.value(entities[0], SCHEMA.releaseYear)
        return int(year.lexical) if year is not None else None


def evaluate_temporal(extractor,
                      sentences: Sequence[AnnotatedTemporalSentence]
                      ) -> Dict[str, float]:
    """Accuracy overall and bucketed into short/long dependency spans."""
    buckets = {"all": [0, 0], "short": [0, 0], "long": [0, 0]}
    for sentence in sentences:
        predicted = extractor.extract(sentence.text)
        correct = predicted == sentence.gold
        bucket = "long" if sentence.dependency_tokens > 8 else "short"
        for key in ("all", bucket):
            buckets[key][0] += int(correct)
            buckets[key][1] += 1
    return {
        key: (hits / total if total else 0.0)
        for key, (hits, total) in buckets.items()
    }


def _title_mentions(sentence: str) -> List[str]:
    """Movie-title-shaped mentions: maximal capitalized runs of ≥2 words."""
    runs: List[str] = []
    current: List[str] = []
    for token in re.findall(r"[A-Za-z0-9'-]+", sentence):
        if token[0].isupper():
            current.append(token)
        else:
            if len(current) >= 2:
                runs.append(" ".join(current))
            current = []
    if len(current) >= 2:
        runs.append(" ".join(current))
    return runs
