"""Text-based KG completion (survey §2.4).

These methods ground completion in *textual* knowledge rather than graph
structure, which is why they handle entities that are sparse in the training
graph:

* :class:`KGBertScorer` — KG-BERT: a PLM cross-encoder fine-tuned on
  (h, r, t) sequences. Simulated as: fine-tuned memory of training triples
  plus the backbone's parametric textual knowledge of the world, with a
  type-compatibility prior for everything else.
* :class:`SimKGCScorer` — SimKGC: a contrastive bi-encoder. Simulated as a
  text-space translation model: entity vectors come from their labels (so
  *any* named entity has one) and each relation learns a closed-form offset
  vector from the training pairs; candidates are ranked by cosine. The
  in-batch / pre-batch / self negatives of the paper collapse to the
  closed-form least-squares fit in this deterministic setting.
* :class:`StARScorer` — StAR: a self-adaptive ensemble of a Siamese text
  encoder and a structural embedding model.
* :class:`GenKGCCompleter` — GenKGC/KG-S2S: generate the missing entity
  directly with the seq2seq backbone (QA over parametric memory), with
  relation-guided demonstrations.
* :class:`KICGPTReranker` — KICGPT: training-free; take a structural
  ranker's candidate list and let the LLM rerank its top-k with in-context
  knowledge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.hashing import stable_unit
from repro.kg.graph import KnowledgeGraph, _humanize_relation
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, RDF, Triple
from repro.llm import prompts as P
from repro.llm.embedding import TextEncoder
from repro.llm.model import SimulatedLLM


class KGBertScorer:
    """KG-BERT-style cross-encoder triple scoring."""

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph,
                 multi_task: bool = False):
        """``multi_task=True`` adds the relation-prediction auxiliary signal
        (Kim et al.'s multi-task variant): a bonus for candidates whose
        types match the relation's observed argument types."""
        self.llm = llm
        self.kg = kg
        self.multi_task = multi_task
        self._train = TripleStore()
        self._range_types: Dict[IRI, Set[IRI]] = {}

    def fit(self, triples: Sequence[Triple]) -> None:
        """Fine-tune on the training triples."""
        self._train = TripleStore(triples)
        self.llm.fine_tune("triple scoring", len(triples))
        for triple in triples:
            if isinstance(triple.object, IRI):
                types = {t.object for t in
                         self.kg.store.match(triple.object, RDF.type, None)
                         if isinstance(t.object, IRI)}
                self._range_types.setdefault(triple.predicate, set()).update(types)

    def score(self, triple: Triple) -> float:
        """Plausibility in [0, 1]-ish; deterministic."""
        if triple in self._train:
            return 1.0
        score = 0.0
        if self.llm.knows(triple):
            # The backbone saw this fact in pre-training text.
            score += 0.85
        if self.multi_task and isinstance(triple.object, IRI):
            candidate_types = {t.object for t in
                               self.kg.store.match(triple.object, RDF.type, None)
                               if isinstance(t.object, IRI)}
            expected = self._range_types.get(triple.predicate, set())
            if expected and candidate_types & expected:
                score += 0.1
        # Lexical-similarity tiebreak (the cross-encoder's soft judgment).
        score += 0.04 * stable_unit("kgbert", str(self.llm.config.seed), triple.n3())
        return score

    def score_tails(self, head: IRI, relation: IRI,
                    candidates: Sequence[IRI]) -> List[float]:
        """Scores for every candidate tail."""
        return [self.score(Triple(head, relation, c)) for c in candidates]


class SimKGCScorer:
    """SimKGC-style bi-encoder: label-space translation with cosine ranking."""

    def __init__(self, kg: KnowledgeGraph, encoder: Optional[TextEncoder] = None,
                 context_neighbours: int = 5):
        self.kg = kg
        self.encoder = encoder or TextEncoder(dim=96)
        self.context_neighbours = context_neighbours
        self._relation_offsets: Dict[IRI, np.ndarray] = {}
        self._entity_cache: Dict[IRI, np.ndarray] = {}

    def _entity_text(self, entity: IRI) -> str:
        """The textual description the bi-encoder embeds: label + types +
        a few neighbour labels (SimKGC's entity descriptions)."""
        parts = [self.kg.label(entity)]
        for cls in self.kg.types(entity):
            parts.append(self.kg.label(cls))
        description = self.kg.description(entity)
        if description:
            parts.append(description)
        count = 0
        for _, neighbour, _ in self.kg.neighbours(entity):
            if isinstance(neighbour, IRI):
                parts.append(self.kg.label(neighbour))
                count += 1
                if count >= self.context_neighbours:
                    break
        return " ".join(parts)

    def _entity_vector(self, entity: IRI) -> np.ndarray:
        vector = self._entity_cache.get(entity)
        if vector is None:
            vector = self.encoder.encode(self._entity_text(entity))
            self._entity_cache[entity] = vector
        return vector

    def fit(self, triples: Sequence[Triple]) -> None:
        """Closed-form contrastive fit: each relation's offset is the mean
        (tail − head) direction over training pairs."""
        sums: Dict[IRI, np.ndarray] = {}
        counts: Dict[IRI, int] = {}
        for triple in triples:
            if not isinstance(triple.object, IRI):
                continue
            delta = self._entity_vector(triple.object) - self._entity_vector(triple.subject)
            if triple.predicate in sums:
                sums[triple.predicate] += delta
                counts[triple.predicate] += 1
            else:
                sums[triple.predicate] = delta.copy()
                counts[triple.predicate] = 1
        self._relation_offsets = {
            relation: total / counts[relation] for relation, total in sums.items()
        }

    def score(self, triple: Triple) -> float:
        """Cosine of (head vector + relation offset) against the tail."""
        if not isinstance(triple.object, IRI):
            return float("-inf")
        offset = self._relation_offsets.get(triple.predicate)
        if offset is None:
            return float("-inf")
        query = self._entity_vector(triple.subject) + offset
        candidate = self._entity_vector(triple.object)
        denominator = (np.linalg.norm(query) or 1.0) * (np.linalg.norm(candidate) or 1.0)
        return float(query @ candidate / denominator)

    def score_tails(self, head: IRI, relation: IRI,
                    candidates: Sequence[IRI]) -> List[float]:
        """Vectorized candidate scoring."""
        offset = self._relation_offsets.get(relation)
        if offset is None:
            return [float("-inf")] * len(candidates)
        query = self._entity_vector(head) + offset
        qn = np.linalg.norm(query) or 1.0
        scores = []
        for candidate in candidates:
            vector = self._entity_vector(candidate)
            cn = np.linalg.norm(vector) or 1.0
            scores.append(float(query @ vector / (qn * cn)))
        return scores


class StARScorer:
    """StAR: self-adaptive ensemble of textual and structural scores."""

    def __init__(self, text_scorer: SimKGCScorer, structure_model,
                 alpha: float = 0.5):
        self.text_scorer = text_scorer
        self.structure_model = structure_model
        self.alpha = alpha

    def calibrate(self, validation: Sequence[Triple],
                  candidates: Sequence[IRI]) -> None:
        """Pick alpha on validation data (the self-adaptive part)."""
        best_alpha, best_mrr = self.alpha, -1.0
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            self.alpha = alpha
            total = 0.0
            for triple in validation:
                ranked = self.rank_tails(triple.subject, triple.predicate, candidates)
                if triple.object in ranked:
                    total += 1.0 / (ranked.index(triple.object) + 1)  # type: ignore[arg-type]
            if total > best_mrr:
                best_mrr, best_alpha = total, alpha
        self.alpha = best_alpha

    def score_tails(self, head: IRI, relation: IRI,
                    candidates: Sequence[IRI]) -> List[float]:
        """Alpha-blend of normalized textual and structural scores."""
        text = _normalize_scores(self.text_scorer.score_tails(head, relation, candidates))
        structure = _normalize_scores(
            self.structure_model.score_tails(head, relation, candidates))
        return [self.alpha * t + (1 - self.alpha) * s
                for t, s in zip(text, structure)]

    def rank_tails(self, head: IRI, relation: IRI,
                   candidates: Sequence[IRI]) -> List[IRI]:
        """Candidates ordered by the blended score, best first."""
        scores = self.score_tails(head, relation, candidates)
        order = sorted(range(len(candidates)), key=lambda i: (-scores[i],
                                                              candidates[i].value))
        return [candidates[i] for i in order]


class GenKGCCompleter:
    """GenKGC: generate the missing tail entity as text.

    Relation-guided demonstrations (train triples of the same relation) go
    into the prompt; the backbone answers from its parametric knowledge.
    """

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph):
        self.llm = llm
        self.kg = kg
        self._by_relation: Dict[IRI, List[Triple]] = {}

    def fit(self, triples: Sequence[Triple]) -> None:
        """Index relation-guided demonstrations and fine-tune the backbone."""
        for triple in triples:
            self._by_relation.setdefault(triple.predicate, []).append(triple)
        self.llm.fine_tune("question answering", len(triples))

    def complete_tail(self, head: IRI, relation: IRI) -> Optional[IRI]:
        """Generate the tail of (head, relation, ?)."""
        demonstrations = [
            (f"What {_humanize_relation(self.kg.label(t.predicate))} {self.kg.label(t.subject)}?",
             self.kg.label(t.object))
            for t in self._by_relation.get(relation, [])[:3]
        ]
        question = (f"What {_humanize_relation(self.kg.label(relation))} "
                    f"{self.kg.label(head)}?")
        response = self.llm.complete(P.qa_prompt(question, examples=demonstrations))
        answer = P.parse_qa_response(response.text)
        if answer.lower() == "unknown":
            return None
        matches = self.kg.find_by_label(answer.split(",")[0].strip())
        return matches[0] if matches else None


class KICGPTReranker:
    """KICGPT: training-free LLM reranking of a structural ranker's top-k."""

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph,
                 base_model, top_k: int = 10):
        self.llm = llm
        self.kg = kg
        self.base_model = base_model
        self.top_k = top_k

    def rank_tails(self, head: IRI, relation: IRI,
                   candidates: Sequence[IRI]) -> List[IRI]:
        """Base ranking, with the top-k reranked by LLM knowledge."""
        base_scores = self.base_model.score_tails(head, relation, candidates)
        order = sorted(range(len(candidates)),
                       key=lambda i: (-base_scores[i], candidates[i].value))
        ranked = [candidates[i] for i in order]
        window = ranked[: self.top_k]
        known: List[IRI] = []
        unknown: List[IRI] = []
        for candidate in window:
            if self.llm.knows(Triple(head, relation, candidate)):
                known.append(candidate)
            else:
                unknown.append(candidate)
        return known + unknown + ranked[self.top_k:]


def _normalize_scores(scores: Sequence[float]) -> List[float]:
    finite = [s for s in scores if s != float("-inf")]
    if not finite:
        return [0.0] * len(scores)
    low, high = min(finite), max(finite)
    span = (high - low) or 1.0
    return [0.0 if s == float("-inf") else (s - low) / span for s in scores]
