"""The simulated LLM.

:class:`SimulatedLLM` is a deterministic stand-in for GPT-3/ChatGPT/BERT/T5:
it *performs* the linguistic tasks the surveyed architectures delegate to an
LLM, against a bounded internal "parametric memory" absorbed from a world
KG, with realistic and controllable error behaviour:

* **knowledge coverage** — only a deterministic fraction of world facts is
  memorized, so closed-book answers miss things retrieval would find;
* **hallucination** — when the memory has no answer, the model sometimes
  fabricates a type-plausible one instead of abstaining;
* **parameter scaling** — task error rates shrink with ``log(parameters)``,
  so BERT-sized and GPT-3-sized configurations behave differently;
* **in-context learning** — few-shot examples and instructions in the
  prompt reduce error rates; ``fine_tune`` reduces them further and
  persistently (the supervised regime);
* **grounding** — facts or context supplied *in the prompt* are read
  reliably, which is precisely why RAG/KAPING-style architectures win.

Every call is deterministic: the per-call RNG is seeded from the model seed
and the prompt text, so identical calls give identical responses across
processes, while different prompts decorrelate.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.hashing import stable_hash, stable_unit
from repro.core.observability import NULL_OBS
from repro.kg.graph import KnowledgeGraph, _humanize_relation
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, OWL, RDF, RDFS, Term, Triple
from repro.llm import prompts as P
from repro.llm.ngram import NGramLanguageModel
from repro.llm.streaming import stream_chunks
from repro.llm.tokenizer import count_tokens, word_tokens


@dataclass
class LLMConfig:
    """Capability profile of a simulated model."""

    name: str = "sim-llm"
    n_parameters: float = 175e9
    knowledge_coverage: float = 0.75
    hallucination_rate: float = 0.3
    base_error_rate: float = 0.9
    instruction_tuned: bool = True
    context_window: int = 4096
    seed: int = 0

    @property
    def skill(self) -> float:
        """0..1 competence derived from parameter count (log scaling)."""
        raw = 0.35 + 0.105 * math.log10(max(self.n_parameters, 1e6) / 1e6)
        if self.instruction_tuned:
            raw += 0.05
        return max(0.05, min(0.97, raw))


@dataclass
class LLMResponse:
    """One completion plus its token accounting."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str

    @property
    def total_tokens(self) -> int:
        """prompt + completion tokens."""
        return self.prompt_tokens + self.completion_tokens


@dataclass
class ChatMessage:
    """A chat turn (role is 'user', 'assistant' or 'system')."""

    role: str
    content: str


@dataclass
class _Mention:
    """An entity-label match inside a text span."""

    label: str
    iri: Optional[IRI]
    start: int
    end: int


_SCHEMA_MARKERS = (RDF.prefix, RDFS.prefix, OWL.prefix)


class SimulatedLLM:
    """A deterministic, offline large-language-model simulator."""

    def __init__(self, config: Optional[LLMConfig] = None):
        self.config = config or LLMConfig()
        # Parametric memory: the subset of world facts the model "knows".
        self.memory = TripleStore()
        # Language knowledge: label → IRI lexicons (always complete — the
        # model can *name* everything even when it doesn't know facts).
        self.entity_lexicon: Dict[str, IRI] = {}
        self.relation_lexicon: Dict[str, IRI] = {}
        self.entity_types: Dict[IRI, Set[IRI]] = {}
        self.labels: Dict[IRI, str] = {}
        self._fine_tuned: Dict[str, float] = {}
        # Surface forms learned from fine-tuning data: phrase → relation IRI.
        self.learned_phrases: Dict[str, IRI] = {}
        self._generator = NGramLanguageModel(order=3)
        self._generator_trained = False
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        # Prompts in a complete_batch call that were answered by reusing the
        # completion of an identical earlier prompt in the same batch.
        self.batch_dedup_hits = 0
        # Observability recorder (no-op by default; swapped in by
        # ``Observability.bind_llm``).
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # Knowledge absorption ("pre-training")
    # ------------------------------------------------------------------
    def absorb_knowledge(self, kg: KnowledgeGraph,
                         coverage: Optional[float] = None) -> int:
        """Memorize a deterministic ``coverage`` fraction of the KG's facts.

        Labels, types and schema triples are always absorbed (they are
        "language", not "facts"); instance facts are kept when a stable
        hash of the triple falls under the coverage threshold. Returns the
        number of instance facts memorized.
        """
        if coverage is None:
            coverage = self.config.knowledge_coverage
        memorized = 0
        for triple in kg.store:
            is_language = (
                triple.predicate in (RDFS.label, RDFS.comment, RDF.type)
                or any(triple.subject.value.startswith(m) for m in _SCHEMA_MARKERS)
                or triple.predicate.value.startswith(RDFS.prefix)
                or triple.predicate.value.startswith(OWL.prefix)
            )
            if is_language:
                self.memory.add(triple)
            else:
                gate = stable_unit(str(self.config.seed), "memorize", triple.n3())
                if gate < coverage:
                    self.memory.add(triple)
                    memorized += 1
        self._index_language(kg)
        return memorized

    def _index_language(self, kg: KnowledgeGraph) -> None:
        for triple in kg.store.match(None, RDFS.label, None):
            if not isinstance(triple.object, Literal):
                continue
            label = triple.object.lexical
            iri = triple.subject
            self.labels[iri] = label
            is_property = bool(kg.store.match(iri, RDF.type, OWL.ObjectProperty)) \
                or kg.store.match_count(None, iri, None) > 0
            if is_property:
                self.relation_lexicon[label.lower()] = iri
                self.relation_lexicon[_humanize_relation(label).lower()] = iri
            else:
                is_class = bool(kg.store.match(iri, RDF.type, OWL.Class))
                if not is_class:
                    self.entity_lexicon[label.lower()] = iri
        for triple in kg.store.match(None, RDF.type, None):
            if isinstance(triple.object, IRI):
                self.entity_types.setdefault(triple.subject, set()).add(triple.object)

    def knows(self, triple: Triple) -> bool:
        """Whether the fact is in parametric memory."""
        return triple in self.memory

    def fine_tune(self, task: str, n_examples: int) -> None:
        """Supervised fine-tuning: persistently reduce the error rate of
        ``task``. Strength saturates with the log of the training-set size."""
        strength = min(0.92, 0.3 * math.log10(max(n_examples, 1) + 1))
        self._fine_tuned[task] = max(self._fine_tuned.get(task, 0.0), strength)

    def learn_relation_phrases(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Teach the model paraphrase surface forms for known relations.

        ``pairs`` are (surface phrase, relation label). Called by supervised
        fine-tuning wrappers: a fine-tuned extractor has seen the training
        corpus's paraphrases, a zero-shot one has not. Returns the number of
        new phrases learned.
        """
        learned = 0
        for phrase, relation_label in pairs:
            rel = self.relation_lexicon.get(relation_label.lower())
            if rel is None:
                continue
            key = phrase.strip().lower()
            if key and key not in self.relation_lexicon and \
                    key not in self.learned_phrases:
                self.learned_phrases[key] = rel
                learned += 1
        return learned

    def train_generator(self, corpus: Iterable[str]) -> None:
        """Train the free-text decoder (used for chat small talk)."""
        self._generator.fit(corpus)
        self._generator_trained = True

    # ------------------------------------------------------------------
    # Error model
    # ------------------------------------------------------------------
    def _error_rate(self, task: str, n_examples: int = 0,
                    has_instructions: bool = False) -> float:
        """Task error probability after skill, ICL and fine-tuning effects."""
        rate = self.config.base_error_rate * (1.0 - self.config.skill)
        if n_examples:
            rate *= 0.72 ** min(n_examples, 8)
        if has_instructions:
            rate *= 0.85
        if task in self._fine_tuned:
            rate *= 1.0 - self._fine_tuned[task]
        return max(0.01, min(0.95, rate))

    def _rng(self, prompt: str) -> random.Random:
        return random.Random(stable_hash(str(self.config.seed), self.config.name, prompt))

    # ------------------------------------------------------------------
    # Public inference API
    # ------------------------------------------------------------------
    def _task_handlers(self):
        """Task name → handler routing table (one dict, shared by the
        single-prompt and batched entry points)."""
        return {
            "entity extraction": self._handle_ner,
            "relation extraction": self._handle_relation_extraction,
            "fact verification": self._handle_fact_check,
            "question answering": self._handle_qa,
            "graph verbalization": self._handle_kg2text,
            "sparql generation": self._handle_sparql,
            "question generation": self._handle_question_generation,
            "summarization": self._handle_summarization,
            "rule mining": self._handle_rule_mining,
            "chat": self._handle_chat,
            "agent step": self._handle_agent_step,
        }

    def _generate(self, prompt: str, max_tokens: int) -> str:
        """Route a prompt to its task handler and produce the completion
        text (pure: no counter side effects)."""
        parsed = P.parse_prompt(prompt)
        task = (parsed.get("Task") or "").strip().lower()
        rng = self._rng(prompt)
        handler = self._task_handlers().get(task)
        if handler is not None:
            text = handler(parsed, rng)
        else:
            text = self._freeform(prompt, rng, max_tokens)
        return text.strip()

    def complete(self, prompt: str, max_tokens: int = 256) -> LLMResponse:
        """Complete a prompt. Structured prompts (see :mod:`repro.llm.prompts`)
        are routed to the matching task behaviour; free text falls back to the
        n-gram generator."""
        self.calls += 1
        text = self._generate(prompt, max_tokens)
        in_tokens = count_tokens(prompt)
        out_tokens = count_tokens(text)
        self.prompt_tokens += in_tokens
        self.completion_tokens += out_tokens
        return LLMResponse(text=text, prompt_tokens=in_tokens,
                           completion_tokens=out_tokens, model=self.config.name)

    def complete_stream(self, prompt: str, max_tokens: int = 256):
        """Stream a completion as decode-step chunks.

        The drained stream is byte-identical to ``complete(prompt).text``
        (completions are pure functions of the model seed and the prompt,
        so the text is produced eagerly and chunked with
        :func:`repro.llm.streaming.stream_chunks`).

        Usage accounting is **exactly-once**: the call and the prompt
        tokens are charged when the stream is created (prefill), and each
        completion-token charge lands when its chunk is *consumed* — a
        fully drained stream advances :attr:`usage` exactly as
        ``complete()`` would (per-chunk token counts sum to the blob
        charge; see :mod:`repro.llm.streaming`), while a stream abandoned
        after *k* chunks charges only those *k* chunks, never the rest
        and never anything twice.
        """
        self.calls += 1
        text = self._generate(prompt, max_tokens)
        self.prompt_tokens += count_tokens(prompt)
        return self._metered_stream(text)

    def _metered_stream(self, text: str):
        for chunk in stream_chunks(text):
            self.completion_tokens += count_tokens(chunk)
            yield chunk

    def complete_batch(self, prompts: Sequence[str],
                       max_tokens: int = 256) -> List[LLMResponse]:
        """Complete many prompts in one call.

        Response-for-response identical to ``[complete(p) for p in prompts]``
        (every completion is a pure function of the model seed and the prompt
        text), but computed batch-wise:

        * identical prompts are parsed, routed and generated **once** — the
          remaining occurrences reuse the completion (``batch_dedup_hits``
          counts the savings);
        * each distinct prompt is parsed and token-counted once, and the
          distinct prompts are grouped by routed task so a batch walks each
          handler family together (the shape a real serving stack exploits
          for per-task setup; here the heavy sharing — context embedding —
          is amortized upstream by
          :meth:`repro.llm.embedding.TextEncoder.encode_batch`, which the
          batched retrieval/extraction consumers delegate to).

        Call/token counters advance exactly as the sequential loop would:
        one call and one prompt/completion token charge per *occurrence*.
        """
        prompts = list(prompts)
        if not prompts:
            return []
        self.obs.observe("llm.batch_size", len(prompts))
        first_row: Dict[str, int] = {}
        row_of = [first_row.setdefault(p, len(first_row)) for p in prompts]
        distinct = list(first_row)
        self.batch_dedup_hits += len(prompts) - len(distinct)

        parsed = [P.parse_prompt(p) for p in distinct]
        by_task: Dict[str, List[int]] = {}
        for i, sections in enumerate(parsed):
            task = (sections.get("Task") or "").strip().lower()
            by_task.setdefault(task, []).append(i)
        handlers = self._task_handlers()
        texts: List[str] = [""] * len(distinct)
        for task, indices in by_task.items():
            handler = handlers.get(task)
            for i in indices:
                rng = self._rng(distinct[i])
                if handler is not None:
                    texts[i] = handler(parsed[i], rng).strip()
                else:
                    texts[i] = self._freeform(distinct[i], rng,
                                              max_tokens).strip()
        in_tokens = [count_tokens(p) for p in distinct]
        out_tokens = [count_tokens(t) for t in texts]

        responses: List[LLMResponse] = []
        for row in row_of:
            self.calls += 1
            self.prompt_tokens += in_tokens[row]
            self.completion_tokens += out_tokens[row]
            responses.append(LLMResponse(
                text=texts[row], prompt_tokens=in_tokens[row],
                completion_tokens=out_tokens[row], model=self.config.name))
        return responses

    def chat(self, messages: Sequence[ChatMessage], max_tokens: int = 256) -> LLMResponse:
        """Chat interface: concatenates turns and completes."""
        prompt = "\n".join(f"{m.role}: {m.content}" for m in messages)
        last_user = next((m.content for m in reversed(messages) if m.role == "user"), "")
        # Route through the structured path when the last user turn is one of
        # our structured prompts; otherwise treat as chat.
        if P.parse_prompt(last_user).get("Task"):
            return self.complete(last_user, max_tokens=max_tokens)
        return self.complete(P.chat_prompt(last_user), max_tokens=max_tokens)

    @property
    def usage(self) -> Dict[str, int]:
        """Cumulative token accounting across all calls."""
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.prompt_tokens + self.completion_tokens,
        }

    # ------------------------------------------------------------------
    # Mention & relation grounding
    # ------------------------------------------------------------------
    def find_mentions(self, text: str) -> List[_Mention]:
        """Longest-match entity mentions against the lexicon."""
        tokens = _span_tokens(text)
        lowered = [t[0].lower() for t in tokens]
        mentions: List[_Mention] = []
        i = 0
        max_len = 6
        while i < len(tokens):
            matched = None
            for length in range(min(max_len, len(tokens) - i), 0, -1):
                candidate = " ".join(lowered[i:i + length])
                if candidate in self.entity_lexicon:
                    matched = (length, candidate)
                    break
            if matched:
                length, candidate = matched
                mentions.append(_Mention(
                    label=text[tokens[i][1]:tokens[i + length - 1][2]],
                    iri=self.entity_lexicon[candidate],
                    start=tokens[i][1], end=tokens[i + length - 1][2],
                ))
                i += length
            else:
                i += 1
        return mentions

    def find_relations(self, text: str,
                       extra_phrases: Optional[Dict[str, IRI]] = None
                       ) -> List[Tuple[str, IRI, int]]:
        """Relation-phrase matches in the text as (phrase, IRI, position).

        The lexicon is the union of the base relation vocabulary, phrases
        learned through fine-tuning, and any call-local ``extra_phrases``
        (harvested from in-context examples).
        """
        lexicon: Dict[str, IRI] = dict(self.relation_lexicon)
        lexicon.update(self.learned_phrases)
        if extra_phrases:
            lexicon.update(extra_phrases)
        lowered = text.lower()
        found: List[Tuple[str, IRI, int]] = []
        taken: List[Tuple[int, int]] = []
        for phrase in sorted(lexicon, key=len, reverse=True):
            start = 0
            while True:
                index = lowered.find(phrase, start)
                if index < 0:
                    break
                span = (index, index + len(phrase))
                if not any(s < span[1] and span[0] < e for s, e in taken):
                    found.append((phrase, lexicon[phrase], index))
                    taken.append(span)
                start = index + 1
        found.sort(key=lambda item: item[2])
        return found

    def _type_label(self, iri: IRI) -> Optional[str]:
        types = self.entity_types.get(iri, set())
        best: Optional[str] = None
        for cls in types:
            label = self.labels.get(cls, cls.local_name)
            # Prefer the most specific (deepest/narrowest) looking label:
            # shorter generic labels like "Agent"/"Person" lose to "Actor".
            if best is None or len(label) > len(best):
                best = label
        return best

    def _entities_of_type_label(self, type_label: str) -> List[IRI]:
        wanted = type_label.strip().lower()
        out = []
        for iri, types in sorted(self.entity_types.items(), key=lambda kv: kv[0].value):
            for cls in types:
                if self.labels.get(cls, cls.local_name).lower() == wanted:
                    out.append(iri)
                    break
        return out

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_ner(self, prompt: P.Prompt, rng: random.Random) -> str:
        sentence = prompt.get("Sentence") or ""
        allowed = [t.strip() for t in (prompt.get("Entity types") or "").split(",") if t.strip()]
        examples = (prompt.get("Examples") or "")
        n_examples = examples.count("->")
        has_defs = "Type definitions" in (prompt.get("Instructions") or "")
        miss = self._error_rate("ner", n_examples, has_defs)
        confusion = miss * 0.6
        hallucination = self.config.hallucination_rate * (1 - self.config.skill) * 0.5
        if n_examples:
            hallucination *= 0.5

        out: List[str] = []
        for mention in self.find_mentions(sentence):
            if rng.random() < miss * 0.55:
                continue  # the model overlooked this mention
            type_label = self._type_label(mention.iri) if mention.iri else None
            chosen = _align_type(type_label, allowed)
            if chosen is None:
                continue  # not one of the requested types
            if allowed and rng.random() < confusion * 0.4:
                alternatives = [t for t in allowed if t != chosen]
                if alternatives:
                    chosen = rng.choice(alternatives)
            out.append(f"{mention.label} [{chosen}]")
        if rng.random() < hallucination and allowed:
            etype = rng.choice(allowed)
            candidates = self._entities_of_type_label(etype)
            in_sentence = sentence.lower()
            candidates = [c for c in candidates
                          if self.labels.get(c, "").lower() not in in_sentence]
            if candidates:
                ghost = candidates[rng.randrange(len(candidates))]
                out.append(f"{self.labels.get(ghost, ghost.local_name)} [{etype}]")
        return "; ".join(out) if out else "none"

    def _handle_relation_extraction(self, prompt: P.Prompt, rng: random.Random) -> str:
        sentence = prompt.get("Sentence") or ""
        allowed = [r.strip() for r in (prompt.get("Relations") or "").split(",") if r.strip()]
        examples = prompt.get("Examples") or ""
        n_examples = examples.count("->")
        cot = "step by step" in (prompt.get("Instructions") or "").lower()
        error = self._error_rate("relation extraction", n_examples, cot)
        hallucination = self.config.hallucination_rate * (1 - self.config.skill) * 0.4

        mentions = self.find_mentions(sentence)
        # In-context learning: paraphrase surface forms present in the
        # demonstrations become usable for this call.
        extra_phrases = self._phrases_from_examples(examples)
        relations = self.find_relations(sentence, extra_phrases=extra_phrases)
        triples: List[Tuple[str, str, str]] = []
        allowed_lower = {a.lower() for a in allowed}
        for phrase, rel_iri, position in relations:
            rel_label = self.labels.get(rel_iri, rel_iri.local_name)
            if allowed and rel_label.lower() not in allowed_lower \
                    and phrase not in allowed_lower:
                continue
            before = [m for m in mentions if m.end <= position]
            after = [m for m in mentions if m.start >= position + len(phrase)]
            if not before or not after:
                continue
            subject = before[-1]
            obj = after[0]
            if rng.random() < error * 0.5:
                continue  # missed this relation instance
            if rng.random() < error * 0.25 and len(after) > 1:
                obj = after[1]  # attachment error: picked the wrong argument
            triples.append((subject.label, rel_label, obj.label))
        if rng.random() < hallucination and mentions and allowed:
            rel_label = rng.choice(allowed)
            a = rng.choice(mentions)
            b = rng.choice(mentions)
            if a.label != b.label:
                triples.append((a.label, rel_label, b.label))
        if not triples:
            return "none"
        return "; ".join(f"{s} | {r} | {o}" for s, r, o in triples)

    def _phrases_from_examples(self, examples_text: str) -> Dict[str, IRI]:
        """Harvest (phrase → relation) mappings from ICL demonstrations.

        Each demonstration line is ``- <sentence> -> s | r | o; ...``; when
        the subject and object of a gold triple flank a short span of the
        example sentence, that span is a usable surface form for ``r``.
        """
        out: Dict[str, IRI] = {}
        for line in examples_text.splitlines():
            if "->" not in line:
                continue
            sentence_part, triples_part = line.lstrip("- ").split("->", 1)
            sentence_lower = sentence_part.strip().lower()
            for chunk in triples_part.split(";"):
                parts = [p.strip() for p in chunk.split("|")]
                if len(parts) != 3 or not all(parts):
                    continue
                subject, relation_label, obj = parts
                rel = self.relation_lexicon.get(relation_label.lower())
                if rel is None:
                    continue
                s_index = sentence_lower.find(subject.lower())
                o_index = sentence_lower.find(obj.lower())
                if 0 <= s_index and s_index + len(subject) < o_index:
                    between = sentence_lower[s_index + len(subject):o_index]
                    between = between.strip().strip(",").strip()
                    if 0 < len(between.split()) <= 5:
                        out.setdefault(between, rel)
        return out

    def _handle_fact_check(self, prompt: P.Prompt, rng: random.Random) -> str:
        statement = prompt.get("Statement") or ""
        context = prompt.get("Context")
        grounded = self._ground_statement(statement)
        if context:
            verdict = self._verify_against_text(statement, grounded, context)
            if verdict is not None:
                # Reading comprehension is reliable but not perfect.
                if rng.random() < self._error_rate("fact verification", 1) * 0.15:
                    verdict = not verdict
                return ("true" if verdict else "false") + " (based on the provided context)"
        if grounded is not None:
            subject, relation, obj = grounded
            if Triple(subject, relation, obj) in self.memory:
                return "true (recalled from memory)"
            # Conflicting value for a one-valued relation → confident false.
            existing = self.memory.match(subject, relation, None)
            if existing and all(t.object != obj for t in existing):
                return "false (memory holds a different value)"
            if existing:
                return "true (recalled from memory)"
        # No grounded knowledge: hallucinate or abstain.
        if rng.random() < self.config.hallucination_rate:
            return rng.choice(["true (plausible)", "false (implausible)"])
        return "unknown"

    def _handle_qa(self, prompt: P.Prompt, rng: random.Random) -> str:
        question = prompt.get("Question") or ""
        facts = prompt.get("Facts")
        context = prompt.get("Context")
        # 1) Grounded facts in the prompt dominate (the RAG/KAPING effect).
        if facts:
            answer = self._answer_from_facts(question, facts)
            if answer is not None:
                return answer
        if context:
            answer = self._answer_from_context(question, context)
            if answer is not None:
                return answer
        # 2) Parametric memory.
        answer = self._answer_from_memory(question)
        if answer is not None:
            return answer
        # 3) Hallucinate a type-plausible answer or abstain.
        if rng.random() < self.config.hallucination_rate:
            relations = self.find_relations(question)
            candidates: List[IRI] = []
            if relations:
                rel = relations[0][1]
                candidates = [t.object for t in self.memory.match(None, rel, None)
                              if isinstance(t.object, IRI)]
            if not candidates:
                candidates = sorted(self.entity_types, key=lambda e: e.value)[:50]
            if candidates:
                ghost = candidates[rng.randrange(len(candidates))]
                return self.labels.get(ghost, ghost.local_name)
        return "unknown"

    def _handle_kg2text(self, prompt: P.Prompt, rng: random.Random) -> str:
        raw = prompt.get("Triples") or ""
        n_examples = (prompt.get("Examples") or "").count("->")
        error = self._error_rate("graph verbalization", n_examples)
        triples: List[Tuple[str, str, str]] = []
        for chunk in raw.split(";"):
            parts = [p.strip() for p in chunk.split("|")]
            if len(parts) == 3 and all(parts):
                triples.append((parts[0], parts[1], parts[2]))
        sentences: List[str] = []
        grouped: Dict[str, List[Tuple[str, str]]] = {}
        for s, p, o in triples:
            if rng.random() < error * 0.35:
                continue  # coverage slip: the model skipped a triple
            grouped.setdefault(s, []).append((p, o))
        for subject, pairs in grouped.items():
            if len(pairs) > 1 and self.config.skill > 0.6:
                clauses = ", and ".join(f"{_humanize_relation(p)} {o}" for p, o in pairs)
                sentences.append(f"{subject} {clauses}.")
            else:
                for p, o in pairs:
                    sentences.append(f"{subject} {_humanize_relation(p)} {o}.")
        if rng.random() < self.config.hallucination_rate * (1 - self.config.skill):
            # Hallucinated extra "fact" about one of the subjects.
            if grouped:
                subject = sorted(grouped)[0]
                iri = self.entity_lexicon.get(subject.lower())
                if iri is not None:
                    extra = [t for t in self.memory.match(iri, None, None)
                             if t.predicate not in (RDFS.label, RDFS.comment, RDF.type)]
                    if extra:
                        t = extra[rng.randrange(len(extra))]
                        obj_label = self.labels.get(t.object, str(t.object)) \
                            if isinstance(t.object, IRI) else t.object.lexical
                        rel_label = self.labels.get(t.predicate, t.predicate.local_name)
                        sentences.append(f"{subject} {_humanize_relation(rel_label)} {obj_label}.")
        return " ".join(sentences) if sentences else "No description available."

    def _handle_sparql(self, prompt: P.Prompt, rng: random.Random) -> str:
        question = prompt.get("Question") or ""
        schema = prompt.get("Schema")
        subgraph = prompt.get("Subgraph")
        example = prompt.get("Example query")
        n_support = sum(1 for s in (schema, subgraph, example) if s)
        error = self._error_rate("sparql generation", n_support)

        relations = self.find_relations(question)
        mentions = self.find_mentions(question)
        if not relations:
            return "SELECT ?x WHERE { ?x ?p ?o }"  # give up gracefully

        schema_map = _parse_schema_map(schema) if schema else {}

        def predicate_iri(rel: IRI) -> str:
            label = self.labels.get(rel, rel.local_name).lower()
            if schema_map.get(label):
                return f"<{schema_map[label]}>"
            if schema or rng.random() > error * 0.6:
                return f"<{rel.value}>"
            # Without schema grounding the model may mint a wrong IRI.
            return f"<http://repro.dev/schema/{label.replace(' ', '')}>"

        anchor: Optional[str] = None
        if mentions and mentions[-1].iri is not None:
            if subgraph is None and rng.random() < error * 0.3:
                anchor = None  # failed to ground the entity
            else:
                anchor = f"<{mentions[-1].iri.value}>"
        if anchor is None and mentions:
            escaped = mentions[-1].label.replace('"', '\\"')
            anchor = None  # fall through to label-based pattern below
            label_pattern = (
                f'?e <http://www.w3.org/2000/01/rdf-schema#label> "{escaped}" .'
            )
        else:
            label_pattern = None

        interrogative = question.strip().lower().split()[0] if question.strip() else "what"
        subject_position = interrogative in ("who", "which", "what") and \
            relations[0][2] < (mentions[-1].start if mentions else len(question))

        lines: List[str] = []
        if len(relations) >= 2 and self.config.skill > 0.5:
            # Two-hop chain: ?x r1 ?m . ?m r2 anchor (or the mirrored form).
            r1 = predicate_iri(relations[0][1])
            r2 = predicate_iri(relations[1][1])
            if label_pattern:
                lines.append(label_pattern)
                tail = "?e"
            else:
                tail = anchor or "?e"
            if subject_position:
                lines.append(f"?x {r1} ?m .")
                lines.append(f"?m {r2} {tail} .")
            else:
                lines.append(f"?m {r1} {tail} .")
                lines.append(f"?x {r2} ?m .")
        else:
            r1 = predicate_iri(relations[0][1])
            if label_pattern:
                lines.append(label_pattern)
                tail = "?e"
            else:
                tail = anchor or "?e"
            if subject_position:
                lines.append(f"?x {r1} {tail} .")
            else:
                lines.append(f"{tail} {r1} ?x .")
        body = " ".join(lines).rstrip(". ") + " ."
        query = f"SELECT ?x WHERE {{ {body} }}"
        if example is None and rng.random() < error * 0.35:
            query = query[:-1]  # syntax slip: dropped the closing brace
        return query

    def _handle_question_generation(self, prompt: P.Prompt, rng: random.Random) -> str:
        raw = prompt.get("Path") or ""
        instructions = prompt.get("Instructions") or ""
        multi_hop = "multi-hop" in instructions
        hops = []
        for chunk in raw.split("->"):
            parts = [p.strip() for p in chunk.split("|")]
            if len(parts) == 3:
                hops.append(tuple(parts))
        if not hops:
            return "What is this?"
        if not multi_hop or len(hops) == 1:
            s, r, _ = hops[0]
            return f"Who or what does {s} relate to via {_humanize_relation(r)}?" \
                if rng.random() < 0.2 else f"What {_humanize_relation(r)} {s}?"
        # Compose the chain inside-out: deepest entity appears, intermediate
        # entities are replaced by relative clauses — the KGEL recipe.
        s0, r0, _ = hops[0]
        clause = f"the one that {s0} {_humanize_relation(r0)}"
        for _, r, _ in hops[1:-1]:
            clause = f"the one that {clause} {_humanize_relation(r)}"
        _, r_last, _ = hops[-1]
        return f"What does {clause} {_humanize_relation(r_last)}?"

    def _handle_summarization(self, prompt: P.Prompt, rng: random.Random) -> str:
        text = prompt.get("Text") or ""
        focus = (prompt.get("Instructions") or "").replace("Focus on:", "").strip()
        sentences = _split_sentences(text)
        if not sentences:
            return ""
        # Extractive: score sentences by token overlap with the whole text
        # (centrality) plus the focus terms, keep the top few, original order.
        # Focus terms match on stems (shared 4+-char prefixes) so e.g.
        # "managers" in the focus matches "manages" in the text.
        all_tokens = set(word_tokens(text))
        focus_tokens = set(word_tokens(focus)) if focus else set()

        def focus_hits(tokens: set) -> int:
            hits = 0
            for token in tokens:
                for focus_token in focus_tokens:
                    stem = min(len(token), len(focus_token))
                    if stem >= 4 and token[:stem] == focus_token[:stem]:
                        hits += 1
                        break
            return hits

        scored = []
        for index, sentence in enumerate(sentences):
            tokens = set(word_tokens(sentence))
            score = len(tokens & all_tokens) / (len(tokens) + 1)
            score += 2.0 * focus_hits(tokens)
            scored.append((score, index, sentence))
        cap = 8 if focus_tokens else 4
        keep = max(1, min(cap, len(sentences) // 2 + 1))
        top = sorted(scored, key=lambda t: (-t[0], t[1]))[:keep]
        top.sort(key=lambda t: t[1])
        return " ".join(sentence for _, _, sentence in top)

    def _handle_rule_mining(self, prompt: P.Prompt, rng: random.Random) -> str:
        facts_text = prompt.get("Facts") or ""
        allowed = [r.strip() for r in (prompt.get("Relations") or "").split(",") if r.strip()]
        # Parse sample facts "a | r | b" into edges.
        edges: List[Tuple[str, str, str]] = []
        for line in facts_text.splitlines():
            parts = [p.strip() for p in line.lstrip("- ").split("|")]
            if len(parts) == 3:
                edges.append((parts[0], parts[1], parts[2]))
        rules: List[str] = []
        seen: Set[Tuple[str, str, str]] = set()
        by_subject: Dict[str, List[Tuple[str, str]]] = {}
        for s, r, o in edges:
            by_subject.setdefault(s, []).append((r, o))
        # Composition rules r3(x,z) :- r1(x,y), r2(y,z) observed in samples.
        for s, r1, mid in edges:
            for r2, obj in by_subject.get(mid, []):
                for s2, r3, o2 in edges:
                    if s2 == s and o2 == obj and r3 not in (r1, r2):
                        key = (r3, r1, r2)
                        if key not in seen:
                            seen.add(key)
                            rules.append(f"{_snake(r3)}(X,Z) :- {_snake(r1)}(X,Y), {_snake(r2)}(Y,Z)")
        # Symmetry rules from observed mutual edges.
        edge_set = {(s, r, o) for s, r, o in edges}
        for s, r, o in edges:
            if (o, r, s) in edge_set and ("sym", r, r) not in seen:
                seen.add(("sym", r, r))
                rules.append(f"{_snake(r)}(X,Y) :- {_snake(r)}(Y,X)")
        # A low-skill model pads the list with junk compositions.
        if allowed and rng.random() < (1 - self.config.skill):
            r = rng.choice(allowed)
            r2 = rng.choice(allowed)
            rules.append(f"{_snake(r)}(X,Z) :- {_snake(r2)}(X,Y), {_snake(r)}(Y,Z)")
        return "\n".join(rules) if rules else "none"

    def _handle_chat(self, prompt: P.Prompt, rng: random.Random) -> str:
        question = prompt.get("Question") or ""
        facts = prompt.get("Facts")
        if facts or self.find_relations(question):
            return self._handle_qa(prompt, rng)
        lowered = question.lower()
        if any(greeting in lowered for greeting in ("hello", "hi ", "hey", "good morning")):
            return "Hello! Ask me anything about the knowledge graph."
        if "thank" in lowered:
            return "You're welcome!"
        if "how are you" in lowered:
            return "I'm a language model — always ready to talk about knowledge graphs."
        if self._generator_trained:
            return self._generator.generate(rng, max_tokens=20, prompt=question) or \
                "Could you tell me more?"
        return "Could you tell me more?"

    def _handle_agent_step(self, prompt: P.Prompt, rng: random.Random) -> str:
        """One ReAct decision over the graph-tool registry.

        The decision is a pure function of the prompt (question + tool
        catalogue + scratchpad) and the model's language knowledge: the
        scratchpad carries all episode state, so replaying the same
        prompts reproduces the same decisions whatever executed them.
        The emitted surface is what :func:`repro.llm.prompts.
        parse_agent_response` parses — one ``Thought:`` line, then one
        ``Action:``/``Final:`` line with canonical (sorted-key) JSON.
        """
        question = prompt.get("Question") or ""
        tools: Set[str] = set()
        for line in (prompt.get("Tools") or "").splitlines():
            name = line.strip().lstrip("-").strip().split(":", 1)[0].strip()
            if name:
                tools.add(name)
        observations = _scratchpad_observations(prompt.get("Scratchpad") or "")

        def act(thought: str, tool: str, **args) -> str:
            if tool not in tools:
                return (f"Thought: the {tool} tool is unavailable\n"
                        f"Final: unknown")
            rendered = json.dumps(args, sort_keys=True)
            return f"Thought: {thought}\nAction: {tool} {rendered}"

        def final(thought: str, answer: str) -> str:
            return f"Thought: {thought}\nFinal: {answer}"

        def labels_of(items: Sequence[Tuple[str, str]]) -> str:
            names = sorted({label or IRI(ident).local_name
                            for ident, label in items})
            return ", ".join(names)

        mentions = [m for m in self.find_mentions(question)
                    if m.iri is not None]
        relations = self.find_relations(question)
        # Chain phrasing puts the outermost relation first; traversal
        # order from the anchor is the reverse of surface order.
        chain = [iri for _, iri, _ in reversed(relations)]
        lowered = question.lower()
        if not mentions:
            return final("the question names no entity I can ground",
                         "unknown")
        anchor = mentions[-1]

        if lowered.startswith("via which entity") and len(mentions) >= 2:
            source, target = mentions[0], mentions[-1]
            if not observations:
                return act("ground the source entity", "entity_search",
                           query=source.label)
            if len(observations) == 1:
                return act("ground the target entity", "entity_search",
                           query=target.label)
            if len(observations) == 2:
                return act("search for connecting paths", "find_path",
                           source=source.iri.value, target=target.iri.value,
                           max_hops=2)
            last = observations[-1]
            if last.items:
                return final("the connecting entities are in hand",
                             labels_of(last.items))
            return final("no path evidence was found", "unknown")

        if lowered.startswith("which entities") and relations:
            relation = relations[0][1]
            phrase = relations[0][0]
            if not observations:
                return act("ground the anchor entity", "entity_search",
                           query=anchor.label)
            if len(observations) == 1:
                return act(f"look for {phrase} links from the anchor",
                           "neighbors", entities=[anchor.iri.value],
                           relation=relation.value, direction="out")
            last = observations[-1]
            if len(observations) == 2:
                # The forward expansion answers "anchor R whom?", not
                # "who R anchor?" — whatever it held, the question wants
                # the inverse set, which only a drafted query delivers.
                query = (f"SELECT ?x WHERE {{ ?x <{relation.value}> "
                         f"<{anchor.iri.value}> }}")
                thought = ("the forward expansion was empty — draft the "
                           "inverse structured query instead"
                           if not last.items else
                           "those are forward links; the question asks "
                           "for the inverse set — draft a structured query")
                return act(thought, "sparql", query=query)
            if last.items:
                return final("collected the matching entities",
                             labels_of(last.items))
            return final("neither direction produced evidence", "unknown")

        # Default: relation-chain traversal, optionally counted.
        count_mode = lowered.startswith("how many")
        hops = len(chain)
        if not chain:
            return final("no relation phrase to follow", "unknown")
        if not observations:
            return act("ground the anchor entity", "entity_search",
                       query=anchor.label)
        walked = 0
        frontier: List[str] = [anchor.iri.value]
        frontier_items: List[Tuple[str, str]] = \
            [(anchor.iri.value, anchor.label)]
        flipped = False
        scalar: Optional[str] = None
        for observation in observations[1:]:
            if observation.scalar is not None:
                scalar = observation.scalar
                break
            if observation.items:
                walked += 1
                frontier_items = list(observation.items)
                frontier = sorted({ident for ident, _ in
                                   observation.items})[:24]
                flipped = False
            else:
                if flipped:
                    return final("both directions came back empty",
                                 "unknown")
                flipped = True
        if walked < hops:
            relation = chain[walked]
            phrase = self.labels.get(relation, relation.local_name)
            direction = "in" if flipped else "out"
            thought = ("the last expansion was empty — retry in the "
                       "inverse direction") if flipped else f"follow {phrase}"
            return act(thought, "neighbors", entities=frontier,
                       relation=relation.value, direction=direction)
        if count_mode:
            if scalar is not None:
                return final("report the count", scalar)
            return act("count the resulting entities", "aggregate",
                       op="count", values=frontier)
        return final("enough evidence gathered", labels_of(frontier_items))

    def _freeform(self, prompt: str, rng: random.Random, max_tokens: int) -> str:
        if self._generator_trained:
            text = self._generator.generate(rng, max_tokens=max_tokens, prompt=prompt)
            if text:
                return text
        words = word_tokens(prompt)[-8:]
        return " ".join(words) if words else "..."

    # ------------------------------------------------------------------
    # Grounding helpers
    # ------------------------------------------------------------------
    def _ground_statement(self, statement: str) -> Optional[Tuple[IRI, IRI, Term]]:
        """Parse a verbalized triple back into (s, p, o) via the lexicons."""
        relations = self.find_relations(statement)
        mentions = self.find_mentions(statement)
        if not relations:
            return None
        phrase, rel_iri, position = relations[0]
        before = [m for m in mentions if m.end <= position and m.iri is not None]
        after = [m for m in mentions if m.start >= position + len(phrase) and m.iri is not None]
        if before and after:
            return (before[-1].iri, rel_iri, after[0].iri)  # type: ignore[return-value]
        if before:
            # Literal-valued object: take the text after the relation phrase.
            tail = statement[position + len(phrase):].strip().rstrip(".").strip()
            if tail:
                return (before[-1].iri, rel_iri, Literal(tail))  # type: ignore[return-value]
        return None

    def _verify_against_text(self, statement: str,
                             grounded: Optional[Tuple[IRI, IRI, Term]],
                             context: str) -> Optional[bool]:
        """Does the context text support the statement?"""
        normalized_context = _normalize(context)
        normalized_statement = _normalize(statement)
        if normalized_statement and normalized_statement in normalized_context:
            return True
        if grounded is not None:
            subject, relation, obj = grounded
            subject_label = self.labels.get(subject, subject.local_name)
            rel_phrase = _humanize_relation(self.labels.get(relation, relation.local_name))
            obj_label = self.labels.get(obj, str(obj)) if isinstance(obj, IRI) else obj.lexical
            for sentence in _split_sentences(context):
                lowered = sentence.lower()
                if subject_label.lower() in lowered and rel_phrase.lower() in lowered:
                    return obj_label.lower() in lowered
        return None

    def _answer_from_facts(self, question: str, facts_text: str) -> Optional[str]:
        list_mode = question.strip().lower().startswith("list")
        relations = self.find_relations(question)
        mentions = [m for m in self.find_mentions(question) if m.iri is not None]
        fact_lines = [line.lstrip("- ").strip() for line in facts_text.splitlines() if line.strip()]
        if not relations:
            return None
        rel_phrases = [_humanize_relation(self.labels.get(r[1], r[1].local_name)).lower()
                       for r in relations]
        anchor_labels = [m.label.lower() for m in mentions]
        answers: List[str] = []
        for line in fact_lines:
            lowered = line.lower()
            if not any(p in lowered for p in rel_phrases):
                continue
            if anchor_labels and not any(a in lowered for a in anchor_labels):
                continue
            grounded = self._ground_statement(line)
            if grounded is None:
                continue
            subject, _, obj = grounded
            subject_label = self.labels.get(subject, subject.local_name)
            obj_label = self.labels.get(obj, str(obj)) if isinstance(obj, IRI) \
                else obj.lexical
            if anchor_labels and subject_label.lower() in anchor_labels:
                answers.append(obj_label)
            elif isinstance(obj, IRI) and anchor_labels and \
                    obj_label.lower() in anchor_labels:
                answers.append(subject_label)
            elif not anchor_labels:
                answers.append(obj_label)
            if answers and not list_mode:
                return answers[0]
        if answers:
            return ", ".join(dict.fromkeys(answers))
        return None

    def _answer_from_context(self, question: str, context: str) -> Optional[str]:
        relations = self.find_relations(question)
        mentions = [m for m in self.find_mentions(question)]
        if not relations:
            return None
        rel_phrase = _humanize_relation(
            self.labels.get(relations[0][1], relations[0][1].local_name)).lower()
        anchors = [m.label.lower() for m in mentions]
        for sentence in _split_sentences(context):
            lowered = sentence.lower()
            if rel_phrase in lowered and (not anchors or any(a in lowered for a in anchors)):
                grounded = self._ground_statement(sentence)
                if grounded is not None:
                    subject, _, obj = grounded
                    subject_label = self.labels.get(subject, subject.local_name).lower()
                    if anchors and subject_label in anchors:
                        return self.labels.get(obj, str(obj)) if isinstance(obj, IRI) \
                            else obj.lexical
                    return self.labels.get(subject, subject.local_name)
        return None

    def _answer_from_memory(self, question: str) -> Optional[str]:
        list_mode = question.strip().lower().startswith("list")
        relations = self.find_relations(question)
        mentions = [m for m in self.find_mentions(question) if m.iri is not None]
        if not relations or not mentions:
            return None
        rel = relations[0][1]
        anchor = mentions[-1].iri
        assert anchor is not None
        forward = self.memory.match(anchor, rel, None)
        if forward:
            labels = [self.labels.get(t.object, str(t.object))
                      if isinstance(t.object, IRI) else t.object.lexical
                      for t in forward]
            return ", ".join(dict.fromkeys(labels)) if list_mode else labels[0]
        backward = self.memory.match(None, rel, anchor)
        if backward:
            labels = [self.labels.get(t.subject, t.subject.local_name)
                      for t in backward]
            return ", ".join(dict.fromkeys(labels)) if list_mode else labels[0]
        return None


# ---------------------------------------------------------------------------
# Batch entry-point resolution
# ---------------------------------------------------------------------------

def complete_all(llm, prompts: Sequence[str],
                 max_tokens: int = 256) -> List[LLMResponse]:
    """Complete ``prompts`` through the model's best available entry point.

    Uses ``llm.complete_batch`` when the model (or wrapper) provides one,
    falling back to a plain ``complete`` loop otherwise — so batched
    pipelines accept any LLM-shaped object without feature detection at
    every call site. Exceptions propagate exactly as the underlying entry
    point raises them.
    """
    prompts = list(prompts)
    batch = getattr(llm, "complete_batch", None)
    if callable(batch):
        return batch(prompts, max_tokens=max_tokens)
    return [llm.complete(p, max_tokens=max_tokens) for p in prompts]


# ---------------------------------------------------------------------------
# Small text utilities
# ---------------------------------------------------------------------------

def _span_tokens(text: str) -> List[Tuple[str, int, int]]:
    return [(m.group(), m.start(), m.end())
            for m in re.finditer(r"[A-Za-z0-9_'-]+", text)]


@dataclass
class _AgentObservation:
    """One parsed ``Observation:`` scratchpad line.

    ``items`` are ``(identifier, label)`` pairs from ``id|label`` entries;
    ``scalar`` is the value of a ``name=value`` observation (aggregates).
    An empty/``none``/``error`` observation parses to neither.
    """

    items: List[Tuple[str, str]] = field(default_factory=list)
    scalar: Optional[str] = None


def _scratchpad_observations(text: str) -> List[_AgentObservation]:
    """Every observation in a rendered scratchpad, in episode order."""
    out: List[_AgentObservation] = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("Observation:"):
            continue
        body = line[len("Observation:"):].strip()
        observation = _AgentObservation()
        if body and body != "none" and not body.startswith("error"):
            if "|" not in body and "=" in body:
                observation.scalar = body.split("=", 1)[1].strip()
            else:
                for chunk in body.split(";"):
                    ident, _, label = chunk.strip().partition("|")
                    if ident:
                        observation.items.append((ident.strip(),
                                                  label.strip()))
        out.append(observation)
    return out


def _split_sentences(text: str) -> List[str]:
    parts = re.split(r"(?<=[.!?])\s+", text.strip())
    return [p.strip() for p in parts if p.strip()]


def _normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip().lower())


def _snake(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.strip().lower()).strip("_")


def _align_type(type_label: Optional[str], allowed: Sequence[str]) -> Optional[str]:
    """Map the model's internal type label onto the prompt's allowed list."""
    if not allowed:
        return type_label
    if type_label is None:
        return None
    lowered = type_label.lower()
    for candidate in allowed:
        if candidate.lower() == lowered:
            return candidate
    for candidate in allowed:
        if candidate.lower() in lowered or lowered in candidate.lower():
            return candidate
    return None


def _parse_schema_map(schema: str) -> Dict[str, str]:
    """Parse ``label = <iri>`` lines from a Schema prompt section."""
    out: Dict[str, str] = {}
    for line in schema.splitlines():
        match = re.match(r"\s*(.+?)\s*=\s*<([^>]+)>", line)
        if match:
            out[match.group(1).strip().lower()] = match.group(2)
    return out
