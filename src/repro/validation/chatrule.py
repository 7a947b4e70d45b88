"""ChatRule (Luo et al.): LLM-assisted logical rule mining over KGs.

ChatRule's thesis, reproduced here: purely structural rule mining uses only
data regularities and therefore proposes spurious rules; an LLM adds the
*semantics* of relation names. Two products:

* :meth:`ChatRuleMiner.mine_rules` — sample fact paths, prompt the LLM for
  Horn-rule candidates, then keep the candidates whose support/confidence
  on the KG clears a bar (prompt → verify, exactly the paper's loop).
* :class:`ChatRuleDetector` — inconsistency detection: statistically mined
  property characteristics are kept only when the LLM's semantic knowledge
  of the relation agrees, removing the spurious constraints that hurt the
  structural baseline's precision.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hashing import stable_unit
from repro.kg.graph import KnowledgeGraph
from repro.kg.ontology import Ontology, PropertyCharacteristic
from repro.kg.triples import IRI, OWL, RDF, RDFS, Triple
from repro.llm import prompts as P
from repro.llm.model import SimulatedLLM
from repro.reasoning.rules import Rule, RuleStats, score_rule
from repro.validation.inconsistency import (
    ConstraintChecker, StatisticalConstraintMiner, Violation,
)

_CHARACTERISTIC_CLASS = {
    PropertyCharacteristic.FUNCTIONAL: OWL.FunctionalProperty,
    PropertyCharacteristic.INVERSE_FUNCTIONAL: OWL.InverseFunctionalProperty,
    PropertyCharacteristic.SYMMETRIC: OWL.SymmetricProperty,
    PropertyCharacteristic.ASYMMETRIC: OWL.AsymmetricProperty,
    PropertyCharacteristic.TRANSITIVE: OWL.TransitiveProperty,
    PropertyCharacteristic.IRREFLEXIVE: OWL.IrreflexiveProperty,
}


class ChatRuleMiner:
    """Prompt-then-verify rule mining."""

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph, seed: int = 0,
                 min_support: int = 3, min_confidence: float = 0.7):
        self.llm = llm
        self.kg = kg
        self.seed = seed
        self.min_support = min_support
        self.min_confidence = min_confidence

    def mine_rules(self, n_sample_facts: int = 80) -> List[RuleStats]:
        """LLM-proposed rules that verify on the KG, best first."""
        sample = self._sample_facts(n_sample_facts)
        relations = self._relation_labels()
        prompt = P.rule_mining_prompt(sorted(relations.values()),
                                      sample_paths=sample)
        response = self.llm.complete(prompt)
        label_to_iri = {self._snake(label): iri
                        for iri, label in relations.items()}
        verified: List[RuleStats] = []
        seen = set()
        for head_name, body_names in P.parse_rules_response(response.text):
            head = label_to_iri.get(head_name)
            body = tuple(label_to_iri.get(b) for b in body_names)
            if head is None or any(b is None for b in body):
                continue
            inverse = len(body) == 1 and body[0] == head
            rule = Rule(head=head, body=body, inverse_body=inverse)  # type: ignore[arg-type]
            if rule in seen:
                continue
            seen.add(rule)
            stats = score_rule(self.kg.store, rule)
            if stats.support >= self.min_support and \
                    stats.confidence >= self.min_confidence:
                verified.append(stats)
        verified.sort(key=lambda s: (-s.confidence, -s.support,
                                     s.rule.describe()))
        return verified

    def _relation_labels(self) -> Dict[IRI, str]:
        out: Dict[IRI, str] = {}
        for relation in self.kg.store.relations():
            if relation == RDF.type or \
                    relation.value.startswith(RDFS.prefix) or \
                    relation.value.startswith(OWL.prefix):
                continue
            out[relation] = self.kg.label(relation)
        return out

    @staticmethod
    def _snake(label: str) -> str:
        import re
        return re.sub(r"[^a-z0-9]+", "_", label.strip().lower()).strip("_")

    def _sample_facts(self, n: int) -> List[str]:
        """Linearized fact sample covering 2-hop neighbourhoods."""
        rng = random.Random(self.seed)
        relations = self._relation_labels()
        facts: List[Triple] = []
        for relation in relations:
            facts.extend(self.kg.store.match(None, relation, None))
        facts = [t for t in facts if isinstance(t.object, IRI)]
        facts.sort(key=lambda t: t.n3())
        rng.shuffle(facts)
        sampled = facts[:n]
        # Enrich with the 1-hop continuations of sampled facts, so the LLM
        # sees composable paths.
        extended = list(sampled)
        for triple in sampled[: n // 2]:
            for continuation in self.kg.store.match(triple.object, None, None):
                if isinstance(continuation.object, IRI) and \
                        continuation.predicate in relations:
                    extended.append(continuation)
                    break
        lines = []
        for triple in extended:
            lines.append(f"{self.kg.label(triple.subject)} | "
                         f"{self.kg.label(triple.predicate)} | "
                         f"{self.kg.label(triple.object)}")
        return lines


class ChatRuleDetector:
    """Inconsistency detection with semantically filtered constraints."""

    def __init__(self, llm: SimulatedLLM, seed: int = 0,
                 miner: Optional[StatisticalConstraintMiner] = None):
        self.llm = llm
        self.seed = seed
        self.miner = miner or StatisticalConstraintMiner()

    def detect(self, kg: KnowledgeGraph) -> List[Violation]:
        """Mine constraints, filter them semantically, check the KG."""
        mined = self.miner.mine(kg)
        filtered = self._semantic_filter(mined)
        return ConstraintChecker(filtered).check(kg)

    def _semantic_filter(self, mined: Ontology) -> Ontology:
        """Keep a mined characteristic only when the LLM agrees it holds
        for that relation *semantically*.

        The simulator answers from the schema knowledge in its parametric
        memory (the analogue of GPT-4 knowing that "born in" names a
        functional relation), with a skill-dependent error rate.
        """
        out = Ontology("chatrule")
        error = (1.0 - self.llm.config.skill) * 0.3
        for relation, prop in mined.properties.items():
            kept = []
            for characteristic in prop.characteristics:
                agrees = self._llm_agrees(relation, characteristic)
                flip = stable_unit(str(self.seed), "chatrule",
                                    relation.value,
                                    characteristic.value) < error
                if agrees != flip:  # agreement, possibly flipped by noise
                    kept.append(characteristic)
            domain = prop.domain if prop.domain is not None and \
                self._llm_agrees_schema(relation, RDFS.domain, prop.domain) else None
            range_ = prop.range if prop.range is not None and \
                self._llm_agrees_schema(relation, RDFS.range, prop.range) else None
            if kept or domain is not None or range_ is not None:
                out.add_property(relation, characteristics=kept,
                                 domain=domain, range=range_)
        for a, cls in mined.classes.items():
            for b in cls.disjoint_with:
                if self._llm_agrees_disjoint(a, b):
                    out.set_disjoint(a, b)
        return out

    def _llm_agrees_schema(self, relation: IRI, predicate: IRI,
                           value: IRI) -> bool:
        """Does the backbone's schema knowledge support (relation, pred, value)?

        Accepts superclass-compatible answers: a mined range of City agrees
        with a declared range of Place.
        """
        declared = [t.object for t in self.llm.memory.match(relation, predicate, None)
                    if isinstance(t.object, IRI)]
        if not declared:
            return False
        for d in declared:
            if d == value:
                return True
            # Mined value may be a subclass of the declared one (or inverse).
            if self.llm.memory.match(value, RDFS.subClassOf, d) or \
                    self.llm.memory.match(d, RDFS.subClassOf, value):
                return True
        return False

    def _llm_agrees_disjoint(self, a: IRI, b: IRI) -> bool:
        return bool(self.llm.memory.match(a, OWL.disjointWith, b) or
                    self.llm.memory.match(b, OWL.disjointWith, a))

    def _llm_agrees(self, relation: IRI,
                    characteristic: PropertyCharacteristic) -> bool:
        marker = _CHARACTERISTIC_CLASS[characteristic]
        return bool(self.llm.memory.match(relation, RDF.type, marker))
