"""Horn rules over KG relations: representation, mining support, and
forward-chaining inference.

A rule is ``head(X0, Xn) :- r1(X0, X1), r2(X1, X2), ..., rn(Xn-1, Xn)`` — a
chain whose body composes to the head — or the special symmetry form
``head(X, Y) :- head(Y, X)``. This is exactly the fragment ChatRule mines
and the KG-completion literature calls path rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Triple


@dataclass(frozen=True)
class Rule:
    """A chain rule: body relations compose (left to right) into the head.

    ``inverse_body`` marks the symmetry form ``head(X,Y) :- head(Y,X)`` when
    the body is the single head relation.
    """

    head: IRI
    body: Tuple[IRI, ...]
    inverse_body: bool = False

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("rule body must not be empty")
        if self.inverse_body and (len(self.body) != 1):
            raise ValueError("inverse rules must have exactly one body atom")

    def describe(self, labeller=None) -> str:
        """Human-readable rendering, e.g. ``a(X,Z) :- b(X,Y), c(Y,Z)``."""
        name = labeller or (lambda iri: iri.local_name)
        if self.inverse_body:
            return f"{name(self.head)}(X,Y) :- {name(self.body[0])}(Y,X)"
        variables = ["X"] + [f"Y{i}" for i in range(1, len(self.body))] + ["Z"]
        atoms = [f"{name(rel)}({variables[i]},{variables[i + 1]})"
                 for i, rel in enumerate(self.body)]
        return f"{name(self.head)}(X,Z) :- " + ", ".join(atoms)


@dataclass
class RuleStats:
    """Mining statistics of a rule on a KG."""

    rule: Rule
    support: int          # body instances
    positives: int        # body instances where the head also holds
    confidence: float     # positives / support


def _body_pairs(store: TripleStore, rule: Rule) -> List[Tuple[IRI, IRI]]:
    """All (X, Z) pairs for which the rule body holds."""
    if rule.inverse_body:
        return [(t.object, t.subject) for t in store.match(None, rule.body[0], None)
                if isinstance(t.object, IRI)]
    frontier: List[Tuple[IRI, IRI]] = [
        (t.subject, t.object) for t in store.match(None, rule.body[0], None)
        if isinstance(t.object, IRI)
    ]
    for relation in rule.body[1:]:
        next_frontier: List[Tuple[IRI, IRI]] = []
        for start, middle in frontier:
            for t in store.match(middle, relation, None):
                if isinstance(t.object, IRI):
                    next_frontier.append((start, t.object))
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def score_rule(store: TripleStore, rule: Rule) -> RuleStats:
    """Support and confidence of a rule on the KG."""
    pairs = _body_pairs(store, rule)
    unique_pairs = list(dict.fromkeys(pairs))
    positives = sum(1 for x, z in unique_pairs
                    if Triple(x, rule.head, z) in store)
    support = len(unique_pairs)
    confidence = positives / support if support else 0.0
    return RuleStats(rule=rule, support=support, positives=positives,
                     confidence=confidence)


def forward_chain(store: TripleStore, rules: Sequence[Rule],
                  max_rounds: int = 10) -> TripleStore:
    """Materialize the consequences of the rules (new store returned).

    Runs to fixpoint or ``max_rounds``, whichever first — chain rules can
    feed each other (e.g. ancestor composition).
    """
    out = store.copy()
    for _ in range(max_rounds):
        added = 0
        for rule in rules:
            for x, z in _body_pairs(out, rule):
                if x != z and out.add(Triple(x, rule.head, z)):
                    added += 1
        if not added:
            break
    return out


def derive_facts(store: TripleStore, rules: Sequence[Rule]) -> List[Triple]:
    """Only the *new* facts the rules imply (not present in the input)."""
    closed = forward_chain(store, rules)
    return [t for t in closed if t not in store]


def candidate_chain_rules(store: TripleStore, max_body: int = 2,
                          min_support: int = 2) -> List[Rule]:
    """Enumerate structurally plausible chain rules from the KG itself.

    The structural-only miner (the baseline ChatRule is compared against):
    every head relation × every body chain of length ≤ ``max_body`` with at
    least ``min_support`` co-occurring instances.
    """
    relations = sorted(store.relations(), key=lambda r: r.value)
    instance_relations = [r for r in relations
                          if not r.value.startswith("http://www.w3.org/")]
    out: List[Rule] = []
    for head in instance_relations:
        for r1 in instance_relations:
            rule1 = Rule(head=head, body=(r1,))
            if r1 != head and score_rule(store, rule1).support >= min_support:
                out.append(rule1)
            if max_body >= 2:
                for r2 in instance_relations:
                    rule2 = Rule(head=head, body=(r1, r2))
                    stats = score_rule(store, rule2)
                    if stats.support >= min_support and stats.positives > 0:
                        out.append(rule2)
        inverse = Rule(head=head, body=(head,), inverse_body=True)
        if score_rule(store, inverse).support >= min_support:
            out.append(inverse)
    return out
