"""Deterministic synthetic BMES corpus for end-to-end checks.

Single-character tokens; lowercase letters are fillers tagged O, each
uppercase letter belongs to exactly one entity phrase position, so the
tag of every token is decidable from the token itself (and therefore
learnable to F1 = 1.0 by a left-to-right encoder). Three entity types
with singleton, pair, and triple phrases."""

from __future__ import annotations

from .data import Corpus
from .rng import Rng
from .tagging import LabelSet, span_tags

FILLERS = ["a", "b", "c", "d", "e", "f"]

PHRASES = {
    "PER": [("R",), ("P", "Q"), ("U", "V", "W")],
    "LOC": [("K",), ("L", "M"), ("G", "H", "I")],
    "ORG": [("Z",), ("X", "Y"), ("S", "T", "N")],
}


def generate_sentence(rng: Rng) -> tuple[list[str], list[str]]:
    tokens: list[str] = []
    tags: list[str] = []

    def fillers(lo, hi):
        for _ in range(lo + rng.randbelow(hi - lo + 1)):
            tokens.append(FILLERS[rng.randbelow(len(FILLERS))])
            tags.append("O")

    fillers(1, 2)
    for _ in range(1 + rng.randbelow(3)):  # one to three entities
        etype = sorted(PHRASES)[rng.randbelow(len(PHRASES))]
        phrase = PHRASES[etype][rng.randbelow(len(PHRASES[etype]))]
        tokens.extend(phrase)
        tags.extend(span_tags(etype, len(phrase)))
        fillers(1, 3)
    return tokens, tags


def generate_corpus(n_sentences: int, seed: int) -> Corpus:
    rng = Rng.for_stream(seed, "synthetic")
    sentences = [generate_sentence(rng.derive(i)) for i in range(n_sentences)]
    return Corpus(sentences, LabelSet(tuple(sorted(PHRASES))))
