"""BMES tag scheme: label sets, BIO conversion, entity extraction, scoring.

Entities are contiguous token spans tagged S-T (singleton) or
B-T M-T* E-T. Ill-formed sequences are repaired by dropping unclosed or
inconsistent spans; a close is never invented. Repairs are counted so
evaluation can report them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ParseError

BMES_PREFIXES = ("B", "M", "E", "S")
# an entity type name: '-' would split its tags, ',' and '#' its config-block line
_TYPE_NAME = re.compile(r"[^\s,#-]+")


class Entity(NamedTuple):
    start: int
    end: int  # inclusive
    etype: str


def split_tag(tag: str):
    """'B-PER' -> ('B', 'PER'); 'O' -> ('O', None); None if malformed."""
    if tag == "O":
        return "O", None
    if tag[:1] in ("B", "M", "E", "S", "I") and tag[1:2] == "-" and _TYPE_NAME.fullmatch(tag[2:]):
        return tag[0], tag[2:]
    return None


@dataclass(frozen=True)
class LabelSet:
    """Closed tag inventory for a fixed ordered list of entity types.

    Index 0 is always O; each type then contributes B-, M-, E-, S- in
    that order, so the mapping is a bijection determined entirely by
    entity_types."""

    entity_types: tuple[str, ...]
    tags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        types = tuple(self.entity_types)
        if len(set(types)) != len(types):
            raise ContractError(f"duplicate entity types: {types}")
        for t in types:
            if not _TYPE_NAME.fullmatch(t):
                raise ContractError(f"bad entity type name: {t!r}")
        tags = ["O"]
        for t in types:
            tags.extend(f"{p}-{t}" for p in BMES_PREFIXES)
        object.__setattr__(self, "entity_types", types)
        object.__setattr__(self, "tags", tuple(tags))

    @classmethod
    def from_tags(cls, tags) -> "LabelSet":
        """Derive a label set from observed tags (types sorted for determinism)."""
        types = set()
        for tag in tags:
            parts = split_tag(tag)
            if parts is None:
                raise ContractError(f"malformed tag: {tag!r}")
            if parts[1] is not None:
                types.add(parts[1])
        return cls(tuple(sorted(types)))

    def __len__(self):
        return len(self.tags)

    def index(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise ContractError(f"tag {tag!r} not in label set {self.entity_types}") from None

    def encode(self, tags) -> np.ndarray:
        return np.array([self.index(t) for t in tags], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        return [self.tags[int(i)] for i in ids]


def span_tags(etype: str, length: int) -> list[str]:
    """The BMES tags of one entity span: S-T, or B-T M-T* E-T."""
    if length == 1:
        return [f"S-{etype}"]
    return [f"B-{etype}"] + [f"M-{etype}"] * (length - 2) + [f"E-{etype}"]


def bio_to_bmes(tags: list[str]) -> tuple[list[str], int]:
    """Convert one BIO sentence to BMES. Orphan I- tags (no open span of
    the same type) are dropped to O and counted as repairs."""
    spans = []  # [start, end, type] of each entity, end inclusive
    repairs = 0
    for i, tag in enumerate(tags):
        parts = split_tag(tag)
        if parts is None:
            raise ParseError(f"malformed BIO tag {tag!r} at token {i}")
        prefix, etype = parts
        if prefix in ("M", "E", "S"):
            raise ParseError(f"tag {tag!r} at token {i} is not BIO")
        if prefix == "B":
            spans.append([i, i, etype])
        elif prefix == "I" and spans and spans[-1][1:] == [i - 1, etype]:
            spans[-1][1] = i
        elif prefix == "I":
            repairs += 1  # continuation with nothing to continue
    out = ["O"] * len(tags)
    for start, end, etype in spans:
        out[start:end + 1] = span_tags(etype, end - start + 1)
    return out, repairs


def _parse_bmes(tags) -> list[tuple[str, str | None]]:
    parsed = []
    for i, tag in enumerate(tags):
        parts = split_tag(tag)
        if parts is None or parts[0] == "I":
            raise ContractError(f"tag {tag!r} at token {i} is not BMES")
        parsed.append(parts)
    return parsed


_EDGE = ("O", None)  # the sequence start and end obey O's transitions


def _may_follow(prev, cur) -> bool:
    """The BMES transition rule over split tags: B-T/M-T must be followed
    by M-T/E-T, and O/E/S by O/B/S."""
    if prev[0] in ("B", "M"):
        return cur[0] in ("M", "E") and cur[1] == prev[1]
    return cur[0] in ("O", "B", "S")


def scan_entities(tags: list[str]) -> tuple[list[Entity], int]:
    """Left-to-right scan returning well-formed spans plus a repair count.

    An open span continues exactly while _may_follow allows. A span that
    breaks (B- followed by neither M- nor E- of the same type, or still
    open at the end) is dropped and counted; scanning resumes at the
    breaking position, so [B-PER, B-PER, E-PER] yields the (1, 2, PER)
    entity with one repair. An orphan M-/E- counts one more repair, so
    [B-PER, M-LOC] is two."""
    entities: list[Entity] = []
    repairs = 0
    start = None  # first index of the open span
    prev = _EDGE  # the last tag kept
    for i, cur in enumerate([*_parse_bmes(tags), _EDGE]):
        if start is not None and not _may_follow(prev, cur):
            repairs += 1  # the open span breaks here
            start, prev = None, _EDGE
        if not _may_follow(prev, cur):
            repairs += 1  # an orphan M- or E-
            continue
        if cur[0] in ("B", "S"):
            start = i
        if cur[0] in ("E", "S"):
            entities.append(Entity(start, i, cur[1]))
            start = None
        prev = cur
    return entities, repairs


def validate_bmes(tags: list[str]) -> list[int]:
    """Indices where the BMES transition discipline is violated: position
    0 must start a sequence (O, B-, S-), every later tag must be allowed
    after its predecessor, and a trailing B or M flags the final index
    because the span cannot close."""
    parsed = _parse_bmes(tags)
    pairs = zip([_EDGE, *parsed], [*parsed, _EDGE])
    return sorted({min(i, len(parsed) - 1) for i, (prev, cur) in enumerate(pairs)
                   if not _may_follow(prev, cur)})


def legal_transitions(label_set: LabelSet):
    """(start_ok, pair_ok, end_ok) boolean tables over tag indices, the
    same discipline validate_bmes checks, for constrained decoding."""
    parsed = _parse_bmes(label_set.tags)
    start_ok = np.array([_may_follow(_EDGE, cur) for cur in parsed])
    end_ok = np.array([_may_follow(prev, _EDGE) for prev in parsed])
    pair_ok = np.array([[_may_follow(prev, cur) for cur in parsed] for prev in parsed])
    return start_ok, pair_ok, end_ok


@dataclass
class PrfScores:
    precision: float
    recall: float
    f1: float
    per_type: dict[str, tuple[float, float, float]]


def _prf(correct: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    # empty vs empty counts as a perfect match; an empty side alone scores 0
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def entity_prf(pred, gold) -> PrfScores:
    """Exact-match precision/recall/F1 over entity sets, micro overall
    plus a per-type breakdown."""
    pred = set(pred)
    gold = set(gold)
    p, r, f1 = _prf(len(pred & gold), len(pred), len(gold))
    per_type = {}
    for etype in sorted({e.etype for e in pred} | {e.etype for e in gold}):
        pt = {e for e in pred if e.etype == etype}
        gt = {e for e in gold if e.etype == etype}
        per_type[etype] = _prf(len(pt & gt), len(pt), len(gt))
    return PrfScores(p, r, f1, per_type)
