"""Tag schemes: BIO-to-BMES conversion, entity extraction under the
drop-unclosed repair policy, validation, and entity-level P/R/F1."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ntrr.rng import Rng
from ntrr.tagging import (Entity, LabelSet, bio_to_bmes, entity_prf,
                          legal_transitions, scan_entities,
                          split_tag, validate_bmes)

TYPES = ["LOC", "ORG", "PER"]


# ---------------------------------------------------------------- label set


def test_label_set_layout():
    ls = LabelSet(("LOC", "PER"))
    assert ls.tags[0] == "O"
    assert len(ls) == 1 + 4 * 2
    assert ls.index("O") == 0
    for t in ls.tags:
        assert ls.tags[ls.index(t)] == t


def test_label_set_from_tags_sorted():
    ls = LabelSet.from_tags(["O", "B-PER", "S-LOC", "E-PER"])
    assert ls.entity_types == ("LOC", "PER")


def test_encode_decode_round_trip():
    ls = LabelSet(("LOC", "PER"))
    tags = ["O", "B-PER", "E-PER", "S-LOC"]
    assert ls.decode(ls.encode(tags)) == tags


def test_split_tag():
    assert split_tag("B-PER") == ("B", "PER")
    assert split_tag("O") == ("O", None)


# --------------------------------------------------------------- conversion


def test_bio_two_token_span():
    assert bio_to_bmes(["B-PER", "I-PER", "O"]) == (["B-PER", "E-PER", "O"], 0)


def test_bio_singleton():
    assert bio_to_bmes(["B-LOC"]) == (["S-LOC"], 0)


def test_bio_longer_span():
    got, repairs = bio_to_bmes(["B-ORG", "I-ORG", "I-ORG", "O", "B-PER"])
    assert got == ["B-ORG", "M-ORG", "E-ORG", "O", "S-PER"]
    assert repairs == 0


def test_bio_orphan_inside_repaired():
    got, repairs = bio_to_bmes(["O", "I-PER", "I-PER", "O"])
    assert (got, repairs) == (["O"] * 4, 2)  # each orphan I- counts once


def test_bio_type_switch_inside_repaired():
    got, repairs = bio_to_bmes(["B-PER", "I-LOC"])
    assert (got, repairs) == (["S-PER", "O"], 1)


def bio_entities(tags):
    """Entity spans of a BIO sequence by direct scan, and its repairs:
    one per orphan I- (no open span of its type), which becomes O."""
    out = []
    repairs = 0
    start = None
    etype = None
    for i, tag in enumerate(tags + ["O"]):
        head, t = split_tag(tag)
        if start is not None and (head in ("O", "B") or t != etype):
            out.append(Entity(start, i - 1, etype))
            start = None
        if head == "B":
            start, etype = i, t
        if head == "I" and start is None:
            repairs += 1
    return out, repairs


def random_wellformed_bio(rng, max_len=12):
    tags = []
    while len(tags) < 1 + rng.randbelow(max_len):
        if rng.randbelow(2) == 0:
            tags.append("O")
        else:
            etype = TYPES[rng.randbelow(3)]
            tags.append(f"B-{etype}")
            for _ in range(rng.randbelow(3)):
                tags.append(f"I-{etype}")
    return tags


def test_bio_conversion_preserves_entities_bulk():
    # 10^4 random well-formed BIO sequences: entity sets must survive
    rng = Rng(17, 0)
    for i in range(10 ** 4):
        bio = random_wellformed_bio(rng.derive(i))
        bmes, repairs = bio_to_bmes(bio)
        assert len(bmes) == len(bio)
        want, want_repairs = bio_entities(bio)
        assert want_repairs == 0
        assert (set(scan_entities(bmes)[0]), repairs) == (set(want), want_repairs), (bio, bmes)


BIO_TAGS = ["O"] + [f"{h}-{t}" for t in TYPES for h in "BI"]


@given(st.lists(st.sampled_from(BIO_TAGS), max_size=12))
@settings(max_examples=300, deadline=None)
def test_bio_conversion_matches_direct_scan_property(bio):
    # any BIO sequence, orphan I- tags included: the same spans and repairs,
    # written as a sequence validate_bmes accepts
    bmes, repairs = bio_to_bmes(bio)
    want, want_repairs = bio_entities(bio)
    assert scan_entities(bmes) == (want, 0)
    assert repairs == want_repairs
    assert validate_bmes(bmes) == []


# --------------------------------------------------------------- extraction


def test_extract_basic():
    got = scan_entities(["B-PER", "E-PER", "O", "S-LOC"])[0]
    assert set(got) == {Entity(0, 1, "PER"), Entity(3, 3, "LOC")}


def test_extract_all_outside():
    assert scan_entities(["O", "O", "O"])[0] == []


def test_extract_drop_unclosed_resumes_at_break():
    ents, repairs = scan_entities(["B-PER", "B-PER", "E-PER"])
    assert set(ents) == {Entity(1, 2, "PER")}
    assert repairs == 1


def test_extract_repair_counts():
    # a span broken by an orphan counts twice; one left open at the end once
    assert scan_entities(["B-A", "M-B"]) == ([], 2)
    assert scan_entities(["B-PER"]) == ([], 1)
    assert scan_entities(["B-A", "M-A", "E-B", "S-A"]) == ([Entity(3, 3, "A")], 2)


def test_extract_sorted_and_disjoint():
    ents = scan_entities(["S-LOC", "B-PER", "M-PER", "E-PER", "S-ORG"])[0]
    starts = [e.start for e in ents]
    assert starts == sorted(starts)
    for a, b in zip(ents, ents[1:]):
        assert a.end < b.start


def brute_force_entities(tags):
    """Maximal well-formed spans: an S tag, or B (M)* E of one type,
    scanned left to right, restarting at the position that broke a
    span. Repairs count one per broken span and one per orphan M/E.
    Independent of the production scanner."""
    out = []
    repairs = 0
    i = 0
    n = len(tags)
    while i < n:
        head, etype = split_tag(tags[i])
        if head == "S":
            out.append(Entity(i, i, etype))
            i += 1
        elif head == "B":
            j = i + 1
            while j < n and split_tag(tags[j]) == ("M", etype):
                j += 1
            if j < n and split_tag(tags[j]) == ("E", etype):
                out.append(Entity(i, j, etype))
                i = j + 1
            else:
                repairs += 1
                i = j  # unclosed: drop it and resume at the tag that broke it
        else:
            if head in ("M", "E"):
                repairs += 1  # an orphan
            i += 1
    return out, repairs


ALL_TAGS = ["O"] + [f"{h}-{t}" for t in TYPES for h in "BMES"]


def test_extraction_matches_brute_force_bulk():
    rng = Rng(23, 0)
    for i in range(10 ** 4):
        r = rng.derive(i)
        n = 1 + r.randbelow(12)
        tags = [ALL_TAGS[r.randbelow(len(ALL_TAGS))] for _ in range(n)]
        assert scan_entities(tags) == brute_force_entities(tags), tags


@given(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_extraction_matches_brute_force_property(tags):
    assert scan_entities(tags) == brute_force_entities(tags)


# --------------------------------------------------------------- validation


def test_validate_accepts_wellformed():
    assert validate_bmes(["B-PER", "E-PER"]) == []
    assert validate_bmes(["O", "S-LOC", "B-ORG", "M-ORG", "E-ORG"]) == []


def test_validate_flags_bad_start():
    assert 0 in validate_bmes(["M-PER", "O"])
    assert 0 in validate_bmes(["E-PER"])


def test_validate_flags_trailing_open():
    v = validate_bmes(["O", "B-PER"])
    assert v == [1]
    v = validate_bmes(["B-PER", "M-PER"])
    assert v == [1]


def test_validate_flags_type_mismatch():
    assert validate_bmes(["B-PER", "E-LOC"]) != []


def transition_oracle(tags):
    """Violations from the legality tables, position by position."""
    ls = LabelSet(tuple(TYPES))
    start_ok, pair_ok, end_ok = legal_transitions(ls)
    ids = [ls.index(t) for t in tags]
    bad = set()
    if not start_ok[ids[0]]:
        bad.add(0)
    for i in range(1, len(ids)):
        if not pair_ok[ids[i - 1], ids[i]]:
            bad.add(i)
    if not end_ok[ids[-1]]:
        bad.add(len(ids) - 1)
    return sorted(bad)


def test_validation_matches_transition_tables_bulk():
    rng = Rng(29, 0)
    for i in range(2000):
        r = rng.derive(i)
        n = 1 + r.randbelow(10)
        tags = [ALL_TAGS[r.randbelow(len(ALL_TAGS))] for _ in range(n)]
        assert validate_bmes(tags) == transition_oracle(tags), tags


# ------------------------------------------------------------------ scoring


def test_prf_perfect():
    ents = [Entity(0, 1, "PER")]
    s = entity_prf(ents, list(ents))
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_prf_half_recall():
    pred = [Entity(0, 1, "PER")]
    gold = [Entity(0, 1, "PER"), Entity(3, 3, "LOC")]
    s = entity_prf(pred, gold)
    assert s.precision == 1.0 and s.recall == 0.5
    assert abs(s.f1 - 2 / 3) <= 1e-12


def test_prf_empty_conventions():
    s = entity_prf([], [])
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    s = entity_prf([Entity(0, 0, "PER")], [])
    assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0
    s = entity_prf([], [Entity(0, 0, "PER")])
    assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0


def test_prf_exact_match_only():
    s = entity_prf([Entity(0, 1, "PER")], [Entity(0, 1, "LOC")])
    assert s.f1 == 0.0
    s = entity_prf([Entity(0, 2, "PER")], [Entity(0, 1, "PER")])
    assert s.f1 == 0.0


def test_prf_swap_symmetry():
    rng = Rng(31, 0)
    for i in range(200):
        r = rng.derive(i)
        def ents(r_):
            return [Entity(j, j + r_.randbelow(2), TYPES[r_.randbelow(3)])
                    for j in range(0, 2 * r_.randbelow(5) + 1, 2)]
        pred, gold = ents(r.derive(0)), ents(r.derive(1))
        a = entity_prf(pred, gold)
        b = entity_prf(gold, pred)
        assert a.precision == b.recall and a.recall == b.precision
        assert abs(a.f1 - b.f1) <= 1e-12


def test_prf_per_type_breakdown():
    pred = [Entity(0, 0, "PER"), Entity(2, 2, "LOC")]
    gold = [Entity(0, 0, "PER"), Entity(4, 4, "LOC")]
    s = entity_prf(pred, gold)
    assert s.per_type["PER"] == (1.0, 1.0, 1.0)
    assert s.per_type["LOC"] == (0.0, 0.0, 0.0)
