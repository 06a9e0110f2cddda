"""The MR join on plain tuples: table rows, match keys and the applied entry."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathrepo.enrich import REVIEW_URL_PREFIX, MatchKey, MrEntry, MrTableError, enrich_record, load_mr_table
from mathrepo.records import RelatedUrl

from support import make_record

JOURNAL = "J. Example"
ENTRY = MrEntry(1710269, "53A35", ("53A04", "58E10"))
REVIEW = RelatedUrl(url=f"{REVIEW_URL_PREFIX}1710269", type="MathSciNet")
OTHER_LINK = RelatedUrl(url="http://example.org/other", type="url")


def keyed_record(**fields):
    return make_record(publication=JOURNAL, volume="1", pagerange="43-46", date="1998", **fields)


def table_of(entry: MrEntry = ENTRY) -> dict:
    return {MatchKey("j example", "1", 1998, "43"): entry}


def apply_as_before(rec, entry):
    """The join as it was written before the already-enriched shortcut: merge, then compare."""
    added = [code for code in dict.fromkeys(entry.msc_secondary) if code not in rec.msc_secondary]
    secondary = rec.msc_secondary + added
    related = list(rec.related_urls)
    review = RelatedUrl(url=f"{REVIEW_URL_PREFIX}{entry.mr_number}", type="MathSciNet")
    if review not in related:
        related.append(review)
    merged = (entry.mr_number, entry.msc_primary, secondary, related)
    if merged == (rec.mr_number, rec.msc_primary, rec.msc_secondary, rec.related_urls):
        return rec
    return dataclasses.replace(
        rec, mr_number=entry.mr_number, msc_primary=entry.msc_primary, msc_secondary=secondary, related_urls=related
    )


class TestTuples:
    def test_match_key_is_a_plain_tuple_with_its_fields(self):
        key = MatchKey("j example", "1", 1998, "43")
        assert key == ("j example", "1", 1998, "43") and hash(key) == hash(("j example", "1", 1998, "43"))
        assert key == MatchKey(journal_norm="j example", volume="1", year=1998, spage="43")
        assert key.render() == "j example|1|1998|43"

    def test_mr_entry_is_a_plain_tuple_with_its_fields(self):
        assert ENTRY == (1710269, "53A35", ("53A04", "58E10"))
        assert (ENTRY.mr_number, ENTRY.msc_primary, ENTRY.msc_secondary) == ENTRY

    def test_a_plain_tuple_finds_its_row(self):
        assert table_of()[("j example", "1", 1998, "43")] is ENTRY


class TestLoadChecks:
    @pytest.mark.parametrize(
        "row, error",
        [
            ("-5\t53A35\t", "mr_number must be positive: -5"),
            ("7\tBAD1\t53A04", "invalid MSC code: 'BAD1'"),
            ("7\t53A35\t53A04;QA;XX", "invalid MSC code: 'QA'"),
            ("0\tBAD1\t", "mr_number must be positive: 0"),
        ],
        ids=["negative", "primary", "first-bad-secondary", "number-before-codes"],
    )
    def test_row_check_names_file_line_and_value(self, tmp_path, row, error):
        path = tmp_path / "mr.tsv"
        path.write_text(f"# header\n{JOURNAL}\t1\t1998\t43\t{row}\n", encoding="utf-8")
        with pytest.raises(MrTableError) as info:
            load_mr_table(path)
        assert str(info.value) == f"{path}:2: {error}"

    def test_given_bytes_are_what_is_loaded(self, tmp_path):
        path = tmp_path / "mr.tsv"
        path.write_text(f"{JOURNAL}\t1\t1998\t43\t1\t53A35\t\n", encoding="utf-8")
        data = f"{JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04; 58E10\n".encode()
        assert load_mr_table(path, data) == table_of()
        with pytest.raises(MrTableError) as info:
            load_mr_table(path, b"\xef\xbb\xbfJ\t1\t1998\t43\t1710269\t53A35\n")
        assert str(info.value) == f"{path}:1: expected 7 columns, got 6"


class TestApplyEntry:
    def test_enriched_record_comes_back_as_itself(self):
        full = keyed_record(mr_number=1710269, msc_primary="53A35", msc_secondary=["58E10", "53A04"],
                            related_urls=[OTHER_LINK, REVIEW])
        rec, outcome = enrich_record(full, table_of())
        assert rec is full and outcome == "matched"

    def test_record_enriched_by_the_join_comes_back_as_itself(self):
        once, _ = enrich_record(keyed_record(), table_of())
        twice, outcome = enrich_record(once, table_of())
        assert twice is once and outcome == "matched"

    @pytest.mark.parametrize(
        "fields",
        [
            {"msc_secondary": ["53A04"], "related_urls": [REVIEW]},
            {"msc_secondary": ["53A04", "58E10"], "related_urls": [OTHER_LINK]},
            {"msc_secondary": ["53A04", "58E10"], "related_urls": [RelatedUrl(url=REVIEW.url, type="url")]},
            {"msc_secondary": ["53A04", "58E10"], "related_urls": [dataclasses.replace(REVIEW, url=f"{REVIEW.url}0")]},
            {"msc_secondary": [], "related_urls": []},
        ],
        ids=["one-secondary-missing", "review-link-missing", "link-of-another-type", "link-to-another-review",
             "both-missing"],
    )
    def test_record_missing_part_of_the_entry_gets_what_it_got_before(self, fields):
        partial = keyed_record(mr_number=1710269, msc_primary="53A35", **fields)
        rec, outcome = enrich_record(partial, table_of())
        assert rec is not partial and outcome == "matched"
        assert rec == apply_as_before(partial, ENTRY)
        assert rec.msc_secondary[:len(partial.msc_secondary)] == partial.msc_secondary
        assert REVIEW in rec.related_urls

    @given(
        mr_number=st.sampled_from([None, 1710269, 1000001]),
        primary=st.sampled_from(["", "53A35", "58E10"]),
        secondary=st.lists(st.sampled_from(["53A04", "58E10", "05C20"]), max_size=3),
        links=st.lists(st.sampled_from([REVIEW, OTHER_LINK, RelatedUrl(url=REVIEW.url, type="url")]), max_size=3),
        entry_secondary=st.lists(st.sampled_from(["53A04", "58E10"]), max_size=3),
    )
    @settings(max_examples=200)
    def test_join_matches_the_merge_and_compare_it_replaced(self, mr_number, primary, secondary, links,
                                                           entry_secondary):
        entry = MrEntry(1710269, "53A35", tuple(entry_secondary))
        rec = keyed_record(mr_number=mr_number, msc_primary=primary, msc_secondary=secondary, related_urls=links)
        expected = apply_as_before(rec, entry)
        got, outcome = enrich_record(rec, table_of(entry))
        assert outcome == "matched" and got == expected
        assert (got is rec) == (expected is rec)
