"""Match-key normalization and lookup-table enrichment."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathrepo.cli import main
from mathrepo.enrich import (
    REVIEW_URL_PREFIX,
    EnrichReport,
    MatchKey,
    MrTableError,
    enrich,
    load_mr_table,
    make_match_key,
    normalize_journal,
)
from mathrepo.msc import is_msc_code, msc_fields
from mathrepo.records import RelatedUrl, store_records

from support import make_record

YOKOHAMA_JOURNAL = "Nat. Sci. J. Fac. Educ. Hum. Sci. Yokohama National University Sec. I"
YOKOHAMA_NORM = "nat sci j fac educ hum sci yokohama national university sec i"


def maeda_record():
    return make_record(
        source="yokohama",
        oai_identifier="oai:example:10131/1069",
        title="The four-or-more Vertex Theorems in 2-dimensional Space Forms",
        official_url="http://hdl.handle.net/10131/1069",
        creators=[],
        publication=YOKOHAMA_JOURNAL,
        volume="1",
        pagerange="43-46",
        date="1998",
    )


def maeda_table(tmp_path):
    path = tmp_path / "mr_table.tsv"
    path.write_text(
        f"{YOKOHAMA_JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04\n",
        encoding="utf-8",
    )
    return load_mr_table(path)


class TestNormalization:
    def test_case_and_punctuation_folding(self):
        assert normalize_journal("J. Math. Soc. Japan") == "j math soc japan"
        assert normalize_journal("J. MATH. SOC. JAPAN.") == "j math soc japan"

    def test_yokohama_key(self):
        key = make_match_key(maeda_record())
        assert key == MatchKey(YOKOHAMA_NORM, "1", 1998, "43")

    def test_no_year_means_no_key(self):
        rec = make_record(publication="J. Example", date="")
        assert make_match_key(rec) is None

    def test_no_publication_means_no_key(self):
        rec = make_record(publication="", date="1998")
        assert make_match_key(rec) is None

    def test_accent_folding(self):
        assert normalize_journal("Ann. de l'Institut Poincaré") == "ann de l institut poincare"

    def test_non_latin_text_passes_through(self):
        assert normalize_journal("数学雑誌") == "数学雑誌"

    @given(
        st.sampled_from(["J. Math. Soc. Japan", "Hiroshima Math. J.", "Tohoku Math. J."]),
        st.sampled_from(["", ".", ",", " .", "  ", " ;"]),
        st.booleans(),
        st.integers(1, 4),
    )
    @settings(max_examples=120)
    def test_key_invariant_under_perturbation(self, journal, suffix, upper, spaces):
        perturbed = (journal.upper() if upper else journal).replace(" ", " " * spaces) + suffix
        rec_a = make_record(publication=journal, volume="9", date="1999", pagerange="1-2")
        rec_b = make_record(publication=perturbed, volume="9", date="1999", pagerange="1-2")
        assert make_match_key(rec_a) == make_match_key(rec_b)


class TestLoadMrTable:
    def test_worked_example_row(self, tmp_path):
        table = maeda_table(tmp_path)
        key = MatchKey(YOKOHAMA_NORM, "1", 1998, "43")
        assert key in table
        entry = table[key]
        assert entry.mr_number == 1710269
        assert entry.msc_primary == "53A35"
        assert entry.msc_secondary == ("53A04",)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert load_mr_table(path) == {}

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.tsv"
        row = "J. Example\t1\t1998\t43\t1710269\t53A35\t53A04\n"
        path.write_text(row + row, encoding="utf-8")
        with pytest.raises(MrTableError, match="lines 1 and 2"):
            load_mr_table(path)

    @pytest.mark.parametrize(
        "row, error",
        [
            ("J\t1\t1998\t43\t1710269\t53A35\n", "expected 7 columns, got 6"),
            ("J\t1\t98A\t43\t1710269\t53A35\t\n", "bad year '98A'"),
            ("J\t1\t1998\t43\tMR1710269\t53A35\t\n", "bad mr_number 'MR1710269'"),
            ("J\t1\t1998\t43\t0\t53A35\t\n", "mr_number must be positive: 0"),
        ],
        ids=["six_columns", "bad_year", "bad_mr_number", "mr_number_zero"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, error):
        path = tmp_path / "mr_table.tsv"
        good = f"{YOKOHAMA_JOURNAL}\t1\t1998\t43\t1710269\t53A35\t\n"
        path.write_text(f"# journal\tvolume\n{good}{row}", encoding="utf-8")
        with pytest.raises(MrTableError) as info:
            load_mr_table(path)
        assert f"{path}:3: {error}" in str(info.value)

    def test_malformed_msc_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("J. Example\t1\t1998\t43\t1710269\tBAD1\t\n", encoding="utf-8")
        with pytest.raises(MrTableError, match="MSC"):
            load_mr_table(path)

    def test_duplicate_key_across_journal_spellings(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(
            "J. Example\t1\t1998\t43\t1710269\t53A35\t\n"
            "J EXAMPLE.\t1\t1998\t43\t1710270\t53A04\t\n",
            encoding="utf-8",
        )
        with pytest.raises(MrTableError, match="'j example|1|1998|43' on lines 1 and 2"):
            load_mr_table(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_text(f"{YOKOHAMA_JOURNAL}\t1\t1998\t43\t1710269\t53A35\t53A04\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_mr_table(path) == maeda_table(tmp_path)
        (rec,), report = enrich([maeda_record()], load_mr_table(path))
        assert (rec.mr_number, report.matched) == (1710269, 1)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text(
            "# journal\tvolume\tyear\tspage\tmr\tprimary\tsecondary\n"
            "J. Example\t1\t1998\t43\t1710269\t53A35\t\n",
            encoding="utf-8",
        )
        assert len(load_mr_table(path)) == 1


class TestEnrich:
    def test_worked_example(self, tmp_path):
        records, report = enrich([maeda_record()], maeda_table(tmp_path))
        (rec,) = records
        assert rec.msc_primary == "53A35"
        assert rec.msc_secondary == ["53A04"]
        assert rec.mr_number == 1710269
        assert rec.related_urls[-1] == RelatedUrl(
            url="http://www.ams.org/mathscinet-getitem?mr=1710269", type="MathSciNet"
        )
        assert (report.matched, report.unmatched, report.skipped) == (1, 0, 0)

    def test_horie_reconstruction(self, tmp_path):
        rec = make_record(
            title="Note on the Schur multiplier of a certain semidirect product",
            official_url="http://hdl.handle.net/10083/839",
            publication="Natur. Sci. Report. Ochanomizu. Univ.",
            volume="45",
            pagerange="85-88",
            date="1994-12-15",
        )
        path = tmp_path / "mr.tsv"
        path.write_text(
            "Natur. Sci. Report. Ochanomizu. Univ.\t45\t1994\t85\t1317509\t20J06\t20C25\n",
            encoding="utf-8",
        )
        (enriched,), _ = enrich([rec], load_mr_table(path))
        assert enriched.msc_primary == "20J06"
        assert enriched.msc_secondary == ["20C25"]
        assert enriched.mr_number == 1317509
        assert enriched.related_urls[-1].type == "MathSciNet"
        assert enriched.related_urls[-1].url == "http://www.ams.org/mathscinet-getitem?mr=1317509"

    def test_empty_table_changes_nothing(self):
        rec = maeda_record()
        records, report = enrich([rec], {})
        assert records == [rec]
        assert report.matched == 0 and report.unmatched == 1

    def test_skipped_records_counted(self):
        rec = make_record(publication="", date="")
        _, report = enrich([rec], {})
        assert report.skipped == 1

    def test_existing_secondaries_kept_first_and_merged(self, tmp_path):
        rec = dataclasses.replace(maeda_record(), msc_secondary=["53A04", "58E10"])
        (enriched,), _ = enrich([rec], maeda_table(tmp_path))
        assert enriched.msc_secondary == ["53A04", "58E10"]

    def test_idempotent(self, tmp_path):
        table = maeda_table(tmp_path)
        once, _ = enrich([maeda_record()], table)
        twice, _ = enrich(once, table)
        assert once == twice

    def test_rerun_returns_the_same_records(self, tmp_path):
        records = [
            maeda_record(),
            make_record(oai_identifier="oai:x:unmatched", publication="J. Other", date="1998"),
            make_record(oai_identifier="oai:x:unkeyed", publication="", date=""),
        ]
        table = maeda_table(tmp_path)
        once, first = enrich(records, table)
        twice, second = enrich(once, table)
        assert all(a is b for a, b in zip(once, twice)) and len(twice) == len(once)
        assert second == first == EnrichReport(matched=1, unmatched=1, skipped=1)

    def test_cli_rerun_leaves_store_byte_identical(self, tmp_path):
        store = tmp_path / "records.jsonl"
        store_records([maeda_record(), make_record(publication="J. Other", date="1998")], store)
        maeda_table(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({
                "store": str(store),
                "spool_dir": str(tmp_path / "spool"),
                "output_dir": str(tmp_path / "out"),
                "endpoints": [],
                "mr_table": str(tmp_path / "mr_table.tsv"),
            }),
            encoding="utf-8",
        )
        assert main(["--config", str(config), "enrich"]) == 0
        enriched = store.read_bytes()
        assert main(["--config", str(config), "enrich"]) == 0
        assert store.read_bytes() == enriched

    def test_older_review_link_is_replaced_as_before(self, tmp_path):
        old_link = RelatedUrl(url=f"{REVIEW_URL_PREFIX}1000001", type="MathSciNet")
        rec = dataclasses.replace(
            maeda_record(),
            mr_number=1000001,
            msc_primary="53A04",
            msc_secondary=["53A04"],
            related_urls=[old_link],
        )
        (enriched,), report = enrich([rec], maeda_table(tmp_path))
        assert enriched is not rec
        assert enriched.mr_number == 1710269
        assert enriched.msc_primary == "53A35"
        assert enriched.msc_secondary == ["53A04"]
        assert enriched.related_urls == [
            old_link,
            RelatedUrl(url=f"{REVIEW_URL_PREFIX}1710269", type="MathSciNet"),
        ]
        assert report.matched == 1

    @pytest.mark.parametrize(
        "undo",
        [
            {"msc_primary": "58E10"},
            {"msc_secondary": []},
            {"related_urls": []},
            {"mr_number": None},
        ],
        ids=["primary", "secondary", "review-link", "mr-number"],
    )
    def test_partly_applied_entry_is_completed(self, tmp_path, undo):
        table = maeda_table(tmp_path)
        (full,), _ = enrich([maeda_record()], table)
        partial = dataclasses.replace(full, **undo)
        (enriched,), _ = enrich([partial], table)
        assert enriched is not partial
        assert enriched == full

    def test_bibliographic_fields_untouched(self, tmp_path):
        rec = maeda_record()
        (enriched,), _ = enrich([rec], maeda_table(tmp_path))
        for name in (
            "record_id", "source", "oai_identifier", "title", "creators", "publication",
            "volume", "issue", "pagerange", "date", "publisher", "official_url",
            "full_text_url", "refereed", "language",
        ):
            assert getattr(enriched, name) == getattr(rec, name)


class TestMscTopLevel:
    def test_full_code(self):
        assert msc_fields(["53A35"])[0] == "53"

    def test_collective_code(self):
        assert msc_fields(["20-xx"])[0] == "20"

    def test_leading_zero_preserved(self):
        assert msc_fields(["05C20"])[0] == "05"

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            msc_fields(["QA"])

    def test_first_bad_code_in_list_order_is_reported(self):
        with pytest.raises(ValueError, match=r"^invalid MSC code: 'QA'$"):
            msc_fields(["53A35", "QA", "", "53A35\n"])

    def test_code_that_is_not_a_str_is_a_type_error(self):
        with pytest.raises(TypeError):
            msc_fields(["53A35", 53])

    @pytest.mark.parametrize("code", ["53A35\n", "53\n"])
    def test_trailing_newline_is_not_a_code(self, code):
        assert not is_msc_code(code)

    # Arabic-Indic and fullwidth digits are Unicode decimal digits, not MSC digits
    @pytest.mark.parametrize("code", ["\u0665\u0663A35", "\u0665\u0663", "\uff15\uff13A35"])
    def test_non_ascii_digits_are_not_a_code(self, code):
        assert not is_msc_code(code)
        with pytest.raises(ValueError):
            msc_fields([code])
