import re
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from adrpipe.preprocess import (
    DrugLexicon,
    PipelineConfig,
    anonymize,
    drug_normalize,
    load_lexicon,
    preprocess,
    remove_hashtags,
    replace_handles,
)


class TestAnonymize:
    def test_url_to_placeholder(self):
        assert anonymize("see https://t.co/abc now") == "see -URL- now"

    def test_http_and_www(self):
        assert anonymize("http://x.io link") == "-URL- link"
        assert anonymize("go to www.example.com today") == "go to -URL- today"

    def test_www_inside_word_untouched(self):
        assert anonymize("awww.cool story") == "awww.cool story"

    def test_email_keeps_domain(self):
        assert anonymize("mail john@gmail.com please") == "mail gmail.com please"

    def test_email_with_dots_and_plus(self):
        assert anonymize("jo.hn+spam@mail.example.org!") == "mail.example.org!"

    def test_symbols_removed(self):
        assert anonymize("brand™ stuff® fine©") == "brand stuff fine"

    def test_plain_text_untouched(self):
        assert anonymize("plain text") == "plain text"

    def test_domain_that_looks_like_url_is_caught_same_pass(self):
        # the email collapses to a www domain, which the URL rule then eats
        out = anonymize("ping john@www.foo.com ok")
        assert out == "ping -URL- ok"
        assert anonymize(out) == out


class TestReplaceHandles:
    def test_simple_handle(self):
        assert replace_handles("@john thanks") == "-TH- thanks"

    def test_repeated(self):
        assert replace_handles("a @b @c") == "a -TH- -TH-"

    def test_bare_at_kept(self):
        assert replace_handles("price @ 5") == "price @ 5"

    def test_embedded_at_not_a_handle(self):
        assert replace_handles("hi@john") == "hi@john"

    def test_punctuation_boundary(self):
        assert replace_handles("(@john) .@jane hi") == "(-TH-) .-TH- hi"


class TestRemoveHashtags:
    def test_leading_hash_stripped(self):
        assert remove_hashtags("#headache all day") == "headache all day"

    def test_double_hash_stripped_once(self):
        assert remove_hashtags("##double") == "#double"

    def test_interior_hash_kept(self):
        assert remove_hashtags("c# code") == "c# code"

    def test_multiple_words(self):
        assert remove_hashtags("#a day #b") == "a day b"


class TestDrugNormalize:
    def test_brand_replaced(self, tiny_lexicon):
        assert (
            drug_normalize("took seroquel last night", tiny_lexicon)
            == "took quetiapine last night"
        )

    def test_other_brand(self, tiny_lexicon):
        assert drug_normalize("zyprexa zombie", tiny_lexicon) == "olanzapine zombie"

    def test_generic_is_fixpoint(self, tiny_lexicon):
        assert drug_normalize("quetiapine works", tiny_lexicon) == "quetiapine works"

    def test_whole_word_only(self, tiny_lexicon):
        assert drug_normalize("seroquels bulk pack", tiny_lexicon) == "seroquels bulk pack"
        assert drug_normalize("seroquel-xr dose", tiny_lexicon) == "seroquel-xr dose"

    def test_punctuation_is_a_boundary(self, tiny_lexicon):
        assert drug_normalize("(seroquel) again: seroquel!", tiny_lexicon) == (
            "(quetiapine) again: quetiapine!"
        )

    def test_longest_key_wins(self):
        lex = DrugLexicon(
            {"tylenol": "acetaminophen", "tylenol pm": "acetaminophen diphenhydramine"}
        )
        assert (
            drug_normalize("took tylenol pm then more tylenol", lex)
            == "took acetaminophen diphenhydramine then more acetaminophen"
        )


# A lexicon entry as the loader keeps it: lowercase, with no tab, line break or surrounding whitespace.
lexicon_entry = (
    st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1)
    .map(lambda s: s.lower().strip())
    .filter(lambda s: s and s == s.lower().strip())
)


class TestLexicon:
    def test_rejects_self_mapping(self):
        with pytest.raises(ValueError, match="self-mapping"):
            DrugLexicon({"aspirin": "aspirin"})

    def test_rejects_chained_mapping(self):
        with pytest.raises(ValueError, match="fixpoint|brand keys"):
            DrugLexicon({"a-brand": "b-brand", "b-brand": "c-generic"})

    def test_loader_lowercases_and_ignores_comments(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("# comment\nSeroquel\tQuetiapine\n\nseroquel\tquetiapine\n", encoding="utf-8")
        lex = load_lexicon(p)
        assert lex.entries == {"seroquel": "quetiapine"}

    def test_loader_rejects_conflicting_duplicates(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("prozac\tfluoxetine\nprozac\tsertraline\n", encoding="utf-8")
        with pytest.raises(ValueError, match="conflicting duplicate key 'prozac'"):
            load_lexicon(p)
        with pytest.raises(ValueError) as e:
            load_lexicon(p)
        assert str(e.value) == f"{p}: conflicting duplicate key 'prozac' at line 2: 'fluoxetine' vs 'sertraline'"

    @pytest.mark.parametrize("line", ["\tquetiapine", "seroquel\t", " \tquetiapine"])
    def test_loader_rejects_empty_entry_naming_file_and_line(self, tmp_path, line):
        p = tmp_path / "lex.tsv"
        p.write_text(f"# comment\nprozac\tfluoxetine\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            load_lexicon(p)
        assert str(e.value) == f"{p}: lexicon entries must be non-empty at line 3"

    @pytest.mark.parametrize("line", ["foo\tfoo", "Foo\t foo"])
    def test_loader_rejects_self_mapping_naming_file_and_line(self, tmp_path, line):
        p = tmp_path / "lex.tsv"
        p.write_text(f"prozac\tfluoxetine\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            load_lexicon(p)
        assert str(e.value) == f"{p}: self-mapping rejected: 'foo' at line 2"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(lexicon_entry.filter(lambda s: not s.startswith("#")), lexicon_entry, max_size=8))
    def test_loader_round_trip(self, tmp_path, entries):
        assume(not set(entries.values()) & set(entries))  # no self-mapping, every generic a fixpoint
        p = tmp_path / "lex.tsv"
        p.write_text("".join(f"{brand}\t{generic}\n" for brand, generic in entries.items()), encoding="utf-8")
        assert load_lexicon(p) == DrugLexicon(entries)

    def test_fixture_lexicon_is_all_lowercase(self, lexicon):
        for brand, generic in lexicon.entries.items():
            assert brand == brand.lower()
            assert generic == generic.lower()


class TestPipelineConfig:
    def test_drugnorm_requires_lexicon(self):
        with pytest.raises(ValueError, match="lexicon required"):
            PipelineConfig(enabled_stages=("lowercase", "drugnorm"))

    def test_drugnorm_requires_lowercase(self, tiny_lexicon):
        with pytest.raises(ValueError, match="lowercase"):
            PipelineConfig(enabled_stages=("drugnorm",), lexicon=tiny_lexicon)

    def test_stage_order_is_fixed(self, tiny_lexicon):
        with pytest.raises(ValueError, match="fixed pipeline order"):
            PipelineConfig(enabled_stages=("lowercase", "anonymize"), lexicon=tiny_lexicon)

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stages"):
            PipelineConfig(enabled_stages=("anonymize", "spellcheck"))


class TestPreprocess:
    def test_full_pipeline_example(self, tiny_lexicon):
        cfg = PipelineConfig(lexicon=tiny_lexicon)
        out = preprocess("@john check https://t.co/x #Seroquel ruined me", cfg)
        assert out == "-th- check -url- quetiapine ruined me"

    def test_empty_input(self, full_pipeline):
        assert preprocess("", full_pipeline) == ""

    def test_whitespace_is_collapsed_and_trimmed(self, full_pipeline):
        assert preprocess("  a \t b  c  ", full_pipeline) == "a b c"

    def test_stage_subset_skips_disabledanonymize(self, tiny_lexicon):
        cfg = PipelineConfig(enabled_stages=("hashtags", "lowercase"))
        assert preprocess("#Keep http://x.io", cfg) == "keep http://x.io"

    def test_idempotent_over_fixture_corpus(self, fixture_corpus, full_pipeline):
        assert len(fixture_corpus) >= 200
        for r in fixture_corpus.records:
            once = preprocess(r.text, full_pipeline)
            assert preprocess(once, full_pipeline) == once

    def test_lowercase_stability_over_fixture(self, fixture_corpus, full_pipeline):
        for r in fixture_corpus.records:
            out = preprocess(r.text, full_pipeline)
            assert out == out.lower()

    def test_cleaning_stages_add_only_placeholder_characters(self, fixture_corpus):
        # anonymize/handles/hashtags may drop characters but only ever add
        # the two placeholder tokens
        cfg = PipelineConfig(enabled_stages=("anonymize", "handles", "hashtags"))
        for r in fixture_corpus.records:
            out = preprocess(r.text, cfg)
            stripped = out.replace("-URL-", "").replace("-TH-", "")
            assert set(stripped) <= set(r.text) | {" "}

    def test_single_word_drugnorm_preserves_token_count(self, fixture_corpus, lexicon):
        single_word = DrugLexicon(
            {k: v for k, v in lexicon.entries.items() if " " not in k and " " not in v}
        )
        cfg_without = PipelineConfig(enabled_stages=("anonymize", "handles", "hashtags", "lowercase"))
        cfg_with = PipelineConfig(lexicon=single_word)
        for r in fixture_corpus.records:
            before = preprocess(r.text, cfg_without)
            after = preprocess(r.text, cfg_with)
            assert len(before.split()) == len(after.split())


# Reference forms of three stages: each pattern applied by one plain re.sub
# over the whole text. anonymize, replace_handles and remove_hashtags must
# give exactly what these give.
_DELIM = "".join(c for c in string.punctuation if c not in "-'")
_REF_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@([A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+)")
_REF_URL_RE = re.compile(r"https?://\S+|(?<![A-Za-z0-9.-])www\.\S+")
_REF_HANDLE_RE = re.compile(rf"(?<![^\s{re.escape(_DELIM)}])@[A-Za-z0-9_]+")
_REF_HASHTAG_RE = re.compile(r"(?:^|(?<=\s))#")


def reference_anonymize(text):
    text = _REF_EMAIL_RE.sub(lambda m: m.group(1), text)
    text = _REF_URL_RE.sub("-URL-", text)
    return text.translate(str.maketrans("", "", "\u00a9\u2122\u00ae"))


# Single characters dense in what the patterns look at, plus fragments that
# make emails, URLs, handles and hashtags likely in short strings.
_CHARS = list("abAZ09._%+-@#:/ \t\n\u00a0\u00a9\u2122\u00ae_")
_FRAGMENTS = ["a@b.c", "@x", ".com", "http", "https://", "www.", "#tag", "x.y", "@@"]
tweetish = st.lists(st.sampled_from(_CHARS + _FRAGMENTS), max_size=30).map("".join)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "text",
        [
            "a@b.c_x@d.e",  # the second local part starts where the first domain ends
            "x@ex.com.y@foo.org",
            "@@a@b.c",
            "a@b",  # no dot in the domain
            "a@b.",
            "x@-.-",
            "a" * 50 + "@" + "b." * 20,
            "mail me: jo.hn+x@mail.example.org, or www.site.com",
            "\u00a9 john@www.foo.com\u2122",
        ],
    )
    def test_examples(self, text):
        assert anonymize(text) == reference_anonymize(text)

    @settings(max_examples=500, deadline=None)
    @given(tweetish)
    def test_anonymize(self, text):
        assert anonymize(text) == reference_anonymize(text)

    @settings(max_examples=300, deadline=None)
    @given(tweetish)
    def test_handles_and_hashtags(self, text):
        assert replace_handles(text) == _REF_HANDLE_RE.sub("-TH-", text)
        assert remove_hashtags(text) == _REF_HASHTAG_RE.sub("", text)


lexicon_text = st.lists(
    st.sampled_from(
        ["seroquel", "tylenol", "pm", "tylenol pm", "quetiapine", "acetaminophen", "advil",
         "seroquelx", "x", " ", "  ", "-", "'", ",", ".", "\t", "@", "#"]
    ),
    max_size=20,
).map("".join)


class TestLaws:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tweetish, lexicon_text))
    def test_output_is_whitespace_normalised(self, full_pipeline, text):
        out = preprocess(text, full_pipeline)
        assert out == " ".join(out.split())

    @settings(max_examples=300, deadline=None)
    @given(lexicon_text)
    def test_drug_normalize_is_idempotent(self, lexicon, text):
        once = drug_normalize(text, lexicon)
        assert drug_normalize(once, lexicon) == once
