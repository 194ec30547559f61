import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewtag import data as d
from fewtag.data import (DataError, LabelMap, LabelSet, Sentence, build_vocab,
                         extract_spans, greedy_sample_support, load_label_map,
                         read_conll, read_fewnerd_episodes, write_conll)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestReadConll:
    def test_direct_parse(self, tmp_path):
        path = write(tmp_path, "a.conll", "EU\tI-ORG\nrejects\tO\n")
        sents = read_conll(path)
        assert len(sents) == 1
        assert sents[0].tokens == ("EU", "rejects")
        assert sents[0].tags == ("I-ORG", "O")

    def test_bio_to_io(self, tmp_path):
        path = write(tmp_path, "a.conll", "a\tB-PER\nb\tI-PER\n")
        assert read_conll(path)[0].tags == ("I-PER", "I-PER")

    def test_blank_line_separates(self, tmp_path):
        path = write(tmp_path, "a.conll", "a\tO\n\nb\tO\n")
        assert len(read_conll(path)) == 2

    def test_space_separated(self, tmp_path):
        path = write(tmp_path, "a.conll", "a O\nb I-X\n")
        assert read_conll(path)[0].tags == ("O", "I-X")

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "a.conll", "a\tO\nbroken line here extra\n")
        with pytest.raises(DataError, match=":2"):
            read_conll(path)

    def test_empty_file(self, tmp_path):
        assert read_conll(write(tmp_path, "a.conll", "")) == []

    def test_roundtrip(self, tmp_path):
        path = write(tmp_path, "a.conll", "EU\tB-ORG\nrejects\tO\n\nx\tI-LOC\n")
        sents = read_conll(path)
        out = str(tmp_path / "out.conll")
        write_conll(sents, out)
        assert read_conll(out) == sents


class TestEpisodes:
    def record(self, **kw):
        rec = {
            "support": {"word": [["a", "b"], ["c"]],
                        "label": [["person", "O"], ["location"]]},
            "query": {"word": [["d"]], "label": [["person"]]},
            "types": ["person", "location"],
        }
        rec.update(kw)
        return rec

    def test_valid_record(self, tmp_path):
        path = write(tmp_path, "ep.jsonl", json.dumps(self.record()) + "\n")
        eps = read_fewnerd_episodes(path)
        assert len(eps) == 1
        assert eps[0].n_way == 2
        assert eps[0].support[0].tags == ("I-person", "O")

    def test_query_class_outside_support_rejected(self, tmp_path):
        rec = self.record(query={"word": [["d"]], "label": [["building"]]})
        path = write(tmp_path, "ep.jsonl", json.dumps(rec) + "\n")
        with pytest.raises(DataError, match="episode 0"):
            read_fewnerd_episodes(path)

    def test_empty_file(self, tmp_path):
        assert read_fewnerd_episodes(write(tmp_path, "ep.jsonl", "")) == []

    def test_blank_lines_between_records_skipped(self, tmp_path):
        line = json.dumps(self.record())
        path = write(tmp_path, "ep.jsonl", f"\n{line}\n\n  \n{line}\n")
        eps = read_fewnerd_episodes(path)
        assert len(eps) == 2 and eps[0] == eps[1]

    def test_bad_record_is_numbered_by_episode_not_line(self, tmp_path):
        good = json.dumps(self.record())
        bad = json.dumps(self.record(types=["person"]))
        path = write(tmp_path, "ep.jsonl", f"{good}\n\n{bad}\n")
        with pytest.raises(DataError, match="episode 1:"):
            read_fewnerd_episodes(path)


class TestLabelMap:
    def test_parse_with_comments(self, tmp_path):
        path = write(tmp_path, "map.txt",
                     "# CoNLL'03 classes\nPER = person\nMISC = miscellaneous\n")
        lm = load_label_map(path)
        assert lm.phrase("PER") == "person"
        assert lm.phrase("MISC") == "miscellaneous"
        assert lm.phrase("O") == "other"  # default

    def test_multiword_phrase(self, tmp_path):
        lm = load_label_map(write(tmp_path, "m.txt", "person-artist/author = artist\n"
                                                     "creative-work = creative work\n"))
        assert lm.phrase("person-artist/author") == "artist"
        assert lm.phrase("creative-work") == "creative work"

    def test_missing_class_listed(self, tmp_path):
        path = write(tmp_path, "m.txt", "PER = person\n")
        with pytest.raises(DataError, match="LOC"):
            load_label_map(path, LabelSet(("PER", "LOC")))


def toy_corpus():
    sents = []
    for i in range(30):
        sents.append(Sentence((f"pa{i}", "x"), ("I-A", "O")))
        sents.append(Sentence((f"pb{i}", "y"), ("I-B", "O")))
    return sents


class TestSampler:
    def test_forced_selection(self):
        corpus = [Sentence(("a",), ("I-A",)), Sentence(("b",), ("I-B",))]
        out = greedy_sample_support(corpus, LabelSet(("A", "B")), n_way=2, k_shot=1, seed=0)
        assert len(out.sentences) == 2
        assert out.counts == {"A": 1, "B": 1}

    def test_same_seed_identical(self):
        corpus = toy_corpus()
        a = greedy_sample_support(corpus, LabelSet(("A", "B")), 2, 3, seed=42)
        b = greedy_sample_support(corpus, LabelSet(("A", "B")), 2, 3, seed=42)
        assert a.sentences == b.sentences

    def test_counts_within_bounds_many_seeds(self):
        corpus = toy_corpus()
        for seed in range(200):
            out = greedy_sample_support(corpus, LabelSet(("A", "B")), 2, 2, seed=seed)
            for c, n in out.counts.items():
                assert 2 <= n <= 4

    def test_no_duplicate_sentences(self):
        corpus = toy_corpus()
        out = greedy_sample_support(corpus, LabelSet(("A", "B")), 2, 5, seed=7)
        assert len(out.sentences) == len(set(out.sentences))

    def test_unreachable_class_errors(self):
        corpus = [Sentence(("a",), ("I-A",))]
        with pytest.raises(DataError, match="B"):
            greedy_sample_support(corpus, LabelSet(("A", "B")), 2, 1, seed=0)

    def test_strict_k_bound(self):
        corpus = toy_corpus()
        out = greedy_sample_support(corpus, LabelSet(("A", "B")), 2, 3, seed=1, strict_k=True)
        assert out.counts == {"A": 3, "B": 3}


CLASSES = ("A", "B", "C", "D")


@st.composite
def sampler_cases(draw):
    """A label set, a corpus that may also mention a class outside it, K,
    strict_k and a seed.  Tokens are unique per sentence, so equal
    sentences are the same corpus entry."""
    n_cls = draw(st.integers(1, 3))
    tags = st.sampled_from(["O"] + [f"I-{c}" for c in CLASSES[:n_cls + 1]])
    corpus = []
    for i, sent_tags in enumerate(draw(st.lists(st.lists(tags, min_size=1, max_size=6),
                                                max_size=12))):
        corpus.append(Sentence(tuple(f"s{i}w{j}" for j in range(len(sent_tags))),
                               tuple(sent_tags)))
    return (LabelSet(CLASSES[:n_cls]), corpus, draw(st.integers(1, 3)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(sampler_cases())
def test_sampler_properties(case):
    label_set, corpus, k, strict, seed = case
    classes = set(label_set.classes)
    available: Counter = Counter()
    for s in corpus:
        if s.entity_classes() and s.entity_classes() <= classes:
            available.update(m.cls for m in extract_spans(s.tags))
    if any(available[c] < k for c in classes):
        with pytest.raises(DataError):
            greedy_sample_support(corpus, label_set, len(classes), k, seed=seed, strict_k=strict)
        return

    out = greedy_sample_support(corpus, label_set, len(classes), k, seed=seed, strict_k=strict)
    bound = k if strict else 2 * k
    mentions: Counter = Counter()
    for s in out.sentences:
        assert s in corpus
        assert s.entity_classes() and s.entity_classes() <= classes
        mentions.update(m.cls for m in extract_spans(s.tags))
    assert len(set(out.sentences)) == len(out.sentences)
    assert out.counts == {c: mentions[c] for c in classes}  # the mentions the scorer counts
    for c, n in out.counts.items():
        assert n >= k
        if n > bound:
            assert out.overshoot[c] == n - bound
        else:
            assert c not in out.overshoot
    again = greedy_sample_support(corpus, label_set, len(classes), k, seed=seed, strict_k=strict)
    assert (again.sentences, again.counts, again.overshoot) == \
        (out.sentences, out.counts, out.overshoot)


class TestVocab:
    def test_label_phrase_words_always_present(self):
        lm = LabelMap({"creative-work": "creative work", "O": "other"})
        v = build_vocab([Sentence(("x",), ("O",))], label_map=lm)
        assert {"creative", "work", "other"} <= v.token_to_id.keys()

    def test_reserved_ids(self):
        v = build_vocab([Sentence(("a",), ("O",))])
        assert [v.id(t) for t in ("[PAD]", "[UNK]", "[CLS]", "[SEP]")] == [0, 1, 2, 3]

    def test_ids_bijective(self):
        v = build_vocab(toy_corpus())
        ids = list(v.token_to_id.values())
        assert sorted(ids) == list(range(len(ids)))

    @pytest.mark.parametrize("extra", [(), ("zeta", "alpha"), ("work", "b", "[UNK]", "zeta"),
                                       ("zeta", "zeta", "a", "eta")])
    def test_extra_words_follow_the_corpus_once_each(self, extra):
        lm = LabelMap({"creative-work": "creative work", "O": "other b"})
        corpus = [Sentence(("b", "a", "work"), ("O",) * 3), Sentence(("a", "c"), ("O", "O"))]
        # the rule spelled out: reserved tokens, phrase words, sorted corpus
        # tokens, then extra words, each new word taking the next id
        want: dict[str, int] = {}
        for w in ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "creative", "work", "other", "b",
                  "a", "b", "c", "work", *extra):
            want.setdefault(w, len(want))
        assert build_vocab(corpus, label_map=lm, extra_words=extra).token_to_id == want
