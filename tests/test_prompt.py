import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewtag.data import DataError, LabelMap, LabelSet, Sentence, build_vocab
from fewtag.prompt import assemble_input, build_label_prompt, pack


LM = LabelMap({"person": "person", "location": "location", "O": "other",
               "creative-work": "creative work"})


def test_prompt_layout_and_representatives():
    prompt = build_label_prompt(LabelSet(("person", "location")), LM)
    assert prompt.tokens == ("[CLS]", "person", "[CLS]", "location", "[CLS]", "other")
    assert prompt.rep_offsets == {"person": 0, "location": 2, "O": 4}
    assert prompt.class_order == ("person", "location", "O")


def test_multiword_phrase_single_representative():
    prompt = build_label_prompt(LabelSet(("creative-work",)), LM)
    assert prompt.tokens[:3] == ("[CLS]", "creative", "work")
    assert prompt.rep_offsets["creative-work"] == 0


def test_empty_label_set_rejected():
    with pytest.raises(DataError):
        build_label_prompt(LabelSet(()), LM)


def test_uncovered_class_rejected():
    with pytest.raises(DataError, match="group"):
        build_label_prompt(LabelSet(("group",)), LM)


def fixture():
    sent = Sentence(("alice", "went", "home"), ("I-person", "O", "O"))
    prompt = build_label_prompt(LabelSet(("person", "location")), LM)
    vocab = build_vocab([sent], label_map=LM)
    return sent, prompt, vocab


def test_assemble_layout_arithmetic():
    sent, prompt, vocab = fixture()
    seq = assemble_input(sent, prompt, vocab, max_len=16)
    # [CLS] a w h [SEP] prompt(6) [SEP] = 12 occupied; no padding to max_len
    assert seq.token_ids.shape == (12,)
    assert seq.n_occupied == 12 and seq.max_len == 16
    assert vocab.id("[PAD]") not in seq.token_ids
    assert seq.n_context == 3
    packed = pack([seq])
    np.testing.assert_array_equal(packed.context_rows, [1, 2, 3])
    np.testing.assert_array_equal(packed.positions, np.arange(12))
    assert seq.gold_tags == ("I-person", "O", "O")


def test_representatives_carry_cls_id():
    sent, prompt, vocab = fixture()
    packed = pack([assemble_input(sent, prompt, vocab, max_len=16)])
    # person, location, O: each [CLS] followed by its phrase
    np.testing.assert_array_equal(packed.rep_rows, [[5, 7, 9]])
    for row, phrase in zip(packed.rep_rows[0], ("person", "location", "other")):
        assert packed.token_ids[row] == vocab.id("[CLS]")
        assert packed.token_ids[row + 1] == vocab.id(phrase)


def test_nothing_outside_context_and_representatives_is_marked():
    sent, prompt, vocab = fixture()
    packed = pack([assemble_input(sent, prompt, vocab, max_len=16)])
    # not the leading [CLS], the [SEP]s or the phrase words
    marked = packed.context_rows.tolist() + packed.rep_rows.ravel().tolist()
    assert sorted(marked) == [1, 2, 3, 5, 7, 9]


def test_truncation_aligns_gold_tags():
    sent = Sentence(tuple("abcdefgh"), ("I-person",) * 8)
    prompt = build_label_prompt(LabelSet(("person",)), LM)
    vocab = build_vocab([sent], label_map=LM)
    seq = assemble_input(sent, prompt, vocab, max_len=12)
    # budget = 12 - 4 - 3 = 5
    assert seq.n_context == 5
    assert seq.gold_tags == ("I-person",) * 5


def test_prompt_too_long_rejected():
    sent, prompt, vocab = fixture()
    with pytest.raises(DataError):
        assemble_input(sent, prompt, vocab, max_len=8)


def test_assembly_pure():
    sent, prompt, vocab = fixture()
    a = pack([assemble_input(sent, prompt, vocab, max_len=20)])
    b = pack([assemble_input(sent, prompt, vocab, max_len=20)])
    for name in ("token_ids", "positions", "bounds", "context_rows", "context_bounds",
                 "rep_rows"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.seqs[0].gold_tags == b.seqs[0].gold_tags


def test_pack_rejects_sequences_under_different_prompts():
    sent, prompt, vocab = fixture()
    other = build_label_prompt(LabelSet(("person",)), LM)
    with pytest.raises(ValueError, match="one label prompt"):
        pack([assemble_input(sent, prompt, vocab), assemble_input(sent, other, vocab)])


# -- properties of assemble_input --------------------------------------------

WORDS = ("alice", "went", "home", "person", "other", "the", "work")
CLASSES = ("person", "location", "creative-work")


@st.composite
def assembly_cases(draw):
    classes = CLASSES[:draw(st.integers(1, len(CLASSES)))]
    phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    label_map = LabelMap({c: draw(phrase) for c in classes + ("O",)})
    n = draw(st.integers(1, 20))
    tokens = draw(st.lists(st.sampled_from(WORDS + ("unseen",)), min_size=n, max_size=n))
    tags = draw(st.lists(st.sampled_from(("O",) + tuple(f"I-{c}" for c in classes)),
                         min_size=n, max_size=n))
    # words outside the vocabulary map to [UNK]
    known = ("the",) + tuple(draw(st.lists(st.sampled_from(WORDS), max_size=4)))
    vocab = build_vocab([Sentence(known, ("O",) * len(known))], label_map=label_map)
    return (Sentence(tuple(tokens), tuple(tags)), label_map,
            build_label_prompt(LabelSet(classes), label_map), vocab, draw(st.integers(1, 40)))


@settings(max_examples=300, deadline=None)
@given(assembly_cases())
def test_assemble_input_properties(case):
    sent, label_map, prompt, vocab, max_len = case
    budget = max_len - len(prompt) - 3
    if budget < 1:
        with pytest.raises(DataError):
            assemble_input(sent, prompt, vocab, max_len=max_len)
        return
    seq = assemble_input(sent, prompt, vocab, max_len=max_len)
    n_ctx = min(len(sent.tokens), budget)

    def ids(words):
        return [vocab.id(w) for w in words]

    # [CLS] ctx [SEP] prompt [SEP], with only the context cut, from the right
    assert seq.token_ids.tolist() == ids(("[CLS]",) + sent.tokens[:n_ctx] + ("[SEP]",)
                                         + prompt.tokens + ("[SEP]",))
    assert seq.n_occupied <= max_len and seq.max_len == max_len
    packed = pack([seq])
    assert packed.context_rows.tolist() == list(range(1, 1 + n_ctx))
    assert seq.gold_tags == sent.tags[:n_ctx]
    assert len(seq.gold_tags) == seq.n_context
    assert packed.rep_rows.shape == (1, len(prompt.class_order))
    for cls, pos in zip(prompt.class_order, packed.rep_rows[0]):
        phrase = ids(label_map.phrase(cls).split())
        assert seq.token_ids[pos] == vocab.id("[CLS]")
        assert seq.token_ids[pos + 1:pos + 1 + len(phrase)].tolist() == phrase
        # the phrase ends where the next class's [CLS] or the final [SEP] starts
        assert seq.token_ids[pos + 1 + len(phrase)] in ids(("[CLS]", "[SEP]"))


@st.composite
def pack_cases(draw):
    """Sequences under one drawn prompt, with contexts of any length the budget allows."""
    sent, label_map, prompt, vocab, _ = draw(assembly_cases())
    max_len = len(prompt) + 3 + draw(st.integers(1, 8))
    seqs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 12))
        tokens = tuple(draw(st.lists(st.sampled_from(WORDS), min_size=n, max_size=n)))
        seqs.append(assemble_input(Sentence(tokens, sent.tags[:1] * n), prompt, vocab,
                                   max_len=max_len))
    return seqs, prompt, vocab


@settings(max_examples=200, deadline=None)
@given(pack_cases())
def test_pack_rows_match_a_walk_over_each_sequence(case):
    seqs, prompt, vocab = case
    cls_id, sep_id = vocab.id("[CLS]"), vocab.id("[SEP]")
    # oracle: walk each sequence's ids; its context runs from after the leading
    # [CLS] to the first [SEP], and every later [CLS] is the next class's
    positions, context, context_bounds, reps, first = [], [], [0], [], 0
    for seq in seqs:
        ids = seq.token_ids.tolist()
        sep = ids.index(sep_id)
        positions += range(len(ids))
        context += [first + k for k in range(1, sep)]
        context_bounds.append(len(context))
        reps.append([first + k for k in range(sep + 1, len(ids)) if ids[k] == cls_id])
        first += len(ids)
    packed = pack(seqs)
    assert packed.positions.tolist() == positions
    assert packed.context_rows.tolist() == context
    assert packed.context_bounds.tolist() == context_bounds
    assert packed.rep_rows.tolist() == reps
    assert packed.bounds.tolist() == [0] + np.cumsum([s.n_occupied for s in seqs]).tolist()
    assert len(packed.context_rows) == sum(s.n_context for s in seqs)
    assert packed.token_ids.tolist() == [i for s in seqs for i in s.token_ids.tolist()]
