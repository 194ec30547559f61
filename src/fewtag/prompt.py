"""Label suffix prompt construction and full model input assembly.

The model input is laid out as

    [CLS] context-tokens [SEP] prompt-tokens [SEP]

where the prompt lists every class (entity classes in label-set order, O
last) as a [CLS] marker followed by the class's natural-language phrase.
The [CLS] marker position is the class's representative token.  Inputs are
not padded: `max_len` is only the budget the context is truncated to.  The
encoder takes a batch of inputs packed row-wise, one segment per input; the
pack also holds the rows of every context token and representative, which
the losses and the decoder gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CLS, DataError, LabelMap, LabelSet, SEP, Sentence, Vocabulary


@dataclass(frozen=True)
class LabelPrompt:
    tokens: tuple[str, ...]
    # class -> offset of its [CLS] marker within `tokens`
    rep_offsets: dict[str, int]
    class_order: tuple[str, ...]

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class InputSequence:
    """[CLS] context [SEP] prompt [SEP] as ids; the context is rows 1..n_context."""
    token_ids: np.ndarray       # (n_occupied,) int
    gold_tags: tuple[str, ...]  # per context token
    prompt: LabelPrompt
    max_len: int                # the length budget n_occupied never exceeds

    @property
    def n_occupied(self) -> int:
        return len(self.token_ids)

    @property
    def n_context(self) -> int:
        return len(self.gold_tags)


def build_label_prompt(label_set: LabelSet, label_map: LabelMap) -> LabelPrompt:
    """Per class: [CLS] then the phrase words; the [CLS] is the representative."""
    if len(label_set) == 0:
        raise DataError("label set has no entity classes")
    label_map.check_covers(label_set)
    tokens: list[str] = []
    rep_offsets: dict[str, int] = {}
    for cls in label_set.with_o:
        rep_offsets[cls] = len(tokens)
        tokens.append(CLS)
        tokens.extend(label_map.phrase(cls).split())
    return LabelPrompt(tuple(tokens), rep_offsets, label_set.with_o)


def assemble_input(sentence: Sentence, prompt: LabelPrompt, vocab: Vocabulary,
                   max_len: int = 128) -> InputSequence:
    """Concatenate context and prompt with specials, at most max_len ids.

    Context is truncated from the right when over budget; the prompt is
    never truncated.
    """
    budget = max_len - len(prompt) - 3  # leading [CLS], two [SEP]
    if budget < 1:
        raise DataError(
            f"prompt of {len(prompt)} tokens leaves no context room at max_len={max_len}")
    n_ctx = min(len(sentence.tokens), budget)

    words = [CLS] + list(sentence.tokens[:n_ctx]) + [SEP] + list(prompt.tokens) + [SEP]
    ids = np.array([vocab.id(w) for w in words], dtype=np.int64)
    return InputSequence(token_ids=ids, gold_tags=sentence.tags[:n_ctx], prompt=prompt,
                         max_len=max_len)


@dataclass(frozen=True)
class PackedBatch:
    """Input sequences stacked row-wise for one encoder pass.

    Rows bounds[i]:bounds[i + 1] hold sequence i, and attention stays within
    them; context_rows[context_bounds[i]:context_bounds[i + 1]] are its
    context tokens' rows.
    """
    seqs: tuple[InputSequence, ...]
    token_ids: np.ndarray       # (n_occupied,) int, every sequence's ids in order
    positions: np.ndarray       # (n_occupied,) int, each row's position within its own sequence
    bounds: np.ndarray          # (len(seqs) + 1,) int, each sequence's first row, then n_occupied
    context_rows: np.ndarray    # (sum of n_context,) int, every context token's row in order
    context_bounds: np.ndarray  # (len(seqs) + 1,) int, each sequence's first context token
    rep_rows: np.ndarray        # (len(seqs), n_classes) int, representative rows in class order

    @property
    def n_occupied(self) -> int:
        return len(self.token_ids)

    @property
    def max_len(self) -> int:
        """The members' length budgets, summed."""
        return sum(s.max_len for s in self.seqs)


def pack(seqs: list[InputSequence]) -> PackedBatch:
    """The sequences, in order, as one packed batch; they share one prompt."""
    prompt = seqs[0].prompt
    if any(s.prompt != prompt for s in seqs):
        raise ValueError("packed sequences must share one label prompt")
    lengths = [s.n_occupied for s in seqs]
    n_ctx = np.array([s.n_context for s in seqs], dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    positions = np.concatenate([np.arange(n) for n in lengths])
    in_context = (positions >= 1) & (positions <= np.repeat(n_ctx, lengths))
    offsets = [prompt.rep_offsets[c] for c in prompt.class_order]
    return PackedBatch(seqs=tuple(seqs), token_ids=np.concatenate([s.token_ids for s in seqs]),
                       positions=positions, bounds=bounds,
                       context_rows=np.nonzero(in_context)[0],
                       context_bounds=np.concatenate([[0], np.cumsum(n_ctx)]),
                       # each prompt starts after its sequence's [CLS], context and [SEP]
                       rep_rows=(bounds[:-1] + n_ctx + 2)[:, None] + offsets)
