"""Synthetic next-token tasks with disjoint vocabulary bands.

Each task owns a contiguous band of token ids and a fixed permutation of that
band.  Prompts are drawn mostly from the band (the last token always is), and
the correct continuation of a prompt is the permutation applied to its last
token.  Because bands are disjoint, a task's data distribution identifies it;
because the rule is a bijection on the band, exact-match accuracy is a clean
signal with an uninformative base rate of roughly ``1 / vocab_size``.

:func:`save_tasks` writes the tasks file (the tasks plus which task each
adapter was trained for) and :func:`load_tasks` reads it back; a file that
cannot be read as one is a :class:`~loraroute.errors.ValidationError`, never
a bare decode or conversion error.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ValidationError

Array = np.ndarray

DEFAULT_IN_BAND_PROB = 0.9
DEFAULT_PROMPT_LEN = 12


@dataclass(frozen=True)
class SyntheticTask:
    """A token band plus a bijective next-token rule on that band."""

    task_id: str
    vocab_size: int
    band_start: int
    permutation: tuple[int, ...]
    in_band_prob: float = DEFAULT_IN_BAND_PROB
    anchor_prob: float = 0.0

    def __post_init__(self) -> None:
        width = len(self.permutation)
        if width < 1:
            raise ValidationError("task band must contain at least one token")
        band = set(range(self.band_start, self.band_start + width))
        if self.band_start < 0 or self.band_start + width > self.vocab_size:
            raise ValidationError(
                f"band [{self.band_start}, {self.band_start + width}) outside "
                f"vocab of size {self.vocab_size}"
            )
        if set(self.permutation) != band:
            raise ValidationError("permutation must be a bijection on the task band")
        if not 0.0 < self.in_band_prob <= 1.0:
            raise ValidationError(f"in_band_prob must be in (0, 1], got {self.in_band_prob}")
        if not 0.0 <= self.anchor_prob <= 1.0:
            raise ValidationError(f"anchor_prob must be in [0, 1], got {self.anchor_prob}")

    @property
    def band_width(self) -> int:
        return len(self.permutation)

    @property
    def band(self) -> range:
        return range(self.band_start, self.band_start + self.band_width)

    def target_next(self, prompt: Sequence[int]) -> int:
        """The rule: map the prompt's last token through the band permutation."""
        last = int(prompt[-1])
        if last not in self.band:
            raise ValidationError(
                f"prompt ends with token {last}, outside task band "
                f"[{self.band_start}, {self.band_start + self.band_width})"
            )
        return self.permutation[last - self.band_start]

    def sample_prompt(self, rng: np.random.Generator, length: int = DEFAULT_PROMPT_LEN) -> list[int]:
        """Draw a prompt: band-heavy categorical, endpoints always in-band.

        Interior tokens leave the band with probability ``1 - in_band_prob``;
        the first and last tokens are forced in-band so every prompt carries
        task evidence at both ends (and the next-token rule, which reads the
        last token, is always defined).

        With ``anchor_prob > 0`` each prompt first draws an anchor token from
        the band, and every in-band position repeats the anchor with that
        probability — the desk-scale analog of topical coherence, where one
        prompt dwells on one piece of content rather than sampling its
        vocabulary independently per position.
        """
        if length < 1:
            raise ValidationError("prompt length must be >= 1")
        anchor = int(rng.integers(self.band_start, self.band_start + self.band_width))
        out = []
        for pos in range(length):
            endpoint = pos == 0 or pos == length - 1
            if endpoint or rng.random() < self.in_band_prob:
                if self.anchor_prob > 0.0 and rng.random() < self.anchor_prob:
                    out.append(anchor)
                else:
                    out.append(int(rng.integers(self.band_start, self.band_start + self.band_width)))
            else:
                out.append(int(rng.integers(0, self.vocab_size)))
        return out


def make_tasks(
    n_tasks: int,
    vocab_size: int,
    band_width: int = 8,
    seed: int = 0,
    in_band_prob: float = DEFAULT_IN_BAND_PROB,
    anchor_prob: float = 0.0,
) -> list[SyntheticTask]:
    """Create ``n_tasks`` tasks with disjoint bands ``[i*w, (i+1)*w)``."""
    if n_tasks < 1 or band_width < 1:
        raise ValidationError("need at least one task and a band width >= 1")
    if n_tasks * band_width > vocab_size:
        raise ValidationError(
            f"{n_tasks} bands of width {band_width} do not fit in vocab of size {vocab_size}"
        )
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        start = i * band_width
        perm = tuple(int(x) for x in rng.permutation(np.arange(start, start + band_width)))
        tasks.append(
            SyntheticTask(
                task_id=f"task{i:02d}",
                vocab_size=vocab_size,
                band_start=start,
                permutation=perm,
                in_band_prob=in_band_prob,
                anchor_prob=anchor_prob,
            )
        )
    return tasks


# -- task manifests --------------------------------------------------------------


def save_tasks(
    path: str,
    tasks: Sequence[SyntheticTask],
    adapter_labels: Mapping[str, str] | None = None,
) -> None:
    """Write tasks (and optional adapter-id -> task-id labels) as JSON."""
    record = {
        "vocab_size": tasks[0].vocab_size if tasks else 0,
        "tasks": [
            {
                "task_id": t.task_id,
                "band_start": t.band_start,
                "permutation": list(t.permutation),
                "in_band_prob": t.in_band_prob,
                "anchor_prob": t.anchor_prob,
            }
            for t in tasks
        ],
        "adapters": dict(adapter_labels or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def load_tasks(path: str) -> tuple[list[SyntheticTask], dict[str, str]]:
    """Read :func:`save_tasks` output: ``(tasks, adapter_labels)``.

    A file that is not UTF-8 JSON of that shape is a :class:`ValidationError`
    naming it malformed; a well-formed task that breaks a task rule raises
    :class:`SyntheticTask`'s own error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        vocab = int(record["vocab_size"])
        tasks = [
            SyntheticTask(
                task_id=str(t["task_id"]),
                vocab_size=vocab,
                band_start=int(t["band_start"]),
                permutation=tuple(int(x) for x in t["permutation"]),
                in_band_prob=float(t.get("in_band_prob", DEFAULT_IN_BAND_PROB)),
                anchor_prob=float(t.get("anchor_prob", 0.0)),
            )
            for t in record["tasks"]
        ]
        labels = {str(k): str(v) for k, v in record.get("adapters", {}).items()}
    except ValidationError:
        raise
    # ValueError covers undecodable bytes, bad JSON and unparseable numbers.
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed tasks file: {exc}") from exc
    return tasks, labels
