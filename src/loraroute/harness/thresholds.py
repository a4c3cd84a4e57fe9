"""Calibrated pass/fail thresholds for the reference experiment suite.

Several quality bars in this package are empirical: how much a trained
adapter must beat the base loss by, how often the heatmap diagonal must win
its column, how tight the ablation spreads must be.  Those numbers were
measured once on the reference recipe (see ``data/thresholds.json``), frozen
into that committed file, and asserted ever after — they are not recomputed
on the fly, so a regression shows up as a failed check rather than a silently
lowered bar.

``load_thresholds`` reads the committed file by default; the environment
variable ``LOGO_THRESHOLDS`` (or an explicit path argument) substitutes a
different calibration file, which must supply every key the default file has.
"""
from __future__ import annotations

import json
import math
import os
from importlib import resources

from ..errors import ValidationError

#: Environment variable naming an alternative thresholds file.
THRESHOLDS_ENV_VAR = "LOGO_THRESHOLDS"

#: Keys every thresholds file must define.
REQUIRED_KEYS = (
    "train_loss_improvement_min",
    "heatmap_diagonal_fraction_min",
    "top3_hit_rate_min",
    "routed_gain_points_min",
    "policy_spread_points_max",
    "k_gap_points_max",
    "alignment_spearman_min",
)


def default_thresholds_text() -> str:
    """Raw text of the committed calibration file."""
    return resources.files("loraroute.data").joinpath("thresholds.json").read_text("utf-8")


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number out of range for a double: {text[:32]}")
    return value


def _constant(name: str) -> float:
    if name == "NaN":
        raise ValueError("NaN is not a threshold")
    return float(name)


def load_thresholds(path: str | None = None) -> dict[str, float]:
    """Load thresholds from ``path``, ``$LOGO_THRESHOLDS``, or the committed file.

    Precedence: explicit argument, then the environment variable, then the
    file shipped inside the package.  The result holds exactly
    :data:`REQUIRED_KEYS`; other keys in the file are ignored.  A file that
    is not UTF-8 JSON, holds ``NaN`` or a number too large for a double, or
    misses a key or gives it a non-numeric value is a
    :class:`~loraroute.errors.ValidationError`.  ``Infinity`` and
    ``-Infinity`` are accepted, as an explicit "no bound".
    """
    source = path or os.environ.get(THRESHOLDS_ENV_VAR)
    try:
        if source:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = default_thresholds_text()
        record = json.loads(
            text, parse_int=_finite_number, parse_float=_finite_number, parse_constant=_constant
        )
    except ValueError as exc:  # undecodable bytes, malformed JSON or a number no double holds
        raise ValidationError(f"malformed thresholds file: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError("thresholds file must hold a JSON object")
    out: dict[str, float] = {}
    for key in REQUIRED_KEYS:
        if key not in record:
            raise ValidationError(f"thresholds file missing key {key!r}")
        value = record[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"threshold {key!r} must be a number, got {value!r}")
        out[key] = float(value)
    return out
