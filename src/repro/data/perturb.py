"""Noise model: turning a clean record into a dirty duplicate.

Duplicate entities in real datasets differ by typos, truncation, missing
values, reordered words, and OCR-style character confusions (e.g. the
paper's toy pair "Charles"/"Gharles").  The :class:`Perturber` applies a
configurable mix of those operations; its strength parameters are what the
match-function thresholds are calibrated against.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Dict

# Visually/typographically confusable character groups (OCR-style noise).
_CONFUSIONS: Dict[str, str] = {
    "c": "g", "g": "c", "o": "0", "0": "o", "l": "1", "1": "l",
    "i": "j", "j": "i", "m": "n", "n": "m", "u": "v", "v": "u",
    "s": "z", "z": "s", "e": "a", "a": "e",
}

_ALPHABET = string.ascii_lowercase


def typo_substitute(rng: random.Random, text: str) -> str:
    """Replace one character, preferring a confusable counterpart."""
    if not text:
        return text
    pos = rng.randrange(len(text))
    ch = text[pos]
    repl = _CONFUSIONS.get(ch.lower())
    if repl is None or rng.random() < 0.3:
        repl = rng.choice(_ALPHABET)
    return text[:pos] + repl + text[pos + 1 :]


def typo_delete(rng: random.Random, text: str) -> str:
    """Drop one character."""
    if len(text) <= 1:
        return text
    pos = rng.randrange(len(text))
    return text[:pos] + text[pos + 1 :]


def typo_insert(rng: random.Random, text: str) -> str:
    """Insert one random character."""
    pos = rng.randrange(len(text) + 1)
    return text[:pos] + rng.choice(_ALPHABET) + text[pos:]


def typo_transpose(rng: random.Random, text: str) -> str:
    """Swap two adjacent characters."""
    if len(text) < 2:
        return text
    pos = rng.randrange(len(text) - 1)
    return text[:pos] + text[pos + 1] + text[pos] + text[pos + 2 :]


def truncate(rng: random.Random, text: str, *, min_keep: int = 4) -> str:
    """Cut the tail of the string (abbreviated titles, cropped fields)."""
    if len(text) <= min_keep:
        return text
    keep = rng.randint(min_keep, len(text))
    return text[:keep].rstrip()


def swap_words(rng: random.Random, text: str) -> str:
    """Swap two adjacent words (author-order or title-word shuffles)."""
    words = text.split()
    if len(words) < 2:
        return text
    pos = rng.randrange(len(words) - 1)
    words[pos], words[pos + 1] = words[pos + 1], words[pos]
    return " ".join(words)


@dataclass(frozen=True)
class NoiseProfile:
    """Perturbation intensity for one attribute.

    Attributes:
        apply_prob: probability that this attribute differs at all between
            the copies.  Real duplicate records rarely disagree on *every*
            field — a citation-parsed paper usually has a mangled title
            but the identical venue string — so most attributes are copied
            verbatim most of the time.
        typo_rate: expected number of character-level edits.
        truncate_prob: probability of truncating the value.
        swap_prob: probability of swapping adjacent words.
        missing_prob: probability of dropping the attribute entirely
            (applied independently of ``apply_prob``).
        protect_prefix: number of leading characters never edited.  Keeping
            a small clean prefix models that duplicates usually still share
            the blocking key of at least one function — without it blocking
            recall would be unrealistically low for *every* function.
    """

    typo_rate: float = 1.0
    truncate_prob: float = 0.1
    swap_prob: float = 0.1
    missing_prob: float = 0.05
    protect_prefix: int = 0
    apply_prob: float = 1.0


class Perturber:
    """Applies attribute-wise noise profiles to produce a dirty copy."""

    def __init__(self, profiles: Dict[str, NoiseProfile], *, default: NoiseProfile | None = None) -> None:
        self._profiles = dict(profiles)
        self._default = default if default is not None else NoiseProfile()

    def profile_for(self, attribute: str) -> NoiseProfile:
        """Noise profile applied to ``attribute``."""
        return self._profiles.get(attribute, self._default)

    def perturb_value(self, rng: random.Random, attribute: str, value: str) -> str | None:
        """Dirty one attribute value; ``None`` means the value goes missing."""
        profile = self.profile_for(attribute)
        if rng.random() < profile.missing_prob:
            return None
        if rng.random() >= profile.apply_prob:
            return value
        head = value[: profile.protect_prefix]
        tail = value[profile.protect_prefix :]
        if rng.random() < profile.truncate_prob:
            tail = truncate(rng, tail)
        if rng.random() < profile.swap_prob:
            tail = swap_words(rng, tail)
        edits = _poisson(rng, profile.typo_rate)
        operations = (typo_substitute, typo_delete, typo_insert, typo_transpose)
        for _ in range(edits):
            op = rng.choice(operations)
            tail = op(rng, tail)
        return head + tail

    def perturb_record(self, rng: random.Random, attrs: Dict[str, str]) -> Dict[str, str]:
        """Dirty a full record; missing attributes are omitted from the result."""
        dirty: Dict[str, str] = {}
        for name, value in attrs.items():
            result = self.perturb_value(rng, name, value)
            if result is not None and result != "":
                dirty[name] = result
        return dirty


def _poisson(rng: random.Random, lam: float) -> int:
    """Sample a small Poisson count (Knuth's method; lam is small here)."""
    if lam <= 0:
        return 0
    import math

    threshold = math.exp(-lam)
    k = 0
    product = rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


__all__ = [
    "NoiseProfile",
    "Perturber",
    "typo_substitute",
    "typo_delete",
    "typo_insert",
    "typo_transpose",
    "truncate",
    "swap_words",
]
