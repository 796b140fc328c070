"""Blocking functions and schemes.

A *main* blocking function ``X1`` partitions the dataset into disjoint
blocks using a blocking key (paper Section II-A); each main function is
refined by *sub-blocking* functions ``X2, X3, ...`` that subdivide every
block into child blocks (progressive blocking, Section III-A).  Functions
are grouped into *families* (X, Y, Z, ...); the family order inside a
:class:`BlockingScheme` is the total-order dominance relation on main
functions (Section IV-A): earlier family == more dominating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..data.entity import Entity

KeyFunction = Callable[[Entity], Optional[str]]


@dataclass(frozen=True)
class BlockingFunction:
    """One blocking function (main or sub).

    Attributes:
        family: family letter, e.g. ``"X"``.
        level: 1 for the main function, 2.. for sub-blocking functions.
        key_of: maps an entity to its blocking key; ``None`` excludes the
            entity from this family (e.g. missing attribute).
        description: human-readable key definition for reports.
    """

    family: str
    level: int
    key_of: KeyFunction = field(compare=False)
    description: str = ""

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``X1`` or ``Y2``."""
        return f"{self.family}{self.level}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockingFunction({self.name}: {self.description})"


def prefix_function(
    family: str, level: int, attribute: str, length: int
) -> BlockingFunction:
    """An attribute-prefix blocking function, e.g. ``title.sub(0, 2)``.

    This is the key shape used throughout the paper's Table II.  Keys are
    lower-cased and whitespace-normalized so trivially different spellings
    still share a block; entities missing the attribute (or with a value
    shorter than one character) are excluded from the family.
    """
    if length <= 0:
        raise ValueError(f"prefix length must be positive, got {length}")

    def key_of(entity: Entity) -> Optional[str]:
        value = entity.get(attribute)
        if not value:
            return None
        normalized = " ".join(value.lower().split())
        if not normalized:
            return None
        return normalized[:length]

    return BlockingFunction(
        family=family,
        level=level,
        key_of=key_of,
        description=f"{attribute}.sub(0, {length})",
    )


@dataclass(frozen=True)
class BlockingScheme:
    """A complete blocking configuration.

    Attributes:
        families: per-family function lists, each sorted by level starting
            at 1 with no gaps.  The *dict order* of the families encodes the
            dominance total order: the first family dominates all others
            (``Index`` = 1), and so on.  This matches the paper's
            ``X1 ≻ Y1 ≻ Z1`` for both datasets.
    """

    families: Dict[str, List[BlockingFunction]]

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("a blocking scheme needs at least one family")
        for family, functions in self.families.items():
            if not functions:
                raise ValueError(f"family {family!r} has no functions")
            levels = [f.level for f in functions]
            if levels != list(range(1, len(functions) + 1)):
                raise ValueError(
                    f"family {family!r} levels must be 1..n without gaps, got {levels}"
                )
            for f in functions:
                if f.family != family:
                    raise ValueError(
                        f"function {f.name} filed under family {family!r}"
                    )

    @property
    def family_order(self) -> List[str]:
        """Families in dominance order (most dominating first)."""
        return list(self.families)

    def index_of(self, family: str) -> int:
        """``Index(X1)``: 1-based dominance rank of a family."""
        return self.family_order.index(family) + 1

    def main_function(self, family: str) -> BlockingFunction:
        """The level-1 function of ``family``."""
        return self.families[family][0]

    def main_keys(self, entity: Entity) -> Dict[str, Optional[str]]:
        """The entity's level-1 blocking key per family, in dominance order;
        ``None`` where a family excludes it.  Job 1's annotation, the
        service, meta-blocking, Basic and the estimators' dominance
        signatures all take their level-1 keys from here; only the
        reference blocker (:mod:`repro.blocking.blocker`) applies the
        functions one level at a time."""
        return {
            family: functions[0].key_of(entity)
            for family, functions in self.families.items()
        }

    def sort_attribute(self, family: str) -> str:
        """Attribute the blocks of ``family`` are sorted on (the paper sorts
        each block by the attribute its blocking function is defined on)."""
        return self.main_function(family).description.split(".", 1)[0]

    def depth(self, family: str) -> int:
        """``N(X1)``: number of sub-blocking functions of ``family``."""
        return len(self.families[family]) - 1

    @property
    def num_families(self) -> int:
        """``n``: number of main blocking functions."""
        return len(self.families)


def citeseer_scheme() -> BlockingScheme:
    """Table II, CiteSeerX column: X = title (2/4/8), Y = abstract (3/5),
    Z = venue (3/5); dominance X ≻ Y ≻ Z."""
    return BlockingScheme(
        families={
            "X": [
                prefix_function("X", 1, "title", 2),
                prefix_function("X", 2, "title", 4),
                prefix_function("X", 3, "title", 8),
            ],
            "Y": [
                prefix_function("Y", 1, "abstract", 3),
                prefix_function("Y", 2, "abstract", 5),
            ],
            "Z": [
                prefix_function("Z", 1, "venue", 3),
                prefix_function("Z", 2, "venue", 5),
            ],
        }
    )


def books_scheme() -> BlockingScheme:
    """Table II, OL-Books column: X = title (3/5/8), Y = authors (3/5),
    Z = publisher (3/5); dominance X ≻ Y ≻ Z."""
    return BlockingScheme(
        families={
            "X": [
                prefix_function("X", 1, "title", 3),
                prefix_function("X", 2, "title", 5),
                prefix_function("X", 3, "title", 8),
            ],
            "Y": [
                prefix_function("Y", 1, "authors", 3),
                prefix_function("Y", 2, "authors", 5),
            ],
            "Z": [
                prefix_function("Z", 1, "publisher", 3),
                prefix_function("Z", 2, "publisher", 5),
            ],
        }
    )


def people_scheme() -> BlockingScheme:
    """Blocking for the census-style people family: X = surname (2/4),
    Y = city (3/5), Z = state (2); dominance X > Y > Z (the paper's Table I
    discussion: blocking on state yields few, unnecessarily large blocks,
    so it is the least dominating)."""
    return BlockingScheme(
        families={
            "X": [
                prefix_function("X", 1, "surname", 2),
                prefix_function("X", 2, "surname", 4),
            ],
            "Y": [
                prefix_function("Y", 1, "city", 3),
                prefix_function("Y", 2, "city", 5),
            ],
            "Z": [
                prefix_function("Z", 1, "state", 2),
            ],
        }
    )


def linkage_scheme() -> BlockingScheme:
    """Blocking for clean-clean linkage over the *shared* attributes of the
    two source schemas (title / authors / year): X = title (3/5/8),
    Y = authors (3/5), Z = year (4); dominance X ≻ Y ≻ Z.

    Both sources project their records onto these keys, so cross-source
    matches land in the same blocks regardless of which catalogue a record
    came from — the schema-mapping half of record linkage."""
    return BlockingScheme(
        families={
            "X": [
                prefix_function("X", 1, "title", 3),
                prefix_function("X", 2, "title", 5),
                prefix_function("X", 3, "title", 8),
            ],
            "Y": [
                prefix_function("Y", 1, "authors", 3),
                prefix_function("Y", 2, "authors", 5),
            ],
            "Z": [
                prefix_function("Z", 1, "year", 4),
            ],
        }
    )


__all__ = [
    "BlockingFunction",
    "BlockingScheme",
    "KeyFunction",
    "prefix_function",
    "citeseer_scheme",
    "books_scheme",
    "people_scheme",
    "linkage_scheme",
]
