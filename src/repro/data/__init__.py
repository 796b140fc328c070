"""Data substrate: entity model, datasets with ground truth, and the two
synthetic dataset families standing in for CiteSeerX and OL-Books."""

from .books import books_perturber, make_books
from .citeseer import citeseer_perturber, make_citeseer
from .dataset import Dataset
from .entity import (
    Entity,
    Pair,
    cross_pairs_count,
    pair_key,
    pairs_count,
)
from .generator import GeneratorConfig, RecordFactory, generate_dataset
from .linkage import SOURCE_A, SOURCE_B, linkage_perturber, make_linkage
from .people import make_people, people_perturber
from .perturb import NoiseProfile, Perturber
from .skewed import make_skewed, skewed_perturber
from .profile import (
    AttributeProfile,
    DatasetProfile,
    PrefixBlockingProfile,
    format_profile,
    profile_dataset,
    suggest_blocking_order,
)

__all__ = [
    "Entity",
    "Pair",
    "pair_key",
    "pairs_count",
    "cross_pairs_count",
    "Dataset",
    "GeneratorConfig",
    "RecordFactory",
    "generate_dataset",
    "NoiseProfile",
    "Perturber",
    "AttributeProfile",
    "PrefixBlockingProfile",
    "DatasetProfile",
    "profile_dataset",
    "suggest_blocking_order",
    "format_profile",
    "make_citeseer",
    "citeseer_perturber",
    "make_books",
    "books_perturber",
    "make_people",
    "people_perturber",
    "make_skewed",
    "skewed_perturber",
    "make_linkage",
    "linkage_perturber",
    "SOURCE_A",
    "SOURCE_B",
]
