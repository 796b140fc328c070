"""Shared fixtures: small seeded datasets and paper-shaped configurations.

Everything is session-scoped — datasets and matcher caches are expensive to
build, deterministic, and read-only from the tests' perspective.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.baselines import BasicConfig
from repro.core import citeseer_config
from repro.data import Dataset, Entity, make_books, make_citeseer
from repro.mapreduce import FaultPlan, FaultScheduler
from repro.similarity import books_matcher, citeseer_matcher

# Hypothesis profiles: "dev" explores freely; "ci" is fully deterministic
# (derandomized, fixed example budget) so the property suite can never
# flake or shrink differently between CI runs.  Select with
# ``HYPOTHESIS_PROFILE=ci`` (the CI workflow exports it).
settings.register_profile("dev", max_examples=30)
settings.register_profile(
    "ci",
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def citeseer_small() -> Dataset:
    """~600 publication entities with ground truth."""
    return make_citeseer(600, seed=3)


@pytest.fixture(scope="session")
def citeseer_medium() -> Dataset:
    """~1200 publication entities for end-to-end runs."""
    return make_citeseer(1200, seed=7)


@pytest.fixture(scope="session")
def books_small() -> Dataset:
    """~600 book entities with ground truth."""
    return make_books(600, seed=11)


@pytest.fixture(scope="session")
def shared_citeseer_matcher():
    """A caching matcher reused across every test touching citeseer data."""
    return citeseer_matcher(cache=True)


@pytest.fixture(scope="session")
def shared_books_matcher():
    """A caching matcher reused across every test touching book data."""
    return books_matcher(cache=True)


@pytest.fixture()
def citeseer_cfg(shared_citeseer_matcher):
    """Paper CiteSeerX configuration with the shared caching matcher."""
    return citeseer_config(matcher=shared_citeseer_matcher)


@pytest.fixture()
def basic_cfg(shared_citeseer_matcher):
    """Basic-baseline configuration for citeseer data (Basic F, w=15)."""
    return BasicConfig(citeseer_config(matcher=shared_citeseer_matcher), window=15)


class ScanSlotPool:
    """Reference placement: earliest-free slot by O(slots) linear scan,
    ties by slot index — what an inert ``FaultScheduler`` must reproduce."""

    def __init__(self, num_slots, ready_time):
        self._free_at = [ready_time] * num_slots

    def schedule(self, cost):
        slot = min(range(len(self._free_at)), key=lambda i: (self._free_at[i], i))
        start = self._free_at[slot]
        end = start + cost
        self._free_at[slot] = end
        return start, end, slot


def inert_scheduler(num_slots, ready_time):
    """The placement every fault-free phase goes through."""
    return FaultScheduler(FaultPlan(), num_slots, ready_time, job="j", phase="map")


def inert_placements(num_slots, ready_time, costs):
    """``(start, end, slot)`` per task under the inert plan."""
    return [
        (s.winning.start, s.winning.end, s.winning.slot)
        for s in inert_scheduler(num_slots, ready_time).run(costs)
    ]


def toy_people() -> Dataset:
    """The paper's Table I toy dataset (nine people records)."""
    rows = [
        (1, "John Lopez", "HI"),
        (2, "John Lopez", "HI"),
        (3, "John Lopez", "AZ"),
        (4, "Charles Andrews", "LA"),
        (5, "Gharles Andrews", "LA"),
        (6, "Mary Gibson", "AZ"),
        (7, "Chloe Matthew", "AZ"),
        (8, "William Martin", "AZ"),
        (9, "Joey Brown", "LA"),
    ]
    clusters = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 3, 8: 4, 9: 5}
    entities = [
        Entity(id=i, attrs={"name": name, "state": state}) for i, name, state in rows
    ]
    return Dataset(entities=entities, clusters=clusters, name="toy-people")


@pytest.fixture(scope="session")
def toy_people_dataset() -> Dataset:
    return toy_people()


def index_pairs(pairs):
    """Entity pairs as ``(members, lefts, rights)``: each distinct entity
    object once, in first-seen order, and the pairs as positions into it —
    the form the batch kernel and the resolution loop take."""
    members, lefts, rights = [], [], []
    position_of = {}
    for e1, e2 in pairs:
        for entity, side in ((e1, lefts), (e2, rights)):
            if id(entity) not in position_of:
                position_of[id(entity)] = len(members)
                members.append(entity)
            side.append(position_of[id(entity)])
    return members, lefts, rights


def decide(batcher, pairs):
    """``batcher``'s decisions on a list of entity pairs."""
    members, lefts, rights = index_pairs(pairs)
    return batcher.decisions(batcher.rows(members), lefts, rights)


def flatten_runs(members, runs):
    """A run stream as the entity pairs it stands for, in stream order."""
    return [
        (members[i], members[j])
        for lefts, rights in runs
        for i, j in zip(lefts, rights)
    ]
