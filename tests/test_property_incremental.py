"""Property suite: random batch partitions never change the resolved state.

Hypothesis draws random partitions (and permutations) of a dataset into
batch sequences; every draw must reproduce the one-shot found-pair set
and the same cluster membership, and the pair stream must stay monotone.
A second property drives the serial/process backends with the same random
partition and asserts bit-identical virtual clocks.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import citeseer_config
from repro.data import make_citeseer
from repro.service import ResolverService

DATASET = make_citeseer(120, seed=19)
MACHINES = 2

_reference_cache = {}


def reference():
    """One-shot resolve of DATASET (computed once per process, with a
    matcher of its own: the oracle shares no decisions with the examples)."""
    if "service" not in _reference_cache:
        service = ResolverService(citeseer_config(), machines=MACHINES)
        service.submit(DATASET.entities)
        _reference_cache["service"] = service
    return _reference_cache["service"]


@st.composite
def batch_partitions(draw, max_batches: int = 6, shuffle: bool = True):
    """A random ordered partition of DATASET's entities into batches."""
    entities = list(DATASET.entities)
    if shuffle:
        entities = draw(st.permutations(entities))
    n = len(entities)
    k = draw(st.integers(min_value=1, max_value=max_batches))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n),
                min_size=k - 1,
                max_size=k - 1,
            )
        )
    )
    bounds = [0] + cuts + [n]
    return [
        entities[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]


def run_batches(batches, matcher, **kwargs):
    """Serve ``batches`` with ``matcher``: the session's caching matcher, so
    examples share its decisions instead of re-deciding every pair."""
    kwargs.setdefault("machines", MACHINES)
    service = ResolverService(citeseer_config(matcher=matcher), **kwargs)
    for batch in batches:
        service.submit(batch)
    return service


@given(batches=batch_partitions())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_partition_reproduces_the_one_shot_pair_set(
    shared_citeseer_matcher, batches
):
    service = run_batches(batches, shared_citeseer_matcher)
    assert service.found_pairs == reference().found_pairs
    assert service.total_comparisons == reference().total_comparisons


@given(batches=batch_partitions())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cluster_membership_is_partition_invariant(shared_citeseer_matcher, batches):
    service = run_batches(batches, shared_citeseer_matcher)
    assert service.clusters() == reference().clusters()
    # Spot-check the point query agrees with the bulk view.
    for cluster in service.clusters()[:5]:
        assert service.cluster_of(cluster[0]) == tuple(cluster)


@given(batches=batch_partitions())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pair_stream_is_monotone_and_receipts_tile_it(shared_citeseer_matcher, batches):
    service = run_batches(batches, shared_citeseer_matcher)
    events = service.pairs()
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    assert [e.time for e in events] == sorted(e.time for e in events)
    tiled = [pair for receipt in service.receipts for pair in receipt.pairs]
    assert tiled == [e.pair for e in events]


@given(batches=batch_partitions(max_batches=3, shuffle=False))
@settings(deadline=None, max_examples=8, suppress_health_check=[HealthCheck.too_slow])
def test_backends_agree_on_random_partitions(shared_citeseer_matcher, batches):
    serial = run_batches(batches, shared_citeseer_matcher)
    process = run_batches(batches, shared_citeseer_matcher, backend="process", workers=2)
    assert serial.found_pairs == process.found_pairs
    assert serial.clock == process.clock
