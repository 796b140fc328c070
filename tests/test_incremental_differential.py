"""The differential oracle for the incremental service.

N entities submitted in k batches must produce the identical final
found-pair set as one batch run — across serial and process backends,
with and without a fault plan, and in both resolution scenarios (dirty
single-source dedup and clean-clean linkage over the two-source store).  Comparison counts must match too (the
candidate predicate — including the linkage mode's cross-source rule —
is a pure function of the pair, so slicing the stream never changes
*what* is compared, only *when*).
"""

from __future__ import annotations

import pytest

from repro.core import citeseer_config, linkage_config
from repro.data import make_citeseer, make_linkage
from repro.mapreduce import FaultPlan, RetryPolicy
from repro.service import ResolverService

MACHINES = 3

#: scenario -> (dataset maker, config factory).  ``dirty`` is the classic
#: single-source dedup; ``linkage`` streams the two-source store through
#: the same service with cross-source-only candidates.
SCENARIOS = {
    "dirty": (make_citeseer, citeseer_config),
    "linkage": (make_linkage, linkage_config),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    return request.param


@pytest.fixture(scope="module")
def config_factory(scenario):
    return SCENARIOS[scenario][1]


@pytest.fixture(scope="module")
def dataset(scenario):
    maker, _ = SCENARIOS[scenario]
    return maker(240, seed=11)


@pytest.fixture(scope="module")
def reference(config_factory, dataset):
    """The one-shot run every incremental cell must reproduce."""
    service = ResolverService(config_factory(), machines=MACHINES)
    service.submit(dataset.entities)
    return service


def incremental(config_factory, dataset, k, **kwargs):
    kwargs.setdefault("machines", MACHINES)
    service = ResolverService(config_factory(), **kwargs)
    n = len(dataset.entities)
    for i in range(k):
        service.submit(dataset.entities[i * n // k : (i + 1) * n // k])
    return service


def fault_plan():
    return FaultPlan(
        seed=5,
        fault_rate=0.15,
        retry=RetryPolicy(),
    )


class TestBatchCountInvariance:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_k_batches_equal_one_shot(self, config_factory, dataset, reference, k):
        service = incremental(config_factory, dataset, k)
        assert service.found_pairs == reference.found_pairs
        assert service.total_comparisons == reference.total_comparisons

    def test_one_entity_at_a_time_prefix(self, config_factory, dataset):
        """Fully serial arrival over a prefix equals the prefix batch run."""
        prefix = dataset.entities[:60]
        drip = ResolverService(config_factory(), machines=MACHINES)
        for entity in prefix:
            drip.submit([entity])
        batch = ResolverService(config_factory(), machines=MACHINES)
        batch.submit(prefix)
        assert drip.found_pairs == batch.found_pairs
        assert drip.total_comparisons == batch.total_comparisons


class TestBackendParity:
    def test_process_backend_matches_serial(self, config_factory, dataset, reference):
        service = incremental(config_factory, dataset, 3, backend="process", workers=2)
        assert service.found_pairs == reference.found_pairs
        serial = incremental(config_factory, dataset, 3)
        # Bit-identical virtual time, not just equal outputs.
        assert service.clock == serial.clock
        assert [r.end_time for r in service.receipts] == [
            r.end_time for r in serial.receipts
        ]


class TestFaultParity:
    def test_faults_stretch_time_but_not_output(
        self, config_factory, dataset, reference
    ):
        faulty = incremental(config_factory, dataset, 3, faults=fault_plan())
        clean = incremental(config_factory, dataset, 3)
        assert faulty.found_pairs == reference.found_pairs
        assert faulty.total_comparisons == clean.total_comparisons
        assert faulty.clock > clean.clock

    def test_faulty_process_equals_faulty_serial(self, config_factory, dataset):
        serial = incremental(config_factory, dataset, 3, faults=fault_plan())
        process = incremental(
            config_factory, dataset, 3, faults=fault_plan(),
            backend="process", workers=2,
        )
        assert serial.found_pairs == process.found_pairs
        assert serial.clock == process.clock


class TestDeltaEfficiency:
    def test_delta_comparisons_shrink_with_batch_size(self, config_factory, dataset):
        """A small batch against a warm store costs a fraction of the
        one-shot resolve — the property BENCH_incremental.json quantifies."""
        warm = ResolverService(config_factory(), machines=MACHINES)
        warm.submit(dataset.entities[:220])
        delta = warm.submit(dataset.entities[220:])
        full = ResolverService(config_factory(), machines=MACHINES)
        receipt = full.submit(dataset.entities)
        assert warm.found_pairs == full.found_pairs
        assert delta.comparisons < receipt.comparisons / 2


class TestLinkageStream:
    """Linkage-specific properties of the incremental path."""

    @pytest.fixture(scope="class")
    def linkage_dataset(self):
        return make_linkage(240, seed=11)

    def test_streamed_pairs_are_all_cross_source(self, linkage_dataset):
        service = incremental(linkage_config, linkage_dataset, 4)
        source_of = {e.id: e.source for e in linkage_dataset.entities}
        assert service.found_pairs
        for a, b in service.found_pairs:
            assert source_of[a] != source_of[b]

    def test_snapshot_restore_preserves_sources_mid_stream(self, linkage_dataset):
        """Restoring between batches must keep source tags (and therefore
        the cross-source predicate) intact."""
        entities = linkage_dataset.entities
        half = len(entities) // 2
        first = ResolverService(linkage_config(), machines=MACHINES)
        first.submit(entities[:half])
        restored = ResolverService.restore(
            first.snapshot(), linkage_config(), machines=MACHINES
        )
        restored.submit(entities[half:])
        uninterrupted = ResolverService(linkage_config(), machines=MACHINES)
        uninterrupted.submit(entities[:half])
        uninterrupted.submit(entities[half:])
        assert restored.found_pairs == uninterrupted.found_pairs
        assert restored.total_comparisons == uninterrupted.total_comparisons

    def test_linkage_fingerprint_differs_from_dirty(self, linkage_dataset):
        """A linkage snapshot must not restore under a dirty config: the
        candidate predicate changed, so the stored verdicts are not
        reusable."""
        service = ResolverService(linkage_config(), machines=MACHINES)
        service.submit(linkage_dataset.entities[:40])
        snapshot = service.snapshot()
        with pytest.raises(ValueError):
            ResolverService.restore(
                snapshot, citeseer_config(), machines=MACHINES
            )
