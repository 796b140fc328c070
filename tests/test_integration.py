"""Cross-module integration tests: the paper's headline claims at test
scale (small datasets, few machines) plus end-to-end clustering."""

import pytest

from repro.baselines import BasicConfig
from repro.core import ProgressiveER, books_config, citeseer_config
from repro.evaluation import (
    ExperimentRun,
    RunSpec,
    quality,
    recall_curve,
    transitive_closure,
)
from repro.core.config import linear_weights
from repro.mapreduce import Cluster


@pytest.fixture(scope="module")
def headline_runs(request):
    dataset = request.getfixturevalue("citeseer_medium")
    matcher = request.getfixturevalue("shared_citeseer_matcher")
    ours = ExperimentRun(
        RunSpec(dataset, citeseer_config(matcher=matcher), machines=4, label="ours")
    ).run()
    basic = ExperimentRun(
        RunSpec(
            dataset,
            BasicConfig(citeseer_config(matcher=matcher), window=15),
            machines=4,
            label="basicF",
        )
    ).run()
    return dataset, ours, basic


class TestHeadlineClaim:
    """Figure 8's claim: our approach dominates Basic progressively."""

    def test_ours_leads_at_early_checkpoints(self, headline_runs):
        _, ours, basic = headline_runs
        horizon = min(ours.total_time, basic.total_time)
        lead = 0
        for fraction in (0.2, 0.3, 0.5, 0.7):
            t = horizon * fraction
            if ours.curve.recall_at(t) >= basic.curve.recall_at(t):
                lead += 1
        assert lead >= 3  # dominates at (almost) every checkpoint

    def test_ours_reaches_higher_final_recall(self, headline_runs):
        _, ours, basic = headline_runs
        assert ours.final_recall >= basic.final_recall

    def test_quality_metric_prefers_ours(self, headline_runs):
        dataset, ours, basic = headline_runs
        horizon = min(ours.total_time, basic.total_time)
        samples = [horizon * (i + 1) / 10 for i in range(10)]
        q_ours = quality(ours.result.duplicate_events, dataset, samples, linear_weights)
        q_basic = quality(basic.result.duplicate_events, dataset, samples, linear_weights)
        assert q_ours > q_basic


class TestParallelScaling:
    def test_more_machines_not_slower(self, citeseer_small, citeseer_cfg):
        small = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2)).run()
        large = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=6)).run()
        assert large.total_time <= small.total_time * 1.05
        assert large.final_recall == pytest.approx(small.final_recall, abs=0.02)


class TestBooksPipeline:
    def test_books_psnm_end_to_end(self, books_small, shared_books_matcher):
        config = books_config(matcher=shared_books_matcher)
        result = ProgressiveER(config, Cluster(2)).run(books_small)
        recall = len(result.found_pairs & books_small.true_pairs)
        assert recall / books_small.num_true_pairs > 0.75

    def test_books_basic_psnm(self, books_small, shared_books_matcher):
        config = BasicConfig(
            books_config(matcher=shared_books_matcher),
            window=15,
            popcorn_threshold=0.005,
        )
        run = ExperimentRun(RunSpec(books_small, config, machines=2)).run()
        assert 0.0 < run.final_recall <= 1.0


class TestClusteringStage:
    def test_transitive_closure_of_results(self, headline_runs):
        dataset, ours, _ = headline_runs
        clusters = transitive_closure(ours.result.found_pairs)
        # Clusters must be consistent with ground truth for most entities:
        # count entities placed with a majority of same-cluster peers.
        correct = 0
        total = 0
        for group in clusters:
            for entity in group:
                total += 1
                truth = dataset.clusters[entity]
                same = sum(1 for other in group if dataset.clusters[other] == truth)
                if same > len(group) / 2:
                    correct += 1
        assert total > 0
        # Transitive closure amplifies the matcher's few false positives,
        # so purity sits below raw pair precision.
        assert correct / total > 0.8


class TestIncrementalConsumption:
    def test_files_reconstruct_event_stream(self, headline_runs):
        from repro.mapreduce import results_available_at

        _, ours, _ = headline_runs
        job = ours.result.job2
        final = set(results_available_at(job, job.end_time))
        assert final == ours.result.found_pairs
