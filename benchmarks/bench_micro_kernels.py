"""Microbenchmarks for the hot kernels under everything else.

Not a paper artifact — a regression guard for the implementation: pair
comparisons dominate real runtime, blocking and schedule generation
dominate the per-run setup.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from repro.blocking import build_forests, citeseer_scheme
from repro.core.config import citeseer_config
from repro.core.estimation import EstimationModel, UniformEstimator
from repro.core.schedule import generate_schedule
from repro.core.statistics import run_statistics_job
from repro.mapreduce import Cluster, CostModel
import repro.similarity.batch as batch_module
import repro.similarity.matchers as matchers_module
from repro.similarity import (
    BatchMatcher,
    books_matcher,
    citeseer_matcher,
    dp_cell_counters,
    levenshtein,
    reset_dp_cell_counters,
)


def _index_pairs(pairs):
    """Entity pairs as ``(members, lefts, rights)``, the kernel's form."""
    members, lefts, rights = [], [], []
    position_of = {}
    for e1, e2 in pairs:
        for entity, side in ((e1, lefts), (e2, rights)):
            if id(entity) not in position_of:
                position_of[id(entity)] = len(members)
                members.append(entity)
            side.append(position_of[id(entity)])
    return members, lefts, rights


def _decide(batcher, pairs):
    members, lefts, rights = _index_pairs(pairs)
    return batcher.decisions(batcher.rows(members), lefts, rights)


def _random_string(rng, length):
    return "".join(rng.choice("abcdefghij ") for _ in range(length))


@pytest.mark.parametrize("length", [20, 60, 150])
def test_levenshtein_throughput(benchmark, length):
    rng = random.Random(0)
    pairs = [
        (_random_string(rng, length), _random_string(rng, length))
        for _ in range(50)
    ]

    def kernel():
        return sum(levenshtein(a, b) for a, b in pairs)

    total = benchmark(kernel)
    assert total > 0


def test_matcher_throughput(benchmark, citeseer_dataset):
    matcher = citeseer_matcher()  # uncached: measure the bounded kernel
    rng = random.Random(2)
    pairs = [tuple(rng.sample(citeseer_dataset.entities, 2)) for _ in range(40)]

    def kernel():
        return sum(_decide(BatchMatcher(matcher), pairs))

    benchmark(kernel)


def test_blocking_throughput(benchmark, citeseer_dataset):
    scheme = citeseer_scheme()
    forests = benchmark(build_forests, citeseer_dataset, scheme)
    assert sum(f.num_blocks for f in forests.values()) > 0


def test_statistics_job_throughput(benchmark, citeseer_dataset):
    scheme = citeseer_scheme()
    cluster = Cluster(10)

    def kernel():
        return run_statistics_job(cluster, citeseer_dataset, scheme)

    _, stats, _ = benchmark(kernel)
    assert stats.num_blocks > 0


def test_schedule_generation_throughput(benchmark, citeseer_dataset):
    scheme = citeseer_scheme()
    cluster = Cluster(10)
    config = citeseer_config()

    def fresh_stats():
        # generate_schedule mutates the statistics trees (elimination and
        # splits), so every round gets a fresh copy.
        _, stats, _ = run_statistics_job(cluster, citeseer_dataset, scheme)
        return (stats,), {}

    def kernel(stats):
        model = EstimationModel(
            config, CostModel(), UniformEstimator(0.05), len(citeseer_dataset)
        )
        return generate_schedule(stats, model, 20, strategy="ours")

    schedule = benchmark.pedantic(kernel, setup=fresh_stats, rounds=3, iterations=1)
    assert schedule.num_blocks > 0


# ---------------------------------------------------------------------------
# Perf smoke: kernel crossover and threshold propagation (CI-asserted)
# ---------------------------------------------------------------------------


def _scalar_dp(a, b):
    """Textbook two-row DP: the baseline the bit-parallel kernel is timed
    against (the package itself no longer carries a scalar loop)."""
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            current.append(
                min(previous[i] + 1, current[i - 1] + 1, previous[i - 1] + (ca != cb))
            )
        previous = current
    return previous[len(a)]


def _best_of(kernel, pairs, rounds=3):
    """Best wall time of ``rounds`` passes over ``pairs`` (shrugs off CI jitter)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for a, b in pairs:
            kernel(a, b)
        best = min(best, time.perf_counter() - start)
    return best


def test_myers_beats_scalar_dp_on_long_strings(report):
    """Myers' bit-parallel kernel must stay ≥10x faster than the scalar
    two-row DP on 300-character inputs (the abstract-length regime)."""
    rng = random.Random(5)
    pairs = [
        (_random_string(rng, 300), _random_string(rng, 300)) for _ in range(8)
    ]
    for a, b in pairs[:2]:  # warm up
        assert levenshtein(a, b) == _scalar_dp(a, b)

    scalar_s = _best_of(_scalar_dp, pairs)
    myers_s = _best_of(levenshtein, pairs)
    ratio = scalar_s / myers_s if myers_s > 0 else float("inf")
    report(
        f"myers vs scalar DP (300 chars): scalar {scalar_s * 1e3:.1f}ms  "
        f"myers {myers_s * 1e3:.1f}ms  ratio {ratio:.1f}x"
    )
    assert ratio >= 10.0, f"Myers only {ratio:.1f}x faster than scalar DP"


def test_bound_never_slows_the_kernel(report):
    """A bound may only remove work: on unrelated abstract-length pairs the
    bounded call takes at most 1.25x the unbounded one and visits fewer
    columns.  What this catches is a bounded path that leaves the
    bit-parallel loop: a scalar band is >10x slower at this length."""
    rng = random.Random(6)
    pairs = [
        (_random_string(rng, 350), _random_string(rng, 350)) for _ in range(8)
    ]

    def bounded(a, b):
        return levenshtein(a, b, max_distance=130)

    def _columns(kernel):
        reset_dp_cell_counters()
        results = [kernel(a, b) for a, b in pairs]
        return results, dp_cell_counters()["myers"]

    exact, unbounded_columns = _columns(levenshtein)
    clamped, bounded_columns = _columns(bounded)
    assert clamped == [min(distance, 131) for distance in exact]

    unbounded_s = _best_of(levenshtein, pairs)
    bounded_s = _best_of(bounded, pairs)
    ratio = bounded_s / unbounded_s if unbounded_s > 0 else float("inf")
    report(
        f"bounded vs unbounded (350 chars, k=130): unbounded {unbounded_s * 1e3:.2f}ms  "
        f"bounded {bounded_s * 1e3:.2f}ms  ratio {ratio:.2f}x  "
        f"columns {bounded_columns:,} vs {unbounded_columns:,}"
    )
    assert bounded_columns < unbounded_columns
    assert ratio <= 1.25, f"a bound made the kernel {ratio:.2f}x slower"


def test_threshold_propagation_reduces_kernel_work(books_dataset, report):
    """Propagating the match kernel's running bound into the edit kernel
    must shrink DP column visits on the books workload without flipping a
    single decision."""
    from repro.core import books_config

    config = books_config()
    matcher = config.matcher
    rng = random.Random(9)
    pairs = [tuple(rng.sample(books_dataset.entities, 2)) for _ in range(400)]
    # Mix in near-duplicates so both accept and reject paths are exercised.
    pairs += [(e, e) for e in rng.sample(books_dataset.entities, 50)]

    def _run_decisions():
        reset_dp_cell_counters()
        decisions = _decide(BatchMatcher(matcher), pairs)
        return decisions, dp_cell_counters()["myers"]

    propagated_decisions, propagated_columns = _run_decisions()
    original_floor = batch_module._rule_floor
    batch_module._rule_floor = lambda *args: 0.0  # disable propagation
    try:
        baseline_decisions, baseline_columns = _run_decisions()
    finally:
        batch_module._rule_floor = original_floor

    report(
        f"threshold propagation on books pairs: {propagated_columns:,} DP columns "
        f"vs {baseline_columns:,} without "
        f"({baseline_columns / max(propagated_columns, 1):.2f}x)"
    )
    assert propagated_decisions == baseline_decisions
    assert propagated_columns < baseline_columns


def test_credit_bound_reduces_kernel_calls(books_dataset, report, monkeypatch):
    """Crediting unevaluated edit rules with what their lengths and
    character counts allow — not a perfect 1.0 — must cut edit-kernel calls
    and DP columns several-fold on sorted-neighbour book pairs, for
    identical decisions.  Counts, not seconds: they repeat exactly.
    Measured 19.1x calls, 13.8x columns here; the floors below (10x, 7x)
    leave room for a change in the pairs that reach the kernel.  A call is
    a triple whose bound can bind: pairs with a floor of 0 or below share
    the kernel call, under a bound no distance exceeds.
    """
    matcher = books_matcher()
    ordered = sorted(books_dataset.entities, key=lambda e: e.get("title"))[:1500]
    pairs = [
        (ordered[i], ordered[j])
        for i in range(len(ordered))
        for j in range(i + 1, min(i + 8, len(ordered)))
    ]
    batches = [pairs[k:k + 64] for k in range(0, len(pairs), 64)]
    real_levenshtein_many = matchers_module.levenshtein_many
    calls = 0

    def counting_levenshtein_many(triples, patterns=None):
        # One bounded kernel call per triple whose bound can bind, packed or
        # not; a floor of 0 or below gives a bound no distance exceeds.
        nonlocal calls
        triples = list(triples)
        calls += sum(bound < max(len(a), len(b)) for a, b, bound in triples)
        return real_levenshtein_many(triples, patterns)

    monkeypatch.setattr(matchers_module, "levenshtein_many", counting_levenshtein_many)

    def _run_decisions():
        nonlocal calls
        reset_dp_cell_counters()
        calls = 0
        batcher = BatchMatcher(matcher)
        decisions = [d for batch in batches for d in _decide(batcher, batch)]
        return decisions, calls, dp_cell_counters()["myers"]

    credited = _run_decisions()
    # The old optimism: every unevaluated rule can still score 1.0.
    monkeypatch.setattr(
        batch_module, "_edit_upper_bounds",
        lambda rows1, rows2, slot: [1.0 for _ in rows1],
    )
    optimistic = _run_decisions()

    call_ratio = optimistic[1] / max(credited[1], 1)
    column_ratio = optimistic[2] / max(credited[2], 1)
    report(
        f"credit bound on {len(pairs):,} sorted-neighbour book pairs: "
        f"bounded kernel calls {optimistic[1]:,} -> {credited[1]:,} ({call_ratio:.1f}x), "
        f"DP columns {optimistic[2]:,} -> {credited[2]:,} ({column_ratio:.1f}x)"
    )
    assert credited[0] == optimistic[0]
    assert any(credited[0]) and not all(credited[0])
    assert call_ratio >= 10.0, f"credit bound only cut kernel calls {call_ratio:.1f}x"
    assert column_ratio >= 7.0, f"credit bound only cut DP columns {column_ratio:.1f}x"


def test_packed_kernel_cuts_column_steps(citeseer_dataset, report, monkeypatch):
    """Deciding a batch's survivors of one edit rule in one packed column
    loop must take ≥3x fewer Myers loop iterations than deciding them one
    pair at a time, for identical answers.

    The groups are the ones ``BatchMatcher`` hands the bounded kernel on
    sorted-neighbour pairs of the largest citeseer main block, 64 pairs a
    batch: every distinct value pair one rule compares in a batch, floors
    of 0 or below included.  Steps, not seconds: one per column of a
    per-pair call, one per column of a whole packed group, so the count
    repeats exactly.  Measured 2 165 pairs in 94 groups, 14.8x.
    """
    from repro.mechanisms import block_sort_key
    from repro.similarity import edit_distance

    forests = build_forests(citeseer_dataset, citeseer_scheme())
    block = max(
        (root for forest in forests.values() for root in forest),
        key=lambda root: root.size,
    )
    by_id = {entity.id: entity for entity in citeseer_dataset.entities}
    members = sorted(
        (by_id[i] for i in block.entity_ids[:400]),
        key=lambda entity: block_sort_key(entity, "title"),
    )
    pairs = [
        (members[i], members[j])
        for i in range(len(members))
        for j in range(i + 1, min(i + 6, len(members)))
    ]
    groups = []
    real_levenshtein_many = matchers_module.levenshtein_many

    def recording_levenshtein_many(triples, patterns=None):
        triples = list(triples)
        groups.append(triples)
        return real_levenshtein_many(triples, patterns)

    monkeypatch.setattr(matchers_module, "levenshtein_many", recording_levenshtein_many)
    batcher = BatchMatcher(citeseer_matcher())
    for k in range(0, len(pairs), 64):
        _decide(batcher, pairs[k:k + 64])

    reset_dp_cell_counters()
    pairwise = [
        [levenshtein(a, b, max_distance=bound) for a, b, bound in group]
        for group in groups
    ]
    pairwise_steps = dp_cell_counters()["steps"]
    reset_dp_cell_counters()
    packed = [edit_distance.levenshtein_many(group) for group in groups]
    packed_steps = dp_cell_counters()["steps"]

    ratio = pairwise_steps / max(packed_steps, 1)
    report(
        f"packed kernel on {sum(map(len, groups)):,} value pairs in "
        f"{len(groups):,} groups: Myers steps {pairwise_steps:,} per pair -> "
        f"{packed_steps:,} packed ({ratio:.1f}x)"
    )
    assert packed == pairwise
    assert max(map(len, groups)) >= edit_distance._PACK_MIN
    assert ratio >= 3.0, f"packing only cut Myers steps {ratio:.1f}x"


def test_batch_kernel_call_reduction(books_dataset, report):
    """The bounded kernel must make ≥3x fewer Python-level calls than the
    definition (``WeightedMatcher.is_match``, the full weighted sum per
    pair) on the same fixed batch.

    This is the machine-independent core of the wall-clock claim: the
    kernel amortizes attribute extraction and rule dispatch
    across the batch and short-circuits dead pairs, so the interpreter
    executes far fewer function calls for identical decisions.  Calls are
    counted with ``sys.setprofile`` 'call' events (Python frames only — C
    entry points are excluded on both sides).
    """
    matcher = books_matcher()
    rng = random.Random(13)
    # A small pool with repeats: real reduce batches revisit the same
    # entities and values across the window, which is exactly where the
    # batch kernel's per-rule dedup and hoisted rows pay off.
    pool = books_dataset.entities[:12]
    pairs = [tuple(rng.sample(pool, 2)) for _ in range(240)]
    pairs += [(e, e) for e in pool]

    def _count_calls(fn):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return result, calls

    definition, definition_calls = _count_calls(
        lambda: [matcher.is_match(a, b) for a, b in pairs]
    )
    members, lefts, rights = _index_pairs(pairs)
    batcher = BatchMatcher(matcher)
    batched, batch_calls = _count_calls(
        lambda: batcher.decisions(batcher.rows(members), lefts, rights)
    )
    ratio = definition_calls / max(batch_calls, 1)
    report(
        f"batch kernel call reduction on {len(pairs)} pairs: "
        f"definition {definition_calls:,} calls vs kernel {batch_calls:,} "
        f"({ratio:.1f}x fewer)"
    )
    assert batched == definition
    assert ratio >= 3.0, (
        f"batch kernel only cut Python calls by {ratio:.2f}x (need >=3x)"
    )


def _call_counter():
    """A ``sys.setprofile`` hook counting Python-level 'call' events, and
    a wrapper that turns it on for the length of one method call."""
    tally = {"calls": 0}

    def profiler(frame, event, arg):
        if event == "call":
            tally["calls"] += 1

    def profiled(method):
        def wrapper(*args, **kwargs):
            sys.setprofile(profiler)
            try:
                return method(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return wrapper

    return tally, profiled


def _books_stream(n, batch):
    """A small books stream: half the entities warm, the rest in batches."""
    from repro.core import books_config
    from repro.data import make_books
    from repro.service import ResolverService

    entities = make_books(n, seed=11).entities
    service = ResolverService(books_config(), machines=4, backend="serial")
    service.submit(entities[: n // 2])
    for start in range(n // 2, n, batch):
        service.submit(entities[start:start + batch])
    return service


def test_block_resolution_call_budget(report, monkeypatch):
    """Job 2's reduce side must make at most 3 Python-level calls per
    consumed stream position (compared + skipped + filtered + pruned).

    Runs are vetoed a whole run at a time over per-block columns, the
    kernel reads rows built once per entity and credits a batch a rule at
    a time, and a decided piece is replayed in one step (one charge per
    stretch between duplicates, one stop check, one ``on_resolved``), so a
    vetoed position costs no call and a compared pair a few.  Measured on
    Python 3.11: the entity-pair loop made 1 048 948 calls (12.5 per
    position) for 84 092 positions; the run loop with a per-pair replay
    about 440 000 (5.2); now about 186 000 (2.2).  Calls are counted with
    ``sys.setprofile`` 'call' events inside ``ResolutionReducer.cleanup``
    on the serial backend, so CPU speed cannot skew them.
    """
    from repro.core import books_config
    from repro.core import driver
    from repro.data import make_books
    from repro.evaluation import ExperimentRun, RunSpec

    tally, profiled = _call_counter()
    positions = 0
    resolve_block = driver.resolve_block

    def counted_resolve_block(*args, **kwargs):
        nonlocal positions
        stats = resolve_block(*args, **kwargs)
        positions += stats.comparisons + stats.skipped + stats.filtered + stats.pruned
        return stats

    monkeypatch.setattr(
        driver.ResolutionReducer, "cleanup", profiled(driver.ResolutionReducer.cleanup)
    )
    monkeypatch.setattr(driver, "resolve_block", counted_resolve_block)
    spec = RunSpec(
        make_books(2000, seed=11), books_config(), machines=5,
        balance="slack", backend="serial",
    )
    ExperimentRun(spec).run()
    per_position = tally["calls"] / positions
    report(
        f"block resolution: {tally['calls']:,} Python calls for {positions:,} stream "
        f"positions ({per_position:.2f} per position)"
    )
    assert positions == 84_092
    assert per_position <= 3.0, f"{per_position:.2f} calls per stream position"


def test_delta_resolution_call_budget(report, monkeypatch):
    """The service's delta reducer must make at most 4 Python-level calls
    per compared pair.  Measured on Python 3.11 over the 22 152 compared
    pairs of a 1 200-book stream: 11.9 per pair with rows built per block
    and a per-pair replay, 3.6 with rows built once per entity and a
    decided piece replayed in one step.  Counted with ``sys.setprofile``
    'call' events inside ``DeltaReducer.reduce`` on the serial backend."""
    from repro.service import delta

    tally, profiled = _call_counter()
    compared = 0
    resolve_block = delta.resolve_block

    def counted_resolve_block(*args, **kwargs):
        nonlocal compared
        stats = resolve_block(*args, **kwargs)
        compared += stats.comparisons
        return stats

    monkeypatch.setattr(delta.DeltaReducer, "reduce", profiled(delta.DeltaReducer.reduce))
    monkeypatch.setattr(delta, "resolve_block", counted_resolve_block)
    service = _books_stream(1200, 12)
    per_pair = tally["calls"] / compared
    report(
        f"delta resolution: {tally['calls']:,} Python calls for {compared:,} "
        f"compared pairs ({per_pair:.2f} per pair)"
    )
    assert compared == service.total_comparisons > 0
    assert per_pair <= 4.0, f"{per_pair:.2f} calls per compared pair"


def test_row_builds_once_per_entity(report, monkeypatch):
    """A matcher builds an entity's kernel row at most once: over a whole
    ``ResolverService`` stream (one matcher for the service's life), and
    over each job of a one-shot run (one matcher per job, shared by its
    reduce tasks), so at most one row per entity per job."""
    from repro.core import books_config
    from repro.data import make_books
    from repro.evaluation import ExperimentRun, RunSpec

    built = []
    build_row = BatchMatcher._build_row

    def counted_build_row(self, entity):
        # The matcher itself, not its id(): a finished task's matcher is
        # freed and the next one may reuse its address.
        built.append((self, entity.id))
        return build_row(self, entity)

    monkeypatch.setattr(BatchMatcher, "_build_row", counted_build_row)
    service = _books_stream(1200, 12)
    stream_builds = len(built)
    assert 0 < stream_builds <= service.total_entities
    assert len(set(built)) == stream_builds

    built.clear()
    ExperimentRun(RunSpec(
        make_books(2000, seed=11), books_config(), machines=5, backend="serial",
    )).run()
    matchers = {matcher for matcher, _ in built}
    report(
        f"kernel rows: {stream_builds:,} built for a {service.total_entities:,}-entity "
        f"stream; {len(built):,} for 2,000 books by {len(matchers)} matcher"
    )
    assert len(matchers) == 1  # one matcher for the resolution job
    assert len(set(built)) == len(built) <= 2000  # no entity twice
