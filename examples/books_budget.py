"""Scenario: cleaning a book catalog under a hard resolution budget.

A small enterprise rents cloud capacity and caps each cleaning run at a
fixed cost budget (paper Section I's motivation).  The progressive pipeline
flushes results to a new file every α cost units, so the consumer simply
merges "all completely written files up to that time" (Section III-B) when
the budget runs out.

This example runs the OL-Books setup (PSNM mechanism), stops consuming at
several budgets, and reports the recall and Equation-1 quality each budget
buys — plus what the same budgets buy with the Basic baseline.

Run:  python examples/books_budget.py
"""

from repro import BasicConfig, make_books
from repro.core import books_config
from repro.core.config import linear_weights
from repro.evaluation import ExperimentRun, RunSpec, quality
from repro.mapreduce import results_available_at
from repro.similarity import books_matcher

MACHINES = 10


def main() -> None:
    dataset = make_books(3000, seed=11)
    matcher = books_matcher(cache=True)
    true_pairs = dataset.true_pairs

    ours = ExperimentRun(
        RunSpec(
            dataset, books_config(matcher=matcher),
            machines=MACHINES, label="ours",
        )
    ).run()
    basic = ExperimentRun(
        RunSpec(
            dataset,
            BasicConfig(
                books_config(matcher=matcher), window=15, popcorn_threshold=0.0005
            ),
            machines=MACHINES,
            label="basic",
        )
    ).run()

    print(f"{len(dataset)} books, {len(true_pairs)} true duplicate pairs, "
          f"{MACHINES} machines\n")
    print("budget      ours: merged pairs  recall    basic: merged pairs  recall")
    full = ours.total_time
    for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
        budget = full * fraction
        ours_pairs = set(results_available_at(ours.result.job2, budget))
        basic_pairs = set(results_available_at(basic.result.jobs[0], budget))
        ours_recall = len(ours_pairs & true_pairs) / len(true_pairs)
        basic_recall = len(basic_pairs & true_pairs) / len(true_pairs)
        print(
            f"{budget:10,.0f}  {len(ours_pairs):12d}       {ours_recall:.3f}"
            f"     {len(basic_pairs):12d}        {basic_recall:.3f}"
        )

    # Equation 1: weighted quality over ten sampled cost values.
    samples = [full * (i + 1) / 10 for i in range(10)]
    q_ours = quality(ours.result.duplicate_events, dataset, samples, linear_weights)
    q_basic = quality(basic.result.duplicate_events, dataset, samples, linear_weights)
    print(f"\nQty (Equation 1, linear weights): ours={q_ours:.3f}  basic={q_basic:.3f}")


if __name__ == "__main__":
    main()
