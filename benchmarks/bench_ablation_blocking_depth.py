"""Ablation: how deep should progressive blocking go?

DESIGN.md calls out the hierarchy depth as a core design choice
(Section III-A): sub-blocks are cheaper and duplicate-denser, so deeper
trees should front-load duplicate discovery.  This bench rebuilds the
CiteSeerX scheme with 0, 1 and 2 sub-blocking functions per family and
compares progressiveness (area under the recall curve).

Expected shape: deeper blocking yields a larger early-recall area; depth 0
(main blocks only, resolved fully) is the least progressive.
"""

from __future__ import annotations

from repro.blocking import BlockingScheme, prefix_function
from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec, format_table

MACHINES = 10

#: (family, attribute, prefix lengths by depth) following Table II.
_FAMILIES = (
    ("X", "title", (2, 4, 8)),
    ("Y", "abstract", (3, 5)),
    ("Z", "venue", (3, 5)),
)


def _scheme_with_depth(depth: int) -> BlockingScheme:
    """Table II's scheme truncated to at most ``depth`` sub-functions."""
    families = {}
    for family, attribute, lengths in _FAMILIES:
        kept = lengths[: depth + 1]
        families[family] = [
            prefix_function(family, level, attribute, length)
            for level, length in enumerate(kept, start=1)
        ]
    return BlockingScheme(families=families)


def test_blocking_depth_ablation(citeseer_dataset, citeseer_cached_matcher, report):
    def run_ablation():
        runs = {}
        for depth in (0, 1, 2):
            config = citeseer_config(
                matcher=citeseer_cached_matcher, scheme=_scheme_with_depth(depth)
            )
            runs[depth] = ExperimentRun(
                RunSpec(
                    citeseer_dataset, config,
                    machines=MACHINES, label=f"depth={depth}",
                )
            ).run()
        return runs

    runs = run_ablation()
    horizon = min(run.total_time for run in runs.values())
    rows = [
        [
            f"N(X1)={depth}",
            f"{run.curve.area_under(horizon):.3f}",
            f"{run.final_recall:.3f}",
            f"{run.total_time:,.0f}",
        ]
        for depth, run in runs.items()
    ]
    report(
        format_table(
            ["variant", "recall AUC", "final recall", "total time"],
            rows,
            title="ablation — progressive blocking depth",
        )
    )

    auc = {d: run.curve.area_under(horizon) for d, run in runs.items()}
    assert auc[2] >= auc[0] - 0.02, "deep blocking must not hurt progressiveness"
    # All depths converge to comparable final recall: the hierarchy changes
    # WHEN pairs surface, the root full-resolution still catches them.
    finals = [run.final_recall for run in runs.values()]
    assert max(finals) - min(finals) < 0.08
