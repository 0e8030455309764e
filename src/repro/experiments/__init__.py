"""Experiment harness reproducing the paper's evaluation (Section 5).

``config`` holds the Table-1 setup and the sweep scales; ``workload``
generates the random multicast tasks; ``sweep`` runs protocol batches over
seeded networks; ``figures`` regenerates Figures 11, 12, 14 and 15; and
``report`` renders the results as text tables mirroring the paper's plots.
"""

from repro.experiments.config import (
    ExperimentScale,
    PAPER_SCALE,
    QUICK_SCALE,
    SMOKE_SCALE,
    PaperConfig,
    preset,
)
from repro.sessions.workload import MulticastTask, generate_tasks
from repro.experiments.sweep import (
    best_lambda_results,
    make_network,
    run_tasks,
)
from repro.experiments.figures import (
    FigureResult,
    figure11,
    figure12,
    figure14,
    figure15,
    run_group_size_sweep,
)
from repro.experiments.report import (
    render_confidence_table,
    render_figure_table,
    render_ratio_summary,
)
from repro.experiments.ablations import (
    AblationOutcome,
    render_ablations,
    run_all_ablations,
)
from repro.experiments.dynamics import (
    SessionConfig,
    SessionResult,
    compare_protocols_under_churn,
    run_multicast_session,
)
from repro.experiments.robustness import (
    RobustnessScale,
    link_loss_sweep,
    node_failure_sweep,
)
from repro.experiments.contention import (
    ContentionScale,
    arq_ablation,
    contention_sweep,
)
from repro.experiments.statistics import (
    MeanCI,
    PairedComparison,
    mean_confidence_interval,
    paired_comparison,
    win_matrix,
)

__all__ = [
    "PaperConfig",
    "ExperimentScale",
    "PAPER_SCALE",
    "QUICK_SCALE",
    "SMOKE_SCALE",
    "preset",
    "MulticastTask",
    "generate_tasks",
    "make_network",
    "run_tasks",
    "best_lambda_results",
    "FigureResult",
    "figure11",
    "figure12",
    "figure14",
    "figure15",
    "run_group_size_sweep",
    "render_figure_table",
    "render_ratio_summary",
    "render_confidence_table",
    "AblationOutcome",
    "run_all_ablations",
    "render_ablations",
    "SessionConfig",
    "SessionResult",
    "run_multicast_session",
    "compare_protocols_under_churn",
    "RobustnessScale",
    "link_loss_sweep",
    "node_failure_sweep",
    "ContentionScale",
    "contention_sweep",
    "arq_ablation",
    "MeanCI",
    "PairedComparison",
    "mean_confidence_interval",
    "paired_comparison",
    "win_matrix",
]
