"""The benchmark's metrics: names, units, directions and bounds.

BENCHMARK.json at the root of the repository lists the same names, units,
directions and bounds; a test keeps the two in step.  For each per-layer
metric, MOVES records which end-to-end metric it should move and on which
workloads, written down before any optimisation is measured.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# End-to-end metrics, measured with tracing off.  (name, unit, better, bound)
# Times of the timed loop are in "ref", the time of the host reference
# kernel run next to them (see measure.py); their seconds are in the record.
END_TO_END = (
    ("iter_ref_p50", "ref", "lower", 0.25),
    ("iter_ref_tail", "ref", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("point_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("success_rate", "ratio", "higher", 0.01),
    ("r_max_ref", "pt.it/rank/ref", "higher", 0.25),
)

# Per-layer metrics of the traced run: (name, unit, better, moves, on).
PER_LAYER = (
    ("bakeoff.overhead_s", "s", "lower", "point_ref",
     "all; largest share on bp1-sweep"),
    ("bakeoff.phase_coverage", "ratio", "higher", "none (observability)",
     "BP workloads"),
    ("bakeoff.setup_parts_ratio", "ratio", "higher", "none (self-check)",
     "all"),
    ("mesh.build_s", "s", "lower", "setup_s", "bp3-p7"),
    ("mesh.geom_s", "s", "lower", "setup_s", "bp3-p7"),
    ("mesh.geom_mb", "MiB", "lower", "peak_rss_mb", "bp3-p7"),
    ("assembly.plan_s", "s", "lower", "setup_s", "bp5-p3-r2"),
    ("assembly.gs_s", "s/call", "lower", "iter_ref_p50",
     "bp5-p3-r2, bp1-sweep; zero calls on bk2-p5"),
    ("assembly.mask_s", "s/call", "lower", "iter_ref_p50",
     "bp3-p7, bp5-p3-r2"),
    ("assembly.dot_s", "s/call", "lower", "iter_ref_p50", "bp1-sweep"),
    ("assembly.gs_calls_per_iter", "count", "lower", "iter_ref_p50",
     "BP workloads"),
    ("assembly.messages_per_iter", "count", "lower", "iter_ref_p50",
     "bp5-p3-r2 (0 elsewhere)"),
    ("assembly.reductions_per_iter", "count", "lower", "iter_ref_p50",
     "BP workloads"),
    ("assembly.share", "ratio", "lower", "bounds any assembly gain",
     "BP workloads"),
    ("assembly.gs_gbps_computed", "GB/s", "higher", "iter_ref_p50",
     "bp5-p3-r2"),
    ("operators.apply_s", "s/call", "lower", "iter_ref_p50",
     "bp3-p7, bk2-p5, bp5-p3-r2"),
    ("operators.share", "ratio", "lower", "bounds any kernel gain", "all"),
    ("operators.concurrency", "ratio", "higher", "iter_ref_p50",
     "bp5-p3-r2 (1.0 elsewhere)"),
    ("operators.flops_per_apply", "count", "lower", "iter_ref_p50", "all"),
    ("operators.flop_model_ratio", "ratio", "lower", "none (model check)",
     "all"),
    ("operators.gflops", "GF/s", "higher", "iter_ref_p50", "bp3-p7, bk2-p5"),
    ("operators.gbps_computed", "GB/s", "higher", "iter_ref_p50", "bk2-p5"),
    ("operators.flops_per_byte", "ratio", "higher", "none", "all"),
    ("operators.rhs_s", "s", "lower", "setup_s", "all"),
    ("tensors.contract_us_single", "us", "lower", "iter_ref_p50",
     "bp5-p3-r2 most, bp3-p7 less"),
    ("tensors.contract_us_per_elem_batched", "us", "lower", "iter_ref_p50",
     "bp5-p3-r2 most, bp3-p7 less; the gap to single is dispatch cost"),
    ("krylov.precond_s", "s", "lower", "setup_s",
     "BP workloads (0 on bk2-p5)"),
    ("krylov.self_s_per_iter", "s", "lower", "iter_ref_p50", "bp1-sweep"),
    ("krylov.iterations", "count", "lower", "none", "BP workloads"),
    ("krylov.residual_reduction", "ratio", "lower",
     "none (must repeat bitwise)", "BP workloads"),
    ("metrics.n_08", "points/rank", "lower", "metrics.t_08", "bp1-sweep"),
    # The paper's time to solution, 1.25 n_08 / r_max.  On a flat rate
    # curve n_08 sits at the 80% threshold and jumps between runs, so it
    # is reported here, without a bound, rather than end to end.
    ("metrics.t_08", "s", "lower", "none (paper metric)", "bp1-sweep"),
    ("trace.overhead_frac", "ratio", "lower", "none", "all"),
    ("trace.self_sum_ratio", "ratio", "higher", "none (self-check)", "all"),
)

# Per-layer metric -> (end-to-end metric it should move, on which workloads).
MOVES = {name: (moves, on) for (name, _, _, moves, on) in PER_LAYER}

# Counts the program makes that must repeat bitwise from run to run.
EXACT = ("operators.flops_per_apply", "assembly.messages_per_iter",
         "assembly.reductions_per_iter", "krylov.iterations",
         "krylov.residual_reduction")


def units(trace: bool) -> dict:
    """Metric name -> unit for the metrics a run with this trace flag emits."""
    table = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in table}


def benchmark_entries() -> tuple[list, list]:
    """The end_to_end and per_layer lists of BENCHMARK.json."""
    e2e = [{"name": n, "unit": u, "better": b, "bound": bound}
           for (n, u, b, bound) in END_TO_END]
    layers = [{"name": n, "unit": u, "better": b}
              for (n, u, b, _, _) in PER_LAYER]
    return e2e, layers
