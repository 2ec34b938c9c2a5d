"""Scalability metrics over benchmark datasets, plus CSV and plot emitters.

Three quantities summarize a rate-versus-size sweep:

    r_max  peak work rate (points * iterations / rank-second) in the dataset,
    n_08   smallest points-per-rank achieving 80% of r_max,
    t_08   time per iteration at that operating point, 1.25 * n_08 / r_max.

n_08 is located by log-linear interpolation (linear rate against log size)
between the two samples bracketing the 80% threshold; sweeps grow element
counts geometrically, so log spacing is the natural abscissa.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .bakeoff import RunResult


class MetricsError(ValueError):
    """Empty or malformed metrics input."""


@dataclass(frozen=True)
class EfficiencyCurve:
    """Parallel efficiency eta(P) = T_min * P_min / (T_P * P)."""

    entries: tuple          # of (P, T, eta), sorted by P
    P_min: int

    def eta(self, P) -> float:
        for (pp, _, e) in self.entries:
            if pp == P:
                return e
        raise KeyError(f"no sample at P={P}")


def parallel_efficiency(samples) -> EfficiencyCurve:
    """Efficiency curve from (P, T) samples; the smallest P is the baseline.

    Raises:
        MetricsError: fewer than 2 samples, repeated P, or T <= 0.
    """
    samples = sorted((int(p), float(t)) for (p, t) in samples)
    if len(samples) < 2:
        raise MetricsError("need at least 2 (P, T) samples")
    ps = [p for (p, _) in samples]
    if len(set(ps)) != len(ps):
        raise MetricsError("resource counts P must be distinct")
    if any(t <= 0.0 for (_, t) in samples):
        raise MetricsError("all times must be positive")
    p_min, t_min = samples[0]
    base = t_min * p_min
    entries = tuple((p, t, base / (t * p)) for (p, t) in samples)
    return EfficiencyCurve(entries=entries, P_min=p_min)


@dataclass(frozen=True)
class MetricsSummary:
    """r_max / n_08 / t_08 for one dataset (or one (bp, p) group)."""

    r_max: float
    n_08: float
    t_08: float
    degenerate: bool
    samples: int


def extract_metrics(points) -> MetricsSummary:
    """Summarize (n_per_rank, dofs_rate[, ...]) rows.

    Duplicate sizes (several strategies at one size) keep the peak rate.
    A flat or single-sample dataset is degenerate: n_08 falls back to the
    smallest size present and the summary is flagged.
    """
    best: dict[float, float] = {}
    for row in points:
        x, r = float(row[0]), float(row[1])
        if x <= 0.0 or r <= 0.0:
            raise MetricsError("sizes and rates must be positive")
        best[x] = max(r, best.get(x, 0.0))
    if not best:
        raise MetricsError("empty dataset")
    xs = sorted(best)
    rates = [best[x] for x in xs]
    r_max = max(rates)
    threshold = 0.8 * r_max

    degenerate = len(xs) < 2 or max(rates) == min(rates)
    if degenerate:
        n_08 = xs[0]
    else:
        i = next(j for j, r in enumerate(rates) if r >= threshold)
        if i == 0:
            n_08 = xs[0]
        else:
            x0, x1 = xs[i - 1], xs[i]
            r0, r1 = rates[i - 1], rates[i]
            lx = math.log(x0) + (threshold - r0) * (
                math.log(x1) - math.log(x0)) / (r1 - r0)
            n_08 = math.exp(lx)
    return MetricsSummary(r_max=r_max, n_08=n_08, t_08=1.25 * n_08 / r_max,
                          degenerate=degenerate, samples=len(xs))


def latency_floor(alpha: float, neighbor_messages: int = 26,
                  reductions_cost_alphas: int = 8):
    """Per-iteration message-latency band (low, high) in seconds.

    Low assumes each neighbor exchange costs one latency alpha, high assumes
    two (send and receive not overlapped); the reduction term is a fixed
    alpha multiple covering the two CG dot products.
    """
    if alpha < 0.0:
        raise MetricsError("alpha must be non-negative")
    low = (neighbor_messages + reductions_cost_alphas) * alpha
    high = (2 * neighbor_messages + reductions_cost_alphas) * alpha
    return low, high


# CSV dataset schema; all floats carry 17 significant digits so a read-back
# reproduces the written doubles exactly.

CSV_COLUMNS = ("bp_id", "mode", "p", "q", "k", "E", "ranks", "threads",
               "strategy", "iterations", "n", "n_per_rank", "seconds_total",
               "seconds_per_iter", "dofs_rate", "flops_measured", "messages",
               "reductions")

_INT_COLUMNS = frozenset({"bp_id", "p", "q", "k", "E", "ranks", "threads",
                          "iterations", "n", "flops_measured", "messages",
                          "reductions"})
_FLOAT_COLUMNS = frozenset({"n_per_rank", "seconds_total", "seconds_per_iter",
                            "dofs_rate"})


def result_row(result: RunResult) -> dict:
    """Flatten a RunResult into a CSV row dict."""
    cfg = result.config
    return {
        "bp_id": cfg.bp,
        "mode": cfg.mode,
        "p": cfg.p,
        "q": cfg.q,
        "k": cfg.k,
        "E": cfg.E,
        "ranks": cfg.ranks,
        "threads": result.threads,
        "strategy": cfg.strategy,
        "iterations": (result.solver.iterations if result.solver is not None
                       else cfg.iterations),
        "n": result.n,
        "n_per_rank": result.n_per_rank,
        "seconds_total": result.seconds_total,
        "seconds_per_iter": result.seconds_per_iter,
        "dofs_rate": result.dofs_rate,
        "flops_measured": result.flops_measured,
        "messages": result.messages,
        "reductions": result.reductions,
    }


def _as_rows(dataset) -> list:
    rows = []
    for item in dataset:
        rows.append(result_row(item) if isinstance(item, RunResult) else item)
    return rows


def _format_cell(column: str, value) -> str:
    if column in _FLOAT_COLUMNS:
        return format(float(value), ".17g")
    if column in _INT_COLUMNS:
        return str(int(value))
    return str(value)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def csv_line(row) -> str:
    """One schema-ordered CSV line for a RunResult or row dict."""
    if isinstance(row, RunResult):
        row = result_row(row)
    return ",".join(_format_cell(c, row[c]) for c in CSV_COLUMNS)


def emit_csv(dataset, path) -> None:
    """Write RunResults or row dicts to `path`; empty input writes the header."""
    rows = _as_rows(dataset)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(c, row[c]) for c in CSV_COLUMNS])


def read_csv(path) -> list:
    """Read a dataset written by emit_csv back into typed row dicts.

    Raises:
        MetricsError: missing file, bad header, or malformed cells.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise MetricsError(f"cannot read dataset: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MetricsError(f"{path}: empty file") from None
        if tuple(header) != CSV_COLUMNS:
            raise MetricsError(f"{path}: unexpected header {header}")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(CSV_COLUMNS):
                raise MetricsError(f"{path}:{lineno}: wrong field count")
            row = {}
            try:
                for col, cell in zip(CSV_COLUMNS, record):
                    if col in _INT_COLUMNS:
                        row[col] = int(cell)
                    elif col in _FLOAT_COLUMNS:
                        row[col] = float(cell)
                    else:
                        row[col] = cell
            except ValueError as exc:
                raise MetricsError(f"{path}:{lineno}: {exc}") from None
            rows.append(row)
    return rows


def group_metrics(dataset) -> dict:
    """Per-(bp_id, p) summaries; the peak is taken across all strategies."""
    rows = _as_rows(dataset)
    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["bp_id"], row["p"])
        groups.setdefault(key, []).append((row["n_per_rank"],
                                           row["dofs_rate"]))
    return {key: extract_metrics(pts) for key, pts in sorted(groups.items())}


def efficiency_groups(dataset) -> dict:
    """Efficiency curves for groups sharing (bp_id, p, k) across rank counts."""
    rows = _as_rows(dataset)
    groups: dict[tuple, dict] = {}
    for row in rows:
        key = (row["bp_id"], row["p"], row["k"])
        # One (P, T) sample per rank count; repeated runs keep the fastest.
        samples = groups.setdefault(key, {})
        t = row["seconds_total"]
        P = row["ranks"]
        if P not in samples or t < samples[P]:
            samples[P] = t
    curves = {}
    for key, samples in sorted(groups.items()):
        if len(samples) >= 2:
            curves[key] = parallel_efficiency(samples.items())
    return curves


def emit_plot_data(dataset, path) -> None:
    """Write n_per_rank / dofs_rate columns in per-p blocks for plotting.

    Blocks are separated by blank lines and ordered by p; rows within a
    block are sorted by size.
    """
    rows = _as_rows(dataset)
    by_p: dict[int, list] = {}
    for row in rows:
        by_p.setdefault(row["p"], []).append((row["n_per_rank"],
                                              row["dofs_rate"]))
    with open(path, "w") as fh:
        fh.write("# n_per_rank dofs_rate (one block per p)\n")
        first = True
        for p in sorted(by_p):
            if not first:
                fh.write("\n")
            first = False
            fh.write(f"# p = {p}\n")
            for x, r in sorted(by_p[p]):
                fh.write(f"{format(x, '.17g')} {format(r, '.17g')}\n")
