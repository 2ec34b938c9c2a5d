"""The host and code a result was measured on, and a host-drift reference."""

from __future__ import annotations

import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SEMBENCH_THREADS")


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version",
                                     "openblas configuration")}


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def git_commit(root: Path) -> str | None:
    """Commit of the checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    """Line count of the library's Python sources under src/sembench."""
    total = 0
    for path in sorted((root / "src" / "sembench").glob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def host_state() -> dict:
    """The parts of the environment that change while a run goes on."""
    return {"loadavg": list(os.getloadavg()),
            "affinity": sorted(os.sched_getaffinity(0))}


def environment(root: Path) -> dict:
    """Versions, thread settings, cores and code identity of this run.

    The thread variables are read, never set.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }


class HostReference:
    """A fixed numpy kernel, independent of sembench, timed next to every run.

    It does the kind of work the workloads do: 1D contractions of a small
    matrix along each axis of 8^3 element fields, with a pointwise product
    between, over batches of a few elements, so both arithmetic and per-call
    overhead count.  With `threads` > 1 the elements are split into that
    many shares, each contracted by a thread of its own, as a workload's
    worker pool splits its partitions.  A busier or slower host slows the
    kernel much as it slows the workloads, so a workload's time divided by
    the kernel's time next to it cancels most of the host's drift.  Batches
    stay small enough that their temporaries come from the heap, not from
    fresh pages, so the kernel's time does not depend on what the process
    allocated before.  Its own time is recorded so a reader can tell a slow
    host from slow code.
    """

    BATCHES = (16, 4)

    def __init__(self, threads: int = 1, elements: int = 512,
                 repeats: int = 4):
        rng = np.random.default_rng(0)
        self._b = rng.standard_normal((9, 8))
        u = rng.standard_normal((elements, 8, 8, 8))
        w = rng.standard_normal((elements, 9, 9, 9))
        self._shares = list(zip(np.array_split(u, threads),
                                np.array_split(w, threads)))
        self._repeats = repeats
        self.samples: list[float] = []
        self.times: list[float] = []    # perf_counter at each sample's middle

    def _contract(self, u: np.ndarray, w: np.ndarray) -> float:
        v = u
        for axis in (3, 2, 1):
            v = np.moveaxis(np.moveaxis(v, axis, -1) @ self._b.T, -1, axis)
        v = v * w
        for axis in (3, 2, 1):
            v = np.moveaxis(np.moveaxis(v, axis, -1) @ self._b, -1, axis)
        return float(v[:, 0, 0, 0].sum())

    def _share(self, share) -> float:
        u, w = share
        acc = 0.0
        for _ in range(self._repeats):
            for batch in self.BATCHES:
                for i in range(0, len(u), batch):
                    acc += self._contract(u[i:i + batch], w[i:i + batch])
        return acc

    def sample(self) -> float:
        t0 = time.perf_counter()
        if len(self._shares) == 1:
            acc = self._share(self._shares[0])
        else:
            with ThreadPoolExecutor(len(self._shares)) as pool:
                acc = sum(pool.map(self._share, self._shares))
        t1 = time.perf_counter()
        if not np.isfinite(acc):
            raise FloatingPointError("host reference kernel lost finiteness")
        self.samples.append(t1 - t0)
        self.times.append(0.5 * (t0 + t1))
        return t1 - t0
