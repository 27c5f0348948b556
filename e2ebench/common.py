"""Shared pieces of the end-to-end benchmark: results, statistics, environment.

Nothing here imports the ``repro`` package, so the spec/statistics helpers
and their tests run without the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


#: the end-to-end metrics every workload reports, with their units; each
#: workload defines which operation ``p50_ms`` and ``tail_ms`` time
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms", "tail_ms": "ms"}
#: the tail percentile: leaves ten samples beyond it in every serving
#: chunk and window; p95 did not repeat within its bound on serve-hot
TAIL_PCT = 90.0


def load_spec() -> dict:
    """The benchmark's declared workloads and metrics (``BENCHMARK.json``)."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Result:
    """What one workload run produced.

    ``metrics`` holds the gated end-to-end values (the names every workload
    reports), ``named`` the workload's own figures printed by name and unit,
    ``layers`` the per-layer values of a traced pass and ``checks`` every
    correctness check as ``(name, ok, detail)``.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    #: per-layer values measured outside spans (read by a traced pass)
    extra: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a correctness check; a failed one counts as a failed op."""
        ok = bool(ok)
        self.checks.append((name, ok, detail))
        if not ok:
            self.failed += 1
        return ok

    def name(self, key: str, value, unit: str) -> None:
        self.named[key] = (value, unit)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def tail(values, pct: float) -> tuple[float, str]:
    """The ``pct`` percentile when at least ten samples lie beyond it.

    Runs with too few samples for that (one adaptation call per iteration,
    a handful of drift episodes) report their maximum instead; the label
    returned says which was used and over how many samples.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n * (100.0 - pct) / 100.0 >= 10.0:
        return float(np.percentile(values, pct)), f"p{pct:g} of {n}"
    return float(values.max()), f"max of {n}"


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build, repeat: bool = True):
    """Build once, or (``repeat``) at least 3 times and for at least 3 s.

    Returns (last product, median seconds per build).  Set-up is repeated
    so its reported time is a median, not one sample; a cheap set-up is
    repeated more often so that its median is as steady as a costly one's.
    Only the last product is used by the measured window.
    """
    min_count, min_seconds = (3, 3.0) if repeat else (1, 0.0)
    times, product = [], None
    while len(times) < min_count or sum(times) < min_seconds:
        product = None  # release the previous copy before building again
        t0 = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - t0)
    return product, median(times)


def chunked(values, pct: float, tail_pct: float) -> tuple[float, str]:
    """Median over consecutive chunks of each chunk's ``pct`` percentile.

    Chunks hold just enough samples to leave ten beyond ``tail_pct``, so a
    burst of stalls moves one chunk instead of the whole figure.  With
    fewer samples than two chunks this is the plain percentile, or
    :func:`tail`'s maximum when even that has too few samples beyond it.
    """
    values = np.asarray(values, dtype=np.float64)
    size = int(np.ceil(10.0 / (1.0 - tail_pct / 100.0)))
    n_chunks = values.size // size
    if n_chunks < 2:
        return tail(values, pct)
    per_chunk = [np.percentile(c, pct) for c in np.array_split(values, n_chunks)]
    return float(np.median(per_chunk)), (
        f"median p{pct:g} of {n_chunks} chunks of ~{values.size // n_chunks}")


# ---------------------------------------------------------------------------
# environment fingerprint


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` files; no subprocess is started."""
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
    return "unknown"


def _src_digest(src: Path) -> str:
    """sha256 over the program's sources: identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, read without changing it."""
    import ctypes

    for line in open("/proc/self/maps", encoding="utf-8", errors="replace"):
        lib = line.split()[-1]
        if "openblas" not in lib or not lib.endswith(".so"):
            continue
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint(root: Path) -> dict:
    """Machine, BLAS and version facts every result is stamped with."""
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
        ) if k in os.environ},
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
        "argv": sys.argv[1:],
    }
