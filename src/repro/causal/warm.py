"""Warm-start state for incremental F-node re-discovery.

The drift-mitigation loop is inherently repeated: every drift event re-runs
discovery on a pooled matrix that differs from the previous run only by a
handful of few-shot target rows.  Two observations make re-runs cheap:

1. **The expensive CI-test state depends on the source domain only.**  The
   regression-invariance test fits X on Z with *source* samples (the
   observational mechanism), so design matrices, Gram/Cholesky factors,
   per-feature ridge betas and source residuals are all byte-for-byte
   reusable across runs as long as the source matrix is unchanged — only
   the cheap target-side residuals and the final two-sample statistics
   involve the new rows.  :class:`CIStatCache` persists exactly that state,
   keyed by conditioning tuple and guarded by a content fingerprint of the
   source matrix: a re-run with changed source rows invalidates everything
   (every entry derives from those rows), a re-run with only new target
   shots invalidates nothing.

2. **The previous run's decisions are strong priors.**  :class:`WarmState`
   couples the cache with the previous :class:`~repro.causal.fnode.FNodeResult`
   (including the pre-search marginal p-values) so
   :meth:`~repro.causal.fnode.FNodeDiscovery.rediscover` can confirmation-test
   old separating sets first and order the remaining search by the previous
   run's closest-to-clearing scores.

Both classes serialize to the flat ``{name: ndarray}`` + ``__meta__`` layout
of the estimator protocol, so the warm state rides inside v2 artifact
bundles (``allow_pickle=False``) and a daemon-triggered refit can warm-start
from disk.  The cache packs each entry family into one byte blob, so a warm
state adds a fixed number of members to a bundle however many conditioning
tuples it caches.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # circular at runtime: fnode imports this module
    from repro.causal.fnode import FNodeResult

#: bump when the serialized layout changes (2: packed entry blobs)
WARM_STATE_VERSION = 2

#: every entry in a packed blob starts at a multiple of this many bytes,
#: so the typed views :func:`_unpack` hands back are aligned
_PACK_ALIGN = 8


def matrix_fingerprint(X) -> str:
    """Content hash of a matrix: sha256 over shape, dtype and raw bytes.

    The matrix is viewed as C-contiguous float64 — the canonical form
    :class:`~repro.causal.engine.CIEngine` converts inputs to — so logically
    equal matrices fingerprint identically regardless of input dtype/layout.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(X.shape).encode())
    h.update(X.tobytes())
    return h.hexdigest()


def _encode_meta(obj) -> np.ndarray:
    return np.frombuffer(
        json.dumps(obj, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )


def _decode_meta(arr) -> dict:
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8).tobytes()).decode("utf-8"))


def _spans(layout):
    """Yield ``(dtype, shape, start, stop)`` byte spans of a packed layout."""
    offset = 0
    for dtype_str, shape in layout:
        dtype = np.dtype(dtype_str)
        shape = tuple(int(n) for n in shape)
        start = -(-offset // _PACK_ALIGN) * _PACK_ALIGN
        offset = start + dtype.itemsize * math.prod(shape)
        yield dtype, shape, start, offset


def _pack(arrays) -> tuple[np.ndarray, list]:
    """Copy ``arrays`` into one ``uint8`` blob; returns ``(blob, layout)``.

    ``layout`` lists ``[dtype.str, shape]`` per entry (JSON-ready); entry
    bytes are in C order at :data:`_PACK_ALIGN`-aligned offsets.
    """
    layout = [[arr.dtype.str, list(arr.shape)] for arr in arrays]
    spans = list(_spans(layout))
    blob = np.zeros(spans[-1][3] if spans else 0, dtype=np.uint8)
    for arr, (dtype, shape, start, stop) in zip(arrays, spans):
        blob[start:stop].view(dtype).reshape(shape)[...] = arr
    return blob, layout


def _unpack(blob, layout) -> list[np.ndarray]:
    """Read-only typed views into ``blob``, one per ``layout`` entry."""
    blob = np.asarray(blob)
    if blob.dtype != np.uint8 or blob.ndim != 1:
        raise ValidationError("packed warm-cache blob must be 1-D uint8")
    spans = list(_spans(layout))
    size = spans[-1][3] if spans else 0
    if size != blob.size:
        raise ValidationError(
            f"packed warm-cache blob holds {blob.size} bytes, its layout "
            f"describes {size}"
        )
    out = []
    for dtype, shape, start, stop in spans:
        if dtype.kind not in "biufc":
            raise ValidationError(f"packed warm-cache entry has dtype {dtype}")
        view = blob[start:stop].view(dtype).reshape(shape)
        view.flags.writeable = False
        out.append(view)
    return out


class CIStatCache:
    """Persistent per-conditioning-tuple CI-statistics cache.

    Stores the source-side state of :class:`~repro.causal.engine.CIEngine`:
    Cholesky factors of the ridge Gram matrix per conditioning tuple, ridge
    betas per ``(tuple, feature)``, and (in memory only, unless requested)
    source residuals per ``(tuple, feature)``.  Entries are valid exactly
    while the source matrix bytes match ``source_fingerprint`` and the
    engine runs with the same ``ridge`` / ``stats_dtype`` — under those
    guards a reused entry is byte-for-byte what a cold engine would compute.

    The engine treats the cache as a read-through/write-through store and
    counts hits and misses in ``CIEngine.cache_stats``; the cache itself
    counts invalidations (bulk drops on a guard mismatch).
    """

    def __init__(
        self,
        *,
        ridge: float,
        stats_dtype: str,
        source_fingerprint: str | None = None,
    ) -> None:
        self.ridge = float(ridge)
        self.stats_dtype = str(stats_dtype)
        self.source_fingerprint = source_fingerprint
        # cols -> (cholesky array, lower flag); cols -> {j: beta}; cols -> {j: res_s}
        self.factors: dict[tuple[int, ...], tuple[np.ndarray, bool]] = {}
        self.betas: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self.residuals: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self.invalidations = 0

    # -- entry accessors (engine-facing) -------------------------------------

    def get_factor(self, cols):
        return self.factors.get(cols)

    def put_factor(self, cols, factor) -> None:
        self.factors[cols] = (factor[0], bool(factor[1]))

    def get_beta(self, cols, j):
        per = self.betas.get(cols)
        return None if per is None else per.get(j)

    def put_beta(self, cols, j, beta) -> None:
        self.betas.setdefault(cols, {})[j] = beta

    def get_residual(self, cols, j):
        per = self.residuals.get(cols)
        return None if per is None else per.get(j)

    def put_residual(self, cols, j, res) -> None:
        self.residuals.setdefault(cols, {})[j] = res

    @property
    def n_entries(self) -> int:
        return (
            len(self.factors)
            + sum(len(per) for per in self.betas.values())
            + sum(len(per) for per in self.residuals.values())
        )

    def matches(self, *, ridge: float, stats_dtype: str, source_fingerprint: str) -> bool:
        """True when every entry is byte-for-byte valid for this engine setup."""
        return (
            self.ridge == float(ridge)
            and self.stats_dtype == str(stats_dtype)
            and self.source_fingerprint == source_fingerprint
        )

    def invalidate(self) -> int:
        """Drop every entry (the source rows they derive from changed)."""
        dropped = self.n_entries
        self.factors.clear()
        self.betas.clear()
        self.residuals.clear()
        self.invalidations += dropped
        return dropped

    # -- worker transport ----------------------------------------------------

    def to_portable(self, *, include_residuals: bool = True) -> dict:
        """Plain picklable dict for shipping to process-pool workers."""
        return {
            "ridge": self.ridge,
            "stats_dtype": self.stats_dtype,
            "source_fingerprint": self.source_fingerprint,
            "factors": self.factors,
            "betas": self.betas,
            "residuals": self.residuals if include_residuals else {},
        }

    @classmethod
    def from_portable(cls, d: dict) -> "CIStatCache":
        cache = cls(
            ridge=d["ridge"],
            stats_dtype=d["stats_dtype"],
            source_fingerprint=d["source_fingerprint"],
        )
        cache.factors = d["factors"]
        cache.betas = d["betas"]
        cache.residuals = d["residuals"]
        return cache

    # -- flat serialization (estimator-protocol compatible) -------------------

    def state_dict(self, *, include_residuals: bool = False) -> dict[str, np.ndarray]:
        """Flat ``{name: ndarray}`` + ``__meta__`` snapshot of the cache.

        Each entry family (factors, betas, residuals) is packed into one
        ``uint8`` blob whose per-entry dtype and shape live in ``__meta__``,
        so the snapshot has four members however many tuples are cached.

        Residuals are excluded by default: they are cheap to recompute (one
        matvec) and dominate the byte size, so artifacts stay small while a
        warm-from-disk run still skips every factorization and solve.
        """
        factor_cols = sorted(self.factors)
        beta_keys = sorted((cols, j) for cols, per in self.betas.items() for j in per)
        res_keys = (
            sorted((cols, j) for cols, per in self.residuals.items() for j in per)
            if include_residuals
            else []
        )
        factors, factor_layout = _pack([self.factors[c][0] for c in factor_cols])
        betas, beta_layout = _pack([self.betas[c][j] for c, j in beta_keys])
        residuals, residual_layout = _pack(
            [self.residuals[c][j] for c, j in res_keys]
        )
        meta = {
            "version": WARM_STATE_VERSION,
            "ridge": self.ridge,
            "stats_dtype": self.stats_dtype,
            "source_fingerprint": self.source_fingerprint,
            "invalidations": int(self.invalidations),
            "factor_cols": [list(c) for c in factor_cols],
            "factor_lower": [bool(self.factors[c][1]) for c in factor_cols],
            "factor_layout": factor_layout,
            "beta_keys": [[list(c), int(j)] for c, j in beta_keys],
            "beta_layout": beta_layout,
            "residual_keys": [[list(c), int(j)] for c, j in res_keys],
            "residual_layout": residual_layout,
        }
        return {
            "__meta__": _encode_meta(meta),
            "factors": factors,
            "betas": betas,
            "residuals": residuals,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CIStatCache":
        """Rebuild a cache from :meth:`state_dict` output.

        Entries are read-only views into the packed blobs, so a restored
        cache holds its bytes once.
        """
        meta = _decode_meta(state["__meta__"])
        if meta.get("version") != WARM_STATE_VERSION:
            raise ValidationError(
                f"unsupported CIStatCache state version {meta.get('version')!r}"
            )
        cache = cls(
            ridge=meta["ridge"],
            stats_dtype=meta["stats_dtype"],
            source_fingerprint=meta["source_fingerprint"],
        )
        cache.invalidations = int(meta.get("invalidations", 0))
        factors = _unpack(state["factors"], meta["factor_layout"])
        for cols, lower, factor in zip(
            meta["factor_cols"], meta["factor_lower"], factors, strict=True
        ):
            cache.factors[tuple(cols)] = (factor, bool(lower))
        betas = _unpack(state["betas"], meta["beta_layout"])
        for (cols, j), beta in zip(meta["beta_keys"], betas, strict=True):
            cache.betas.setdefault(tuple(cols), {})[int(j)] = beta
        residuals = _unpack(state["residuals"], meta["residual_layout"])
        for (cols, j), res in zip(meta["residual_keys"], residuals, strict=True):
            cache.residuals.setdefault(tuple(cols), {})[int(j)] = res
        return cache


@dataclass
class WarmState:
    """Everything a warm re-discovery needs from the previous run.

    Attributes
    ----------
    priors:
        The previous :class:`FNodeResult` — decisions, per-feature best
        p-values (closest-to-clearing scores), separating sets and the
        pre-search marginal p-values.
    cache:
        The :class:`CIStatCache` accumulated by the previous run (``None``
        in ``multi_rhs`` baseline mode, which never caches).
    source_fingerprint:
        Fingerprint of the source matrix the priors/cache derive from;
        a mismatch forces a cold fallback (and cache invalidation).
    n_features:
        Feature count the priors describe.
    params:
        The discovery parameters of the producing run.  ``exact`` mode
        tolerates mismatches (its per-feature guards keep it provable);
        ``confirm`` mode requires an exact match before trusting decisions.
    """

    priors: FNodeResult
    cache: CIStatCache | None
    source_fingerprint: str
    n_features: int
    params: dict = field(default_factory=dict)

    def state_dict(self, *, include_residuals: bool = False) -> dict[str, np.ndarray]:
        """Flat serialization: priors arrays + nested cache state."""
        priors = self.priors
        marginal = priors.marginal_p_values
        meta = {
            "version": WARM_STATE_VERSION,
            "source_fingerprint": self.source_fingerprint,
            "n_features": int(self.n_features),
            "params": self.params,
            "parent_sets": [list(p) for p in priors.parent_sets],
            "n_tests": int(priors.n_tests),
            "coverage": float(priors.coverage),
            "has_cache": self.cache is not None,
            "has_marginal": marginal is not None,
        }
        state: dict[str, np.ndarray] = {
            "__meta__": _encode_meta(meta),
            "variant_indices": np.asarray(priors.variant_indices).copy(),
            "invariant_indices": np.asarray(priors.invariant_indices).copy(),
            "p_values": np.asarray(priors.p_values).copy(),
        }
        if marginal is not None:
            state["marginal_p_values"] = np.asarray(marginal).copy()
        if self.cache is not None:
            for name, arr in self.cache.state_dict(
                include_residuals=include_residuals
            ).items():
                state[f"cache.{name}"] = arr
        return state

    @classmethod
    def from_state(cls, state: dict) -> "WarmState":
        from repro.causal.fnode import FNodeResult

        meta = _decode_meta(state["__meta__"])
        if meta.get("version") != WARM_STATE_VERSION:
            raise ValidationError(
                f"unsupported WarmState state version {meta.get('version')!r}"
            )
        priors = FNodeResult(
            variant_indices=np.array(state["variant_indices"]),
            invariant_indices=np.array(state["invariant_indices"]),
            p_values=np.array(state["p_values"]),
            parent_sets=[tuple(p) for p in meta.get("parent_sets", [])],
            n_tests=int(meta.get("n_tests", 0)),
            coverage=float(meta.get("coverage", 1.0)),
            marginal_p_values=(
                np.array(state["marginal_p_values"])
                if meta.get("has_marginal")
                else None
            ),
        )
        cache = None
        if meta.get("has_cache"):
            prefix = "cache."
            cache_state = {
                name[len(prefix):]: arr
                for name, arr in state.items()
                if name.startswith(prefix)
            }
            cache = CIStatCache.from_state(cache_state)
        return cls(
            priors=priors,
            cache=cache,
            source_fingerprint=meta["source_fingerprint"],
            n_features=int(meta["n_features"]),
            params=dict(meta.get("params", {})),
        )
