"""Compiled inference plans: the allocation-free serve path of a pipeline.

:meth:`FSGANPipeline.compile` flattens the pipeline's inference chain —
scale → split variant/invariant → batched MC generator forward → merge →
downstream ``predict_proba`` — into an :class:`InferencePlan` that replays
the exact ufunc sequence of the live pipeline into preallocated workspace
buffers.  At float64 the plan's probabilities are **bit-identical** to
``FSGANPipeline.predict_proba``; at float32 they match within the fused-path
tolerance contract (see EXPERIMENTS.md).

The plan owns a *clone* of the reconstruction model's RNG, snapshotted at
compile time, so serving never perturbs the pipeline's noise stream (and
vice versa): a plan compiled at state S produces the same draws the pipeline
would have produced from S.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gan.autoencoder import VanillaAutoencoder
from repro.gan.cgan import ConditionalGAN
from repro.gan.vae import ConditionalVAE
from repro.nn.workspace import Workspace
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["InferencePlan", "clone_rng", "fast_forward_rng"]


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Independent Generator starting at ``rng``'s current state."""
    new = np.random.Generator(type(rng.bit_generator)())
    new.bit_generator.state = rng.bit_generator.state
    return new


def fast_forward_rng(plan: "InferencePlan", n_values: int) -> "InferencePlan":
    """Advance a freshly compiled plan's noise stream by ``n_values`` draws.

    ``Generator.standard_normal`` produces one sequential value stream:
    drawing N values in chunks yields the same values *and* final state as
    one N-value call, so discarding ``n_values`` draws lands the plan on
    exactly the state an uninterrupted plan would have reached.  The serve
    cache uses this to resume a tenant's stream after eviction or reload
    (see :class:`repro.serve.registry.PlanCache`).
    """
    remaining = int(n_values)
    if remaining < 0:
        raise ValidationError("cannot fast-forward a negative draw count")
    if remaining and plan._rng is None:
        raise ValidationError("plan has no RNG stream to fast-forward")
    if remaining:
        scratch = np.empty(min(remaining, 65536), dtype=np.float64)
        while remaining > 0:
            chunk = min(remaining, scratch.size)
            plan._rng.standard_normal(out=scratch[:chunk])
            remaining -= chunk
    plan.rng_draws = int(n_values)
    return plan


class InferencePlan:
    """Preallocated batch scorer compiled from a fitted :class:`FSGANPipeline`.

    Stage buffers live in a plan-owned :class:`Workspace`; after the first
    batch of a given size the plan allocates nothing but the downstream
    model's own output.  Build via :meth:`FSGANPipeline.compile`.
    """

    def __init__(self, pipeline, *, n_draws: int = 1) -> None:
        check_is_fitted(pipeline, "model_")
        if not hasattr(pipeline.model_, "predict_proba"):
            raise ValidationError("the downstream model has no predict_proba")
        if n_draws < 1:
            raise ValidationError("n_draws must be >= 1")
        self.n_draws = int(n_draws)
        self._ws = Workspace()

        scaler = pipeline.scaler_
        self._lo, self._hi = scaler.feature_range
        self._data_min = scaler.data_min_
        self._scale = scaler._scale
        self._constant = scaler._scale == 0.0
        self._any_constant = bool(np.any(self._constant))

        separator = pipeline.separator_
        self._inv_idx = np.ascontiguousarray(separator.invariant_indices_)
        self._var_idx = np.ascontiguousarray(separator.variant_indices_)
        self._n_features = int(separator.n_features_)
        self._n_inv = int(self._inv_idx.shape[0])
        self._n_var = int(self._var_idx.shape[0])

        self.model = pipeline.model_
        self.drift_tracker = None
        self._recon = pipeline.reconstructor_.model_
        rng = getattr(self._recon, "_rng", None)
        self._rng = clone_rng(rng) if rng is not None else None
        #: standard-normal values drawn from ``_rng`` since compile — the
        #: plan's position in the artifact's noise stream.  Because numpy's
        #: Generator produces normals as one sequential value stream, a
        #: fresh plan fast-forwarded by this count lands on the identical
        #: RNG state (see ``fast_forward_rng``), which is how the serve
        #: cache keeps eviction/reload bit-identical mid-stream.
        self.rng_draws = 0
        self.spec = pipeline.export_plan()

    # -- stages (each replays the live pipeline's exact ufunc sequence) ------

    def _scale_stage(self, X: np.ndarray) -> np.ndarray:
        ws = self._ws
        out = ws.get("scaled", X.shape)
        # same op order as MinMaxScaler.transform: lo + (X - min) * scale
        np.subtract(X, self._data_min, out=out)
        np.multiply(out, self._scale, out=out)
        np.add(out, self._lo, out=out)
        if self._any_constant:
            out[:, self._constant] = (self._lo + self._hi) / 2.0
        return out

    def _split_stage(self, Xs: np.ndarray) -> np.ndarray:
        inv = self._ws.get("inv", (Xs.shape[0], self._n_inv))
        np.take(Xs, self._inv_idx, axis=1, out=inv)
        return inv

    def _recon_network(self):
        """``(network, code width)`` the reconstruction stage runs.

        The code width is the noise/latent columns appended per draw (0:
        no draws); the network is None for the identity reconstructor.
        """
        recon = self._recon
        if isinstance(recon, ConditionalGAN):
            return recon.generator_, recon.noise_dim
        if isinstance(recon, ConditionalVAE):
            return recon.decoder_, recon.latent_dim
        if isinstance(recon, VanillaAutoencoder):
            return recon.network_, 0
        return None, 0

    def _reconstruct_stage(self, X_inv: np.ndarray, sizes,
                           rows: int) -> np.ndarray:
        """Variant block for ``rows`` rows whose leading rows are requests.

        ``sizes`` are the row counts of the request segments stacked at the
        top of ``X_inv``; the rows after them are padding.  Noise is drawn
        per segment in list order — one ``n_draws * n`` block per request,
        the exact RNG consumption of scoring the requests one by one — and
        the padding rows get no draws.  The one-shot plan is the
        one-segment, no-padding call.
        """
        ws, n_draws, n_var = self._ws, self.n_draws, self._n_var
        network, code_dim = self._recon_network()
        if code_dim:
            dt = getattr(self._recon, "_dtype", np.dtype(np.float64))
            n_inv = self._n_inv
            g_in = ws.get("g_in", (n_draws * rows, n_inv + code_dim), dt)
            z = ws.get("z", (n_draws * rows, code_dim), np.float64)
            off = 0
            for n in sizes:
                block = slice(n_draws * off, n_draws * (off + n))
                self._rng.standard_normal(out=z[block])
                self.rng_draws += n_draws * n * code_dim
                for d in range(n_draws):
                    g_off = n_draws * off + d * n
                    g_in[g_off:g_off + n, :n_inv] = X_inv[off:off + n]
                g_in[block, n_inv:] = z[block]
                off += n
            g_in[n_draws * off:] = 0.0
            out = network.forward(g_in, training=False)
            var_hat = ws.zeros("var_hat", (rows, n_var))
            off = 0
            for n in sizes:
                draws = out[n_draws * off:n_draws * (off + n)].reshape(
                    n_draws, n, n_var
                )
                total = var_hat[off:off + n]
                # sequential accumulate — same add order as
                # ConditionalGAN.generate
                for d in range(n_draws):
                    total += draws[d]
                total /= n_draws
                off += n
            return var_hat
        if network is not None:  # autoencoder: deterministic, no draws
            out = network.forward(X_inv, training=False)
            var_hat = ws.get("var_hat", (rows, n_var))
            var_hat[...] = out
            return var_hat
        # identity reconstructor (empty variant block)
        return ws.zeros("var_hat", (rows, n_var))

    def _merge_stage(self, X_inv: np.ndarray, X_var: np.ndarray) -> np.ndarray:
        merged = self._ws.get("merged", (X_inv.shape[0], self._n_features))
        merged[:, self._inv_idx] = X_inv
        merged[:, self._var_idx] = X_var
        return merged

    # -- public surface ------------------------------------------------------

    def attach_drift_tracker(self, tracker) -> "InferencePlan":
        """Stream every scaled batch into ``tracker`` (see ``repro.obs.drift``).

        The tracker scores the live input distribution against its
        reference (PSI/KS gauges, ``drift.alarm`` events).  Detach with
        ``attach_drift_tracker(None)``.
        """
        self.drift_tracker = tracker
        return self

    def transform(self, X) -> np.ndarray:
        """Source-like samples in scaled space (the pipeline's Eq. 11 path).

        Returns a workspace buffer, valid until the next call.
        """
        X = check_array(X)
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        tracer = get_tracer()
        registry = get_metrics()
        if not registry.enabled:  # fast path: spans only
            with tracer.span("serve.scale", n_samples=X.shape[0]):
                Xs = self._scale_stage(X)
            if self.drift_tracker is not None:
                self.drift_tracker.update(Xs)
            with tracer.span("serve.split"):
                X_inv = self._split_stage(Xs)
            with tracer.span("serve.reconstruct", n_draws=self.n_draws):
                X_var = self._reconstruct_stage(X_inv, (len(X),), len(X))
            with tracer.span("serve.merge"):
                return self._merge_stage(X_inv, X_var)

        stage_seconds = registry.histogram  # labeled per-stage latencies
        t0 = time.perf_counter()
        with tracer.span("serve.scale", n_samples=X.shape[0]):
            Xs = self._scale_stage(X)
        t1 = time.perf_counter()
        stage_seconds("serve.stage_seconds", stage="scale").observe(t1 - t0)
        if self.drift_tracker is not None:
            self.drift_tracker.update(Xs)
            t1 = time.perf_counter()
        with tracer.span("serve.split"):
            X_inv = self._split_stage(Xs)
        t2 = time.perf_counter()
        stage_seconds("serve.stage_seconds", stage="split").observe(t2 - t1)
        with tracer.span("serve.reconstruct", n_draws=self.n_draws):
            X_var = self._reconstruct_stage(X_inv, (len(X),), len(X))
        t3 = time.perf_counter()
        stage_seconds("serve.stage_seconds", stage="generate").observe(t3 - t2)
        with tracer.span("serve.merge"):
            merged = self._merge_stage(X_inv, X_var)
        stage_seconds("serve.stage_seconds", stage="merge").observe(
            time.perf_counter() - t3
        )
        return merged

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities; bit-identical (float64) to the live pipeline."""
        registry = get_metrics()
        t0 = time.perf_counter() if registry.enabled else 0.0
        with get_tracer().span("serve.batch", n_samples=len(X)):
            merged = self.transform(X)
            t1 = time.perf_counter() if registry.enabled else 0.0
            with get_tracer().span("serve.predict"):
                proba = self.model.predict_proba(merged)
        if registry.enabled:
            now = time.perf_counter()
            registry.histogram("serve.stage_seconds", stage="predict").observe(
                now - t1
            )
            registry.counter("serve.batches_total").inc()
            registry.counter("serve.rows_total").inc(len(X))
            registry.histogram("serve.latency").observe(now - t0)
        return proba

    def predict(self, X) -> np.ndarray:
        """Predicted labels (argmax of :meth:`predict_proba`)."""
        proba = self.predict_proba(X)
        codes = np.argmax(proba, axis=1)
        classes = getattr(self.model, "classes_", None)
        return classes[codes] if classes is not None else codes
