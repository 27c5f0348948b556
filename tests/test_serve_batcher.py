"""Micro-batch bit-identity: the daemon's load-bearing contract.

Coalesced mixed-size micro-batches must score bit-identically to
per-request execution — across coalescing patterns, tenants, draw counts
and cache evict/reload mid-stream.
"""

import shutil
import threading

import numpy as np
import pytest

from repro.core import FSGANPipeline, ReconstructionConfig
from repro.core.artifacts import save_artifact
from repro.ml import MLPClassifier
from repro.obs.trace import Tracer, use_tracer
from repro.serve import MicroBatcher, PaddedExecutor, PlanCache
from repro.serve import batcher as batcher_mod
from repro.serve.batcher import DEFAULT_CAPACITY, TILE_ROWS
from repro.utils.errors import ValidationError

CAP = 64


def _segments(X_test, sizes):
    cuts = np.cumsum([0] + list(sizes))
    return [X_test[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _fresh_executor(root, name, n_draws=1, rows=CAP):
    cache = PlanCache(root, capacity=8, n_draws=n_draws, micro_batch_rows=rows)
    return cache.get(name).executor


def _executed_rows(executor):
    """Record the row count of every downstream predict the executor runs."""
    seen = []
    model = executor.plan.model
    predict = model.predict_proba

    def recording(X):
        seen.append(X.shape[0])
        return predict(X)

    model.predict_proba = recording
    return seen


class TestPaddedExecutorEquivalence:
    @pytest.mark.parametrize("pattern", [
        [(5, 1, 14, 3, 9)],                  # one coalesced batch
        [(5, 1, 14), (3, 9)],                # two batches
        [(5,), (1,), (14,), (3,), (9,)],     # fully per-request
        [(5, 1), (14,), (3, 9)],             # mixed
    ])
    def test_patterns_agree(self, tenant_root, pattern):
        root, names, X_test = tenant_root
        sizes = [n for group in pattern for n in group]
        segments = _segments(X_test, sizes)
        reference = None
        executor = _fresh_executor(root, names[0])
        got, i = [], 0
        for group in pattern:
            batch = [executor.check_request(s)
                     for s in segments[i:i + len(group)]]
            got.extend(executor.score(batch))
            i += len(group)
        other = _fresh_executor(root, names[0])
        reference = [other.score([other.check_request(s)])[0]
                     for s in segments]
        for a, b in zip(got, reference):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("strategy,n_draws", [
        ("gan", 3), ("vae", 2), ("autoencoder", 1), ("nocond", 2),
    ])
    def test_strategies_and_draws(self, tiny_5gc, tmp_path, strategy, n_draws):
        X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
        pipe = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(16,), epochs=8, random_state=0),
            reconstruction_config=ReconstructionConfig(
                strategy=strategy, epochs=2, noise_dim=2, hidden_size=8),
            random_state=0,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        save_artifact(pipe, str(tmp_path / "t.npz"))
        segments = _segments(X_test, (7, 1, 12, 2))
        ex1 = _fresh_executor(tmp_path, "t", n_draws)
        coalesced = ex1.score([ex1.check_request(s) for s in segments])
        ex2 = _fresh_executor(tmp_path, "t", n_draws)
        for got, seg in zip(coalesced, segments):
            np.testing.assert_array_equal(
                got, ex2.score([ex2.check_request(seg)])[0])

    def test_single_row_requests(self, tenant_root):
        root, names, X_test = tenant_root
        segments = _segments(X_test, [1] * 6)
        ex1 = _fresh_executor(root, names[0])
        coalesced = ex1.score([ex1.check_request(s) for s in segments])
        ex2 = _fresh_executor(root, names[0])
        for got, seg in zip(coalesced, segments):
            np.testing.assert_array_equal(
                got, ex2.score([ex2.check_request(seg)])[0])


class TestTilePadding:
    def test_executed_rows_round_up_to_the_tile(self, tenant_root,
                                                monkeypatch):
        monkeypatch.setattr(batcher_mod, "tile_rows_stable",
                            lambda *args: True)
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        assert executor.tile == TILE_ROWS
        seen = _executed_rows(executor)
        X = np.repeat(X_test, 2, axis=0)
        for m in (1, TILE_ROWS, TILE_ROWS + 1, CAP):
            executor.score([executor.check_request(X[:m])])
            assert seen[-1] == -(-m // TILE_ROWS) * TILE_ROWS
            assert executor.padded_rows(m) == seen[-1]

    def test_span_tags_live_and_padded_rows(self, tenant_root):
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        tracer = Tracer()
        with use_tracer(tracer):
            executor.score([executor.check_request(X_test[:3])])
        span = tracer.find("daemon.micro_batch")
        assert span.tags["rows"] == 3
        assert span.tags["padded_rows"] == executor.padded_rows(3)

    def test_failed_probe_pads_to_capacity(self, tenant_root, monkeypatch):
        monkeypatch.setattr(batcher_mod, "tile_rows_stable",
                            lambda *args: False)
        root, names, X_test = tenant_root
        ex1 = _fresh_executor(root, names[0])
        assert ex1.tile == CAP
        seen = _executed_rows(ex1)
        segments = _segments(X_test, (5, 1, 17, 3))
        coalesced = ex1.score([ex1.check_request(s) for s in segments])
        assert seen == [CAP]
        ex2 = _fresh_executor(root, names[0])
        for got, seg in zip(coalesced, segments):
            np.testing.assert_array_equal(
                got, ex2.score([ex2.check_request(seg)])[0])
        assert ex2.padded_rows(1) == CAP

    def test_small_capacity_skips_the_probe(self, tenant_root, monkeypatch):
        def fail(*args):
            raise AssertionError("probe must not run")

        monkeypatch.setattr(batcher_mod, "tile_rows_stable", fail)
        root, names, _ = tenant_root
        executor = _fresh_executor(root, names[0], rows=TILE_ROWS)
        assert executor.tile == TILE_ROWS
        assert executor.padded_rows(1) == TILE_ROWS

    def test_probe_memoizes_per_shape(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(batcher_mod, "_ROW_STABLE", memo)
        batcher_mod.tile_rows_stable(7, 5, np.float64, [32, 48])
        assert set(memo) == {(7, 5, "d", 32), (7, 5, "d", 48)}
        # a known shape is answered from the memo, never probed again
        memo[(7, 5, "d", 48)] = False
        assert not batcher_mod.tile_rows_stable(7, 5, np.float64, [48])
        memo.update({key: True for key in memo})
        assert batcher_mod.tile_rows_stable(7, 5, np.float64, [32, 48])
        assert len(memo) == 2

    @pytest.mark.parametrize("n_draws", [1, 3])
    def test_random_segmentations_at_default_capacity(self, tiny_5gc,
                                                      tmp_path, n_draws):
        # preset-width generator (128 hidden -> 11 variant columns): at
        # n_draws=3 it runs up to 768 rows, where a BLAS build may not be
        # row-stable, so this covers whichever tile the probe picks
        X_few, _, X_test, _ = tiny_5gc.few_shot_split(10, random_state=0)
        pipe = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(64,), epochs=4,
                                  random_state=0),
            reconstruction_config=ReconstructionConfig(
                strategy="gan", epochs=1, noise_dim=6, hidden_size=128),
            random_state=0,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        save_artifact(pipe, str(tmp_path / "t.npz"))
        X = np.repeat(X_test, 2, axis=0)[:DEFAULT_CAPACITY]
        ex1 = _fresh_executor(tmp_path, "t", n_draws, DEFAULT_CAPACITY)
        ex2 = _fresh_executor(tmp_path, "t", n_draws, DEFAULT_CAPACITY)
        gen = np.random.default_rng(n_draws)
        for _ in range(40):
            total = int(gen.integers(1, DEFAULT_CAPACITY + 1))
            cuts = np.sort(gen.choice(np.arange(1, total),
                                      size=min(total - 1,
                                               int(gen.integers(0, 12))),
                                      replace=False))
            sizes = np.diff(np.concatenate([[0], cuts, [total]]))
            segments = _segments(X, sizes)
            coalesced = ex1.score([ex1.check_request(s) for s in segments])
            for got, seg in zip(coalesced, segments):
                np.testing.assert_array_equal(
                    got, ex2.score([ex2.check_request(seg)])[0])
        assert ex1.plan.rng_draws == ex2.plan.rng_draws


class TestPaddedExecutorValidation:
    def test_rejects_wrong_width(self, tenant_root):
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        with pytest.raises(ValidationError, match="features"):
            executor.check_request(X_test[:3, :-1])

    def test_rejects_oversized_request(self, tenant_root):
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        big = np.repeat(X_test, 5, axis=0)[:CAP + 1]
        with pytest.raises(ValidationError, match="capacity"):
            executor.check_request(big)

    def test_rejects_overfull_batch(self, tenant_root):
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        seg = executor.check_request(X_test[:CAP])
        with pytest.raises(ValidationError, match="capacity"):
            executor.score([seg, seg])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, tenant_root, bad):
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        X = X_test[:3].copy()
        X[1, 2] = bad
        with pytest.raises(ValidationError, match="NaN or infinite"):
            executor.check_request(X)

    def test_one_dim_request_becomes_row(self, tenant_root):
        root, names, X_test = tenant_root
        executor = _fresh_executor(root, names[0])
        assert executor.check_request(X_test[0]).shape == (1, X_test.shape[1])


class TestEvictReloadMidStream:
    def test_eviction_continues_rng_stream(self, tenant_root, tmp_path):
        """Evict-then-reload mid-stream fast-forwards to the same position.

        A dropped entry's noise-stream position is remembered per tenant;
        reloading the unchanged bundle resumes the stream exactly where it
        left off, so evict-reload is bit-identical to never evicting.
        """
        root, names, X_test = tenant_root
        for name in names[:2]:
            shutil.copy(root / f"{name}.npz", tmp_path / f"{name}.npz")
        X = X_test[:6]

        # reference: one uninterrupted cache scoring three passes
        ref_cache = PlanCache(tmp_path, capacity=8, micro_batch_rows=CAP)
        ex = ref_cache.get(names[0]).executor
        reference = [ex.score([ex.check_request(X)])[0] for _ in range(3)]
        assert np.any(reference[0] != reference[1])  # RNG moves on

        # capacity-1 cache: tenant 0 is evicted between pass 2 and pass 3
        cache = PlanCache(tmp_path, capacity=1, micro_batch_rows=CAP)
        ex = cache.get(names[0]).executor
        got = [ex.score([ex.check_request(X)])[0] for _ in range(2)]
        cache.get(names[1])  # capacity-1 cache: evicts tenant 0
        assert cache.loaded_tenants() == [names[1]]
        ex = cache.get(names[0]).executor  # reload fast-forwards the stream
        assert cache.misses == 3
        assert cache.rng_fast_forwards == 1
        got.append(ex.score([ex.check_request(X)])[0])
        for a, b in zip(got, reference):
            np.testing.assert_array_equal(a, b)

    def test_batcher_continues_across_reload(self, tenant_root, tmp_path):
        """The reloaded stream continues — no replay of earlier draws."""
        root, names, X_test = tenant_root
        for name in names[:2]:
            shutil.copy(root / f"{name}.npz", tmp_path / f"{name}.npz")

        ref_cache = PlanCache(tmp_path, capacity=8, micro_batch_rows=CAP)
        with MicroBatcher(ref_cache, max_wait=0.0) as batcher:
            ref_a = batcher.score(names[0], X_test[:4])
            ref_b = batcher.score(names[0], X_test[:4])

        cache = PlanCache(tmp_path, capacity=1, micro_batch_rows=CAP)
        with MicroBatcher(cache, max_wait=0.0) as batcher:
            a = batcher.score(names[0], X_test[:4])
            batcher.score(names[1], X_test[:2])   # evicts tenant 0
            b = batcher.score(names[0], X_test[:4])  # reload + fast-forward
        np.testing.assert_array_equal(a, ref_a)
        np.testing.assert_array_equal(b, ref_b)

    def test_new_artifact_version_resets_stream(self, tenant_root, tmp_path):
        """A changed content hash starts the new artifact's stream fresh."""
        root, names, X_test = tenant_root
        shutil.copy(root / f"{names[0]}.npz", tmp_path / f"{names[0]}.npz")
        X = X_test[:6]

        cache = PlanCache(tmp_path, capacity=8, micro_batch_rows=CAP)
        ex = cache.get(names[0]).executor
        first = ex.score([ex.check_request(X)])[0]
        ex.score([ex.check_request(X)])  # advance the stream
        cache.invalidate(names[0])  # position remembered

        # swap in a different bundle under the same tenant name
        shutil.copy(root / f"{names[1]}.npz", tmp_path / f"{names[0]}.npz")
        ex = cache.get(names[0]).executor
        swapped = ex.score([ex.check_request(X)])[0]
        assert cache.rng_fast_forwards == 0  # hash changed: no resume

        # and rolling back to the original bundle replays from its start
        shutil.copy(root / f"{names[0]}.npz", tmp_path / f"{names[0]}.npz")
        ex = cache.get(names[0]).executor
        rolled_back = ex.score([ex.check_request(X)])[0]
        assert np.any(first != swapped)
        np.testing.assert_array_equal(rolled_back, first)


class TestMicroBatcher:
    def test_coalesces_queued_requests(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache, max_wait=0.0)
        # enqueue before starting the scorer so the first batch coalesces
        pendings = [batcher.submit(names[0], X_test[i:i + 2])
                    for i in range(0, 12, 2)]
        batcher.start()
        results = [p.result(10.0) for p in pendings]
        batcher.stop()
        assert batcher.batches < len(pendings)
        fresh = _fresh_executor(root, names[0])
        for pending, got in zip(pendings, results):
            np.testing.assert_array_equal(
                got, fresh.score([fresh.check_request(pending.X)])[0])

    def test_seq_is_per_tenant_admission_order(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        with MicroBatcher(cache) as batcher:
            a0 = batcher.submit(names[0], X_test[:1])
            b0 = batcher.submit(names[1], X_test[:1])
            a1 = batcher.submit(names[0], X_test[:1])
            for p in (a0, b0, a1):
                p.result(10.0)
        assert (a0.seq, a1.seq, b0.seq) == (0, 1, 0)

    def test_concurrent_submitters_stay_bit_identical(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        results: dict[tuple, np.ndarray] = {}
        lock = threading.Lock()

        def client(tenant, offsets):
            for off in offsets:
                X = X_test[off:off + 1 + off % 4]
                pending = batcher.submit(tenant, X)
                proba = pending.result(10.0)
                with lock:
                    results[(tenant, pending.seq)] = (X, proba)

        with MicroBatcher(cache, max_wait=0.001) as batcher:
            threads = [
                threading.Thread(target=client,
                                 args=(names[t % 2], range(8 * w, 8 * w + 8)))
                for w, t in enumerate(range(4))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # replay every tenant's stream per-request in seq order
        for tenant in names[:2]:
            executor = _fresh_executor(root, tenant)
            items = sorted((seq, X, proba)
                           for (who, seq), (X, proba) in results.items()
                           if who == tenant)
            assert [seq for seq, _, _ in items] == list(range(len(items)))
            for _seq, X, proba in items:
                np.testing.assert_array_equal(
                    proba, executor.score([executor.check_request(X)])[0])

    def test_no_coalesce_mode_scores_singly(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache, coalesce=False)
        pendings = [batcher.submit(names[0], X_test[i:i + 2])
                    for i in range(0, 8, 2)]
        batcher.start()
        for p in pendings:
            p.result(10.0)
        batcher.stop()
        assert batcher.batches == len(pendings)

    def test_non_finite_request_fails_alone_at_submit(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache, max_wait=0.0)
        plan = cache.get(names[0]).plan
        bad = X_test[:2].copy()
        bad[0, 0] = np.nan
        before = batcher.submit(names[0], X_test[:3])
        with pytest.raises(ValidationError, match="NaN"):
            batcher.submit(names[0], bad)
        after = batcher.submit(names[0], X_test[3:5])
        assert plan.rng_draws == 0
        batcher.start()
        results = [before.result(10.0), after.result(10.0)]
        batcher.stop()
        assert (before.seq, after.seq) == (0, 1)
        fresh = _fresh_executor(root, names[0])
        for pending, got in zip((before, after), results):
            np.testing.assert_array_equal(
                got, fresh.score([fresh.check_request(pending.X)])[0])

    def test_submit_after_stop_raises(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache).start()
        batcher.stop()
        with pytest.raises(ValidationError, match="stopped"):
            batcher.submit(names[0], X_test[:1])

    def test_stop_drains_queued_work(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache, max_wait=0.0)
        pendings = [batcher.submit(names[0], X_test[i:i + 1])
                    for i in range(10)]
        batcher.start()
        batcher.stop()
        for p in pendings:
            assert p.result(0.0) is not None
