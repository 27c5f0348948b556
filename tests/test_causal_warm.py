"""Warm-start incremental re-discovery tests (ISSUE 9).

Covers the persistent CI-statistics cache (:class:`CIStatCache`), the
serialized :class:`WarmState`, :meth:`FNodeDiscovery.rediscover` in both
``exact`` and ``confirm`` modes against the cold baseline across every
fan-out path, the guard-mismatch cold fallbacks, the ``fs.cache.*`` metric
export, the intra-level wall-clock deadline fix, the deduplicated
:func:`ks_pvalue` tails, the ``--warm`` benchmark runner + oracle, the
packed artifact layout of the cache (bit-identical round trips, a member
count that does not grow with the cache, content-hash coverage) and the
cold fallback for a warm block of an older version.
"""

import logging
import zipfile

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.causal import (
    CIStatCache,
    FNodeDiscovery,
    WarmState,
    matrix_fingerprint,
)
from repro.causal.ci_tests import KS_PVALUE_MODES, ks_pvalue
from repro.causal.engine import DEADLINE_CHUNK, CIEngine
from repro.core.artifacts import (
    _MANIFEST_KEY,
    _content_hash,
    load_artifact,
    save_artifact,
)
from repro.core.config import FSConfig
from repro.core.estimator import decode_json, encode_json
from repro.core.feature_separation import FeatureSeparator
from repro.experiments.bench import check_fs_record, make_wide_pair, run_bench_warm
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.utils.errors import ArtifactError, ConfigurationError, ValidationError

WIDTH = 39


def clone_warm(warm: WarmState) -> WarmState:
    """Isolated copy so tests cannot couple through the live cache."""
    return WarmState.from_state(warm.state_dict(include_residuals=True))


@pytest.fixture(scope="module")
def pair():
    return make_wide_pair(WIDTH, n_source=240, n_target=96, random_state=3)


@pytest.fixture(scope="module")
def warm_setup(pair):
    """(Xs, Xt, prior WarmState at 72 rows, cold result at 96 rows)."""
    Xs, Xt = pair
    prior = FNodeDiscovery()
    prior.discover(Xs, Xt[:72])
    cold = FNodeDiscovery().discover(Xs, Xt)
    return Xs, Xt, prior.warm_state_, cold


class TestMatrixFingerprint:
    def test_ignores_input_dtype_and_layout(self, rng):
        X = rng.standard_normal((20, 5))
        base = matrix_fingerprint(X)
        assert matrix_fingerprint(np.asfortranarray(X)) == base
        assert matrix_fingerprint(X.astype(np.float32).astype(np.float64)) != base
        assert matrix_fingerprint(X.copy()) == base

    def test_detects_any_change(self, rng):
        X = rng.standard_normal((20, 5))
        Y = X.copy()
        Y[13, 2] += 1e-12
        assert matrix_fingerprint(Y) != matrix_fingerprint(X)
        assert matrix_fingerprint(X[:19]) != matrix_fingerprint(X)


class TestKsPvalue:
    def test_exact_matches_scipy_asymp_bitwise(self, rng):
        for n, m in ((480, 120), (480, 24), (50, 7)):
            a, b = rng.standard_normal(n), 0.3 + rng.standard_normal(m)
            d, p_ref = scipy_stats.ks_2samp(a, b, method="asymp")
            assert float(ks_pvalue(d, n, m, mode="exact")) == p_ref

    def test_stephens_is_close_but_distinct(self, rng):
        a, b = rng.standard_normal(200), 0.2 + rng.standard_normal(60)
        d, _ = scipy_stats.ks_2samp(a, b, method="asymp")
        exact = float(ks_pvalue(d, 200, 60, mode="exact"))
        steph = float(ks_pvalue(d, 200, 60, mode="stephens"))
        assert 0.0 <= steph <= 1.0
        assert steph == pytest.approx(exact, abs=5e-3)

    def test_vectorized_and_mode_validation(self):
        d = np.array([0.1, 0.5, 0.9])
        out = ks_pvalue(d, 100, 30, mode="exact")
        assert out.shape == d.shape
        assert np.all(np.diff(out) < 0)  # larger D, smaller tail
        assert "exact" in KS_PVALUE_MODES
        with pytest.raises(ValidationError):
            ks_pvalue(0.3, 100, 30, mode="approximate")


class TestCIStatCache:
    def test_entry_accessors_and_counts(self, rng):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64",
                            source_fingerprint="fp")
        cols = (1, 4)
        factor = (rng.standard_normal((2, 2)), True)
        cache.put_factor(cols, factor)
        cache.put_beta(cols, 7, rng.standard_normal(2))
        cache.put_residual(cols, 7, rng.standard_normal(30))
        assert cache.n_entries == 3
        assert cache.get_factor(cols)[1] is True
        assert cache.get_beta(cols, 7).shape == (2,)
        assert cache.get_beta(cols, 8) is None
        assert cache.get_factor((9,)) is None

    def test_matches_and_invalidate(self):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float32",
                            source_fingerprint="fp")
        cache.put_beta((0,), 1, np.zeros(1))
        assert cache.matches(ridge=1e-3, stats_dtype="float32",
                             source_fingerprint="fp")
        assert not cache.matches(ridge=1e-2, stats_dtype="float32",
                                 source_fingerprint="fp")
        assert not cache.matches(ridge=1e-3, stats_dtype="float32",
                                 source_fingerprint="other")
        assert cache.invalidate() == 1
        assert cache.n_entries == 0
        assert cache.invalidations == 1

    def test_state_roundtrip(self, rng):
        cache = CIStatCache(ridge=2e-3, stats_dtype="float32",
                            source_fingerprint="abc")
        cache.put_factor((2, 5), (rng.standard_normal((2, 2)), False))
        cache.put_beta((2, 5), 3, rng.standard_normal(2))
        cache.put_residual((2, 5), 3, rng.standard_normal(12))
        lean = CIStatCache.from_state(cache.state_dict())
        assert lean.matches(ridge=2e-3, stats_dtype="float32",
                            source_fingerprint="abc")
        np.testing.assert_array_equal(
            lean.get_factor((2, 5))[0], cache.get_factor((2, 5))[0])
        np.testing.assert_array_equal(
            lean.get_beta((2, 5), 3), cache.get_beta((2, 5), 3))
        assert lean.get_residual((2, 5), 3) is None  # dropped by default
        full = CIStatCache.from_state(cache.state_dict(include_residuals=True))
        np.testing.assert_array_equal(
            full.get_residual((2, 5), 3), cache.get_residual((2, 5), 3))

    def test_portable_roundtrip(self, rng):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64",
                            source_fingerprint="xyz")
        cache.put_factor((1,), (rng.standard_normal((1, 1)), True))
        back = CIStatCache.from_portable(cache.to_portable())
        assert back.source_fingerprint == "xyz"
        np.testing.assert_array_equal(
            back.get_factor((1,))[0], cache.get_factor((1,))[0])

    def test_multi_rhs_engine_rejects_cache(self, pair):
        Xs, Xt = pair
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64")
        with pytest.raises(ValidationError):
            CIEngine(Xs, Xt, multi_rhs=True, stat_cache=cache)


class TestRediscover:
    def test_exact_mode_matches_cold(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        res = FNodeDiscovery().rediscover(Xs, Xt, clone_warm(warm), mode="exact")
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)
        assert res.coverage == 1.0

    def test_confirm_mode_matches_cold_with_fewer_tests(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        res = FNodeDiscovery().rediscover(
            Xs, Xt, clone_warm(warm), mode="confirm")
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)
        assert res.n_tests < cold.n_tests

    @pytest.mark.parametrize("shm", [False, True])
    def test_parallel_paths_match_cold(self, warm_setup, shm):
        Xs, Xt, warm, cold = warm_setup
        res = FNodeDiscovery(n_jobs=2, use_shared_memory=shm).rediscover(
            Xs, Xt, clone_warm(warm), mode="confirm")
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)

    def test_identical_rerun_short_circuits(self, warm_setup):
        Xs, Xt, _, cold = warm_setup
        prior = FNodeDiscovery()
        prior.discover(Xs, Xt)
        res = FNodeDiscovery().rediscover(
            Xs, Xt, prior.warm_state_, mode="confirm")
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)
        # nothing drifted: only the near-threshold marginals and one
        # confirmation test per variant feature re-run
        assert res.n_tests < cold.n_tests / 2

    def test_changed_source_falls_back_cold_and_invalidates(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        warm = clone_warm(warm)
        assert warm.cache.n_entries > 0
        Xs2 = Xs + 0.01  # same shape, different bytes
        cold2 = FNodeDiscovery().discover(Xs2, Xt)
        res = FNodeDiscovery().rediscover(Xs2, Xt, warm, mode="confirm")
        np.testing.assert_array_equal(res.variant_indices, cold2.variant_indices)
        np.testing.assert_array_equal(res.p_values, cold2.p_values)
        assert res.n_tests == cold2.n_tests  # full cold work was re-done
        assert warm.cache.n_entries == 0
        assert warm.cache.invalidations > 0

    def test_param_mismatch_degrades_confirm_to_exact(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        disc = FNodeDiscovery(alpha=0.05)  # differs from the producing run
        cold = FNodeDiscovery(alpha=0.05).discover(Xs, Xt)
        res = disc.rediscover(Xs, Xt, clone_warm(warm), mode="confirm")
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)

    def test_budgeted_run_degrades_confirm_and_reports_coverage(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        disc = FNodeDiscovery(budget=2)
        res = disc.rediscover(Xs, Xt, clone_warm(warm), mode="confirm")
        assert 0.0 <= res.coverage < 1.0

    def test_warm_state_accumulates_on_every_run(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        disc = FNodeDiscovery()
        res = disc.rediscover(Xs, Xt, clone_warm(warm), mode="exact")
        state = disc.warm_state_
        assert state is not None
        assert state.priors is res
        assert state.n_features == WIDTH
        assert state.source_fingerprint == matrix_fingerprint(Xs)
        assert state.cache is not None and state.cache.n_entries > 0
        assert state.params == disc._params_key()

    def test_mode_and_warm_validation(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        with pytest.raises(ValidationError):
            FNodeDiscovery().rediscover(Xs, Xt, clone_warm(warm), mode="fast")
        with pytest.raises(ValidationError):
            FNodeDiscovery().rediscover(Xs, Xt, None)

    def test_result_carries_marginal_p_values(self, warm_setup):
        Xs, Xt, _, cold = warm_setup
        assert cold.marginal_p_values is not None
        assert cold.marginal_p_values.shape == cold.p_values.shape
        # the best-p search can only raise p above the marginal
        assert np.all(cold.p_values >= cold.marginal_p_values - 1e-12)


class TestWarmMetrics:
    def test_fs_cache_counters_exported(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            FNodeDiscovery().rediscover(Xs, Xt, clone_warm(warm), mode="exact")
        finally:
            set_metrics(previous)
        names = registry.names()
        for kind in ("design", "beta", "warm"):
            assert f"fs.cache.hits_total{{cache={kind}}}" in names
            assert f"fs.cache.misses_total{{cache={kind}}}" in names
        assert "fs.cache.invalidated_total{cache=warm}" in names
        warm_hits = registry.counter("fs.cache.hits_total", cache="warm")
        assert warm_hits.value > 0  # the prior run's entries were reused

    def test_invalidations_counted(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            FNodeDiscovery().rediscover(
                Xs + 0.5, Xt, clone_warm(warm), mode="exact")
        finally:
            set_metrics(previous)
        dropped = registry.counter("fs.cache.invalidated_total", cache="warm")
        assert dropped.value > 0


class _FakeClock:
    """perf_counter advancing one second per call (deterministic deadlines)."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


class TestIntraLevelDeadline:
    def _engine(self, rng):
        # feature 0 genuinely variant (mean shift), 40 independent noise
        # candidates: no conditioning subset ever separates it, so a full
        # size-1 level is 40 subsets = two DEADLINE_CHUNK batches
        Xs = rng.standard_normal((200, 41))
        Xt = rng.standard_normal((60, 41))
        Xt[:, 0] += 3.0
        return CIEngine(Xs, Xt)

    def test_deadline_breaks_inside_a_level(self, rng, monkeypatch):
        import repro.causal.engine as engine_mod

        engine = self._engine(rng)
        clock = _FakeClock()
        monkeypatch.setattr(engine_mod.time, "perf_counter", clock.perf_counter)
        _, _, n_tests, _, completed = engine.search_feature(
            0, tuple(range(1, 41)), 0.0, alpha=0.01, max_cond_size=1,
            deadline=2.5,
        )
        assert not completed
        assert 0 < n_tests <= DEADLINE_CHUNK  # stopped after one batch

    def test_no_deadline_still_runs_single_batch(self, rng):
        engine = self._engine(rng)
        best_p, _, n_tests, _, completed = engine.search_feature(
            0, tuple(range(1, 41)), 0.0, alpha=0.01, max_cond_size=1,
        )
        assert completed
        assert n_tests == 40  # nothing separates: the whole level runs
        assert best_p < 0.01


class TestSeparatorWarmMode:
    def test_invalid_warm_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FSConfig(warm_mode="fastest")

    def test_off_mode_runs_cold_but_still_captures_state(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        sep = FeatureSeparator(FSConfig(warm_mode="off"))
        sep.fit(Xs, Xt, warm=clone_warm(warm))
        np.testing.assert_array_equal(
            sep.result_.variant_indices, cold.variant_indices)
        assert sep.result_.n_tests == cold.n_tests
        assert sep.warm_state_ is not None

    def test_fit_with_warm_matches_cold(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        sep = FeatureSeparator(FSConfig(warm_mode="confirm"))
        sep.fit(Xs, Xt, warm=clone_warm(warm))
        np.testing.assert_array_equal(
            sep.result_.variant_indices, cold.variant_indices)
        assert sep.result_.n_tests < cold.n_tests


class TestBenchWarm:
    @pytest.fixture(scope="class")
    def record(self):
        records = run_bench_warm(
            (24,), n_jobs=1, fs_rounds=1,
            n_source=240, n_target=80, n_prior=56,
        )
        assert len(records) == 1
        return records[0]

    def test_record_is_equivalent_and_oracle_clean(self, record):
        assert record["equivalent"] is True
        assert record["dataset"] == "warm"
        assert record["speedup"] > 0
        assert record["after"]["n_ci_tests"] <= record["before"]["n_ci_tests"]
        assert check_fs_record(record) == []

    def test_oracle_flags_tampered_records(self, record):
        bad = dict(record)
        bad["serial_equal"] = False
        assert any("serial_equal" in p for p in check_fs_record(bad))
        bad = dict(record)
        bad["after"] = dict(record["after"],
                            n_ci_tests=record["before"]["n_ci_tests"] + 1)
        assert any("more tests" in p for p in check_fs_record(bad))

    def test_report_formats(self, record):
        from repro.experiments.reporting import format_bench_warm

        text = format_bench_warm([record])
        assert "Warm-start" in text and "yes" in text


def _assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _rewrite_bundle(path, out, arrays_update, *, rehash=True):
    """Rewrite a bundle's members; optionally recompute its content hash."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    manifest = decode_json(arrays.pop(_MANIFEST_KEY))
    arrays = arrays_update(arrays)
    if rehash:
        manifest["content_hash"] = _content_hash(arrays)
    arrays[_MANIFEST_KEY] = encode_json(manifest)
    np.savez_compressed(out, **arrays)
    return out


def _v1_warm_block(warm: WarmState) -> dict:
    """A warm block in the version-1 layout: one member per factor/beta."""
    state = warm.state_dict()
    block = {k: v for k, v in state.items() if not k.startswith("cache.")}
    meta = decode_json(state["__meta__"])
    meta["version"] = 1
    block["__meta__"] = encode_json(meta)
    cache = warm.cache
    factor_cols = sorted(cache.factors)
    beta_keys = sorted((c, j) for c, per in cache.betas.items() for j in per)
    block["cache.__meta__"] = encode_json({
        "version": 1,
        "ridge": cache.ridge,
        "stats_dtype": cache.stats_dtype,
        "source_fingerprint": cache.source_fingerprint,
        "invalidations": 0,
        "factor_cols": [list(c) for c in factor_cols],
        "factor_lower": [bool(cache.factors[c][1]) for c in factor_cols],
        "beta_keys": [[list(c), int(j)] for c, j in beta_keys],
        "residual_keys": [],
    })
    for i, cols in enumerate(factor_cols):
        block[f"cache.factor.{i}"] = np.ascontiguousarray(cache.factors[cols][0])
    for i, (cols, j) in enumerate(beta_keys):
        block[f"cache.beta.{i}"] = np.ascontiguousarray(cache.betas[cols][j])
    return block


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestPackedLayout:
    @pytest.mark.parametrize("stats_dtype", ["float32", "float64"])
    @pytest.mark.parametrize("include_residuals", [False, True])
    def test_entries_round_trip_bit_identical(self, pair, stats_dtype,
                                              include_residuals):
        Xs, Xt = pair
        disc = FNodeDiscovery(stats_dtype=stats_dtype)
        disc.discover(Xs, Xt[:72])
        cache = disc.warm_state_.cache
        assert cache.factors and cache.betas and cache.residuals
        back = CIStatCache.from_state(
            cache.state_dict(include_residuals=include_residuals))
        assert back.matches(ridge=cache.ridge, stats_dtype=stats_dtype,
                            source_fingerprint=cache.source_fingerprint)
        assert set(back.factors) == set(cache.factors)
        for cols, (factor, lower) in cache.factors.items():
            _assert_same_bytes(back.factors[cols][0], np.ascontiguousarray(factor))
            assert back.factors[cols][1] == lower
        assert back.betas.keys() == cache.betas.keys()
        for cols, per in cache.betas.items():
            assert back.betas[cols].keys() == per.keys()
            for j, beta in per.items():
                _assert_same_bytes(back.betas[cols][j], beta)
        if include_residuals:
            assert back.residuals.keys() == cache.residuals.keys()
            for cols, per in cache.residuals.items():
                for j, res in per.items():
                    _assert_same_bytes(back.residuals[cols][j], res)
        else:
            assert back.residuals == {}

    def test_mixed_dtypes_come_back_aligned_and_read_only(self, rng):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float32",
                            source_fingerprint="fp")
        cache.put_factor((0,), (rng.standard_normal((2, 2)).astype(np.float32), True))
        cache.put_factor((1,), (rng.standard_normal((3, 3)), False))
        cache.put_factor((2,), (np.asfortranarray(rng.standard_normal((2, 2))), True))
        cache.put_beta((0,), 5, rng.standard_normal(3).astype(np.float32))
        cache.put_beta((1,), 5, rng.standard_normal(1))
        cache.put_beta((1,), 6, np.zeros(0))
        state = cache.state_dict()
        assert sorted(state) == ["__meta__", "betas", "factors", "residuals"]
        back = CIStatCache.from_state(state)
        for cols, (factor, _) in cache.factors.items():
            got = back.factors[cols][0]
            _assert_same_bytes(got, np.ascontiguousarray(factor))
            assert got.flags.aligned and not got.flags.writeable
        for cols, per in cache.betas.items():
            for j, beta in per.items():
                _assert_same_bytes(back.betas[cols][j], beta)

    def test_blob_layout_mismatch_rejected(self, rng):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64",
                            source_fingerprint="fp")
        cache.put_beta((0,), 1, rng.standard_normal(2))
        state = cache.state_dict()
        state["betas"] = state["betas"][:-1]
        with pytest.raises(ValidationError, match="layout"):
            CIStatCache.from_state(state)

    def test_member_count_does_not_grow_with_the_cache(self, tmp_path):
        config = FSConfig(max_parents=6, max_cond_size=3, min_correlation=0.1,
                          prune_k=3, prune_exact=True, stats_dtype="float32",
                          n_jobs=1)
        members, factors = {}, {}
        for width in (WIDTH, 442):
            Xs, Xt = make_wide_pair(width, n_source=240, n_target=96,
                                    random_state=3)
            sep = FeatureSeparator(config).fit(Xs, Xt)
            path = save_artifact(sep, tmp_path / f"w{width}.npz")
            with zipfile.ZipFile(path) as zf:
                members[width] = len(zf.namelist())
            factors[width] = len(sep.warm_state_.cache.factors)
        # one member per factor (the version-1 layout) would exceed 64
        assert factors[442] > 64
        assert factors[442] > factors[WIDTH]
        assert members[442] == members[WIDTH]
        assert members[442] <= 64

    @pytest.mark.parametrize("mode", ["exact", "confirm"])
    def test_rediscover_from_disk_matches_in_memory(self, pair, tmp_path, mode):
        Xs, Xt = pair
        config = FSConfig(warm_mode=mode)
        prior = FeatureSeparator(config).fit(Xs, Xt[:72])
        path = save_artifact(prior, tmp_path / "sep.npz")
        restored = load_artifact(path).estimator.warm_state_
        in_memory = FeatureSeparator(config).fit(Xs, Xt, warm=prior.warm_state_)
        from_disk = FeatureSeparator(config).fit(Xs, Xt, warm=restored)
        assert from_disk.cache_stats_["warm_hits"] > 0
        np.testing.assert_array_equal(from_disk.result_.variant_indices,
                                      in_memory.result_.variant_indices)
        assert (from_disk.result_.p_values.tobytes()
                == in_memory.result_.p_values.tobytes())
        assert from_disk.result_.n_tests == in_memory.result_.n_tests

    def test_flipped_blob_byte_fails_content_hash(self, pair, tmp_path):
        Xs, Xt = pair
        path = save_artifact(FeatureSeparator().fit(Xs, Xt[:72]),
                             tmp_path / "sep.npz")

        def flip(arrays):
            blob = arrays["warm.cache.factors"].copy()
            blob[blob.size // 2] ^= 0xFF
            arrays["warm.cache.factors"] = blob
            return arrays

        _rewrite_bundle(path, path, flip, rehash=False)
        with pytest.raises(ArtifactError, match="content hash mismatch"):
            load_artifact(path)


class TestOldWarmBlock:
    def test_version_1_block_serves_and_rediscovers_cold(self, tenant_root,
                                                         tiny_5gc, tmp_path):
        from repro.serve import PlanCache

        root, names, X_test = tenant_root
        name = names[0]
        original = load_artifact(root / f"{name}.npz").estimator
        prefix = "separator_.warm."
        block = _v1_warm_block(original.separator_.warm_state_)

        def downgrade(arrays):
            arrays = {k: v for k, v in arrays.items() if not k.startswith(prefix)}
            arrays.update({prefix + k: v for k, v in block.items()})
            return arrays

        _rewrite_bundle(root / f"{name}.npz", tmp_path / f"{name}.npz",
                        downgrade)
        handler = _Records()
        logger = logging.getLogger("repro.core.feature_separation")
        logger.addHandler(handler)
        try:
            loaded = load_artifact(tmp_path / f"{name}.npz").estimator
        finally:
            logger.removeHandler(handler)
        sep = loaded.separator_
        assert sep.warm_state_ is None
        assert any("warm state" in r.getMessage() for r in handler.records)
        np.testing.assert_array_equal(sep.variant_indices_,
                                      original.separator_.variant_indices_)

        # the bundle serves: same scores as the untouched bundle
        scores = []
        for where in (root, tmp_path):
            executor = PlanCache(where, micro_batch_rows=64).get(name).executor
            scores.append(executor.score([executor.check_request(X_test[:5])])[0])
        np.testing.assert_array_equal(scores[1], scores[0])

        # and its next rediscovery runs cold
        X_few, *_ = tiny_5gc.few_shot_split(5, random_state=1)
        Xs = loaded.scaler_.transform(tiny_5gc.X_source)
        Xt = loaded.scaler_.transform(X_few)
        refreshed = FeatureSeparator(sep.config).fit(Xs, Xt, warm=sep.warm_state_)
        assert refreshed.cache_stats_["mode"] == "cold"
        assert refreshed.cache_stats_["warm_hits"] == 0
        cold = FeatureSeparator(sep.config).fit(Xs, Xt)
        np.testing.assert_array_equal(refreshed.result_.variant_indices,
                                      cold.result_.variant_indices)
