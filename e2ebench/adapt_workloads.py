"""The adaptation workloads: ``fit`` (offline few-shot adaptation) and
``drift-loop`` (closed-loop detection -> rediscovery -> refit -> promotion).

Both are scored against what the data generators know: the 5GC SCM's
intervention targets and the wide generator's drifted parent columns.
"""

from __future__ import annotations

import copy
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import replace

from common import Result, median, timed_setups

#: the wide drift stream: 442 features, 64-row batches, drift from batch 10
WIDTH, BATCH_ROWS, N_BATCHES, ONSET = 442, 64, 32, 10
#: stream draws per run; episode i replays draw i mod N_STREAMS, so the
#: run's figures cover two draws' FS work instead of one, and each draw is
#: replayed often enough (7-12 times in a 20 s window) that its fastest
#: replay misses the host's dips (NOTES.md)
N_STREAMS = 2
#: generation 0 is the same deployed model in every run (trained on this
#: state's draw); the seed picks the traffic it then sees
GEN0_STATE = 0
#: make_wide_pair's group size; column 0 of each group is the drifted parent
GROUP = 8


def _jaccard(found, truth) -> float:
    found, truth = set(found), set(truth)
    return len(found & truth) / len(found | truth) if found | truth else 1.0


def _variants(pipeline) -> tuple[int, ...]:
    return tuple(sorted(int(j) for j in pipeline.separator_.variant_indices_))


# ---------------------------------------------------------------------------
# fit


def fit_inputs(seed: int) -> dict:
    """5GC smoke data, the fit and refit few-shot draws, the held-out split."""
    from repro.experiments.presets import get_preset
    from repro.experiments.runner import make_benchmark

    preset = get_preset("smoke")
    bench = make_benchmark("5gc", preset, random_state=seed)
    X_few, _, _, _ = bench.few_shot_split(10, random_state=seed)
    X_few2, _, X_test, y_test = bench.few_shot_split(10, random_state=seed + 1)
    return {"preset": preset, "bench": bench, "X_few": X_few,
            "X_few2": X_few2, "X_test": X_test, "y_test": y_test}


def _fit_pipeline(preset, seed: int, epochs: int | None = None):
    """The preset's MLP and cGAN; ``epochs`` shortens both (warm-up only)."""
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.ml import MLPClassifier

    return FSGANPipeline(
        lambda: MLPClassifier(epochs=epochs or preset.models.mlp_epochs,
                              random_state=seed),
        reconstruction_config=ReconstructionConfig(
            strategy="gan", epochs=epochs or preset.gan_epochs,
            noise_dim=preset.gan_noise_dim, hidden_size=preset.gan_hidden,
        ),
        random_state=seed,
    )


def run_fit(seed: int, seconds: float, repeat_setup: bool, tracer=None) -> Result:
    """``fit`` then ``refit_adapter`` then ``predict``, repeated (at least
    twice) until ``seconds`` have elapsed."""
    from repro.ml.metrics import f1_score

    res = Result()
    data, res.metrics["setup_s"] = timed_setups(lambda: fit_inputs(seed), repeat_setup)
    bench, preset = data["bench"], data["preset"]
    truth = [int(j) for j in bench.true_variant_indices]
    # warm-up outside the window: one-time imports and lazy initialisation
    warm = _fit_pipeline(preset, seed, epochs=1)
    warm.fit(bench.X_source, bench.y_source, data["X_few"])
    warm.refit_adapter(data["X_few2"]).predict(data["X_test"])
    fit_s, refit_s, predict_s, f1, fit_sets, refit_sets = [], [], [], [], [], []
    with tracer or nullcontext():
        start = time.perf_counter()
        # at least two iterations (the determinism check compares them),
        # unless contention has already stretched one past 4x the window
        while (not fit_s or time.perf_counter() - start < seconds
               or (len(fit_s) < 2
                   and time.perf_counter() - start < 4 * seconds)):
            pipeline = _fit_pipeline(preset, seed)
            t0 = time.perf_counter()
            pipeline.fit(bench.X_source, bench.y_source, data["X_few"])
            t1 = time.perf_counter()
            fit_sets.append(_variants(pipeline))
            pipeline.refit_adapter(data["X_few2"])
            t2 = time.perf_counter()
            refit_sets.append(_variants(pipeline))
            y_pred = pipeline.predict(data["X_test"])
            t3 = time.perf_counter()
            fit_s.append(t1 - t0)
            refit_s.append(t2 - t1)
            predict_s.append(t3 - t2)
            f1.append(f1_score(data["y_test"], y_pred, average="macro"))
            res.attempted += 3
    # every iteration replays the same two calls on the same inputs; as on
    # drift-loop, each call is timed by its fastest replay (NOTES.md)
    best_ms = [1e3 * min(fit_s), 1e3 * min(refit_s)]
    res.metrics["p50_ms"] = median(best_ms)
    res.metrics["tail_ms"] = max(best_ms)
    tail_label = f"slower of fit and refit_adapter, each the best of {len(fit_s)}"
    res.name("adapt_s", median(fit_s), "s")
    res.name("refit_s", median(refit_s), "s")
    res.name("predict_ms", 1e3 * median(predict_s), "ms")
    res.name("target_f1", median(f1), "macro-F1")
    res.name("fs_jaccard", _jaccard(fit_sets[0], truth), "ratio")
    res.name("fs_jaccard.refit", _jaccard(refit_sets[0], truth), "ratio")
    res.name("iterations", len(fit_s), "count")
    res.name("tail_ms.percentile", tail_label, "")
    res.check("fit: identical variant set every iteration",
              len(set(fit_sets)) == 1, f"{len(set(fit_sets))} distinct sets")
    res.check("refit: identical variant set every iteration",
              len(set(refit_sets)) == 1, f"{len(set(refit_sets))} distinct sets")
    chance = 1.0 / len(bench.class_names)
    res.check("target macro-F1 above chance", min(f1) > chance,
              f"min {min(f1):.3f} vs chance {chance:.3f}")
    res.check("fit found at least one true intervention target",
              _jaccard(fit_sets[0], truth) > 0.0)
    return res


# ---------------------------------------------------------------------------
# drift-loop


def _drift_pipeline(seed: int):
    """Generation 0 in the adapt suite's engine configuration (wide-FS
    settings, tiny cGAN, so FS dominates the loop), except that warm
    rediscovery runs in ``exact`` mode, the mode whose variant set is
    provably a cold fit's; ``confirm`` differs from cold on some seeds
    (NOTES.md)."""
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.core.config import FSConfig
    from repro.ml import MLPClassifier

    return FSGANPipeline(
        lambda: MLPClassifier(hidden_sizes=(16,), epochs=8, random_state=seed),
        fs_config=FSConfig(
            max_parents=6, max_cond_size=3, min_correlation=0.1, prune_k=3,
            prune_exact=True, stats_dtype="float32", use_shared_memory=True,
            warm_mode="exact", n_jobs=1,
        ),
        reconstruction_config=ReconstructionConfig(
            strategy="gan", epochs=2, noise_dim=2, hidden_size=8,
        ),
        random_state=seed,
    )


def drift_stream(seed: int) -> dict:
    """Generation 0's training matrices plus ``N_STREAMS`` draws of the
    known-onset batch stream picked by ``seed``.  The wide generator's
    structure does not depend on its seed, so every draw follows the
    distribution generation 0 was trained on."""
    from repro.experiments.drift_schedule import make_drift_schedule

    def draw(random_state: int) -> dict:
        return make_drift_schedule(
            WIDTH, schedule="abrupt", n_batches=N_BATCHES,
            batch_rows=BATCH_ROWS, onset_batch=ONSET, n_prior=96,
            random_state=random_state,
        )

    data = draw(GEN0_STATE)
    # never GEN0_STATE's: make_drift_schedule uses random_state .. +2
    data["streams"] = [draw(seed * 1000 + 3 * k + 3)["batches"]
                       for k in range(N_STREAMS)]
    return data


def _drift_inputs(seed: int, workdir) -> dict:
    """The streams, generation 0, and a lineage root holding generation 0
    as its active version (seeded by a controller, as every episode's
    controller would seed its own root)."""
    from repro.adapt import AdaptationController
    from repro.adapt.lineage import ArtifactLineage

    data = drift_stream(seed)
    pipeline = _drift_pipeline(GEN0_STATE)
    pipeline.fit(data["X_source"], data["y_source"], data["X_target_prior"])
    data["pipeline"] = pipeline
    data["template"] = workdir / "lineage-template"
    shutil.rmtree(data["template"], ignore_errors=True)
    with AdaptationController(pipeline, ArtifactLineage(data["template"]),
                              "tenant", _adapt_config()):
        pass
    return data


def _adapt_config():
    from repro.adapt import AdaptationConfig, ShadowPolicy

    return AdaptationConfig(
        min_shots=64,
        shot_capacity=256,
        drift_options={"min_rows": 192, "window_rows": 256, "n_bins": 8,
                       "psi_threshold": 1.5, "name": "e2ebench"},
        # the loop's timing is measured, not its promotion decision: every
        # candidate is shadow-scored on exactly two batches and promoted
        # (probabilities never differ by more than 1.0).  The adapt suite's
        # max_disagreement=0.35 never promotes on some seeds (NOTES.md)
        policy=ShadowPolicy(agreement_batches=2, max_disagreement=1.0,
                            abort_disagreement=1.0, max_batches=16),
        subscribe_alarms=False,
    )


def _link_bundle(src, dst) -> None:
    """Copy a lineage-root file; version bundles (written once, never
    rewritten) are hard-linked, so an episode's root costs no bundle write."""
    if src.endswith(".npz"):
        try:
            os.link(src, dst)
            return
        except OSError:
            pass
    shutil.copy2(src, dst)


def _episode(data: dict, batches, root) -> dict:
    """Replay ``batches`` through a fresh controller, over a deep copy of
    generation 0 and a fresh copy of its lineage root, until promotion.
    The root is removed afterwards, so the bundles a run writes do not pile
    up as dirty pages waiting for the disk."""
    from repro.adapt import AdaptationController
    from repro.adapt.lineage import ArtifactLineage

    pipeline = copy.deepcopy(data["pipeline"])
    shutil.rmtree(root, ignore_errors=True)  # a traced pass reuses names
    shutil.copytree(data["template"], root, symlinks=True,
                    copy_function=_link_bundle)
    observe_ms, onset_at, promoted_at = [], None, None
    with AdaptationController(pipeline, ArtifactLineage(root), "tenant",
                              _adapt_config()) as controller:
        for index, batch in enumerate(batches):
            watching = controller.state == "WATCHING"
            t0 = time.perf_counter()
            if index == ONSET:
                onset_at = t0
            state = controller.observe(batch)
            t1 = time.perf_counter()
            if watching and state == "WATCHING":
                observe_ms.append(1e3 * (t1 - t0))
            if state == "PROMOTED":
                promoted_at = t1
                break
        timeline = controller.timeline
        shadow = [e for e in timeline if e["state"] == "SHADOW"]
        done = [e for e in timeline if e["state"] == "PROMOTED"]
    shutil.rmtree(root, ignore_errors=True)
    return {
        "promoted": promoted_at is not None,
        "promote_s": (promoted_at - onset_at) if promoted_at else None,
        "observe_ms": observe_ms,
        "alarm_batch": controller.alarm_batch,
        "variants": _variants(pipeline),
        "shots": controller.last_shots_,
        "pipeline": pipeline,
        "shadow_s": (done[0]["time"] - shadow[0]["time"]
                     if shadow and done else 0.0),
        "shadow_batches": (done[0]["batch"] - shadow[0]["batch"]
                           if shadow and done else 0),
    }


def run_drift(seed: int, seconds: float, repeat_setup: bool, workdir,
              tracer=None) -> Result:
    """Drift episodes over one generation-0 pipeline until ``seconds`` end."""
    res = Result()
    data, res.metrics["setup_s"] = timed_setups(
        lambda: _drift_inputs(seed, workdir), repeat_setup)
    parents = list(range(0, WIDTH, GROUP))
    streams = data["streams"]
    warm_up = _episode(data, streams[0], workdir / "lineage-warm-up")
    episodes = []
    with tracer or nullcontext():
        start = time.perf_counter()
        while (len(episodes) < N_STREAMS
               or time.perf_counter() - start < seconds):
            root = workdir / f"lineage-{len(episodes)}"
            episode = _episode(data, streams[len(episodes) % N_STREAMS], root)
            if episodes:  # only the first episode's pipeline is checked
                del episode["pipeline"], episode["shots"]
            episodes.append(episode)
            res.attempted += 1
    promoted = [e for e in episodes if e["promoted"]]
    res.failed += len(episodes) - len(promoted)
    if not promoted:
        res.check("promotion reached", False, "no episode promoted")
        return res
    promote_ms = [1e3 * e["promote_s"] for e in promoted]
    # each draw's latency is the best of its replays: the replays are the
    # same input, and the host's speed drops by up to a third for seconds
    # (NOTES.md), which the best replay leaves out.  p50_ms and tail_ms are
    # then the median and the slowest over the draws
    best_ms = {}
    for index, episode in enumerate(episodes):
        if episode["promoted"]:
            draw = index % N_STREAMS
            best_ms[draw] = min(best_ms.get(draw, float("inf")),
                                1e3 * episode["promote_s"])
    res.metrics["p50_ms"] = median(list(best_ms.values()))
    res.metrics["tail_ms"] = max(best_ms.values())
    replays = [len(episodes[draw::N_STREAMS]) for draw in range(N_STREAMS)]
    tail_label = (f"slowest of {len(best_ms)} draws, each the best of "
                  f"{min(replays)}-{max(replays)} replays")
    first = episodes[0]
    alarms = [e["alarm_batch"] for e in promoted]
    res.name("promote_s", median(promote_ms) / 1e3, "s (median of all episodes)")
    res.name("observe_ms", median(sum((e["observe_ms"] for e in episodes), [])), "ms")
    res.name("detect_batches", median(alarms) - (ONSET + 1), "batches")
    res.name("fs_jaccard", median([_jaccard(e["variants"], parents)
                                   for e in promoted]), "ratio")
    res.name("episodes", len(episodes), "count")
    res.name("tail_ms.percentile", tail_label, "")
    res.extra = {
        "adapt.shadow_s": median([e["shadow_s"] for e in promoted]),
        "adapt.shadow_batches": median([e["shadow_batches"] for e in promoted]),
    }
    res.check("promotion reached in every episode",
              len(promoted) == len(episodes),
              f"{len(promoted)}/{len(episodes)}")
    res.check("replaying a stream again promotes the same variant set",
              first["promoted"] and warm_up["promoted"]
              and warm_up["variants"] == first["variants"])
    res.check("no alarm before the drift onset", min(alarms) >= ONSET + 1,
              f"first alarm at batch {min(alarms)}, onset {ONSET + 1}")
    if not first["promoted"]:
        return res
    # warm rediscovery must decide exactly what a cold fit decides on the
    # same shots (outside the measured window)
    from repro.core.feature_separation import FeatureSeparator

    pipeline = first["pipeline"]
    cold = FeatureSeparator(replace(pipeline.fs_config, warm_mode="off")).fit(
        pipeline.scaler_.transform(data["X_source"]),
        pipeline.scaler_.transform(first["shots"]),
    )
    cold_set = tuple(sorted(int(j) for j in cold.variant_indices_))
    res.check("warm variant set equals a cold fit on the same shots",
              cold_set == first["variants"],
              f"warm {len(first['variants'])} vs cold {len(cold_set)} variants")
    return res

