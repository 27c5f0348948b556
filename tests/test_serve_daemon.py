"""ServeDaemon lifecycle and the HTTP wire format."""

import http.client
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import DaemonConfig, PlanCache, ServeDaemon
from repro.serve.batcher import TILE_ROWS
from repro.serve.daemon import format_daemon_summary
from repro.utils.errors import ValidationError


def _config(root, **overrides):
    defaults = dict(root=str(root), port=0, micro_batch_rows=64,
                    cache_size=8, max_wait=0.0)
    defaults.update(overrides)
    return DaemonConfig(**defaults)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.headers.get("Content-Type"), resp.read()


class TestLifecycle:
    def test_in_process_scoring(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root, port=None)) as daemon:
            assert daemon.url is None
            proba = daemon.score(names[0], X_test[:5])
            assert proba.shape[0] == 5
            np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_double_start_rejected(self, tenant_root):
        root, _, _ = tenant_root
        daemon = ServeDaemon(_config(root, port=None)).start()
        try:
            with pytest.raises(ValidationError, match="already started"):
                daemon.start()
        finally:
            daemon.stop()

    def test_stop_returns_stats_and_is_idempotent(self, tenant_root):
        root, names, X_test = tenant_root
        daemon = ServeDaemon(_config(root, port=None)).start()
        daemon.score(names[0], X_test[:3])
        stats = daemon.stop()
        assert stats["batcher"]["requests"] == 1
        assert stats["batcher"]["rows"] == 3
        assert names[0] in stats["cache"]["loaded"]
        assert "daemon.request_seconds" in stats["latency"]
        # executed rows beside live rows: 3 live rows pad to one tile
        tile = stats["cache"]["loaded"][names[0]]["tile"]
        assert tile in (TILE_ROWS, 64)
        assert stats["latency"]["daemon.batch_padded_rows"]["max"] == tile
        assert daemon.stop() == {}

    def test_submit_when_stopped_raises(self, tenant_root):
        root, names, X_test = tenant_root
        daemon = ServeDaemon(_config(root, port=None))
        with pytest.raises(ValidationError, match="not running"):
            daemon.submit(names[0], X_test[:1])

    def test_config_overrides_shortcut(self, tenant_root):
        root, _, _ = tenant_root
        daemon = ServeDaemon(root=str(root), port=None)
        assert daemon.config.root == str(root)
        with pytest.raises(ValidationError):
            ServeDaemon(DaemonConfig(), port=None)

    def test_summary_formats(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root, port=None)) as daemon:
            daemon.score(names[0], X_test[:2])
            stats = daemon.stats()
        text = format_daemon_summary(stats)
        assert "1 requests" in text and "cache:" in text
        assert format_daemon_summary({}) == "daemon served no requests"


class TestHTTP:
    def test_score_round_trip(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            payload = _post(f"{daemon.url}/v1/score/{names[0]}",
                            {"x": X_test[:4].tolist()})
            direct = ServeDaemon(_config(root, port=None))
            with direct:
                expected = direct.score(names[0], X_test[:4])
        assert payload["tenant"] == names[0]
        assert payload["rows"] == 4 and payload["seq"] == 0
        np.testing.assert_array_equal(
            np.asarray(payload["proba"]), expected)
        assert len(payload["labels"]) == 4

    def test_health_tenants_stats_metrics(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            daemon.score(names[0], X_test[:2])
            ctype, body = _get(f"{daemon.url}/healthz")
            assert json.loads(body) == {"status": "ok"}
            _, body = _get(f"{daemon.url}/v1/tenants")
            tenants = json.loads(body)
            assert tenants["known"] == names
            assert names[0] in tenants["loaded"]
            _, body = _get(f"{daemon.url}/v1/stats")
            assert json.loads(body)["batcher"]["requests"] == 1
            ctype, body = _get(f"{daemon.url}/metrics")
            assert ctype.startswith("text/plain")
            assert b"daemon_requests_total" in body

    def test_error_mapping(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            cases = [
                (f"/v1/score/ghost", {"x": X_test[:1].tolist()}, 404),
                (f"/v1/score/{names[0]}", {"x": [[1.0, 2.0]]}, 400),
                (f"/v1/score/{names[0]}", {"y": 1}, 400),
                (f"/v1/score/{names[0]}", {"x": "not a matrix"}, 400),
                (f"/nope", {"x": []}, 404),
            ]
            for path, payload, expected in cases:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(daemon.url + path, payload)
                assert err.value.code == expected, path
                assert "error" in json.loads(err.value.read())

    def test_get_unknown_route_404(self, tenant_root):
        root, _, _ = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{daemon.url}/v1/unknown")
            assert err.value.code == 404

    def test_http_matches_in_process_bitwise(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            via_http = np.asarray(_post(
                f"{daemon.url}/v1/score/{names[1]}",
                {"x": X_test[:6].tolist()})["proba"])
        cache = PlanCache(root, capacity=8, micro_batch_rows=64)
        executor = cache.get(names[1]).executor
        expected = executor.score([executor.check_request(X_test[:6])])[0]
        np.testing.assert_array_equal(via_http, expected)

    def test_labels_come_from_the_scoring_entry(self, tenant_root,
                                                 monkeypatch):
        root, names, X_test = tenant_root
        calls = []
        real_get = PlanCache.get

        def counting_get(cache, tenant):
            calls.append(tenant)
            return real_get(cache, tenant)

        monkeypatch.setattr(PlanCache, "get", counting_get)
        with ServeDaemon(_config(root)) as daemon:
            daemon.score(names[0], X_test[:3])
            in_process = len(calls)
            payload = _post(f"{daemon.url}/v1/score/{names[0]}",
                            {"x": X_test[:3].tolist()})
            via_http = len(calls) - in_process
            classes = real_get(daemon.cache, names[0]).plan.model.classes_
        assert via_http <= in_process
        codes = np.argmax(np.asarray(payload["proba"]), axis=1)
        assert payload["labels"] == classes[codes].tolist()

    def test_keep_alive_round_trip_is_not_delayed(self, tenant_root):
        root, names, X_test = tenant_root
        body = json.dumps({"x": X_test[:1].tolist()})
        headers = {"Content-Type": "application/json"}
        with ServeDaemon(_config(root)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.http.port,
                                              timeout=10)
            try:
                round_trips = []
                for i in range(31):  # the first request loads the plan
                    t0 = time.perf_counter()
                    conn.request("POST", f"/v1/score/{names[0]}", body,
                                 headers)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                    if i:
                        round_trips.append(time.perf_counter() - t0)
            finally:
                conn.close()
        # a response split over two sends with Nagle on waits ~40 ms for
        # the client's delayed ACK
        assert len(round_trips) == 30
        assert float(np.median(round_trips)) < 0.025
