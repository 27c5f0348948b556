"""Load generators for the serving workloads.

:func:`open_loop` is an open-loop Poisson generator with one sending thread
and one completion thread.  Every request is timed from the moment it was
*due* on the schedule, not from when the generator managed to send it, so
a stall anywhere — in the program's ``submit`` or in the generator itself —
is charged to every request that should have been sent during it (no
coordinated omission).  How late the generator ran is reported alongside.

:func:`closed_loop_http` runs keep-alive HTTP clients that each send their
next request only after the previous answer arrived.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time

import numpy as np


def poisson_offsets(rate: float, duration: float, rng) -> np.ndarray:
    """Send offsets (seconds from start) of a Poisson process at ``rate``."""
    count = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    while offsets[-1] < duration:  # pragma: no cover - vanishingly rare
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=count))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def make_requests(X: np.ndarray, tenants: list[str], count: int, rng,
                  rows: tuple[int, int] = (1, 8)) -> list:
    """``count`` (tenant, row block) requests: uniform tenant and size."""
    out = []
    for _ in range(count):
        n = int(rng.integers(rows[0], rows[1] + 1))
        start = int(rng.integers(0, X.shape[0] - n + 1))
        out.append((tenants[int(rng.integers(len(tenants)))],
                    X[start:start + n]))
    return out


def open_loop(submit, requests: list, offsets, *, capture: bool = False,
              timeout: float = 30.0) -> dict:
    """Send ``requests[i]`` at ``start + offsets[i]`` through ``submit``.

    ``submit(tenant, X)`` returns a handle whose ``result(timeout)`` blocks
    until the answer is ready (a :class:`repro.serve.batcher.PendingRequest`).
    Returns per-request ``latency`` (done minus due; NaN for a failed
    request), ``late`` (sent minus due), with ``capture`` the completed
    ``(tenant, seq, X, proba)`` list, and the number of failures.
    """
    handles: queue.Queue = queue.Queue()
    n = len(offsets)
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    captured, errors = [], []

    def generate() -> None:
        start = time.perf_counter()
        for i in range(n):
            due = start + float(offsets[i])
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            late[i] = sent - due
            tenant, X = requests[i]
            try:
                handle = submit(tenant, X)
            except Exception as exc:  # noqa: BLE001 - a refused request is a counted failure
                errors.append(f"{type(exc).__name__}: {exc}")
                handle = None
            handles.put((i, due, tenant, X, handle))
        handles.put(None)

    def complete() -> None:
        while True:
            item = handles.get()
            if item is None:
                return
            i, due, tenant, X, handle = item
            if handle is not None:
                try:
                    proba = handle.result(timeout)
                except Exception as exc:  # noqa: BLE001 - counted failure
                    errors.append(f"{type(exc).__name__}: {exc}")
                else:
                    latency[i] = time.perf_counter() - due
                    if capture:
                        captured.append((tenant, handle.seq, X, proba))

    threads = [threading.Thread(target=generate, name="e2e-generator"),
               threading.Thread(target=complete, name="e2e-completion")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latency": latency, "late": late, "capture": captured,
            "failed": len(errors), "errors": errors[:3], "sent": n}


class _Client:
    """One keep-alive HTTP connection to the daemon's scoring endpoint."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def score(self, tenant: str, X: np.ndarray) -> dict:
        body = json.dumps({"x": X.tolist()})
        self.conn.request("POST", f"/v1/score/{tenant}", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload}")
        return payload

    def close(self) -> None:
        self.conn.close()


def closed_loop_http(host: str, port: int, client_requests: list[list],
                     duration: float, *, timeout: float = 30.0) -> dict:
    """Each client sends its request list in order until ``duration`` ends.

    Returns per-request client latency, the ``(tenant, seq, X, proba)``
    capture keyed for replay, ``(tenant, seq, latency)`` triples and the
    failure count.
    """
    lock = threading.Lock()
    latency, capture, keyed, errors = [], [], [], []
    deadline = time.perf_counter() + duration

    def run(reqs) -> None:
        client = _Client(host, port, timeout)
        try:
            for tenant, X in reqs:
                if time.perf_counter() >= deadline:
                    return
                t0 = time.perf_counter()
                try:
                    payload = client.score(tenant, X)
                except Exception as exc:  # noqa: BLE001 - counted failure
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    client.close()
                    client = _Client(host, port, timeout)
                    continue
                elapsed = time.perf_counter() - t0
                proba = np.asarray(payload["proba"], dtype=np.float64)
                with lock:
                    latency.append(elapsed)
                    capture.append((tenant, int(payload["seq"]), X, proba))
                    keyed.append((tenant, int(payload["seq"]), elapsed))
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(reqs,), name=f"e2e-client-{i}")
               for i, reqs in enumerate(client_requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latency": np.asarray(latency), "capture": capture,
            "keyed": keyed, "failed": len(errors), "errors": errors[:3]}
