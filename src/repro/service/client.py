"""Stdlib HTTP client for the service control plane.

Used by ``gs1280-repro submit``/``status``, the soak drivers, and the
tests; nothing here knows about simulators -- it is JSON over
``http.client`` with explicit timeouts and an exception type that
keeps the HTTP status attached (the soak's fail-on-5xx gate reads it).

Each calling thread keeps one HTTP/1.1 connection open across
requests (a request on a fresh connection costs a TCP handshake plus a
new server handler thread and SQLite connection).  A transport error
closes that thread's connection and raises ``ServiceError(status=None)``;
``close()`` (or ``with ServiceClient(...) as client:``) closes them all.

Hardening (see docs/resilience.md):

* Construct with a :class:`~repro.service.resilience.RetryPolicy` and
  every request retries on connection errors, 5xx and 429 with capped
  decorrelated-jitter backoff, honoring a server-sent ``Retry-After``.
  The default (``retry=None``) keeps the old fail-fast behavior.
* :meth:`submit` generates a ``submit_key`` idempotency key per
  *logical* submission, so a retried ``POST /jobs`` whose original
  response was lost resolves to the job the first attempt created
  instead of enqueueing a duplicate.
* :meth:`wait`/:meth:`wait_healthy` poll with jittered backoff (capped
  at ``poll_max_s``) instead of a fixed interval, and ``wait_healthy``
  fails fast on HTTP 4xx -- the server is *up* but refusing us, which
  no amount of waiting repairs -- while connection errors and 5xx keep
  retrying until the deadline.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import threading
import time
import uuid
from typing import Any, Callable, Mapping
from urllib.parse import urlsplit

from repro.service.resilience import RetryPolicy

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response (or transport failure, ``status=None``).

    ``retry_after`` carries the server's ``Retry-After`` header in
    seconds when one was sent (429 admission refusals send it).
    """

    def __init__(self, message: str, status: int | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://127.0.0.1:8180")``."""

    def __init__(self, base_url: str, timeout_s: float = 30.0,
                 retry: RetryPolicy | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._host, self._port, self._prefix = (url.hostname, url.port,
                                                url.path)
        self.timeout_s = timeout_s
        self.retry = retry
        self.retries = 0  # lifetime count of retried requests (telemetry)
        self._rng = random.Random(retry.seed if retry is not None else None)
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()

    # -- transport -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's kept-alive connection, made on first use.

        An idle socket the server has since closed (idle timeout,
        restart) reads as ready: it is closed here and ``http.client``
        reconnects on the next request, so a stale socket never costs
        a retry.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port,
                                              timeout=self.timeout_s)
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        elif conn.sock is not None and select.select([conn.sock], [], [],
                                                     0)[0]:
            conn.close()
        return conn

    def _request_once(self, method: str, path: str,
                      body: Mapping[str, Any] | None = None,
                      raw: bool = False) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(dict(body)).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, self._prefix + path, body=data,
                         headers=headers)
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServiceError(
                f"{method} {path} failed: {exc}", status=None
            ) from exc
        # A ``Connection: close`` response has already closed ``conn``;
        # http.client reopens it on the next request.
        if not 200 <= response.status < 300:
            detail = ""
            try:
                detail = json.loads(payload).get("error", "")
            except Exception:  # noqa: BLE001 - error body is best-effort
                pass
            retry_after = None
            try:
                header = response.getheader("Retry-After")
                if header is not None:
                    retry_after = float(header)
            except (TypeError, ValueError):
                pass
            raise ServiceError(
                f"{method} {path} -> {response.status}"
                + (f": {detail}" if detail else ""),
                status=response.status, retry_after=retry_after,
            )
        return payload if raw else json.loads(payload)

    def close(self) -> None:
        """Close every thread's connection.  The client stays usable:
        a later request opens a fresh one."""
        with self._conns_lock:
            for conn in self._conns:
                conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Mapping[str, Any] | None = None,
                 raw: bool = False) -> Any:
        """One request under the retry policy.

        Safe for every route this client issues: GET/DELETE are
        idempotent by construction and ``POST /jobs`` carries a
        ``submit_key``, so a retried submit cannot double-enqueue.
        """
        policy = self.retry
        if policy is None:
            return self._request_once(method, path, body=body, raw=raw)
        delay = policy.base_s
        for attempt in range(policy.max_attempts):
            try:
                return self._request_once(method, path, body=body, raw=raw)
            except ServiceError as exc:
                last = attempt == policy.max_attempts - 1
                if last or not policy.retryable(exc.status):
                    raise
                # Decorrelated jitter, capped; a server-sent
                # Retry-After overrides (it knows the refill time).
                delay = min(policy.cap_s,
                            self._rng.uniform(policy.base_s, 3.0 * delay))
                self.retries += 1
                time.sleep(exc.retry_after
                           if exc.retry_after is not None else delay)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- API -------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(self, campaign: str | Mapping[str, Any],
               tenant: str = "default", priority: int = 0,
               fast: bool = True, seed: int = 0,
               export: str = "json",
               submit_key: str | None = None) -> dict[str, Any]:
        """Submit one job.  A fresh ``submit_key`` is generated per
        call (pass one explicitly to make *separate calls* idempotent,
        e.g. resubmission after a process restart); retries inside this
        call reuse the same key automatically."""
        if submit_key is None:
            submit_key = uuid.uuid4().hex
        return self._request("POST", "/jobs", body={
            "campaign": campaign, "tenant": tenant, "priority": priority,
            "fast": fast, "seed": seed, "export": export,
            "submit_key": submit_key,
        })

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/events?since={since}")

    def result_bytes(self, job_id: str) -> bytes:
        return self._request("GET", f"/jobs/{job_id}/result", raw=True)

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    # -- conveniences ----------------------------------------------------
    def _poll_sleep(self, interval_s: float, cap_s: float,
                    wait: Callable[[float], Any] = time.sleep) -> float:
        """Sleep a jittered interval; returns the next (grown) one.

        Jitter desynchronizes a fleet of pollers (every soak submitter
        waking on the same beat is a thundering herd the admission
        controller then sheds); growth keeps long waits cheap.
        """
        wait(self._rng.uniform(0.5, 1.0) * interval_s)
        return min(cap_s, interval_s * 1.6)

    def wait(self, job_id: str, timeout_s: float = 300.0,
             poll_s: float = 0.2,
             on_event: Callable[[dict[str, Any]], None] | None = None,
             poll_max_s: float | None = None) -> dict[str, Any]:
        """Poll the event stream until the job reaches a terminal
        state; returns the final job record.  ``on_event`` sees every
        progress event exactly once, in order.

        Polling starts at ``poll_s`` and backs off (jittered, x1.6)
        toward ``poll_max_s`` (default ``8 * poll_s``) while pages come
        back empty; any progress resets the interval.
        """
        deadline = time.monotonic() + timeout_s
        cap_s = poll_max_s if poll_max_s is not None else 8.0 * poll_s
        cap_s = max(cap_s, poll_s)
        interval = poll_s
        since = 0
        while True:
            page = self.events(job_id, since=since)
            if page["events"]:
                interval = poll_s  # progress: snap back to fast polling
                for event in page["events"]:
                    if on_event is not None:
                        on_event(event)
            since = page["next"]
            if page["done"]:
                return self.job(job_id)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} not finished after {timeout_s:.0f}s "
                    f"(state {page['state']})"
                )
            interval = self._poll_sleep(interval, cap_s)

    def wait_healthy(self, timeout_s: float = 20.0,
                     poll_s: float = 0.1,
                     poll_max_s: float | None = None) -> dict[str, Any]:
        """Block until ``/healthz`` answers (server boot barrier).

        Connection errors and 5xx are retried with jittered backoff
        until the deadline -- the server may simply not be up yet.  An
        HTTP 4xx fails *immediately*: the server is up and reachable
        but rejecting the request (wrong base URL, misconfigured
        routing), which waiting will never fix.
        """
        deadline = time.monotonic() + timeout_s
        cap_s = poll_max_s if poll_max_s is not None else 8.0 * poll_s
        cap_s = max(cap_s, poll_s)
        interval = poll_s
        while True:
            try:
                return self.healthz()
            except ServiceError as exc:
                if (exc.status is not None
                        and 400 <= exc.status < 500):
                    raise
                if time.monotonic() >= deadline:
                    raise
                interval = self._poll_sleep(interval, cap_s)
