"""The client's kept-alive transport and the server's keep-alive safety.

:class:`~repro.service.client.ServiceClient` keeps one HTTP/1.1
connection per calling thread.  These tests pin what that must not
change -- threads never see each other's responses, a connection the
server closed while idle costs no retry, a dropped request still counts
as a retried transport failure, non-2xx statuses keep their detail --
and that the server consumes (or refuses to keep) every request body,
so an early error response cannot desync the next request on the same
connection.  A socket left open by a client or a test is an error here.
"""

import http.client
import json
import socket
import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.campaign.cache import ResultCache
from repro.service.chaos import ChaosEngine, ChaosPolicy
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import AdmissionController, RetryPolicy
from repro.service.server import (
    _MAX_BODY,
    ControlPlane,
    _Handler,
    serve_http,
)
from repro.service.store import JobStore

pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("no_inherited_leaks"),
]

SUBMIT = {"campaign": "smoke", "tenant": "t", "submit_key": "k-1"}


@contextmanager
def service(tmp_path, port=0, admission=None, chaos=None):
    """An HTTP server over a fresh store (no workers: jobs stay
    queued), with ``accepted`` counting the TCP connections it took."""
    store = JobStore(tmp_path / "jobs.db")
    plane = ControlPlane(store, ResultCache(tmp_path / "cache"),
                         tmp_path / "results", admission=admission,
                         chaos=None if chaos is None
                         else ChaosEngine(chaos, scope="server"))
    server, thread = serve_http(plane, port=port)
    accepted = []
    real_process = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        real_process(request, client_address)

    server.process_request = counting
    host, port = server.server_address[:2]
    try:
        yield SimpleNamespace(url=f"http://{host}:{port}", host=host,
                              port=port, store=store, accepted=accepted)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        store.close()


def _raw(conn, method, path, body=None):
    """One request on a raw ``http.client`` connection: the status and
    the decoded JSON body (``None`` when it is not JSON)."""
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    try:
        payload = json.loads(data)
    except ValueError:
        payload = None
    return response.status, payload


class TestConnectionReuse:
    def test_threads_share_a_client_without_crossed_responses(
            self, tmp_path):
        with service(tmp_path) as svc, \
                ServiceClient(svc.url, timeout_s=10.0) as client:
            ids = [client.submit("smoke", tenant=f"t{i}")["id"]
                   for i in range(8)]
            crossed: list = []
            barrier = threading.Barrier(len(ids))

            def poll(job_id):
                barrier.wait()
                for _ in range(50):
                    got = client.job(job_id)["id"]
                    if got != job_id:
                        crossed.append((job_id, got))

            threads = [threading.Thread(target=poll, args=(job_id,))
                       for job_id in ids]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads hard
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert crossed == []
            # One kept-alive connection per calling thread: the main
            # thread's submits and each poller's 50 reads.
            assert len(svc.accepted) == 1 + len(ids)

    def test_idle_close_by_server_timeout_costs_no_retry(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with service(tmp_path) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            assert client.healthz()["ok"] is True
            time.sleep(0.6)  # the server times the idle connection out
            assert client.healthz()["ok"] is True
            assert client.retries == 0
            assert len(svc.accepted) == 2

    def test_restart_on_same_port_costs_no_retry(self, tmp_path):
        with service(tmp_path / "a") as first:
            client = ServiceClient(first.url, timeout_s=5.0)
            job_id = client.submit("smoke")["id"]
            port = first.port
        try:
            with service(tmp_path / "b", port=port) as second:
                # retry=None: a stale socket would fail this call.
                with pytest.raises(ServiceError) as excinfo:
                    client.job(job_id)  # new store: unknown job
                assert excinfo.value.status == 404
                assert client.healthz()["ok"] is True
                assert client.retries == 0
                assert len(second.accepted) == 1
        finally:
            client.close()

    def test_dropped_request_is_a_retried_transport_failure(
            self, tmp_path):
        policy = ChaosPolicy(seed=1, http_drop_rate=1.0)
        retry = RetryPolicy(max_attempts=3, base_s=0.001, cap_s=0.005,
                            seed=0)
        with service(tmp_path, chaos=policy) as svc, \
                ServiceClient(svc.url, timeout_s=5.0,
                              retry=retry) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status is None
            assert client.retries >= 1
            counters = svc.store.stats_counters()
        assert counters["service.chaos.injected.http_drop"] == 3


class TestEarlyResponsesKeepTheConnectionInStep:
    """Each early answer to a ``POST /jobs`` is followed, on the same
    connection, by a request that must be parsed cleanly."""

    @pytest.mark.parametrize("setup, status", [
        ({"chaos": ChaosPolicy(seed=1, http_error_rate=1.0)}, 500),
        ({"admission": AdmissionController(shed_inflight=0)}, 429),
    ], ids=["chaos-500", "shed-429"])
    def test_next_request_after_early_error(self, tmp_path, setup,
                                            status):
        with service(tmp_path, **setup) as svc:
            conn = http.client.HTTPConnection(svc.host, svc.port,
                                              timeout=5.0)
            try:
                got, _ = _raw(conn, "POST", "/jobs",
                              json.dumps(SUBMIT).encode())
                assert got == status
                # /healthz is exempt from chaos and never shed.
                got, payload = _raw(conn, "GET", "/healthz")
                assert got == 200, payload
                assert payload["ok"] is True
            finally:
                conn.close()
            assert len(svc.accepted) == 1

    @pytest.mark.parametrize("framing", [
        b"Content-Length: %d" % (_MAX_BODY + 1),
        b"Content-Length: many",
        b"Transfer-Encoding: chunked",
    ], ids=["oversize", "bad-length", "chunked"])
    def test_unread_body_closes_the_connection(self, tmp_path, framing):
        """A body the server will not read must not stay in the stream
        to be parsed as the next request."""
        with service(tmp_path) as svc, \
                socket.create_connection((svc.host, svc.port),
                                         timeout=5.0) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n%s\r\n\r\n"
                % framing)
            data = b""
            while chunk := sock.recv(65536):  # to EOF: the server closes
                data += chunk
        head = data.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0].startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head


class TestErrorStatuses:
    def test_non_2xx_keeps_status_retry_after_and_detail(self, tmp_path):
        admission = AdmissionController(shed_inflight=0,
                                        shed_retry_after_s=0.25)
        with service(tmp_path, admission=admission) as svc, \
                ServiceClient(svc.url, timeout_s=5.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit("smoke")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.25
            assert "overloaded (shed.submit)" in str(excinfo.value)
            # The connection is still good after an error status.
            with pytest.raises(ServiceError) as excinfo:
                client.cancel("no-such-job")
            assert excinfo.value.status == 404
            assert excinfo.value.retry_after is None
            assert "no job 'no-such-job'" in str(excinfo.value)
            assert len(svc.accepted) == 1


class TestResultRoute:
    @pytest.mark.parametrize("suffix, content_type", [
        (".json", "application/json"), (".csv", "text/csv"),
    ])
    def test_one_row_read_picks_the_content_type(
            self, tmp_path, monkeypatch, suffix, content_type):
        with service(tmp_path) as svc:
            store = svc.store
            job_id = store.submit("t", {"campaign": "smoke"})
            store.claim("w", pid=0, lease_s=60.0)
            store.mark_running(job_id, "w", points_total=1)
            export = tmp_path / f"export{suffix}"
            export.write_bytes(b"a,b\n1,2\n")
            store.mark_done(job_id, "w", str(export))
            reads: list = []
            real_get = store.get

            def counting_get(job_id):
                reads.append(job_id)
                return real_get(job_id)

            monkeypatch.setattr(store, "get", counting_get)
            conn = http.client.HTTPConnection(svc.host, svc.port,
                                              timeout=5.0)
            try:
                conn.request("GET", f"/jobs/{job_id}/result")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == content_type
        assert body == b"a,b\n1,2\n"
        assert reads == [job_id]
