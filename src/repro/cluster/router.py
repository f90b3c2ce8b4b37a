"""The cluster router: one HTTP front door over N supervised replicas.

:class:`ClusterRouter` is a :class:`ThreadingHTTPServer` that owns a
:class:`~repro.cluster.replicas.ReplicaSet` and a
:class:`~repro.cluster.ring.HashRing`:

* ``POST /v1/solve`` and ``POST /v1/jobs`` are proxied to the replica that
  owns the request's graph name on the ring; a connection-level failure
  (or a freshly dead replica) falls through to the next node in ring
  order, so a SIGKILLed replica costs one extra proxy hop, not a failed
  request.  Solves are pure computations over registered graphs, which is
  what makes this POST-retry safe;
* ``POST /v1/graphs`` fans out to every live replica (and is replayed
  into restarted ones), so after a failover *any* replica can serve reads
  for any graph;
* ``POST /v1/batch`` fans a list of solve specs out concurrently and
  returns the answers in order;
* ``GET /v1/metrics`` merges every replica's metrics — counters summed,
  histograms folded bucket-by-bucket via
  :meth:`repro.obs.Histogram.merge` — plus cluster-level counters
  (``kplex_cluster_replica_restarts_total`` et al.) in both JSON and
  Prometheus text;
* ``/healthz`` / ``/readyz`` are cluster-aware: degraded while any
  replica is down, 503 only when none can serve;
* a **peer-warm queue**: when a replica answers a solve with
  ``X-KPlex-Cache: miss``, the router re-posts the request *spec* (never
  result payloads — the same rule snapshots follow) to the ring's next
  live replica, so the backup already holds the answer when a failover
  sends the repeat request its way.

The router carries its own trace propagation: it honours or mints
``X-Request-Id``, records a ``router`` span (annotated with the chosen
replica) in its own recorder, and forwards the id so the replica's span
tree shares the request id — ``GET /v1/trace/<id>`` on the router returns
both sides.
"""

from __future__ import annotations

import json
import logging
import queue
import signal
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..errors import ClusterError, ReplicaUnavailableError
from ..obs import MetricsRegistry, Trace, TraceRecorder, activate, log_event, new_request_id
from ..server.handlers import MAX_REQUEST_ID_CHARS, _HTTPFail, request_body_length
from ..service.service import render_prometheus
from .proxy import _HOP_HEADERS, ProxyResponse, forward, open_stream
from .replicas import DEFAULT_RESTART_POLICY, REPLICA_UP, Replica, ReplicaSet
from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterRouter",
    "ClusterRequestHandler",
    "replica_argv",
    "start_cluster",
    "serve_cluster",
]

#: Numeric per-replica metrics summed into the cluster-level document.
_SUM_KEYS = (
    "requests_total", "admitted", "rejected", "completed", "errors",
    "in_flight", "running", "queued", "cache_hits", "cache_misses",
    "coalesced", "timeouts", "recoveries_total",
)

#: Most recent job-id → replica-id routes remembered (older ones fall back
#: to probing every live replica).
_JOB_ROUTE_CAPACITY = 4096


class _PeerWarmer:
    """Bounded queue + worker broadcasting miss specs to backup replicas.

    Strictly best-effort: a full queue drops (counted), a failed warm is
    counted and forgotten, and only request *specs* travel — the backup
    recomputes through its normal service path, so a warmed entry is as
    trustworthy as a client-triggered one.
    """

    _SENTINEL = None

    def __init__(self, router: "ClusterRouter", depth: int = 256) -> None:
        self.router = router
        self.queue: "queue.Queue" = queue.Queue(maxsize=depth)
        # Bounded recent-marker set so one hot spec is not re-warmed on
        # every subsequent miss of a sibling spec.
        self._recent: "OrderedDict[str, bool]" = OrderedDict()
        self._recent_lock = threading.Lock()
        self.thread = threading.Thread(
            target=self._loop, name="kplex-peer-warm", daemon=True
        )
        self.thread.start()

    def enqueue(self, target_id: str, spec: Dict[str, object]) -> bool:
        spec = dict(spec)
        spec["include_results"] = False  # warm the cache, not the wire
        marker = target_id + "\x00" + json.dumps(spec, sort_keys=True, default=str)
        with self._recent_lock:
            if marker in self._recent:
                return False
            self._recent[marker] = True
            while len(self._recent) > 1024:
                self._recent.popitem(last=False)
        try:
            self.queue.put_nowait((target_id, spec))
            return True
        except queue.Full:
            self.router.telemetry.counter(
                "cluster_warm_drops_total",
                help_text="Peer-warm specs dropped because the queue was full.",
            ).inc()
            return False

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            if item is self._SENTINEL:
                return
            target_id, spec = item
            replica = self.router.replica_set.replicas.get(target_id)
            if replica is None or replica.state != REPLICA_UP or not replica.url:
                continue
            try:
                upstream = forward(
                    replica.url,
                    "POST",
                    "/v1/solve",
                    body=json.dumps(spec).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    timeout=self.router.proxy_timeout,
                )
                ok = upstream.status == 200
            except OSError:
                ok = False
            counter = (
                "cluster_warm_broadcasts_total" if ok else "cluster_warm_failures_total"
            )
            self.router.telemetry.counter(
                counter,
                help_text=(
                    "Peer-warm specs successfully pre-executed on a backup replica."
                    if ok
                    else "Peer-warm broadcasts that failed."
                ),
            ).inc()
            if ok:
                log_event(
                    "peer_warm",
                    replica=target_id,
                    graph=spec.get("graph"),
                    k=spec.get("k"),
                    q=spec.get("q"),
                )

    def stop(self, timeout: float = 5.0) -> None:
        self.queue.put(self._SENTINEL)
        self.thread.join(timeout)


class ClusterRouter(ThreadingHTTPServer):
    """HTTP router over a :class:`ReplicaSet` (see module docstring)."""

    daemon_threads = False  # joined on server_close: in-flight relays finish
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple,
        replica_set: ReplicaSet,
        vnodes: int = DEFAULT_VNODES,
        peer_warm: bool = True,
        warm_queue_depth: int = 256,
        proxy_timeout: float = 60.0,
        trace_capacity: int = 256,
        logger=None,
    ) -> None:
        super().__init__(address, ClusterRequestHandler)
        self.replica_set = replica_set
        self.ring = HashRing(replica_set.ids, vnodes=vnodes)
        self.proxy_timeout = proxy_timeout
        self.telemetry = MetricsRegistry()
        self.recorder = (
            TraceRecorder(capacity=trace_capacity) if trace_capacity > 0 else None
        )
        self.draining = False
        self._logger = logger
        # Raw graph-registration bodies, replayed into restarted replicas.
        self._registrations: List[Dict[str, object]] = []
        self._registrations_lock = threading.Lock()
        self._job_routes: "OrderedDict[str, str]" = OrderedDict()
        self._job_routes_lock = threading.Lock()
        self.warmer = _PeerWarmer(self, warm_queue_depth) if peer_warm else None
        self._drain_lock = threading.Lock()
        self._drained = False
        self._drain_done = threading.Event()
        replica_set.on_restart = self._replay_registrations

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        display = "127.0.0.1" if host in ("0.0.0.0", "::") else host
        return f"http://{display}:{port}"

    def log(self, message: str) -> None:
        if self._logger is not None:
            self._logger(message)

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def placement(self, graph_name: str) -> List[Replica]:
        """Replicas in ring-preference order for ``graph_name`` (owner first)."""
        order = self.ring.lookup_n(graph_name, len(self.ring))
        return [self.replica_set.replicas[rid] for rid in order]

    # ------------------------------------------------------------------ #
    # Registration replay (failover warm path)
    # ------------------------------------------------------------------ #
    def record_registration(self, body: Dict[str, object]) -> None:
        with self._registrations_lock:
            self._registrations.append(body)

    def _replay_registrations(self, replica: Replica) -> None:
        """Re-register every router-known graph into a restarted replica.

        409 (already registered — e.g. recovered from the replica's own
        warm-start snapshot) counts as success: the goal is presence, and
        re-registering with ``replace`` would bump the epoch and strand the
        snapshot-warmed cache entries.
        """
        with self._registrations_lock:
            bodies = list(self._registrations)
        for body in bodies:
            try:
                upstream = forward(
                    replica.url,  # type: ignore[arg-type]
                    "POST",
                    "/v1/graphs",
                    body=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    timeout=self.proxy_timeout,
                )
            except OSError as exc:  # pragma: no cover - replica died again
                log_event(
                    "replica_replay_failed",
                    level=logging.WARNING,
                    replica=replica.id,
                    graph=body.get("name"),
                    error=str(exc),
                )
                continue
            if upstream.status not in (201, 409):
                log_event(
                    "replica_replay_failed",
                    level=logging.WARNING,
                    replica=replica.id,
                    graph=body.get("name"),
                    status=upstream.status,
                )

    # ------------------------------------------------------------------ #
    # Job routing
    # ------------------------------------------------------------------ #
    def record_job_route(self, job_id: str, replica_id: str) -> None:
        with self._job_routes_lock:
            self._job_routes[job_id] = replica_id
            self._job_routes.move_to_end(job_id)
            while len(self._job_routes) > _JOB_ROUTE_CAPACITY:
                self._job_routes.popitem(last=False)

    def job_route(self, job_id: str) -> Optional[str]:
        with self._job_routes_lock:
            return self._job_routes.get(job_id)

    @property
    def job_routes_count(self) -> int:
        with self._job_routes_lock:
            return len(self._job_routes)

    @property
    def registrations_count(self) -> int:
        with self._registrations_lock:
            return len(self._registrations)

    # ------------------------------------------------------------------ #
    # Merged metrics
    # ------------------------------------------------------------------ #
    def merged_metrics(self) -> Tuple[Dict[str, object], MetricsRegistry]:
        """Cluster-wide metrics document + a merged telemetry registry.

        A fresh registry is built per scrape (merging into a long-lived one
        would double-count replica counters on every call).
        """
        registry = MetricsRegistry()
        totals: Dict[str, float] = {key: 0 for key in _SUM_KEYS}
        per_replica: Dict[str, Dict[str, object]] = {}
        up = 0
        for rid in self.replica_set.ids:
            replica = self.replica_set.replicas[rid]
            entry: Dict[str, object] = dict(replica.describe())
            if replica.state == REPLICA_UP and replica.url:
                try:
                    upstream = forward(
                        replica.url, "GET", "/v1/metrics",
                        timeout=self.proxy_timeout,
                    )
                    payload = json.loads(upstream.body)
                except (OSError, ValueError) as exc:
                    entry["error"] = str(exc)
                else:
                    up += 1
                    for key in _SUM_KEYS:
                        value = payload.get(key)
                        if isinstance(value, (int, float)):
                            totals[key] += value
                    telemetry = payload.get("telemetry")
                    if isinstance(telemetry, dict):
                        registry.merge_snapshot(telemetry)
                    entry.update(
                        {
                            key: payload[key]
                            for key in ("requests_total", "completed", "errors",
                                        "cache_hits", "cache_misses", "in_flight")
                            if key in payload
                        }
                    )
            per_replica[rid] = entry
        registry.merge_snapshot(self.telemetry.snapshot())
        served = totals["cache_hits"] + totals["cache_misses"] + totals["coalesced"]
        cluster: Dict[str, object] = {
            "replicas": len(self.replica_set.ids),
            "up": up,
            "down": len(self.replica_set.ids) - up,
            "replica_restarts_total": self.replica_set.restarts_total,
            "registrations": self.registrations_count,
            "jobs_routed": self.job_routes_count,
            "ring_vnodes": self.ring.vnodes,
            "peer_warm_enabled": self.warmer is not None,
            "peer_warm_queue_depth": (
                self.warmer.queue.qsize() if self.warmer is not None else 0
            ),
        }
        document: Dict[str, object] = {"cluster": cluster}
        document.update(totals)
        document["hit_rate"] = (
            (totals["cache_hits"] + totals["coalesced"]) / served if served else 0.0
        )
        document["replicas"] = per_replica
        document["telemetry"] = registry.snapshot()
        return document, registry

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, stop_replicas: bool = True) -> Dict[str, Optional[int]]:
        """Graceful shutdown: stop accepts, finish relays, drain replicas.

        Returns the replica exit codes (each 0 under the drain contract).
        Idempotent; concurrent callers block until the first finishes.
        """
        with self._drain_lock:
            first = not self._drained
            self._drained = True
        if not first:
            self._drain_done.wait()
            return {}
        self.draining = True
        self.shutdown()
        self.server_close()  # joins in-flight relays (replicas still up)
        if self.warmer is not None:
            self.warmer.stop()
        exit_codes: Dict[str, Optional[int]] = {}
        if stop_replicas:
            exit_codes = self.replica_set.stop()
        self._drain_done.set()
        return exit_codes

    def initiate_shutdown(self) -> threading.Thread:
        thread = threading.Thread(target=self.drain, name="kplex-cluster-drain")
        thread.start()
        return thread


class ClusterRequestHandler(BaseHTTPRequestHandler):
    """Routes cluster HTTP traffic onto the owning :class:`ClusterRouter`."""

    protocol_version = "HTTP/1.1"
    server_version = f"kplex-cluster/{__version__}"
    disable_nagle_algorithm = True
    timeout = 60.0
    _request_id: Optional[str] = None
    _response_status: int = 0

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch(
            {
                "/healthz": self._get_health,
                "/readyz": self._get_ready,
                "/v1/cluster": self._get_cluster,
                "/v1/graphs": self._get_graphs,
                "/v1/metrics": self._get_metrics,
                "/v1/jobs": self._get_jobs,
                "/v1/trace": self._get_traces,
            }
        )

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch(
            {
                "/v1/solve": self._post_solve,
                "/v1/batch": self._post_batch,
                "/v1/graphs": self._post_graphs,
                "/v1/snapshot": self._post_snapshot,
                "/v1/jobs": self._post_jobs,
            }
        )

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch({})

    def _job_route(self, path: str):
        parts = path.rstrip("/").split("/")
        if parts[:3] != ["", "v1", "jobs"] or len(parts) < 4 or not parts[3]:
            return None
        job_id = parts[3]
        if len(parts) == 4:
            by_method = {"GET": self._get_job, "DELETE": self._delete_job}
        elif len(parts) == 5 and parts[4] == "results":
            by_method = {"GET": self._get_job_results}
        else:
            raise _HTTPFail(404, "NotFound", f"no route for {path}")
        handler = by_method.get(self.command)
        if handler is None:
            raise _HTTPFail(
                405, "MethodNotAllowed", f"{self.command} not allowed on {path}"
            )
        return lambda query: handler(query, job_id)

    def _trace_route(self, path: str):
        parts = path.rstrip("/").split("/")
        if parts[:3] != ["", "v1", "trace"] or len(parts) != 4 or not parts[3]:
            return None
        if self.command != "GET":
            raise _HTTPFail(
                405, "MethodNotAllowed", f"{self.command} not allowed on {path}"
            )
        request_id = parts[3]
        return lambda query: self._get_trace(query, request_id)

    def _dispatch(self, routes: Dict[str, object]) -> None:
        router: ClusterRouter = self.server  # type: ignore[assignment]
        parsed = urlparse(self.path)
        started = time.time()
        supplied = (self.headers.get("X-Request-Id") or "").strip()
        self._request_id = (
            supplied[:MAX_REQUEST_ID_CHARS] if supplied else new_request_id()
        )
        self._response_status = 0
        if router.recorder is not None:
            trace: Optional[Trace] = Trace(request_id=self._request_id)
            root = trace.span("router", method=self.command, path=parsed.path)
            router.recorder.record(trace)
        else:
            trace = None
            root = None
        self._root_span = root
        handler = routes.get(parsed.path)
        try:
            with activate(root):
                try:
                    if handler is None:
                        handler = self._job_route(parsed.path)
                    if handler is None:
                        handler = self._trace_route(parsed.path)
                    if handler is None:
                        raise _HTTPFail(404, "NotFound", f"no route for {parsed.path}")
                    handler(parse_qs(parsed.query))  # type: ignore[operator]
                except _HTTPFail as fail:
                    self._send_error(fail.status, fail.kind, str(fail))
                except ReplicaUnavailableError as exc:
                    self._send_error(
                        503, "ReplicaUnavailableError", str(exc),
                        retry_after=exc.retry_after,
                    )
                except ClusterError as exc:
                    self._send_error(502, "ClusterError", str(exc))
                except OSError as exc:
                    # Transport failure after the per-route retry loop gave
                    # up: the upstream replica is the broken side.
                    self._send_error(502, "BadGateway", str(exc))
                except Exception as exc:  # noqa: BLE001 - every error gets a body
                    if root is not None:
                        root.set(error=type(exc).__name__)
                    self._send_error(500, type(exc).__name__, str(exc))
        finally:
            status = self._response_status
            if trace is not None:
                root.set(status=status)
                root.finish("error" if status >= 500 else "ok")
                trace.finish()
            duration = time.time() - started
            router.telemetry.counter(
                "cluster_http_requests_total",
                labels={"route": parsed.path, "status": str(status)},
                help_text="Router HTTP requests by route and status code.",
            ).inc()
            router.telemetry.histogram(
                "cluster_request_duration_seconds",
                labels={"route": parsed.path},
                help_text="Router-observed request duration (proxy included).",
            ).observe(duration)
            router.log(
                f'{self.client_address[0] if self.client_address else "-"} '
                f'"{self.command} {parsed.path}" {status} '
                f"{round(duration * 1000.0, 3)}ms {self._request_id}"
            )

    # ------------------------------------------------------------------ #
    # Proxy plumbing
    # ------------------------------------------------------------------ #
    @property
    def router(self) -> ClusterRouter:
        return self.server  # type: ignore[return-value]

    def _forward_headers(self, content_type: Optional[str] = None) -> Dict[str, str]:
        headers = {
            "X-Request-Id": self._request_id or new_request_id(),
            "X-Forwarded-For": (
                self.client_address[0] if self.client_address else "unknown"
            ),
        }
        if content_type:
            headers["Content-Type"] = content_type
        return headers

    def _read_body(self) -> bytes:
        length = request_body_length(self)
        return self.rfile.read(length) if length else b""

    def _read_json(self, optional: bool = False) -> Dict[str, object]:
        raw = self._read_body()
        if not raw:
            if optional:
                return {}
            raise _HTTPFail(400, "BadRequest", "a JSON request body is required")
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _HTTPFail(400, "BadRequest", f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPFail(400, "BadRequest", "the request body must be an object")
        return body

    def _relay(self, upstream: ProxyResponse) -> None:
        """Write an upstream response through to the client verbatim."""
        try:
            self.send_response(upstream.status)
            for key, value in upstream.headers.items():
                if key.lower() == "x-request-id":
                    continue  # re-stamped below so router and replica agree
                self.send_header(key, value)
            if self._request_id is not None:
                self.send_header("X-Request-Id", self._request_id)
            self.send_header("Content-Length", str(len(upstream.body)))
            self.end_headers()
            self.wfile.write(upstream.body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        encoded = json.dumps(payload, default=str).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            if self._request_id is not None:
                self.send_header("X-Request-Id", self._request_id)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _send_error(
        self,
        status: int,
        kind: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        headers = (
            {"Retry-After": str(max(1, round(retry_after)))}
            if retry_after is not None
            else None
        )
        self._send_json(
            status,
            {"error": {"type": kind, "message": message, "status": status}},
            headers=headers,
        )

    def _solve_upstream(
        self, raw: bytes, body: Dict[str, object], path: str = "/v1/solve"
    ) -> ProxyResponse:
        """Route one solve spec to its ring owner, failing over in ring order.

        The peer-warm enqueue rides on the response: a ``200`` that the
        serving replica marked ``X-KPlex-Cache: miss`` is new work, so the
        spec is queued for the next live replica on the ring.
        """
        router = self.router
        name = body.get("graph")
        if not isinstance(name, str) or not name:
            raise _HTTPFail(400, "BadRequest", "'graph' must be a non-empty string")
        attempts = 0
        for replica in router.placement(name):
            if replica.state != REPLICA_UP or not replica.url:
                continue
            attempts += 1
            try:
                upstream = forward(
                    replica.url,
                    "POST",
                    path,
                    body=raw,
                    headers=self._forward_headers("application/json"),
                    timeout=router.proxy_timeout,
                )
            except OSError as exc:
                # Dead mid-flight (e.g. SIGKILL between supervisor polls):
                # solves are repeatable pure computations, so retry the next
                # ring node instead of failing the accepted request.
                router.telemetry.counter(
                    "cluster_proxy_retries_total",
                    help_text="Proxied requests retried on a backup replica.",
                ).inc()
                log_event(
                    "proxy_retry",
                    level=logging.WARNING,
                    replica=replica.id,
                    graph=name,
                    error=str(exc),
                )
                continue
            root = getattr(self, "_root_span", None)
            if root is not None:
                root.set(replica=replica.id)
            if (
                router.warmer is not None
                and upstream.status == 200
                and upstream.headers.get("X-KPlex-Cache") == "miss"
            ):
                backup = next(
                    (
                        peer
                        for peer in router.placement(name)
                        if peer.id != replica.id and peer.state == REPLICA_UP
                    ),
                    None,
                )
                if backup is not None:
                    router.warmer.enqueue(backup.id, body)
            return upstream
        raise ReplicaUnavailableError(
            f"no live replica can serve graph {name!r} "
            f"({attempts} attempts, {len(router.replica_set.live())} live)"
        )

    def _any_live(self) -> List[Replica]:
        live = self.router.replica_set.live()
        if not live:
            raise ReplicaUnavailableError("no live replicas")
        return live

    # ------------------------------------------------------------------ #
    # Health / topology
    # ------------------------------------------------------------------ #
    def _get_health(self, _query: Dict[str, list]) -> None:
        router = self.router
        replicas = router.replica_set.describe()
        up = sum(1 for entry in replicas if entry["state"] == REPLICA_UP)
        total = len(replicas)
        if router.draining or up == 0:
            self._send_json(
                503,
                {
                    "status": "draining" if router.draining else "unavailable",
                    "replicas": {"total": total, "up": up},
                },
                headers={"Retry-After": "1"},
            )
            return
        self._send_json(
            200,
            {
                "status": "ok" if up == total else "degraded",
                "replicas": {"total": total, "up": up},
            },
        )

    def _get_ready(self, _query: Dict[str, list]) -> None:
        router = self.router
        up = len(router.replica_set.live())
        total = len(router.replica_set.ids)
        body: Dict[str, object] = {"replicas": {"total": total, "up": up}}
        if router.draining or up == 0:
            body["status"] = "draining" if router.draining else "unavailable"
            self._send_json(503, body, headers={"Retry-After": "1"})
            return
        body["status"] = "ready" if up == total else "degraded"
        self._send_json(200, body)

    def _get_cluster(self, query: Dict[str, list]) -> None:
        router = self.router
        payload: Dict[str, object] = {
            "router": router.url,
            "ring": {"vnodes": router.ring.vnodes, "nodes": router.ring.nodes},
            "replicas": router.replica_set.describe(),
            "restarts_total": router.replica_set.restarts_total,
            "registrations": router.registrations_count,
            "jobs_routed": router.job_routes_count,
            "peer_warm": router.warmer is not None,
        }
        if query.get("graph"):
            name = query["graph"][0]
            payload["placement"] = {
                "graph": name,
                "order": [replica.id for replica in router.placement(name)],
            }
        self._send_json(200, payload)

    # ------------------------------------------------------------------ #
    # Graphs
    # ------------------------------------------------------------------ #
    def _get_graphs(self, _query: Dict[str, list]) -> None:
        last_exc: Optional[OSError] = None
        for replica in self._any_live():
            try:
                self._relay(
                    forward(
                        replica.url,  # type: ignore[arg-type]
                        "GET", "/v1/graphs",
                        headers=self._forward_headers(),
                        timeout=self.router.proxy_timeout,
                    )
                )
                return
            except OSError as exc:
                last_exc = exc
        raise last_exc or ReplicaUnavailableError("no live replicas")

    def _post_graphs(self, _query: Dict[str, list]) -> None:
        router = self.router
        raw = self._read_body()
        try:
            body = json.loads(raw) if raw else None
        except ValueError as exc:
            raise _HTTPFail(400, "BadRequest", f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPFail(400, "BadRequest", "the request body must be an object")
        # Fan out so every replica can serve this graph after a failover.
        successes: List[ProxyResponse] = []
        failures: List[ProxyResponse] = []
        for replica in self._any_live():
            try:
                upstream = forward(
                    replica.url,  # type: ignore[arg-type]
                    "POST", "/v1/graphs",
                    body=raw,
                    headers=self._forward_headers("application/json"),
                    timeout=router.proxy_timeout,
                )
            except OSError:
                continue
            (successes if 200 <= upstream.status < 300 else failures).append(upstream)
        if successes:
            router.record_registration(body)
            self._relay(successes[0])
            return
        if failures:
            self._relay(failures[0])  # e.g. a structured 409/400 from a replica
            return
        raise ReplicaUnavailableError("graph registration reached no live replica")

    # ------------------------------------------------------------------ #
    # Solve / batch
    # ------------------------------------------------------------------ #
    def _post_solve(self, _query: Dict[str, list]) -> None:
        raw = self._read_body()
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _HTTPFail(400, "BadRequest", f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPFail(400, "BadRequest", "the request body must be an object")
        self._relay(self._solve_upstream(raw, body))

    def _post_batch(self, _query: Dict[str, list]) -> None:
        body = self._read_json()
        specs = body.get("requests")
        if not isinstance(specs, list):
            raise _HTTPFail(400, "BadRequest", "'requests' must be a list of specs")
        if not specs:
            self._send_json(200, {"responses": [], "count": 0})
            return

        def run_one(spec: object) -> Dict[str, object]:
            if not isinstance(spec, dict):
                return {
                    "status": 400,
                    "body": {"error": {"type": "BadRequest",
                                       "message": "each request must be an object"}},
                }
            try:
                upstream = self._solve_upstream(
                    json.dumps(spec).encode("utf-8"), spec
                )
            except (_HTTPFail, ClusterError, OSError) as exc:
                status = getattr(exc, "status", None) or 503
                return {
                    "status": status,
                    "body": {"error": {"type": type(exc).__name__,
                                       "message": str(exc)}},
                }
            try:
                decoded: object = json.loads(upstream.body)
            except ValueError:
                decoded = upstream.body.decode("utf-8", "replace")
            return {"status": upstream.status, "body": decoded}

        with ThreadPoolExecutor(
            max_workers=min(8, len(specs)), thread_name_prefix="kplex-batch"
        ) as pool:
            responses = list(pool.map(run_one, specs))
        self._send_json(200, {"responses": responses, "count": len(responses)})

    # ------------------------------------------------------------------ #
    # Jobs
    # ------------------------------------------------------------------ #
    def _post_jobs(self, _query: Dict[str, list]) -> None:
        router = self.router
        raw = self._read_body()
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise _HTTPFail(400, "BadRequest", f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPFail(400, "BadRequest", "the request body must be an object")
        name = body.get("graph")
        if not isinstance(name, str) or not name:
            raise _HTTPFail(400, "BadRequest", "'graph' must be a non-empty string")
        last_exc: Optional[OSError] = None
        for replica in router.placement(name):
            if replica.state != REPLICA_UP or not replica.url:
                continue
            try:
                upstream = forward(
                    replica.url, "POST", "/v1/jobs",
                    body=raw,
                    headers=self._forward_headers("application/json"),
                    timeout=router.proxy_timeout,
                )
            except OSError as exc:
                last_exc = exc
                continue
            if 200 <= upstream.status < 300:
                try:
                    job_id = json.loads(upstream.body).get("id")
                except ValueError:
                    job_id = None
                if isinstance(job_id, str):
                    router.record_job_route(job_id, replica.id)
            root = getattr(self, "_root_span", None)
            if root is not None:
                root.set(replica=replica.id)
            self._relay(upstream)
            return
        if last_exc is not None:
            raise last_exc
        raise ReplicaUnavailableError(f"no live replica for graph {name!r}")

    def _get_jobs(self, query: Dict[str, list]) -> None:
        suffix = f"?state={query['state'][0]}" if query.get("state") else ""
        merged: List[Dict[str, object]] = []
        for replica in self._any_live():
            try:
                upstream = forward(
                    replica.url, "GET", f"/v1/jobs{suffix}",  # type: ignore[arg-type]
                    headers=self._forward_headers(),
                    timeout=self.router.proxy_timeout,
                )
                payload = json.loads(upstream.body)
            except (OSError, ValueError):
                continue
            for record in payload.get("jobs", []):
                if isinstance(record, dict):
                    record["replica"] = replica.id
                    merged.append(record)
        self._send_json(200, {"jobs": merged, "count": len(merged)})

    def _resolve_job_replica(self, job_id: str) -> Replica:
        """The replica holding ``job_id``: from the route map, else by probe."""
        router = self.router
        mapped = router.job_route(job_id)
        if mapped is not None:
            replica = router.replica_set.replicas.get(mapped)
            if replica is not None and replica.state == REPLICA_UP:
                return replica
            # The owning replica restarted: its in-memory job table is gone.
            # Fall through to the probe, which will surface an honest 404.
        for replica in self._any_live():
            try:
                upstream = forward(
                    replica.url, "GET", f"/v1/jobs/{job_id}",  # type: ignore[arg-type]
                    headers=self._forward_headers(),
                    timeout=router.proxy_timeout,
                )
            except OSError:
                continue
            if upstream.status != 404:
                router.record_job_route(job_id, replica.id)
                return replica
        raise _HTTPFail(404, "JobNotFoundError", f"no job with id {job_id!r}")

    def _get_job(self, _query: Dict[str, list], job_id: str) -> None:
        replica = self._resolve_job_replica(job_id)
        self._relay(
            forward(
                replica.url, "GET", f"/v1/jobs/{job_id}",  # type: ignore[arg-type]
                headers=self._forward_headers(),
                timeout=self.router.proxy_timeout,
            )
        )

    def _delete_job(self, _query: Dict[str, list], job_id: str) -> None:
        replica = self._resolve_job_replica(job_id)
        self._relay(
            forward(
                replica.url, "DELETE", f"/v1/jobs/{job_id}",  # type: ignore[arg-type]
                headers=self._forward_headers(),
                timeout=self.router.proxy_timeout,
            )
        )

    def _get_job_results(self, query: Dict[str, list], job_id: str) -> None:
        replica = self._resolve_job_replica(job_id)
        stream = (query.get("stream") or ["0"])[0] not in ("0", "false", "")
        flat = "&".join(
            f"{key}={values[0]}" for key, values in query.items() if values
        )
        path = f"/v1/jobs/{job_id}/results" + (f"?{flat}" if flat else "")
        if not stream:
            self._relay(
                forward(
                    replica.url, "GET", path,  # type: ignore[arg-type]
                    headers=self._forward_headers(),
                    timeout=self.router.proxy_timeout,
                )
            )
            return
        # Streaming relay: re-chunk the replica's NDJSON lines one-by-one so
        # backpressure propagates (a slow client slows the replica's solver,
        # not the router's memory).
        conn, response = open_stream(
            replica.url,  # type: ignore[arg-type]
            path,
            headers=self._forward_headers(),
            timeout=self.router.proxy_timeout,
        )
        try:
            if response.status >= 400:
                body = response.read()
                kept = {
                    key: value
                    for key, value in response.getheaders()
                    if key.lower() not in _HOP_HEADERS
                }
                self._relay(
                    ProxyResponse(response.status, response.reason, kept, body)
                )
                return
            self.send_response(response.status)
            for key, value in response.getheaders():
                if key.lower() in _HOP_HEADERS or key.lower() == "x-request-id":
                    continue
                self.send_header(key, value)
            if self._request_id is not None:
                self.send_header("X-Request-Id", self._request_id)
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            try:
                for line in response:
                    if not line:
                        continue
                    self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
                    self.wfile.write(line)
                    self.wfile.write(b"\r\n")
                    self.wfile.flush()
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass  # client went away; the upstream close releases the job
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # Metrics / snapshot / traces
    # ------------------------------------------------------------------ #
    def _get_metrics(self, query: Dict[str, list]) -> None:
        fmt = (query.get("format") or ["json"])[0].lower()
        document, registry = self.router.merged_metrics()
        if fmt == "prometheus":
            flat = {
                key: value
                for key, value in document.items()
                if key not in ("telemetry", "replicas")
            }
            text = render_prometheus(flat) + registry.render_prometheus()
            encoded = text.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(encoded)))
            if self._request_id is not None:
                self.send_header("X-Request-Id", self._request_id)
            self.end_headers()
            self.wfile.write(encoded)
        elif fmt == "json":
            self._send_json(200, document)
        else:
            raise _HTTPFail(400, "BadRequest", f"unknown metrics format {fmt!r}")

    def _post_snapshot(self, _query: Dict[str, list]) -> None:
        raw = self._read_body()
        results: Dict[str, object] = {}
        for replica in self._any_live():
            try:
                upstream = forward(
                    replica.url, "POST", "/v1/snapshot",  # type: ignore[arg-type]
                    body=raw or None,
                    headers=self._forward_headers(
                        "application/json" if raw else None
                    ),
                    timeout=self.router.proxy_timeout,
                )
                try:
                    results[replica.id] = json.loads(upstream.body)
                except ValueError:
                    results[replica.id] = {"status": upstream.status}
            except OSError as exc:
                results[replica.id] = {"error": str(exc)}
        self._send_json(200, {"replicas": results})

    def _get_traces(self, query: Dict[str, list]) -> None:
        recorder = self.router.recorder
        if recorder is None:
            raise _HTTPFail(
                503, "ServiceClosedError", "tracing is disabled on this router"
            )
        limit = 50
        if query.get("limit"):
            try:
                limit = int(query["limit"][0])
            except ValueError as exc:
                raise _HTTPFail(400, "BadRequest", "'limit' must be an integer") from exc
        records = []
        for trace in recorder.list(limit=limit):
            root = trace.root
            entry: Dict[str, object] = {
                "request_id": trace.request_id,
                "created_at": round(trace.created_at, 6),
                "spans": len(trace.spans),
                "root": root.name if root is not None else None,
            }
            duration = trace.duration_ms
            if duration is not None:
                entry["duration_ms"] = round(duration, 3)
            records.append(entry)
        self._send_json(
            200, {"traces": records, "count": len(records), "recorded": len(recorder)}
        )

    def _get_trace(self, _query: Dict[str, list], request_id: str) -> None:
        """Router span plus the owning replica's span tree for one request id.

        Propagation contract: the router forwarded its ``X-Request-Id``
        downstream, so the replica recorded its trace under the same id —
        probing the replicas stitches the two sides together.
        """
        router = self.router
        payload: Dict[str, object] = {"request_id": request_id}
        if router.recorder is not None:
            trace = router.recorder.get(request_id)
            if trace is not None:
                router_doc = trace.to_dict()
                router_doc["tree"] = trace.tree()
                payload["router"] = router_doc
        for replica in router.replica_set.live():
            try:
                upstream = forward(
                    replica.url, "GET", f"/v1/trace/{request_id}",  # type: ignore[arg-type]
                    headers={"X-Request-Id": new_request_id()},
                    timeout=router.proxy_timeout,
                )
            except OSError:
                continue
            if upstream.status == 200:
                try:
                    payload["replica"] = json.loads(upstream.body)
                    payload["replica_id"] = replica.id
                except ValueError:  # pragma: no cover - defensive
                    pass
                break
        if "router" not in payload and "replica" not in payload:
            raise _HTTPFail(
                404, "NotFound", f"no trace recorded for request id {request_id!r}"
            )
        self._send_json(200, payload)

    # ------------------------------------------------------------------ #
    # Logging plumbing
    # ------------------------------------------------------------------ #
    def log_request(self, code: object = "-", size: object = "-") -> None:
        try:
            self._response_status = int(getattr(code, "value", code))
        except (TypeError, ValueError):
            pass

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        self.server.log(format % args)  # type: ignore[attr-defined]


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def replica_argv(replica_id: str, extra_args: Sequence[str] = ()) -> List[str]:
    """Default argv for one replica: ``serve-http`` on an ephemeral port.

    The replica binds loopback port 0 and announces the chosen port on its
    boot line; ``--replica-id`` stamps every response with
    ``X-KPlex-Replica`` so clients (and the bench gates) can see which
    process answered.  ``extra_args`` carries the cluster-wide serve-http
    flags (``--register``, ``--cache-entries``, ``--snapshot``, ...).
    """
    return [
        sys.executable, "-m", "repro.cli", "serve-http",
        "--host", "127.0.0.1", "--port", "0",
        "--replica-id", replica_id,
        *extra_args,
    ]


def _build_cluster(
    replicas: int,
    host: str,
    port: int,
    argv_factory: Optional[Callable[[str], List[str]]],
    replica_args: Sequence[str],
    vnodes: int,
    peer_warm: bool,
    warm_queue_depth: int,
    proxy_timeout: float,
    boot_timeout: float,
    max_restarts: Optional[int],
    trace_capacity: int,
    logger,
    quiet_replicas: bool,
) -> ClusterRouter:
    if replicas < 1:
        raise ClusterError("a cluster needs at least one replica")
    ids = [f"r{index}" for index in range(replicas)]
    factory = argv_factory or (lambda rid: replica_argv(rid, replica_args))
    replica_set = ReplicaSet(
        ids,
        factory,
        boot_timeout=boot_timeout,
        restart_policy=DEFAULT_RESTART_POLICY,
        max_restarts=max_restarts,
        quiet=quiet_replicas,
    )
    replica_set.start()
    try:
        return ClusterRouter(
            (host, port),
            replica_set,
            vnodes=vnodes,
            peer_warm=peer_warm,
            warm_queue_depth=warm_queue_depth,
            proxy_timeout=proxy_timeout,
            trace_capacity=trace_capacity,
            logger=logger,
        )
    except BaseException:
        replica_set.stop(timeout=5.0)
        raise


def start_cluster(
    replicas: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    argv_factory: Optional[Callable[[str], List[str]]] = None,
    replica_args: Sequence[str] = (),
    vnodes: int = DEFAULT_VNODES,
    peer_warm: bool = True,
    warm_queue_depth: int = 256,
    proxy_timeout: float = 60.0,
    boot_timeout: float = 30.0,
    max_restarts: Optional[int] = None,
    trace_capacity: int = 256,
    logger=None,
    quiet_replicas: bool = True,
) -> ClusterRouter:
    """Boot replicas + router on a background thread (tests and benchmarks).

    Returns once every replica is ready and the router accepts requests;
    tear the whole topology down with ``router.drain()``.
    """
    router = _build_cluster(
        replicas, host, port, argv_factory, replica_args, vnodes, peer_warm,
        warm_queue_depth, proxy_timeout, boot_timeout, max_restarts,
        trace_capacity, logger, quiet_replicas,
    )
    thread = threading.Thread(
        target=router.serve_forever, name="kplex-cluster-http", daemon=True
    )
    thread.start()
    router._serve_thread = thread  # type: ignore[attr-defined]
    return router


def serve_cluster(
    replicas: int = 2,
    host: str = "127.0.0.1",
    port: int = 8080,
    argv_factory: Optional[Callable[[str], List[str]]] = None,
    replica_args: Sequence[str] = (),
    vnodes: int = DEFAULT_VNODES,
    peer_warm: bool = True,
    warm_queue_depth: int = 256,
    proxy_timeout: float = 60.0,
    boot_timeout: float = 30.0,
    max_restarts: Optional[int] = None,
    trace_capacity: int = 256,
    logger=None,
    quiet_replicas: bool = False,
    ready: Optional[Callable[[ClusterRouter], None]] = None,
    install_signal_handlers: bool = True,
) -> ClusterRouter:
    """Serve until SIGTERM/SIGINT, then drain router and replicas.

    The blocking core of ``kplex-enum serve-cluster``; mirrors
    :func:`repro.server.serve_http`'s contract (``ready`` callback before
    the first request, clean exit-0 drain on SIGTERM).
    """
    router = _build_cluster(
        replicas, host, port, argv_factory, replica_args, vnodes, peer_warm,
        warm_queue_depth, proxy_timeout, boot_timeout, max_restarts,
        trace_capacity, logger, quiet_replicas,
    )
    previous = {}
    if install_signal_handlers:

        def _handle(signum: int, _frame: object) -> None:
            router.log(f"received signal {signum}; draining cluster")
            router.initiate_shutdown()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _handle)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
    try:
        if ready is not None:
            ready(router)
        router.serve_forever()
        router.drain()  # no-op if a signal already drained; else clean stop
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return router
