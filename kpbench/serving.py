"""serve-http / serve-cluster processes, a keep-alive HTTP client and the serve mix.

Every spawned server runs in its own session (process group), recorded in a
:class:`Children` registry, so that normal exits, errors and the watchdog
can all stop the whole group and then prove that nothing is left.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple
from urllib.parse import urlparse

from inputs import Input, miss_pool
from oracle import digest, label_sets

ROOT = Path(__file__).resolve().parent.parent


class Children:
    """Registry of spawned process groups; stops them on every exit path."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._procs: List[subprocess.Popen] = []
        self.groups: Set[int] = set()

    def spawn(self, args: Sequence[str], cpu: Optional[int] = None) -> subprocess.Popen:
        """Start ``kplex-enum <args>`` in its own session, optionally on one CPU."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        with self._lock:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                cwd=str(ROOT),
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
            self._procs.append(proc)
            self.groups.add(proc.pid)
        if cpu is not None:
            # Before the server starts any thread, so all of them inherit it.
            os.sched_setaffinity(proc.pid, {cpu})
        return proc

    @staticmethod
    def _signal_group(pgid: int, signum: int) -> None:
        try:
            os.killpg(pgid, signum)
        except ProcessLookupError:
            pass

    def stop(self, proc: subprocess.Popen, grace: float = 15.0) -> None:
        """SIGTERM the group (servers drain), SIGKILL after ``grace`` seconds."""
        self._signal_group(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self._signal_group(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        deadline = time.monotonic() + grace
        while self.group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.group_alive(proc.pid):
            self._signal_group(proc.pid, signal.SIGKILL)
        if proc.stdout is not None:
            proc.stdout.close()
        with self._lock:
            if proc in self._procs:
                self._procs.remove(proc)

    def stop_all(self) -> None:
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            self.stop(proc, grace=5.0)

    def kill_all(self) -> None:
        """Watchdog path: no locks, and only a short wait for the leaders."""
        for pgid in list(self.groups):
            self._signal_group(pgid, signal.SIGKILL)
        for proc in list(self._procs):
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass

    @staticmethod
    def group_alive(pgid: int) -> bool:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    def leftovers(self) -> List[int]:
        """Process groups (and unreaped leaders) still present."""
        with self._lock:
            unreaped = [proc.pid for proc in self._procs]
        return sorted(set(unreaped) | {g for g in self.groups if self.group_alive(g)})


def boot_url(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """Read the ``serving on <url>`` boot line from a server's stdout."""
    deadline = time.monotonic() + timeout
    buffered = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode(errors="replace").splitlines():
                if line.startswith("serving on "):
                    return line[len("serving on "):].strip()
        elif proc.poll() is not None:
            break
    raise RuntimeError(f"server did not print its boot line (exit code {proc.poll()})")


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parsed = urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.timeout = timeout
        self.http = http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    def call(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.http.request(method, path, body=body, headers=headers)
            response = self.http.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            self.http.close()
            self.http = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            raise
        return response.status, {k.lower(): v for k, v in response.getheaders()}, data

    def close(self) -> None:
        self.http.close()


def wait_ready(url: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = Conn(url, timeout=5.0)
            try:
                status, _, _ = conn.call("GET", "/readyz")
            finally:
                conn.close()
            if status == 200:
                return
        except (http.client.HTTPException, OSError):
            pass
        time.sleep(0.02)
    raise RuntimeError(f"{url} did not become ready")


def register_body(item: Input, replace: bool) -> bytes:
    return json.dumps(
        {
            "name": item.served_name,
            "edges": [list(edge) for edge in item.edges],
            "vertices": list(item.vertices),
            "replace": replace,
        }
    ).encode()


def solve_body(item: Input, k: int, q: int) -> bytes:
    return json.dumps({"graph": item.served_name, "k": k, "q": q}).encode()


@dataclass
class Record:
    """One operation of the serve mix, as the client saw it."""

    op: str  # "solve" or "register"
    graph: int
    k: int
    q: int
    seconds: float
    ok: bool
    cache: Optional[str] = None
    server_seconds: Optional[float] = None
    digest: Optional[str] = None
    window: int = 0
    body: Optional[bytes] = None

    def decode(self) -> "Record":
        """Parse a solve reply (kept raw while the load runs) into its fields."""
        if self.body is not None:
            payload = json.loads(self.body)
            self.body = None
            self.ok = payload.get("termination") == "completed"
            self.server_seconds = payload.get("elapsed_seconds")
            self.digest = digest(label_sets(payload.get("kplexes", ())))
        return self


def solve_once(conn: Conn, item: Input, k: int, q: int, graph: int) -> Record:
    """POST one solve; the reply is decoded later, outside the load."""
    body = solve_body(item, k, q)
    started = time.perf_counter()
    try:
        status, headers, data = conn.call("POST", "/v1/solve", body)
    except (http.client.HTTPException, OSError):
        return Record("solve", graph, k, q, time.perf_counter() - started, False)
    seconds = time.perf_counter() - started
    if status != 200:
        return Record("solve", graph, k, q, seconds, False)
    return Record(
        "solve", graph, k, q, seconds, True, cache=headers.get("x-kplex-cache"), body=data
    )


def register_once(conn: Conn, body: bytes, graph: int) -> Record:
    started = time.perf_counter()
    try:
        status, _, _ = conn.call("POST", "/v1/graphs", body)
    except (http.client.HTTPException, OSError):
        status = 0
    return Record("register", graph, 0, 0, time.perf_counter() - started, 200 <= status < 300)


def job_first_result(conn: Conn, item: Input) -> Tuple[float, bool, Optional[str]]:
    """Submit a job for the hot spec; seconds until its first streamed result."""
    started = time.perf_counter()
    status, _, data = conn.call("POST", "/v1/jobs", solve_body(item, item.k, item.q))
    if status != 202:
        return time.perf_counter() - started, False, None
    job_id = json.loads(data)["id"]
    conn.http.request("GET", f"/v1/jobs/{job_id}/results?stream=1")
    response = conn.http.getresponse()
    first: Optional[float] = None
    families: List[List[int]] = []
    done: Dict[str, object] = {}
    while True:
        line = response.readline()
        if not line:
            break
        record = json.loads(line)
        if "kplex" in record:
            if first is None:
                first = time.perf_counter() - started
            families.append(record["kplex"])
        elif record.get("done"):
            done = record
            break
    response.read()
    ok = response.status == 200 and done.get("state") == "succeeded" and first is not None
    return (first if first is not None else time.perf_counter() - started), ok, digest(
        label_sets(families)
    )


class ServeMix:
    """Closed loop of ``clients`` threads, each on one keep-alive connection.

    About 90% of operations repeat a graph's hot (k, q), about 8% ask for a
    (k, q) not yet solved in the graph's current epoch and about 2%
    re-register a graph with ``replace`` (an epoch bump: its next request
    misses).
    """

    REGISTER_SHARE = 0.02
    FRESH_SHARE = 0.08

    def __init__(self, url: str, inputs: Sequence[Input], seed: int, clients: int = 2) -> None:
        self.url = url
        self.inputs = list(inputs)
        self.seed = seed
        self.clients = clients
        self.register_bodies = [register_body(item, replace=True) for item in self.inputs]
        self.pools = [miss_pool(item) for item in self.inputs]
        self._used: List[Set[Tuple[int, int]]] = [set() for _ in self.inputs]
        self._cursor = [0 for _ in self.inputs]
        self._lock = threading.Lock()
        self.records: List[Record] = []
        self.errors: List[str] = []

    def _fresh_spec(self, graph: int) -> Optional[Tuple[int, int]]:
        """The next pool spec not solved in the graph's current epoch.

        A cursor walks the whole pool across epochs, so every run uses the
        same mixture of specs whatever its seed.
        """
        with self._lock:
            pool, used = self.pools[graph], self._used[graph]
            for _ in range(len(pool)):
                spec = pool[self._cursor[graph] % len(pool)]
                self._cursor[graph] += 1
                if spec not in used:
                    used.add(spec)
                    return spec
        return None

    def forget(self, graph: int) -> None:
        """The graph was re-registered: every spec is fresh again."""
        with self._lock:
            self._used[graph].clear()

    def _client(self, window: int, tid: int, until: float, out: List[Record]) -> None:
        rng = random.Random(f"serve-mix:{self.seed}:{window}:{tid}")
        conn = Conn(self.url)
        try:
            while time.perf_counter() < until:
                graph = rng.randrange(len(self.inputs))
                item = self.inputs[graph]
                draw = rng.random()
                if draw < self.REGISTER_SHARE:
                    record = register_once(conn, self.register_bodies[graph], graph)
                    self.forget(graph)
                else:
                    spec = self._fresh_spec(graph) if draw < self.REGISTER_SHARE + self.FRESH_SHARE else None
                    k, q = spec if spec is not None else (item.k, item.q)
                    record = solve_once(conn, item, k, q, graph)
                record.window = window
                out.append(record)
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            self.errors.append(f"client {tid}: {exc!r}")
        finally:
            conn.close()

    def window(self, index: int, seconds: float) -> None:
        """Run the clients for ``seconds``; their records join :attr:`records`."""
        until = time.perf_counter() + seconds
        outs: List[List[Record]] = [[] for _ in range(self.clients)]
        threads = [
            threading.Thread(target=self._client, args=(index, tid, until, outs[tid]), daemon=True)
            for tid in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("serve-mix client thread did not finish")
        self.records.extend(record.decode() for out in outs for record in out)
