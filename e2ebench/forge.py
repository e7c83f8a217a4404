"""Fresh ``repro`` dist workers for every kitti-dist sweep.

Starting a Python worker costs about half a second of imports, which
must not land inside a timed sweep, yet every sweep must start with
cold workers.  :class:`WorkerForge` starts a ``multiprocessing`` fork
server at set-up, with the dist package and this module preloaded; the
server forks one fresh worker per request.  A worker is therefore a new
process with the package imported and nothing else: no frames, no
traces, no caches.

Each worker runs :func:`worker_main`, the benchmark's worker entry
point.  It attaches the layer hooks when the sweep is traced, tells the
benchmark it is imported, and waits.  :meth:`WorkerForge.release` sends
it the coordinator's address once the coordinator listens (the
benchmark calls it from a hook on ``Coordinator.start``), so a worker
never dials a closed port and never backs off.  When the coordinator
shuts it down, the worker reports its peak RSS -- and, when traced,
writes its own span file -- then exits.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import threading
import time
from multiprocessing import forkserver, resource_tracker
from pathlib import Path

from layers import LayerHooks, SpanRecorder

BENCH = Path(__file__).resolve().parent

#: Seconds a worker may take to answer any benchmark message or exit.
REPLY_TIMEOUT_S = 60.0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_main(conn, request: dict) -> None:
    """One dist worker's whole life; ``conn`` is its benchmark pipe."""
    from repro.engine.dist import Worker

    log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.dup2(log, 2)
    os.close(log)
    recorder = SpanRecorder()
    recorder.sweep = request["sweep"]
    hooks = LayerHooks(recorder, enabled=request["trace"])
    conn.send({"imported": os.getpid()})
    order = conn.recv()
    code = 0
    if "connect" in order:
        host, port = order["connect"]
        code = Worker((host, port), worker_id=f"w{request['slot']}",
                      retry_seconds=10.0).run()
    hooks.disable()
    if request["trace"]:
        main = threading.get_ident()
        Path(request["spans"]).write_text(json.dumps({
            "sweep": request["sweep"], "slot": request["slot"],
            "pid": os.getpid(),
            "spans": [[span.layer, span.start, span.end, span.self_s,
                       span.thread == main, span.args]
                      for span in recorder.spans],
        }))
    conn.send({"code": code, "peak_rss_mb": peak_rss_mb()})
    conn.close()


class WorkerHandle:
    """The benchmark's side of one forked worker."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.released = False

    def recv(self) -> dict:
        if not self.conn.poll(REPLY_TIMEOUT_S):
            raise TimeoutError(f"worker {self.process.pid} did not answer "
                               f"within {REPLY_TIMEOUT_S} s")
        return self.conn.recv()

    def finish(self) -> dict:
        """Wait for the worker's report and for its exit."""
        try:
            report = self.recv()
            self.process.join(REPLY_TIMEOUT_S)
            if self.process.exitcode is None:
                raise TimeoutError(f"worker {self.process.pid} did not exit")
        finally:
            self.conn.close()
        return report

    def kill(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


class WorkerForge:
    """Forks cold workers on request from a preloaded fork server.

    Args:
        run_dir: Where workers write their log and span files.
    """

    def __init__(self, run_dir: Path):
        self.run_dir = Path(run_dir)
        self._context = multiprocessing.get_context("forkserver")
        # The fork server is a new interpreter that imports its preload
        # list before it reads anything from this process, so it finds
        # the package and this directory through the environment.
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(BENCH.parent / "src"), str(BENCH)])
        self._context.set_forkserver_preload(["repro.engine.dist", "forge"])
        forkserver.ensure_running()
        # The server forks a first, empty child only once its imports
        # are done, so waiting for one counts them in set-up.
        ready = self._context.Process(target=os.getpid)
        ready.start()
        ready.join()
        self.pending = []

    def spawn_pair(self, sweep: int, trace: bool) -> float:
        """Fork two workers and wait until both are imported; returns
        the spawn-to-ready seconds.  They wait for :meth:`release`."""
        started = time.perf_counter()
        handles = []
        for slot in (0, 1):
            ours, theirs = self._context.Pipe()
            request = {
                "slot": slot, "sweep": sweep, "trace": trace,
                "log": str(self.run_dir / "workers.log"),
                "spans": str(self.run_dir / f"spans-{sweep}-{slot}.json"),
            }
            process = self._context.Process(
                target=worker_main, args=(theirs, request),
                name=f"worker-w{slot}")
            process.start()
            theirs.close()
            handles.append(WorkerHandle(process, ours))
        self.pending = handles
        for handle in handles:
            handle.recv()
        return time.perf_counter() - started

    def release(self, host: str, port: int) -> None:
        """Send the pending pair the coordinator's address (once: the
        coordinator's ``serve`` calls ``start`` again)."""
        for handle in self.pending:
            if not handle.released:
                handle.conn.send({"connect": [host, port]})
                handle.released = True

    def collect(self) -> list:
        """Finish the pending pair: stop it if it was never released,
        then wait for each report and exit.  Returns the reports."""
        handles, self.pending = self.pending, []
        reports = []
        try:
            for handle in handles:
                if not handle.released:
                    handle.conn.send({"stop": True})
                reports.append(handle.finish())
        except (OSError, EOFError):
            for handle in handles:
                handle.kill()
            raise
        return reports

    def abort(self) -> None:
        """Kill the pending pair without waiting for reports."""
        for handle in self.pending:
            handle.kill()
        self.pending = []

    def close(self) -> None:
        """Kill any pending workers, then stop and reap the fork server
        and the resource tracker it started, which would otherwise only
        exit after this process does."""
        self.abort()
        forkserver._forkserver._stop()
        resource_tracker._resource_tracker._stop()
