"""Lifecycle of the ``repro serve`` process the daemon workload drives.

The daemon listens on a private Unix socket under the run's scratch
directory (a relative path, so a long checkout path cannot overflow
the socket-name limit) and serves ``/metrics`` plus the HTTP gateway
on an ephemeral port, which is read back from the ``stats`` op.

Startup fails fast: if the process exits or does not answer ``ping``
within the deadline, :class:`DaemonError` is raised and the process
is killed.  :meth:`Daemon.stop` asks for a graceful drain (SIGTERM),
waits, and kills on timeout, so no run leaves a process behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import child_env

HERE = Path(__file__).resolve().parent

#: Seconds a daemon gets to answer ``ping`` after it is spawned.
READY_DEADLINE_S = 30.0
#: Seconds a SIGTERM drain may take before the process is killed.
STOP_DEADLINE_S = 15.0
#: Seconds :meth:`Daemon.wait_idle` waits at most.
IDLE_DEADLINE_S = 2.0


class DaemonError(RuntimeError):
    """The daemon did not start, or died."""


class Daemon:
    """One single-shard daemon with ``packages`` preloaded."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        packages: tuple[str, ...],
        trace_dump: Path | None = None,
        bytecode: Path | None = None,
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.socket = workdir / "ms2.sock"
        self.trace_dump = trace_dump
        args = ["serve", "--socket", os.path.relpath(self.socket, root),
                "--metrics-port", "0", "--no-disk-cache",
                "--cache-dir", os.path.relpath(workdir / "cache", root)]
        for name in packages:
            args += ["-p", name]
        if trace_dump is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(trace_dump), *args]
        env = child_env(root, bytecode)
        workdir.mkdir(parents=True, exist_ok=True)
        self._log = open(workdir / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.address = f"unix://{os.path.relpath(self.socket, root)}"
        self.http_address: str | None = None

    def wait_ready(self, deadline_s: float = READY_DEADLINE_S) -> None:
        """Block until ``ping`` succeeds, then learn the HTTP address.
        Raises :class:`DaemonError` (after killing the process) when it
        exits first or the deadline passes."""
        from repro.client import Ms2Client, Ms2ServerError

        start = time.perf_counter()
        while True:
            if self.proc.poll() is not None:
                self.kill()
                raise DaemonError(
                    f"daemon exited with code {self.proc.returncode} "
                    f"before it was ready (log: {self.workdir / 'daemon.log'})"
                )
            client = Ms2Client(self.address, timeout=5.0)
            try:
                client.ping()
                stats = client.stats()
                break
            except (OSError, Ms2ServerError):
                pass
            finally:
                client.close()
            if time.perf_counter() - start > deadline_s:
                self.kill()
                raise DaemonError(f"daemon not ready within {deadline_s}s")
            time.sleep(0.005)
        metrics = stats["telemetry"]["metrics_address"]
        self.http_address = f"http://{metrics}"

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far (Linux VmHWM)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("VmHWM missing from /proc status")

    def alive(self) -> bool:
        return self.proc.poll() is None

    def cpu_s(self) -> float:
        """CPU time the daemon's threads have run so far."""
        total = 0
        tasks = Path(f"/proc/{self.proc.pid}/task")
        for task in tasks.iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                pass  # the thread ended meanwhile
        return total / 1e9

    def wait_idle(self, timeout_s: float = IDLE_DEADLINE_S) -> None:
        """Return once the daemon ran less than a tenth of a 5 ms
        window, or after ``timeout_s``.  After its replies the daemon
        still builds spare workers; on this benchmark's 2-vCPU host a
        calibration sample taken beside them ran twice as slow."""
        deadline = time.perf_counter() + timeout_s
        last = self.cpu_s()
        while self.alive() and time.perf_counter() < deadline:
            time.sleep(0.005)
            now = self.cpu_s()
            if now - last < 0.0005:
                return
            last = now

    def stop(self) -> int:
        """Graceful drain; kill if it overruns.  Returns the exit
        code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                self.kill()
        self._log.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self._log.closed:
            self._log.close()

    def trace_totals(self) -> dict[str, Any]:
        """Span totals the traced daemon wrote when it stopped."""
        assert self.trace_dump is not None
        return json.loads(self.trace_dump.read_text())
