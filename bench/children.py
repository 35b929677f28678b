"""Run one child process with a deadline and read its own resource usage.

The parent waits on a pidfd, so it wakes the moment the child exits
instead of polling, and reaps it with wait4 to get the child's max-RSS.
A child that passes its deadline is killed and reported as timed out.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass


_GRACE_S = 5.0


@dataclass
class ChildResult:
    argv: list[str]
    exit_code: int | None  # None when the deadline killed the child
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float

    @property
    def timed_out(self) -> bool:
        return self.exit_code is None


def run_child(argv: list[str], deadline_s: float, env: dict[str, str],
              cwd: str) -> ChildResult:
    """Run argv to completion or until deadline_s seconds have passed."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=cwd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    pidfd = os.pidfd_open(proc.pid)
    killed = False
    status = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            sel.register(pidfd, selectors.EVENT_READ)
            open_pipes = 2
            exited = False
            while open_pipes or not exited:
                remaining = started + deadline_s - time.perf_counter()
                if remaining <= 0 and not killed:
                    proc.kill()
                    killed = True
                # after a kill, give the pipes a short grace period to close
                events = sel.select(timeout=_GRACE_S if killed else max(remaining, 0))
                if killed and not events:
                    break
                for key, _ in events:
                    if key.fileobj == pidfd:
                        sel.unregister(pidfd)
                        exited = True
                        continue
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        chunks[key.fd].append(chunk)
                    else:
                        sel.unregister(key.fileobj)
                        open_pipes -= 1
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        if status is None:  # interrupted before the child was reaped
            proc.kill()
            os.waitpid(proc.pid, 0)
        os.close(pidfd)
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=list(argv),
        exit_code=None if killed else proc.returncode,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )
