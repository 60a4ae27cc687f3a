"""Work split over forked processes, one per CPU this process may run on.

The corpus reader (fileio.read_trajectories) calls forked(parts, work): it
cuts its work into contiguous parts, computes the first part itself and
forks a child per other part, which pickles work(part) back through a pipe.
Results come back in part order, so they are those of one process doing
every part in turn, and a child that fails costs time, not output: its part
is redone here. Only Linux forks; elsewhere, and on one CPU, there is one
part. The reader sets a floor of 8 MiB of corpus text per process
(fileio.SPAN_FLOOR), so two processes from 16 MiB. A child leaves through
os._exit, as the CLI's own process does once its command returns
(cli.entry_point).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys


def process_count(work: int, floor: int) -> int:
    """How many processes share work units: one per CPU this process may run on, none under floor.

    Only Linux forks: Windows has no fork, and macOS makes it unsafe once
    system libraries have started threads.
    """
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // floor))


class Child:
    """A forked process that runs send(pipe) and whose bytes this process reads from .pipe.

    The child leaves through os._exit whatever happens, so it never returns
    into the caller, runs its cleanup or flushes buffers it inherited. It
    exits 0 only when send returned and the pipe closed. A fork that fails
    leaves a child that sent nothing and is not ok(), so the caller redoes
    its work, as for a child that dies. The child may call BLAS. The CLI
    runs BLAS on one thread, so it forks a process with no other threads;
    where numpy runs OpenBLAS's thread pool, OpenBLAS stops it before a fork
    and the child starts its own at its first threaded call. Spawn would
    cost a fresh interpreter and numpy import per child.
    """

    def __init__(self, send):
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare
            self.pid = None
        if self.pid == 0:
            status = 1
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    send(pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self.pipe = open(r, "rb")

    def ok(self) -> bool:
        """Reap the child, once its bytes are read; True when it sent them all."""
        pid, self.pid = self.pid, None
        self.pipe.close()
        return pid is not None and os.waitpid(pid, 0)[1] == 0

    def stop(self) -> None:
        """Kill and reap the child if ok() has not reaped it."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _send(work, part, pipe) -> None:
    pickle.dump(work(part), pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _received(child: Child, work, part):
    """What a child sent, or work(part) when it sent nothing whole."""
    got = None
    try:
        got = (pickle.load(child.pipe),)
    except (EOFError, pickle.UnpicklingError):  # the child died before it sent everything
        pass
    return got[0] if child.ok() and got else work(part)


@contextlib.contextmanager
def forked(parts, work):
    """An iterator of work(part) for each of parts, in order, computed in parallel.

    This process computes the first part, and a child forked on entry each
    other one, pickling work(part) into its pipe; so work must not move what
    a child shares with this process, such as a file's offset. A part whose
    child dies, or could not be forked, is redone here with work(part).
    Children still running on exit are killed. Nothing here holds a result
    once it is yielded, so a caller that drops each one holds one at a time.
    """
    parts = list(parts)
    children = []

    def results():
        yield work(parts[0])
        for part, child in zip(parts[1:], children):
            yield _received(child, work, part)  # held by the caller alone once yielded

    try:
        for part in parts[1:]:
            children.append(Child(lambda pipe, part=part: _send(work, part, pipe)))
        yield results()
    finally:
        for child in children:
            child.stop()
