"""Forked workers, the one place where fbarcirc starts processes.  A worker
inherits the function that serves its requests; requests and replies go
pickled over two pipes, in order, and a reply's exception is raised where
the reply is read, not in the worker.
Bulk results go through arrays that :func:`shared` makes before the fork."""

from __future__ import annotations

import collections
import contextlib
import math
import mmap
import os
import pickle
import signal

import numpy as np


class WorkerLost(RuntimeError):
    """A worker process ended without sending a reply it owed."""


def cpus() -> list[int]:
    """The CPUs workers may run on: those of this process's affinity mask, or
    all os.cpu_count() where there is no affinity call; one without os.fork."""
    if not hasattr(os, "fork"):
        return [0]
    if not hasattr(os, "sched_getaffinity"):
        return list(range(os.cpu_count() or 1))
    return sorted(os.sched_getaffinity(0))


def shared(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array of ``shape`` on an anonymous shared memory map, so that
    what a worker forked after this call writes into it, its parent reads."""
    buf = mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype).reshape(shape)


def _pin(cpus: list[int]) -> None:
    """Keep this process on ``cpus`` where the platform can: Linux was seen to
    keep a fork on its parent's CPU through a 75 ms run while another idled."""
    with contextlib.suppress(AttributeError, OSError):  # no such call, or none online
        os.sched_setaffinity(0, cpus)


def _serve(serve, inbox: int, outbox: int) -> None:
    """Body of a worker: reply ``(ok, serve(request) or its exception)`` to
    each request; never unwind into the parent's stack."""
    try:
        with open(inbox, "rb") as requests, open(outbox, "wb") as replies:
            while True:  # until pickle.load meets the end of the requests
                # blocks for the next request: polling up to 3 ms for it first
                # was no faster on the oracle, whose worker takes several
                # requests a call (54.7 ms blocking against 55.8 ms polling,
                # medians of 12 alternating pairs on 2 vCPUs)
                request = pickle.load(requests)
                try:
                    reply = (True, serve(request))
                except Exception as exc:  # raised where the reply is read
                    reply = (False, exc)
                replies.write(pickle.dumps(reply))
                replies.flush()
    finally:
        os._exit(1)


class Worker:
    """One forked worker's process and pipes; :func:`workers` makes them."""

    def __init__(self, pid: int, requests, replies):
        self.pid, self._requests, self._replies = pid, requests, replies
        self._owed = collections.deque()  # what each request not yet replied to is about

    def submit(self, request, about: str) -> None:
        """Send ``request``; ``about`` names it.  Requests may be sent before
        earlier replies are read: the worker serves them in order, and
        :meth:`reply` reads the replies in the same order.  A released worker
        takes no request: ValueError."""
        if self._requests.closed:
            raise ValueError(f"{about}: the worker is released and takes no request")
        self._owed.append(about)
        try:
            self._requests.write(pickle.dumps(request))
            self._requests.flush()
        except BrokenPipeError:  # the worker has ended
            self._lost()

    def reply(self):
        """The value of the oldest request not yet replied to, or its exception
        raised; :class:`WorkerLost` if the worker ended without it."""
        try:
            ok, value = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):  # nothing sent, or cut short
            self._lost()
        self._owed.popleft()
        if not ok:
            raise value
        return value

    def release(self) -> None:
        """Send no more requests: the worker exits once it has served those
        sent, without waiting for :func:`workers` to end, and their replies
        can still be read."""
        self._requests.close()  # the worker meets the end of its requests

    def _lost(self):
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited {code}"
        raise WorkerLost(f"the worker for {self._owed[0]} {how} without a result")


@contextlib.contextmanager
def workers(serve, count: int):
    """Yield up to ``count`` :class:`Worker` serving requests with ``serve``,
    one per CPU of the mask after the first, which this process keeps to;
    they are killed and reaped, released or not, and the mask restored,
    however it ends.  A failed pipe or fork ends the forking, and the workers
    made before it are yielded."""
    mask = cpus()
    count = min(count, len(mask) - 1)
    pool: list[Worker] = []
    try:
        if count:
            _pin(mask[:1])
        for cpu in mask[1:count + 1]:
            ends: list[int] = []
            try:
                ends += os.pipe()
                ends += os.pipe()
                pid = os.fork()
            except OSError:  # out of fds, processes or memory: serve with the workers made
                for end in ends:
                    os.close(end)
                break
            inbox, requests, replies, outbox = ends
            if pid == 0:  # the worker keeps no end of its own pipes but these
                os.close(requests)
                os.close(replies)
                _pin([cpu])
                _serve(serve, inbox, outbox)
            os.close(inbox)
            os.close(outbox)
            pool.append(Worker(pid, open(requests, "wb"), open(replies, "rb")))
        yield pool
    finally:
        for worker in pool:
            with contextlib.suppress(BrokenPipeError):  # a request left unsent
                worker.release()
            worker._replies.close()
            if worker.pid is not None:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(worker.pid, signal.SIGKILL)  # reaped already if interrupted just now
                    os.waitpid(worker.pid, 0)
        if count:
            _pin(mask)
