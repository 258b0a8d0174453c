"""Forked worker processes, the package's one fork/join path.

The Monte Carlo engine and the sweep both split their work over the CPUs
this process may run on. A child is forked per share after the first,
this process runs the first share, and each child sends its result back
down a pipe and leaves with os._exit. Every child is reaped before the
caller returns or raises. Work that runs in a child can log through the
package's logger: :func:`captured` keeps its records, which the parent
hands to its own handlers in the order one process would have made them.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import os
import pickle
import threading
import warnings


def available_cpus() -> int:
    """The CPUs this process may run on. 1 where the platform has no
    sched_getaffinity, or while another Python thread is alive: forking
    beside a running thread can deadlock the child."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work, *args) -> tuple[int, int]:
    """Run work(*args) in a forked child, which then leaves with os._exit.
    work returns the buffers (arrays or bytes) to send back. The child
    writes a 0 byte and their bytes down a pipe, or a 1 byte and its
    pickled exception. Returns the child's pid and the read end of the
    pipe."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() in a process with more than one
            # OS thread. Forking runs only while no other Python thread is
            # alive (available_cpus), so the other threads are OpenBLAS's idle
            # pool, which has its own at-fork handlers; the child runs numpy
            # code and os._exit only.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                try:
                    buffers = work(*args)
                except BaseException as exc:
                    pipe.write(b"\1" + pickle.dumps(exc))
                else:
                    pipe.write(b"\0")
                    for b in buffers:
                        pipe.write(b)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _join(pid: int, read: int, arrays=()) -> tuple[bool, bytes]:
    """Read a forked child's pipe and reap the child. Returns (True, the
    bytes it sent after filling arrays) if it sent its result, else
    (False, the pickled exception it raised, or one saying that it stopped
    early)."""
    ok, payload = False, None
    try:
        with os.fdopen(read, "rb") as pipe:
            flag = pipe.read(1)
            if flag == b"\1":
                payload = pipe.read()
            elif flag == b"\0" and all(pipe.readinto(a) == a.nbytes for a in arrays):
                ok, payload = True, pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if payload is None:
        message = "a worker process stopped early (exit status %d)" % code
        payload = pickle.dumps(RuntimeError(message))
    return ok, payload


def deal(n_items: int, n_workers: int) -> list[list[int]]:
    """Items 0..n_items-1 dealt to n_workers in snake order: 0, 1, ...,
    W-1, then W-1, ..., 0, and so on. Items whose cost grows with their
    index then give each worker a similar sum."""
    shares: list[list[int]] = [[] for _ in range(n_workers)]
    for i in range(n_items):
        turn, j = divmod(i, n_workers)
        shares[n_workers - 1 - j if turn % 2 else j].append(i)
    return shares


def _pickled(work, share) -> list[bytes]:
    return [pickle.dumps(work(share), pickle.HIGHEST_PROTOCOL)]


def run_shares(work, shares) -> list:
    """[work(share) for share in shares], all at once: the first share in
    this process, each later one in a forked child, which sends its result
    back pickled. Every child is reaped before this returns or raises; the
    first share that raises has its exception raised here."""
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(_pickled, work, share))
        results = [work(shares[0])]
    finally:
        ends = [_join(pid, read) for pid, read in children]
    for ok, payload in ends:
        if not ok:
            raise pickle.loads(payload)
        results.append(pickle.loads(payload))
    return results


class _Keep(logging.Handler):
    """Keeps a picklable copy of each record in a list, made as
    logging.handlers.QueueHandler makes one: its message formatted (with
    any traceback), its arguments and exception info dropped."""

    def __init__(self, records: list):
        super().__init__()
        self.records = records

    def emit(self, record):
        record = copy.copy(record)
        record.message = record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = None
        self.records.append(record)


@contextlib.contextmanager
def captured(logger: logging.Logger):
    """Inside the block, keep the records that `logger` handles in the
    yielded list instead of passing them to its handlers and its
    ancestors'. `logger.callHandlers(record)` hands one on later."""
    records: list[logging.LogRecord] = []
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [_Keep(records)], False
    try:
        yield records
    finally:
        logger.handlers, logger.propagate = saved
