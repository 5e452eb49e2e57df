"""One forked worker for a caller that splits its work in two: it submits one part, does the other itself, then
takes the submitted part's result. Inputs and results cross two pipes as `marshal` data, which is built in, so the
numpy-free commands never load `pickle`. A child sends no error: it exits, and the caller computes its part itself."""

from __future__ import annotations

import marshal
import os
import signal
from contextlib import contextmanager


def _can_fork() -> bool:
    """On Linux, with 2 usable CPUs or more and no OS thread besides this one, which a child would lack."""
    linux = hasattr(os, "sched_getaffinity") and os.path.isdir("/proc/self/task")
    return linux and len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1


def _send(fd: int, x) -> None:
    view = memoryview(marshal.dumps(marshal.dumps(x)))  # one bytes object, which marshal.load reads in 3 calls
    while view:
        view = view[os.write(fd, view):]


@contextmanager
def worker(fn):
    """A context giving `submit(x)`, which returns a callable that returns fn(x). The caller takes each result before
    it submits again, so neither process can wait on a full pipe.

    The first submit forks, where `_can_fork`. The child computes fn of each input it reads until EOF and ends in
    os._exit, so no caller's frame, atexit handler or stdio flush runs in it. Without a child, or once it is gone,
    fn(x) runs here when its result is taken. At the end the child is reaped, and killed first on any exception.
    """
    child, tried = [], False  # child: pid, the write end of its input pipe, the reader of its output pipe

    def stop(kill: bool) -> None:
        if child:
            if kill:
                os.kill(child[0], signal.SIGKILL)
            os.close(child[1])  # the child reads EOF and exits
            child[2].close()  # or, left writing a result, gets EPIPE and exits
            os.waitpid(child[0], 0)
            child.clear()

    def submit(x):
        nonlocal tried
        if not tried and _can_fork():
            (r, w), (r2, w2) = os.pipe(), os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # no KeyboardInterrupt until pid is kept
            try:
                pid = os.fork()
            except OSError:  # fn runs here
                pid = None
            if pid == 0:
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(w)
                    os.close(r2)
                    with open(r, "rb") as f:
                        while True:
                            try:
                                y = marshal.loads(marshal.load(f))
                            except EOFError:
                                os._exit(0)
                            _send(w2, fn(y))
                finally:
                    os._exit(1)
            if pid:
                child[:] = pid, w, open(r2, "rb")
            for fd in (r, w2) if pid else (r, w, r2, w2):
                os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        tried = True
        if child:
            try:
                _send(child[1], x)
            except BrokenPipeError:  # the child is gone
                stop(kill=True)

        def result():
            if child:
                try:
                    return marshal.loads(marshal.load(child[2]))
                except EOFError:  # the child is gone
                    stop(kill=True)
            return fn(x)

        return result

    try:
        yield submit
    except BaseException:
        stop(kill=True)
        raise
    stop(kill=False)
