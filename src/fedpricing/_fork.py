"""Forked helper processes: when one may start, and its life from fork to reaping.

A helper is forked, so it starts with the parent's arrays in place and runs
the parent's code on them: what it sends back is what the parent would have
computed, bit for bit. ``fltrain`` evaluates rounds in one while the parent
trains the next; ``experiment`` fits the local optima in one while the α
pilots train.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading


def second_cpu() -> bool:
    """Whether a forked helper may run beside this process, on a CPU of its own.

    Only on Linux, where forking is safe with the BLAS in use (macOS
    Accelerate is not fork-safe); only with a second CPU in this process's
    affinity set; only while this process runs one Python thread, since a
    fork copies no thread but every lock it holds; and not inside a daemonic
    multiprocessing worker, which may start no children.
    """
    import multiprocessing      # here, not at the top: it adds 0.5 MB to every process

    return (sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1 and not multiprocessing.current_process().daemon)


def _main(work, conn, parent_end) -> None:
    """The helper's body: ``work(conn)``. An exception is sent back as its text,
    and the helper then exits.

    The helper ignores SIGINT, which a terminal sends to the whole process
    group: the parent handles it and stops the helper.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()          # so that the parent's exit reads as EOF here
    try:
        work(conn)
    except Exception as exc:
        conn.send(f"{type(exc).__name__}: {exc}")


class Helper:
    """A forked process running ``work(conn)``, and the parent's end ``conn`` of its pipe.

    ``work`` answers with anything but a string; a string is its error. The
    helper is named ``name`` among processes and ``what`` in the errors
    raised here.
    """

    def __init__(self, name: str, what: str, work):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self._what = what
        self._process = context.Process(target=_main, args=(work, child_end, self.conn),
                                        name=name, daemon=True)
        self._process.start()
        child_end.close()

    def receive(self):
        """The helper's next reply; its error, or its death, as a RuntimeError."""
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):      # OSError: reset, when it died with our data unread
            raise self.exited() from None
        if isinstance(reply, str):
            raise RuntimeError(f"{self._what} helper failed: {reply}")
        return reply

    def exited(self) -> RuntimeError:
        """Reap the helper, which has exited or is exiting, and describe how it ended."""
        self._process.join()
        return RuntimeError(f"{self._what} helper exited with code {self._process.exitcode}")

    def close(self) -> None:
        """Stop the helper, wherever it is, and reap it."""
        self.conn.close()
        self._process.terminate()
        self._process.join()


@contextlib.contextmanager
def call(name: str, what: str, fn, *args):
    """Yield a function that returns ``fn(*args)``.

    Where ``second_cpu()`` allows, a helper forked on entry computes it while
    the block runs, and is stopped and reaped when the block exits, also on
    an exception. Otherwise it is computed in this process when asked for.
    """
    if not second_cpu():
        yield lambda: fn(*args)
        return
    helper = Helper(name, what, lambda conn: conn.send(fn(*args)))
    try:
        yield helper.receive
    finally:
        helper.close()
