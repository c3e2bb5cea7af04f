"""A scenario's repeats in W shares at once, each share after the first in a forked child.

Share k holds runs k, k + W, k + 2W, ...  ``scenario`` imports this module
only when W > 1, so a run in one process never compiles it or imports
``pickle``.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress


def run_shares(run_share, repeats: int, shares: int) -> list:
    """``run_share(indices)`` for each share, the first in this process; every run in index order.

    A child sends its share's runs, or what its share raised, back through a
    pipe.  The parent raises what a child's share raised, and
    ``ChildProcessError`` naming the runs of a child that died before it sent
    them.  No child outlives the call: if this process's own share raises or
    is interrupted, it kills and reaps every child before it re-raises.
    """
    runs = [None] * repeats
    children = []  # (pid, pipe, share) of each share after the first, until reaped
    try:
        for k in range(1, shares):
            children.append(_fork(run_share, range(k, repeats, shares)))
        runs[0::shares] = run_share(range(0, repeats, shares))
        while children:
            pid, pipe, share = children[0]
            with pipe:
                try:
                    sent = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    sent = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if isinstance(sent, BaseException):
                raise sent
            if sent is None or code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"the process running runs {', '.join(map(str, share))} "
                                        f"{how} before it sent them back")
            runs[share.start::shares] = sent
    except BaseException:
        for pid, pipe, _ in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise
    return runs


def _fork(run_share, share: range):
    """Fork a child that runs ``share``; returns ``(pid, pipe, share)``, ``pipe`` the read end.

    The child leaves through ``os._exit`` whatever happens, so it never
    returns into its caller or flushes the stdio buffers it inherited.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                sent = run_share(share)
            except BaseException as exc:  # the parent raises it as its own
                sent = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb"), share
