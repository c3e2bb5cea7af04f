"""A scenario's repeats in W shares at once, each share after the first in a forked child.

Share k holds runs k, k + W, k + 2W, ...  Given an output directory, a
child also writes its own runs' logs there, under staged names that
``scenario.write_artifacts`` renames into place, so the parent renders
only share 0's.  ``scenario`` imports this module only when W > 1, so a
run in one process never compiles it or imports ``pickle``.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from pathlib import Path

from .scenario import _write_log


def run_shares(run_share, repeats: int, shares: int, out: Path | None) -> tuple[list, dict]:
    """``run_share(indices)`` for each share, the first in this process; every run in index order.

    Returns the runs and, with ``out``, the staged name in ``out`` of each
    child's run's log, by run.  A child writes those logs before it sends
    its share's runs, logs included, or what its share raised, back through
    a pipe.  The parent raises what a child's share raised, and
    ``ChildProcessError`` naming the runs of a child that died before it
    sent them.  No child outlives the call: if this process's own share
    raises or is interrupted, it kills and reaps every child before it
    re-raises.  Whatever raises, no staged log or directory it made stays in
    ``out``.
    """
    runs = [None] * repeats
    staged = {} if out is None else {i: out / f"run_{i:02d}_log.csv.part"
                                     for i in range(repeats) if i % shares}
    made = []  # the directories up to ``out`` that a child may make, deepest first
    directory = out
    while staged and not directory.exists():
        made.append(directory)
        directory = directory.parent

    def run_and_stage(indices: range) -> list:  # a child's share, its logs written to ``staged``
        sent = run_share(indices)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            for r in sent:
                _write_log(staged[r.run], r.result.log)
        return sent

    children = []  # (pid, pipe, share) of each share after the first, until reaped
    try:
        for k in range(1, shares):
            children.append(_fork(run_and_stage, range(k, repeats, shares)))
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
        for path in staged.values():  # every child is gone: none writes after this
            path.unlink(missing_ok=True)
        for directory in made:
            with suppress(OSError):
                directory.rmdir()
        raise
    return runs, staged


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
