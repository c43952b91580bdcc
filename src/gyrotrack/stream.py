"""Child processes joined to this one by a pipe, and the one format of
what the pipe carries.

`child` runs each helper of the program, forked where `can_fork`
allows and in this process otherwise, and passes it iterators of the
same messages either way, never a whole stream.

A stream is a run of messages, each a header of three int64s
``(start, rows, width)`` and then ``rows * width`` raw float64s, and an
end mark, a header of zero rows, which carries nothing else: a stream
says what its sender sent, never how its sender's work ended.
`simulate`'s telemetry writer reads the run's blocks this way, and
`scenario.closed_loop_blocks` reads its reference body's.
"""

import contextlib
import os
import sys
import threading
import warnings

import numpy as np

# this process's ends of the pipes to its children, as open files
_ENDS = []


def can_fork():
    """Whether a child may be forked: on Linux only, since Windows has no
    fork and on macOS forking after the system frameworks have loaded is
    unsafe, and only from a process running no other Python thread, whose
    locks the child could inherit held."""
    return sys.platform.startswith("linux") and threading.active_count() == 1


@contextlib.contextmanager
def child(work, child_reads, what):
    """A context manager running ``work`` as a helper joined to this
    process by a stream of ``(start, block)`` messages; ``what`` names it
    in errors.  A writing child's ``work()`` returns an iterator of
    messages, whose return value is dropped; the block gets an iterator
    of them all, in order.  A reading child's ``work(messages)`` must
    read them to their end; the block gets ``feed``, which passes it an
    iterator's messages.

    Where `can_fork` allows, the child is forked, a reading one at
    niceness 10, since the process that feeds it comes first, and it
    leaves by `os._exit`: status 0 once ``work`` has returned, 1 if it
    raised.  It holds no other end of a pipe that this process opened
    here for another child: each is closed in it, so a child reads the
    end of its stream once the process at the other end has closed or
    lost it.  The child is reaped however the block ends.  An exception
    in the block propagates unchanged; a child that fails raises
    OSError("<what> failed with exit status N") once the block has ended,
    in place of the EOFError or BrokenPipeError its death caused there.
    Elsewhere ``work`` runs in this process as the block pulls messages,
    and its errors propagate as they are.
    """
    if not can_fork():
        yield (lambda messages: _read(work, messages, what)) \
            if child_reads else work()
        return
    import fcntl   # here, not at the top: there is no fcntl on Windows
    read, write = os.pipe()
    with contextlib.suppress(OSError):   # a larger pipe is only faster
        # 1 MiB, the most an unprivileged process may ask for by default:
        # the sender of a 1 s run never waits for its reader, where at
        # the default 64 KiB it would block and be woken every few steps
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)
    ours, theirs = (write, read) if child_reads else (read, write)
    with warnings.catch_warnings():
        # Python 3.12+ warns of any second thread at a fork; numpy's BLAS
        # thread pool, the one here, shuts down and restarts around a
        # fork by its own fork handlers
        warnings.filterwarnings("ignore", ".* is multi-threaded",
                                DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
    if pid == 0:
        status = 1
        try:
            os.close(ours)
            # the other ends' fds alone: closing their files could write
            # the parent's buffered data from here
            for end in _ENDS:
                if not end.closed:
                    os.close(end.fileno())
            _ENDS.clear()
            with open(theirs, "rb" if child_reads else "wb") as pipe:
                if child_reads:
                    os.nice(10)
                    _read(work, received(pipe), what)
                else:
                    send_all(pipe, work())
            status = 0
        finally:
            os._exit(status)
    os.close(theirs)
    _ENDS[:] = [end for end in _ENDS if not end.closed]
    _ENDS.append(open(ours, "wb" if child_reads else "rb"))
    try:
        try:
            with _ENDS[-1] as pipe:
                yield (lambda messages: send_all(pipe, messages)) \
                    if child_reads else received(pipe)
        finally:
            status = os.waitpid(pid, 0)[1]
    except (EOFError, BrokenPipeError):
        if not status:
            raise
    if status:
        raise OSError(f"{what} failed with exit status "
                      f"{os.waitstatus_to_exitcode(status)}")


def _read(work, messages, what):
    """``work(messages)``; OSError if it leaves a message unread."""
    work(messages)
    if next(messages, None) is not None:
        raise OSError(f"{what} stopped before the end of its stream")


def _send(pipe, start, block):
    """Write and flush the message of a C-contiguous ``(rows, width)``
    float64 ``block`` from sample ``start``; no rows make an end mark."""
    pipe.write(np.array((start, *block.shape), np.int64).tobytes())
    pipe.write(block)
    pipe.flush()


def send_all(pipe, messages):
    """`_send` each message of the iterable ``messages``, then the end
    mark."""
    for message in messages:
        _send(pipe, *message)
    _send(pipe, 0, np.empty((0, 0)))


def received(pipe):
    """The ``(start, block)`` messages of the binary file ``pipe`` up to
    its end mark; a stream that ends before the mark, its sender failed
    or dead, raises EOFError."""
    while len(header := pipe.read(24)) == 24:
        start, rows, width = np.frombuffer(header, np.int64).tolist()
        if not rows:
            return
        payload = pipe.read(8 * rows * width)
        if len(payload) < 8 * rows * width:
            break
        yield start, np.frombuffer(payload).reshape(rows, width)
    raise EOFError("the stream ended before its end mark")
