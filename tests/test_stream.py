"""The contract of `stream.child`, the one way the program runs a helper
process: a reading and a writing child, each forked and in this process,
carry the same messages of an iterator both ways, fail by name, reap
their process and leave the caller's niceness alone."""

import io
import os
import time

import numpy as np
import pytest

from gyrotrack import stream

BLOCKS = [(0, np.arange(12.0).reshape(4, 3)), (4, np.full((1, 3), -0.5))]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "in process"])
def forked(request, monkeypatch):
    """Each test runs once per way of running the child, and must leave
    this process's niceness as it found it: a process cannot lower it
    again, so one test's renice would hide the next one's."""
    if request.param == "in process":
        monkeypatch.setattr(stream, "can_fork", lambda: False)
    elif not stream.can_fork():
        pytest.skip("this platform does not fork")
    before = os.nice(0)
    yield request.param == "forked"
    assert os.nice(0) == before


def sent():
    """The messages BLOCKS."""
    yield from BLOCKS


def as_lists(messages):
    """The messages of an iterator as lists."""
    return [(start, block.tolist()) for start, block in messages]


WANT = [(start, block.tolist()) for start, block in BLOCKS]


def test_writing_child_round_trip(forked):
    # a generator and a plain iterator alike: in process, the block reads
    # the very iterator work returns
    for work in (sent, lambda: iter(BLOCKS)):
        with stream.child(work, child_reads=False, what="sender") as messages:
            assert as_lists(messages) == WANT
        assert_no_child()


def test_reading_child_round_trip(forked, tmp_path):
    # the child reports what it read through a file
    out = tmp_path / "received.txt"

    def work(messages):
        out.write_text(repr(as_lists(messages)))

    with stream.child(work, child_reads=True, what="reader") as feed:
        feed(sent())
    assert out.read_text() == repr(WANT)
    assert_no_child()


def test_a_message_reaches_its_reader_when_sent(forked, tmp_path):
    # the child sends its second message only once this process has read
    # the first, which it learns from a file; a first message left in the
    # child's buffer would keep both waiting until the child gives up
    read = tmp_path / "read"

    def work():
        yield BLOCKS[0]
        deadline = time.monotonic() + 5.0
        while not read.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("the first message was not read")
            time.sleep(0.001)
        yield BLOCKS[1]

    with stream.child(work, child_reads=False, what="sender") as messages:
        first = next(messages)
        read.touch()
        assert as_lists([first, *messages]) == WANT
    assert_no_child()


def test_reading_child_that_stops_early_fails(forked):
    # a writer that stops reading before the end of the run must not pass
    # for one that wrote it all
    error, match = ((OSError, "^reader failed with exit status 1$")
                    if forked else
                    (OSError, "^reader stopped before the end of its stream$"))
    with pytest.raises(error, match=match):
        with stream.child(lambda messages: next(messages), child_reads=True,
                          what="reader") as feed:
            feed(sent())
    assert_no_child()


def broken(*messages):
    raise RuntimeError("work broken")


@pytest.mark.parametrize("child_reads", [True, False])
def test_failing_work(child_reads, forked):
    # forked, the failure reaches this process as the child's exit status,
    # in place of the broken stream; in this process, as the error itself
    error, match = ((OSError, "^courier failed with exit status 1$")
                    if forked else (RuntimeError, "work broken"))
    with pytest.raises(error, match=match):
        with stream.child(broken, child_reads, what="courier") as pipe:
            if child_reads:
                pipe(sent())
            else:
                as_lists(pipe)
    assert_no_child()


@pytest.mark.parametrize("child_reads", [True, False])
def test_error_in_the_block_propagates_unchanged(child_reads, forked):
    ran = []

    def work(*messages):
        ran.append(True)
        if child_reads:
            as_lists(*messages)
        else:
            return sent()

    raised = KeyError("the block failed")
    with pytest.raises(KeyError) as err:
        with stream.child(work, child_reads, what="courier"):
            raise raised
    assert err.value is raised
    assert_no_child()
    if not forked:   # a reading child never runs after a failed block
        assert ran == ([] if child_reads else [True])


@pytest.mark.parametrize("child_reads", [True, False])
def test_niceness(child_reads, forked, tmp_path):
    # only a forked reading child runs at niceness 10; the caller's
    # niceness never changes (the fixture checks it)
    before = os.nice(0)
    seen = tmp_path / "nice.txt"

    def work(*messages):
        seen.write_text(str(os.nice(0)))
        if child_reads:
            as_lists(*messages)
        else:
            return sent()

    with stream.child(work, child_reads, what="courier") as pipe:
        if child_reads:
            pipe(sent())
        else:
            as_lists(pipe)
    want = min(before + 10, 19) if forked and child_reads else before
    assert int(seen.read_text()) == want
    assert_no_child()


def test_short_payload_ends_the_stream():
    # a header of 2 rows of 3, then 5 of its 6 floats: the stream ended
    # before its end mark
    pipe = io.BytesIO(np.array((0, 2, 3), np.int64).tobytes()
                      + np.arange(5.0).tobytes())
    with pytest.raises(EOFError, match="^the stream ended before its end"):
        list(stream.received(pipe))
