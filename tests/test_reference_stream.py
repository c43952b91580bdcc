"""The reference body streamed to the plant's integration.

`closed_loop_blocks` integrates the reference body apart from the plant,
in a forked child or, in this process, 16 steps at a time as the plant
asks for them, and feeds its stage values to the plant's field.  Both
ways give the bits of the loop integrated as one state, report
divergence at the first non-finite sample of either half, and leave no
child process behind, however the consumer of the run's blocks ends.
"""

import contextlib
import dataclasses
import os

import numpy as np
import pytest

from gyrotrack import control, integrators, scenario, stream
from gyrotrack.errors import DivergedStateError

MAX = np.finfo(float).max


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "in process"])
def path(request, monkeypatch):
    """Each test runs once per way of running the reference body."""
    if request.param == "in process":
        monkeypatch.setattr(stream, "can_fork", lambda: False)
    elif not stream.can_fork():
        pytest.skip("this platform does not fork")
    return request.param


def diverging(amplitude=0.0, kp=None, step=1e-3, theta_row=None):
    """A 3 s constant-torque scenario of the given torque ``amplitude``
    per axis, with certified gains or gains of ``kp``.  With
    ``theta_row``, the reference starts at rest with its third rotor
    spinning at 1e300 rad/s from an angle that leaves the float range at
    that row: only Theta_d becomes non-finite, and nothing the plant
    reads does."""
    gains = scenario.certified_gains() if kp is None else control.gain_derive(
        kp, 3.0, 1.0, 0.6, 2.0048, 1.42)
    cfg = scenario.benchmark_config("constant", gains=gains, duration=3.0)
    cfg = dataclasses.replace(
        cfg, program=scenario.ReferenceProgram("constant",
                                               np.full(3, amplitude)),
        integrator=dataclasses.replace(cfg.integrator, step=step))
    if theta_row is not None:
        rate = 1e300
        theta = MAX - (theta_row - 0.5) * step * rate
        cfg = dataclasses.replace(cfg, reference=dataclasses.replace(
            cfg.reference, Omega0=np.zeros(3), Theta0=np.array([0, 0, theta]),
            OmegaR0=np.array([0, 0, rate])))
    return cfg


# name -> (arguments of `diverging`, (step, time) of the DivergedStateError),
# as the loop integrated as one state reported them; blocks hold samples
# 0-127, 128-255, ...; "plant i, reference j" gives each half's first
# non-finite sample.  The reference sends its stage values and its rows
# 16 steps at a time: steps 1-15 with rows 0-15, then steps 16-31 with
# rows 16-31, and so on, so block 0's last message holds steps 112-127.
DIVERGENCES = {
    "reference alone, last sample of block 0": (
        dict(theta_row=127, step=0.01), (127, 1.27)),
    "reference alone, first sample of block 1": (
        dict(theta_row=128, step=0.01), (128, 1.28)),
    "plant alone": (dict(kp=1e5, step=0.01), (11, 0.11)),
    "plant 12, reference 10": (
        dict(kp=1e5, theta_row=10, step=0.01), (10, 0.1)),
    "plant 12, reference 13": (
        dict(kp=1e5, theta_row=13, step=0.01), (12, 0.12)),
    "plant 126, reference 127": (dict(amplitude=20925.0), (126, 0.126)),
    "plant 127, reference 128": (dict(amplitude=20750.0), (127, 0.127)),
    "plant and reference 128": (dict(amplitude=20637.5), (128, 0.128)),
    "plant and reference 127": (dict(amplitude=20787.5), (127, 0.127)),
}


@pytest.mark.parametrize("case", sorted(DIVERGENCES))
def test_divergence_is_the_first_non_finite_sample(case, path):
    kwargs, want = DIVERGENCES[case]
    blocks = []
    with pytest.raises(DivergedStateError) as err:
        for start, _ in scenario.closed_loop_blocks(diverging(**kwargs)):
            blocks.append(start)
    assert (err.value.step_index, err.value.time) == want
    # no block holding a non-finite sample is yielded
    assert blocks == list(range(0, want[0] - want[0] % 128, 128))
    assert_no_child()


def test_unknown_actuation_raises_before_any_child(path):
    # each entry point raises ValueError for an actuation other than
    # "internal" and "external", before a reference body starts, rather
    # than reading it as "external"
    cfg = scenario.benchmark_config("zero", duration=0.01)
    blocks = list(scenario.closed_loop_blocks(cfg))
    for run in (lambda: next(scenario.closed_loop_blocks(cfg, "bogus")),
                lambda: scenario.run_closed_loop(cfg, "bogus"),
                lambda: next(scenario.block_records(cfg, blocks, "bogus"))):
        with pytest.raises(ValueError, match="actuation must be"):
            run()
        assert_no_child()


@pytest.mark.parametrize("program", scenario.PROGRAM_KINDS)
@pytest.mark.parametrize("actuation", ["internal", "external"])
def test_forked_and_in_process_runs_are_identical(program, actuation,
                                                  monkeypatch):
    if not stream.can_fork():
        pytest.skip("this platform does not fork")
    # 0.3 s: two full blocks and a last one of 45 rows
    cfg = scenario.benchmark_config(
        program, gains=scenario.certified_gains(), duration=0.3)
    runs = []
    for forks in (True, False):
        monkeypatch.setattr(stream, "can_fork", lambda: forks)
        blocks = [block for _, block in
                  scenario.closed_loop_blocks(cfg, actuation)]
        record = scenario.run_closed_loop(cfg, actuation)
        runs.append([np.concatenate(blocks).tobytes()] + [
            value.tobytes() for part in record
            for value in vars(part).values()
            if isinstance(value, np.ndarray)])
    assert runs[0] == runs[1]
    assert len(runs[0]) == 12   # the blocks and 11 arrays of the record


@pytest.mark.parametrize("end", ["success", "divergence",
                                 "reference divergence", "raising observer",
                                 "abandoned after two blocks"])
def test_no_child_is_left(end, path):
    # the observer is the consumer of the run's blocks; one that leaves
    # early closes the generator, which holds the reference's child.  A
    # reference that diverges runs on, on inf or NaN, until the joined
    # row's check stops the run: forked, its next message then breaks its
    # pipe, at most 16 steps later; in process, its generator is closed
    cfg = scenario.benchmark_config(
        "sinusoid", gains=scenario.certified_gains(), duration=0.5)
    if end == "divergence":
        cfg = diverging(kp=1e5, step=0.01)
    elif end == "reference divergence":
        cfg = diverging(theta_row=10, step=0.01)

    def consume():
        with contextlib.closing(scenario.closed_loop_blocks(cfg)) as blocks:
            for start, _ in blocks:
                if end == "raising observer" and start == 256:
                    raise KeyboardInterrupt
                if end.startswith("abandoned") and start == 128:
                    return start
        return start

    if end == "divergence":
        with pytest.raises(DivergedStateError):
            consume()
    elif end == "reference divergence":
        with pytest.raises(DivergedStateError) as err:
            consume()
        assert (err.value.step_index, err.value.time) == (10, 0.1)
    elif end == "raising observer":
        with pytest.raises(KeyboardInterrupt):
            consume()
    else:
        assert consume() == (128 if end.startswith("abandoned") else 384)
    assert_no_child()


def test_reference_cadence(monkeypatch):
    # the reference body sends the stage values of each 16 rows' steps as
    # soon as it has made them, then those rows, so a forked plant waits
    # on at most 16 of its steps, never on a whole 128-row block (on a
    # 2-core x86-64 VM, a 128-row cadence read sweep_short 1.248 -> 1.323
    # ref)
    steps = [0]
    step_lie = integrators.step_lie

    def counted(*args, **kwargs):
        steps[0] += 1
        return step_lie(*args, **kwargs)

    monkeypatch.setattr(integrators, "step_lie", counted)
    cfg = scenario.resolve_reference(
        scenario.benchmark_config("sinusoid", duration=0.1))
    seen = [(steps[0], start, len(block))
            for start, block in scenario._stream_reference(cfg)]
    want = []
    for start in range(0, 101, 16):
        stop = min(start + 16, 101)
        # steps 1 to stop - 1 (15, 31, 47, ...) are made, 4 evaluations
        # each for RK4
        want += [(stop - 1, 0, 4 * (stop - max(start, 1))),
                 (stop - 1, start, stop - start)]
    assert seen == want


def test_failing_reference_body(path, monkeypatch):
    # forked, the child's failure reaches this process as its exit
    # status; in this process, as the error itself
    def broken(cfg):
        raise RuntimeError("reference body broken")

    monkeypatch.setattr(scenario, "_stream_reference", broken)
    cfg = scenario.benchmark_config("zero", duration=0.1)
    error = OSError if path == "forked" else RuntimeError
    with pytest.raises(error, match="exit status 1" if path == "forked"
                       else "broken"):
        scenario.run_closed_loop(cfg)
    assert_no_child()


@pytest.mark.skipif(not stream.can_fork(),
                    reason="this platform does not fork")
def test_a_child_holds_no_other_childs_pipe_end():
    # the second child must not hold the write end of the first one's
    # pipe, or the first would not see its stream end when this process
    # dies
    with stream.child(lambda messages: list(messages), child_reads=True,
                      what="first") as to_first:
        ours = stream._ENDS[-1].fileno()

        def report():
            yield 0, np.array([[float(_is_open(ours))]])

        with stream.child(report, child_reads=False,
                          what="second") as from_second:
            assert [block.tolist() for _, block in from_second] == [[[0.0]]]
        to_first(iter(()))
    assert_no_child()


@pytest.mark.skipif(not stream.can_fork(),
                    reason="this platform does not fork")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd")
def test_a_failed_fork_leaves_no_pipe_end(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        with stream.child(lambda: iter(()), child_reads=False,
                          what="child"):
            pass
    assert sorted(os.listdir("/proc/self/fd")) == before


def _is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True
