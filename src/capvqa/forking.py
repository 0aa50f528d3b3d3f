"""Contiguous chunks of work solved on every CPU the process may run on.

`map_chunks` cuts a work list into one contiguous chunk per CPU in the
process's affinity set (`taskset` limits that set). The caller solves the
first chunk and a forked child each other one. A child inherits the
caller's memory, so nothing is sent to it, and it sends its result back
as the raw bytes of an `array` over a pipe: nothing is pickled, and every
float arrives bit for bit. Results come back in chunk order, so a caller
that reduces them in that order gets the same answer for any CPU count.
A child leaves by `os._exit` once its result is written, so it frees
nothing it built.

Inheriting is not free: each page of the caller's that a child writes,
a reference count included, costs the child a copy-on-write fault, about
5 us on a KVM guest. So the callers differ in what exists at the fork:

* `scoring.score_captions` forks over raw caption text, and each chunk
  tokenizes and scores its own units;
* `vqa_shares.score_vqa_in_shares`, the command line's VQA path, forks
  before it reads the gold file: the work is the file's byte offsets,
  and each share reads, parses and scores its own byte range, so a
  child writes hardly any of the caller's pages but those of the
  answers it looks up;
* `vqa.accuracy`, a library call on loaded items, forks over them and
  pays the faults (`vqa.MIN_CHUNK_ANSWERS`); the command line calls it
  only to name a fault in its files.
"""

import os
import threading
from array import array
from typing import Callable, NoReturn, Sequence, TypeVar

Work = TypeVar("Work")


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork workers."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _solve_in_child(solve: Callable, chunk: Sequence, write_end: int) -> NoReturn:
    """In a forked child: solve `chunk`, write the array to the pipe, and exit.

    The exit code is 0 only when the whole array was written; the caller
    then solves a failed chunk itself, so its exception surfaces there.
    """
    code = 1
    try:
        values = solve(chunk)
        with open(write_end, "wb") as pipe:
            pipe.write(values)
        code = 0
    finally:
        os._exit(code)  # never return into the caller's stack


def map_chunks(
    work: Sequence[Work],
    solve: Callable[[Sequence[Work]], array],
    length: Callable[[int], int],
    min_chunk: int,
) -> list[array]:
    """`solve` of each contiguous chunk of `work`, one chunk per CPU, in order.

    `solve(chunk)` returns an `array` holding `length(len(chunk))` values,
    of one typecode for every chunk: a child's bytes are read back as the
    type of the caller's own chunk, which is solved first. Chunk k runs on
    the k-th CPU of the affinity set, the caller's own chunk on the first.
    The work stays one serial chunk without `fork` or `sched_getaffinity`,
    when another thread runs (a fork copies only the forking thread,
    whatever locks the others hold), and when a chunk would hold fewer
    than `min_chunk` items. A child that exits non-zero or sends short
    data has its chunk solved again here, and every child not yet reaped
    is killed and reaped on the way out, KeyboardInterrupt included.
    """
    chunks = min(_cpu_count(), len(work) // min_chunk)
    if chunks < 2 or threading.active_count() > 1:
        return [solve(work)]

    cpus = sorted(os.sched_getaffinity(0))
    bounds = [len(work) * k // chunks for k in range(chunks + 1)]
    children = []  # (pid, read end of its pipe, start, stop), not yet reaped
    try:
        # Each chunk gets a CPU of its own. Left to the scheduler, a forked
        # child stayed on its parent's CPU in about half of the trials on a
        # 2-CPU KVM guest, so the pair took as long as the serial run. The
        # caller moves each child: a child pinning itself first waited for
        # the caller's CPU, 2 ms of 85 on long-captions. The caller's own
        # affinity is restored on the way out.
        os.sched_setaffinity(0, cpus[:1])
        for k in range(1, chunks):
            start, stop = bounds[k], bounds[k + 1]
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _solve_in_child(solve, work[start:stop], write_end)
            children.append((pid, read_end, start, stop))
            os.close(write_end)
            os.sched_setaffinity(pid, {cpus[k % len(cpus)]})
        solved = [solve(work[: bounds[1]])]
        while children:
            pid, read_end, start, stop = children[0]
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            os.close(read_end)
            values = array(solved[0].typecode)
            if status == 0 and len(data) == values.itemsize * length(stop - start):
                values.frombytes(data)
            else:
                values = solve(work[start:stop])
            solved.append(values)
        return solved
    finally:
        if children:
            from signal import SIGKILL

            for pid, read_end, _, _ in children:
                os.close(read_end)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        os.sched_setaffinity(0, cpus)
