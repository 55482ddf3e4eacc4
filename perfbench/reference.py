"""Fixed pure-Python reference work: the benchmark's yardstick of host speed.

Run by ``run.py`` in a fresh interpreter between samples; prints the
monotonic time at which it finished.  The work imitates the shape of
the simulator's hot loop (a heap of timed events, small objects with
slots, attribute and dict traffic) but shares no code with the repo,
so no change to the program can move it.
"""

from __future__ import annotations

import heapq
import json
import time

#: Events processed: 0.2-0.35 s on the 2-core VM this benchmark was
#: built on, depending on the host's speed phase.
EVENTS = 150_000


class _Request:
    __slots__ = ("thread", "line", "issued")

    def __init__(self, thread: int, line: int, issued: int) -> None:
        self.thread = thread
        self.line = line
        self.issued = issued


def work(events: int = EVENTS) -> int:
    """A toy memory system: threads issue requests, banks serve them."""
    heap: list[tuple[int, int, _Request]] = []
    open_rows: dict[int, int] = {}
    latency: dict[int, int] = {}
    seq = 0
    for thread in range(8):
        seq += 1
        heapq.heappush(heap, (thread, seq, _Request(thread, thread * 977, thread)))
    for _ in range(events):
        now, _, request = heapq.heappop(heap)
        bank, row = request.line % 16, request.line // 64
        hit = open_rows.get(bank) == row
        open_rows[bank] = row
        latency[request.thread] = latency.get(request.thread, 0) + now - request.issued
        done = now + (4 if hit else 12)
        seq += 1
        line = (request.line * 1103515245 + 12345) % 65536
        heapq.heappush(heap, (done, seq, _Request(request.thread, line, done)))
    return sum(latency.values())


if __name__ == "__main__":
    work()
    print(json.dumps({"t_end": time.monotonic()}))
