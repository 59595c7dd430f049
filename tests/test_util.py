import threading
import time

import pytest

from netresp._util import parallel_imap, parallel_map


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_imap_keeps_order_and_at_most_threads_items_in_flight(threads):
    lock = threading.Lock()
    live = [0, 0]  # items made and not yet released by the caller; their peak

    def make(i):
        time.sleep(0.002 * (i % 3))
        with lock:
            live[0] += 1
            live[1] = max(live[1], live[0])
        return i

    out = []
    for i in parallel_imap(make, range(12), threads):
        out.append(i)
        with lock:
            live[0] -= 1
    assert out == list(range(12))
    assert live[1] <= threads


def test_map_is_the_list_of_imap():
    assert parallel_map(lambda x: x * x, range(7), 3) == [x * x for x in range(7)]


def test_imap_raises_in_input_order():
    def fail_from_two(i):
        if i >= 2:
            raise ValueError(f"item {i}")
        return i

    seen = []
    with pytest.raises(ValueError, match="item 2"):
        for i in parallel_imap(fail_from_two, range(6), 3):
            seen.append(i)
    assert seen == [0, 1]
