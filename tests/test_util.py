import dataclasses
import re
import threading
import time

import numpy as np
import pytest

from netresp._util import check_fields, check_int, parallel_imap, parallel_map


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


def test_check_int_takes_integers_only():
    assert check_int(3, "n") == 3
    assert type(check_int(np.int64(3), "n")) is int
    for bad in (3.0, 2.5, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_int(bad, "n")
    assert check_int(2, "n", minimum=2) == 2
    with pytest.raises(LookupError, match="n must be at least 2, got 1"):
        check_int(1, "n", minimum=2, error=LookupError)


def test_check_fields_takes_finite_numbers_only():
    @dataclasses.dataclass
    class Config:
        rate: float = 1.0
        name: str = "x"
        count: int = 2

    for good in (0.5, 3, np.float32(2.5), np.int64(-1)):
        check_fields(Config(rate=good))
    check_fields(Config(name=float("nan")))  # not a number field
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan"), True, "1.0", None):
        with pytest.raises(ValueError, match="rate must be a finite number"):
            check_fields(Config(rate=bad))


def test_check_fields_checks_integers_and_bounds():
    @dataclasses.dataclass
    class Config:
        rate: float = 1.0
        count: int = 2
        cap: "int | None" = None  # a postponed annotation, as a string

    check_fields(Config(rate=0.0, count=0), {"rate": 0, "count": 0})
    check_fields(Config(cap=None), {"cap": 1})
    rejected = [
        (Config(count=2.0), {}, (), "count must be an integer, got 2.0"),
        (Config(cap=1.5), {}, (), "cap must be an integer, got 1.5"),
        (Config(count=1), {"count": 2}, (), "count must be at least 2, got 1"),
        (Config(cap=0), {"cap": 1}, (), "cap must be at least 1, got 0"),
        (Config(rate=-0.5), {"rate": 0}, (), "rate must be at least 0, got -0.5"),
        (Config(rate=0.0), {}, ("rate",), "rate must be positive, got 0.0"),
    ]
    for config, minimum, positive, message in rejected:
        with pytest.raises(LookupError, match=f"^{re.escape(message)}$"):
            check_fields(config, minimum, positive, error=LookupError)
