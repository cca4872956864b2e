"""A pytest plugin that replaces ``builtins.sum`` by the ``sum()`` of Python
3.12 and later, which adds floats with Neumaier's compensation.

Run a test under it with ``tests`` on the import path::

    python -m pytest -p compensated_sum tests/test_metrics.py
"""

import builtins
import math


def compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 adds: exactly while the total is an int, and from
    the first float total on, each float or int term with the rounding error
    of every addition carried aside and added back at the end."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    carried = 0.0
    for item in items:
        if type(item) not in (float, int):
            return sum(items, total + carried + item)
        x = float(item)
        t = total + x
        carried += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carried if carried and math.isfinite(carried) else total


def pytest_configure(config):
    builtins.sum = compensated_sum
    # the plain left-to-right sum gives 0.9999999999999999
    if sum([0.1] * 10) != 1.0:
        raise RuntimeError("builtins.sum is not the compensated sum")
