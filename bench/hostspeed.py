"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the CPU the benchmark gets drifts by a third
or more within seconds to minutes, and every stage slows down with it.  To
take that drift out of the stage times, :func:`sample` times three fixed
pure-Python kernels (integer arithmetic, a JSON round trip with a regex scan,
and a sequence-alignment dynamic programme) and returns the host's slowness
relative to :data:`REFERENCE_S`: 1.0 when the kernels run as fast as they did
on the reference host, 1.3 when they take 30% longer.

The kernels use only the standard library and none of ``shexbench``, so no
change to the program under test can speed them up or slow them down.  A
stage time divided by the mean slowness measured just before and just after
the stage is the stage's time at reference host speed.

The reference times were measured on a 2-vCPU Linux x86_64 VM (Intel Xeon,
Python 3.11.7) in one of its fast periods.
"""

from __future__ import annotations

import json
import re
import time

#: Seconds each kernel took on the reference host.
REFERENCE_S = {"arith": 0.0077, "json": 0.0057, "align": 0.0062}

_ROWS = [{"predicate": f"http://www.wikidata.org/prop/direct/P{i}", "count": i, "share": i / 7,
          "label": f"label {i} " * 4} for i in range(300)]
_TEXT = json.dumps({"rows": _ROWS})
_COUNT = re.compile(r'"count": (\d+)')
_LEFT = [(f"p{i}", f"n{i % 5}", f"c{i % 4}") for i in range(80)]
_RIGHT = [(f"p{i}", f"n{i % 6}", f"c{i % 3}") for i in range(5, 85)]


def _arith() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _json() -> int:
    found = 0
    for _ in range(6):
        text = json.dumps(json.loads(_TEXT))
        found += len(_COUNT.findall(text))
    return found


def _align() -> int:
    previous = [3 * j for j in range(len(_RIGHT) + 1)]
    for i, path in enumerate(_LEFT, 1):
        current = [3 * i]
        for j, other in enumerate(_RIGHT, 1):
            substitute = previous[j - 1] + sum(x != y for x, y in zip(path, other))
            current.append(min(previous[j] + 3, current[j - 1] + 3, substitute))
        previous = current
    return previous[-1]


KERNELS = {"arith": _arith, "json": _json, "align": _align}


def kernel_times() -> dict[str, float]:
    """Seconds each kernel takes now, one call each."""
    times = {}
    for name, kernel in KERNELS.items():
        started = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - started
    return times


def sample() -> float:
    """The host's slowness now: mean over the kernels of time / reference."""
    times = kernel_times()
    return sum(times[name] / REFERENCE_S[name] for name in KERNELS) / len(KERNELS)
