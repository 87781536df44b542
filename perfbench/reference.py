"""A fixed piece of pure-Python work that anchors the benchmark's clock.

run.py times this script next to every command it measures. It never
imports outbreaklens and must never change: its spawn-to-exit time
measures only how fast this host runs a Python process at that moment.
The mix (interpreter start, string formatting, dict and float work,
sorting, JSON) resembles what the CLI spends its time on.
"""

import json
import math


def work(n: int) -> int:
    table = {}
    total = 0.0
    for i in range(n):
        key = f"C{i:06d}"
        value = (i * 7919) % 1000 / 7.0
        table[key] = value
        total += math.sqrt(value) + math.log1p(value)
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return len(json.dumps(rows[::50])) + int(total)


if __name__ == "__main__":
    work(25_000)
