"""Scoped rules must stay quiet outside simulator/artifact paths."""

import json
import time


def wall_clock_benchmark():
    started = time.time()
    report = json.dumps({"started": started})
    return report
