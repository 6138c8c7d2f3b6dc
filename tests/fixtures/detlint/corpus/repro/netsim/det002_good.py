"""DET002 fixtures: explicitly seeded RNGs threaded as parameters."""

import random


def seeded(seed):
    return random.Random(seed).random()


def threaded(rng):
    return rng.uniform(0.0, 1.0)
