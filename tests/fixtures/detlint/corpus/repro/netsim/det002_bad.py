"""DET002 fixtures: global, unseeded or machine-specifically seeded RNGs."""

import random


def unseeded_everywhere():
    rng = random.Random()
    system = random.SystemRandom()
    return rng, system


def machine_specific(name):
    return random.Random(hash(name) & 0xFFFF)


def global_plane():
    return random.uniform(0.0, 1.0)
