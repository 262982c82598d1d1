"""Seeded input streams shared by every workload."""

import random


def seeded(seed, stream):
    """An RNG per named input stream, so the warm-up stream never shares
    draws with the timed one and every stream repeats for a given seed."""
    return random.Random("%d/%s" % (seed, stream))


def repeat_share(keys):
    """Share of inputs that already occurred earlier in the run."""
    return 1 - len(set(keys)) / max(len(keys), 1)
