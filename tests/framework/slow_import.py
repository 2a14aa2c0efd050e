"""A repetition function whose module takes longer to import than the
watchdog budget ``test_supervision`` gives it: a fresh worker pays that import
when it unpickles its first call."""

import time

IMPORT_S = 0.6

time.sleep(IMPORT_S)


def run(config, seed):
    return ("ok", seed)
