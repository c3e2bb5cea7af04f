"""Time one cold set-up of a workload in a fresh interpreter and print it.

The set-up is what a user pays before the first simulated round: importing
the simulator, generating and parsing the hex image, and loading the config.
The printed time is corrected for the machine's speed (see speed.py).
run.py starts this script several times and reports the median:

    python3 benchmarks/setup_probe.py WORKLOAD SEED WORK_DIR IMAGE_BYTES
"""

import sys
import time
from pathlib import Path

import harness
import speed


def main(argv: list[str]) -> int:
    workload, seed, work_dir, image_bytes = argv
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        harness.prepare(workload, int(seed), Path(work_dir), int(image_bytes))
        elapsed = time.perf_counter() - t0
        factor = sampler.factor(0)
    print(repr(elapsed * factor), repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
