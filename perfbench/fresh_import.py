"""Print the time this fresh interpreter takes to import fanram.

    python3 -I perfbench/fresh_import.py

Imports the package and every module the benchmark's workloads use, as a
user's first call would, with only what the interpreter loads at start-up
already in place.  The time is rescaled to the reference speed measured
in this same process just before and after the import.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

from reference import reference_seconds, speed_scale  # noqa: E402

REF_SAMPLES = 8

refs = [reference_seconds() for _ in range(REF_SAMPLES)]
t0 = perf_counter()
import fanram  # noqa: E402,F401
import fanram.cli  # noqa: E402,F401
import fanram.covering  # noqa: E402,F401
import fanram.extractor  # noqa: E402,F401
import fanram.io  # noqa: E402,F401
import fanram.oracle  # noqa: E402,F401
import fanram.structures  # noqa: E402,F401

elapsed = perf_counter() - t0
refs += [reference_seconds() for _ in range(REF_SAMPLES)]
if not os.path.abspath(fanram.__file__).startswith(SRC + os.sep):
    sys.exit(f"fanram came from {fanram.__file__}, not {SRC}")
print(repr(elapsed * speed_scale(refs)))
