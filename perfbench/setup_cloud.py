"""One set-up of the benchmark, in a fresh process: import bmti, make a cloud.

    python3 perfbench/setup_cloud.py DATASET N SEED

Writes three arrays to standard output with numpy.save, one after another:
the times [import_s, generate_s], then the cloud's points and truth_F.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

t0 = time.perf_counter()
import bmti  # noqa: E402

t1 = time.perf_counter()
cloud = bmti.generate_dataset(sys.argv[1], n=int(sys.argv[2]), seed=int(sys.argv[3]))
t2 = time.perf_counter()

import numpy as np  # noqa: E402

for array in (np.array([t1 - t0, t2 - t1]), cloud.points, cloud.truth_F):
    np.save(sys.stdout.buffer, array)
