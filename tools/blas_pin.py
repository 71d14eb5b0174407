"""Pin BLAS to one thread, as ``bench/run.py`` does; import before numpy.

At two threads some products round differently (``tools/exactness.py``'s
kernel and field lines), so every script here pins one.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
