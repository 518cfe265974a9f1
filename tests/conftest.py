"""Pin BLAS to one thread before numpy is imported.

The last bits of `eigh` depend on the BLAS thread count, and the golden
outputs are recorded with one thread, the setting perfbench's workers use.
Assigning (not defaulting) the variables makes the suite independent of
the calling shell's threading settings.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
