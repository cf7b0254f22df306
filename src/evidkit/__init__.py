"""evidkit: uncertainty-aware multi-label classification on Beta evidence.

Each class gets a binary evidence head producing (defective, non-defective)
evidence; subjective-logic opinions turn that evidence into probabilities
plus an explicit uncertainty mass, which drives out-of-distribution
detection. Expert class-importance weights reshape per-class base rates.

The package re-exports nothing: import each name from the module that
defines it, e.g. `from evidkit.network import train_model`.
"""

import os

# Cap BLAS thread pools before numpy is first imported anywhere in the
# package. EDL_NUM_THREADS is the documented knob; it only takes effect
# if the host did not already pin these.
_threads = os.environ.get("EDL_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
