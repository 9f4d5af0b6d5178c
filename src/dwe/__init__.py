"""Day-of-week submission effect analysis for journal article metadata.

Turns article submission records (received dates, authors, countries) into
weekly concentration ratios, normality-transformed dependent variables,
dummy-variable regressions (OLS / robust / random-effects panel), and
per-country localization quotients with natural-breaks classification.
"""

import os

__version__ = "0.1.0"

# One BLAS thread, whatever count the caller set: a threaded reduction
# splits sums differently, and so changes last digits of the outputs.
# This holds only when dwe is imported before numpy, as its CLI is.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from . import corpus, diststat, geo, harvest, linmod, panel, rud, synth  # noqa: F401
