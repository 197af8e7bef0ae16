"""Control flow prediction hardware models (Section 4.2).

* :class:`~repro.predict.gshare.GsharePredictor` — intra-task branch
  prediction: gshare with 16-bit global history and a 64K-entry table
  of 2-bit counters.
* :class:`~repro.predict.path_predictor.PathPredictor` — inter-task
  prediction: a path-based scheme (Jacobson et al. [9]) with 16-bit
  path history and a 64K-entry table of {2-bit counter, 2-bit target
  number} pairs, plus a return address stack for tasks that end in
  returns.
"""

from repro.predict.gshare import GsharePredictor
from repro.predict.path_predictor import PathPredictor, ReturnAddressStack
from repro.predict.taskpred import (
    TASK_PREDICTOR_KINDS,
    GshareTaskPredictor,
    HybridTaskPredictor,
    make_task_predictor,
)

__all__ = [
    "GsharePredictor",
    "GshareTaskPredictor",
    "HybridTaskPredictor",
    "PathPredictor",
    "ReturnAddressStack",
    "TASK_PREDICTOR_KINDS",
    "make_task_predictor",
]
