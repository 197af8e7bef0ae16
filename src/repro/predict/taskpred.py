"""Inter-task predictor variants behind one factory.

The machine's sequencer speaks one protocol — ``predict(pc)``,
``update(pc, actual_index) -> mispredicted``, ``push_history(pc)``,
``accuracy`` — implemented by three predictors:

* ``path`` — the paper's path-based scheme
  (:class:`~repro.predict.path_predictor.PathPredictor`); the default,
  and the byte-identity anchor: ``make_task_predictor("path")`` returns
  exactly the predictor every pre-machines run used.
* ``gshare`` — :class:`GshareTaskPredictor`: the same counter/target
  table indexed by ``pc ^ outcome-history``, where the history folds
  the *resolved target numbers* (the task-level analogue of gshare's
  taken/not-taken history) instead of the task-start PC path.
* ``hybrid`` — :class:`HybridTaskPredictor`: both components
  predicting in parallel with a per-PC 2-bit tournament chooser, as in
  McFarling-style combining predictors.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.predict.path_predictor import PathPredictor

#: valid kinds for :func:`make_task_predictor`
TASK_PREDICTOR_KINDS: Tuple[str, ...] = ("path", "gshare", "hybrid")


class _TaskPredictorStats:
    """Shared accounting for the task-level predictor variants."""

    def __init__(self) -> None:
        self.predictions = 0
        self.mispredictions = 0

    @property
    def accuracy(self) -> float:
        """Fraction of correct target predictions so far."""
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions

    def reset_stats(self) -> None:
        """Zero the accounting, keep the learned state."""
        self.predictions = 0
        self.mispredictions = 0


class GshareTaskPredictor(_TaskPredictorStats):
    """Outcome-history-indexed table of (2-bit counter, target number).

    The global history shifts in each resolved target number
    (``target_bits`` per task), so the index correlates with *which
    way* recent tasks exited rather than *where* they started — the
    task-level counterpart of gshare's global branch-outcome history.
    """

    def __init__(
        self,
        history_bits: int = 16,
        table_bits: int = 16,
        target_bits: int = 2,
    ) -> None:
        super().__init__()
        self.history_bits = history_bits
        self.table_bits = table_bits
        self.target_bits = target_bits
        self.max_targets = 1 << target_bits
        self.history_mask = (1 << history_bits) - 1
        self.index_mask = (1 << table_bits) - 1
        self.history = 0
        size = 1 << table_bits
        self.counters: List[int] = [0] * size
        self.targets: List[int] = [0] * size

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self.index_mask

    def predict(self, pc: int) -> int:
        """Predicted target number for the task starting at ``pc``."""
        return self.targets[self._index(pc)]

    def update(self, pc: int, actual_index: int) -> bool:
        """Train on the resolved target; return True on mispredict."""
        idx = self._index(pc)
        predicted = self.targets[idx]
        representable = actual_index < self.max_targets
        correct = representable and predicted == actual_index
        if correct:
            if self.counters[idx] < 3:
                self.counters[idx] += 1
        elif self.counters[idx] > 0:
            self.counters[idx] -= 1
        elif representable:
            self.targets[idx] = actual_index
        # Fold the outcome (not the PC) into the global history.
        self.history = (
            (self.history << self.target_bits)
            | (actual_index & (self.max_targets - 1))
        ) & self.history_mask
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        return not correct

    def push_history(self, pc: int) -> None:
        """No-op: this variant's history is outcome-fed in ``update``."""


class HybridTaskPredictor(_TaskPredictorStats):
    """Tournament of the path and gshare variants.

    A per-PC table of 2-bit choosers arbitrates (0–1 → path, 2–3 →
    gshare); the chooser trains toward whichever component was right
    when they disagree, and both components always train.
    """

    def __init__(self, table_bits: int = 16) -> None:
        super().__init__()
        self.path = PathPredictor()
        self.gshare = GshareTaskPredictor()
        self.index_mask = (1 << table_bits) - 1
        self.choosers: List[int] = [1] * (1 << table_bits)

    def _choose_gshare(self, pc: int) -> bool:
        return self.choosers[pc & self.index_mask] >= 2

    def predict(self, pc: int) -> int:
        """Predicted target number (from the chosen component)."""
        if self._choose_gshare(pc):
            return self.gshare.predict(pc)
        return self.path.predict(pc)

    def update(self, pc: int, actual_index: int) -> bool:
        """Train both components + the chooser; True on mispredict."""
        path_pred = self.path.predict(pc)
        gshare_pred = self.gshare.predict(pc)
        use_gshare = self._choose_gshare(pc)
        chosen = gshare_pred if use_gshare else path_pred
        representable = actual_index < self.path.max_targets
        correct = representable and chosen == actual_index
        path_right = representable and path_pred == actual_index
        gshare_right = representable and gshare_pred == actual_index
        if path_right != gshare_right:
            idx = pc & self.index_mask
            if gshare_right:
                if self.choosers[idx] < 3:
                    self.choosers[idx] += 1
            elif self.choosers[idx] > 0:
                self.choosers[idx] -= 1
        self.path.update(pc, actual_index)
        self.gshare.update(pc, actual_index)
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        return not correct

    def push_history(self, pc: int) -> None:
        """Advance the path component's history (gshare's is outcome-fed)."""
        self.path.push_history(pc)


def make_task_predictor(kind: str = "path"):
    """Instantiate the inter-task predictor for ``kind``.

    ``"path"`` returns a plain :class:`PathPredictor`, the paper's
    predictor, unwrapped.
    """
    if kind == "path":
        return PathPredictor()
    if kind == "gshare":
        return GshareTaskPredictor()
    if kind == "hybrid":
        return HybridTaskPredictor()
    known = ", ".join(TASK_PREDICTOR_KINDS)
    raise ValueError(f"unknown task predictor {kind!r}; known: {known}")
