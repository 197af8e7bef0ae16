"""Unit and property tests for the prediction hardware models."""

from hypothesis import given
from hypothesis import strategies as st

from repro.predict import (
    GsharePredictor,
    PathPredictor,
    ReturnAddressStack,
)


class TestGshare:
    def test_learns_constant_branch(self):
        g = GsharePredictor()
        for _ in range(100):
            g.update(pc=100, taken=True)  # warm-up: history stabilises
        g.reset_stats()
        for _ in range(100):
            g.update(pc=100, taken=True)
        assert g.predict(100)
        assert g.accuracy > 0.95

    def test_learns_alternating_pattern_via_history(self):
        g = GsharePredictor()
        mispredicts = [g.update(200, taken=(i % 2 == 0)) for i in range(400)]
        # After warm-up the history disambiguates the alternation.
        assert sum(mispredicts[200:]) < 10

    def test_random_pattern_predicts_poorly(self):
        import random

        rng = random.Random(7)
        g = GsharePredictor()
        for _ in range(500):
            g.update(300, taken=rng.random() < 0.5)
        assert g.accuracy < 0.8

    def test_reset_stats_keeps_learned_state(self):
        g = GsharePredictor()
        for _ in range(50):
            g.update(100, taken=True)
        g.reset_stats()
        assert g.predictions == 0
        assert g.predict(100)

    def test_unused_accuracy_is_one(self):
        assert GsharePredictor().accuracy == 1.0


class TestPathPredictor:
    def test_learns_constant_target(self):
        p = PathPredictor()
        for _ in range(30):
            p.update(pc=50, actual_index=2)
            p.push_history(123)
        assert p.predict(50) == 2

    def test_overflow_target_never_predicted(self):
        p = PathPredictor(target_bits=2)
        for _ in range(50):
            mispredicted = p.update(pc=60, actual_index=7)
            assert mispredicted  # 7 >= 4 is unrepresentable

    def test_replacement_requires_zero_confidence(self):
        p = PathPredictor()
        for _ in range(4):
            p.update(pc=70, actual_index=1)
        # Confidence is saturated at 3; one different outcome only
        # weakens, it must not flip the stored target.
        p.update(pc=70, actual_index=2)
        assert p.predict(70) == 1

    def test_alternating_targets_learned_through_path_history(self):
        p = PathPredictor()
        mispredicts = 0
        for i in range(600):
            pc = 80
            actual = i % 2
            mispredicts += int(p.update(pc, actual))
            p.push_history(1000 + actual)
        assert mispredicts < 600 * 0.25

    def test_accuracy_counters(self):
        p = PathPredictor()
        p.update(10, 0)
        assert p.predictions == 1
        p.reset_stats()
        assert p.predictions == 0 and p.accuracy == 1.0


class TestReturnAddressStack:
    def test_lifo(self):
        ras = ReturnAddressStack()
        ras.push("a")
        ras.push("b")
        assert ras.peek() == "b"
        assert ras.pop() == "b"
        assert ras.pop() == "a"
        assert ras.pop() is None

    def test_bounded_depth_drops_oldest(self):
        ras = ReturnAddressStack(depth=3)
        for item in "abcd":
            ras.push(item)
        assert len(ras) == 3
        assert ras.overflows == 1
        assert ras.pop() == "d"
        assert ras.pop() == "c"
        assert ras.pop() == "b"
        assert ras.pop() is None

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=100))
    def test_never_negative(self, ops):
        ras = ReturnAddressStack(depth=8)
        for i, op in enumerate(ops):
            if op == "push":
                ras.push(i)
            else:
                ras.pop()
            assert 0 <= len(ras) <= 8
