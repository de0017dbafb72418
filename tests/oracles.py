"""The channel study's predictors and yield rule, defined one step at a time.

``resilsim.channel`` computes each of them as a whole column at once
(``WindowMax.predictions``, ``EwmaPlusSlope.predictions`` and the yield and
margin-warning columns of ``_entelechial``). The per-step forms below are
the reference those columns must equal bit for bit: a predictor observes
the demand one sample at a time and predicts the next from what it holds.
They need no pytest, so ``tests/gates.py`` checks the kernels with them on
interpreters without the test dependencies, and ``tests/test_hot_loops.py``
builds its run oracles on them.
"""

import math
from collections import deque


class WindowMaxSteps:
    """Predicts the maximum of the most recent ``window`` observations."""

    def __init__(self, window):
        self._recent = deque(maxlen=window)

    def observe(self, y):
        self._recent.append(y)

    def predict(self):
        return float(max(self._recent))


class EwmaPlusSlopeSteps:
    """Exponentially weighted level plus slope, extrapolated ``horizon``
    steps ahead."""

    def __init__(self, alpha, horizon):
        self.alpha = alpha
        self.horizon = horizon
        self._level = None
        self._slope = 0.0
        self._last = None

    def observe(self, y):
        if self._level is None:
            self._level = float(y)
        else:
            self._slope = self.alpha * (y - self._last) + (1 - self.alpha) * self._slope
            self._level = self.alpha * y + (1 - self.alpha) * self._level
        self._last = float(y)

    def predict(self):
        return self._level + self.horizon * self._slope


def stepper(predictor):
    """A per-step form of ``predictor`` (a ``WindowMax`` or an
    ``EwmaPlusSlope``) with its parameters and no observation yet."""
    if predictor.kind == "window_max":
        return WindowMaxSteps(predictor.window)
    return EwmaPlusSlopeSteps(predictor.alpha, predictor.horizon)


def choose_yield(prediction, epsilon):
    """The smallest integer yielding point strictly above ``prediction``, at
    least 1, and whether it misses the safety margin: the inequality
    0 < Y - prediction < epsilon cannot be met at integer granularity."""
    y = max(1, math.floor(prediction) + 1)
    return y, (y - prediction) >= epsilon


def predict_yields(ys, predictor, epsilon):
    """The yields, predictions and margin warnings of each step of ``ys``:
    step 0 primes the predictor with y(0), every later step predicts from
    the samples before it."""
    steps = stepper(predictor)
    yields, predictions, warnings = [], [], []
    for t, y in enumerate(ys):
        if t == 0:
            steps.observe(y)
        prediction = steps.predict()
        chosen, warn = choose_yield(prediction, epsilon)
        yields.append(chosen)
        predictions.append(prediction)
        warnings.append(warn)
        if t > 0:
            steps.observe(y)
    return yields, predictions, warnings
