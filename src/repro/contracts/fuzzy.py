"""A small fuzzy-logic inference engine.

Autopilot provides "a decision-making mechanism based on fuzzy logic"
(§1).  The contract monitor uses it to turn a noisy performance ratio
into a graded violation severity instead of a brittle threshold.  This
is a classic zero-order Sugeno system: trapezoidal memberships, max-min
rule activation, weighted-average defuzzification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

__all__ = ["Trapezoid", "FuzzyVariable", "FuzzyRule", "FuzzyEngine"]


@dataclass(frozen=True)
class Trapezoid:
    """Trapezoidal membership function (a <= b <= c <= d).

    Degenerate shapes are allowed: a==b gives a crisp left edge,
    b==c a triangle.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(f"trapezoid corners must be ordered: {self}")

    def __call__(self, x: float) -> float:
        if x < self.a or x > self.d:
            return 0.0
        if self.b <= x <= self.c:
            return 1.0
        if x < self.b:  # rising edge (a < b guaranteed here)
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)  # falling edge


@dataclass(frozen=True)
class FuzzyVariable:
    """A named input variable with labelled membership sets."""

    name: str
    sets: Mapping[str, Trapezoid]

    def membership(self, label: str, x: float) -> float:
        try:
            return self.sets[label](x)
        except KeyError:
            raise KeyError(f"{self.name} has no set {label!r}") from None


@dataclass(frozen=True)
class FuzzyRule:
    """IF var1 is setA AND var2 is setB ... THEN output = value."""

    antecedents: Tuple[Tuple[str, str], ...]  # (variable, set) pairs
    output: float

    def activation(self, variables: Mapping[str, FuzzyVariable],
                   inputs: Mapping[str, float]) -> float:
        degree = 1.0
        for var_name, set_label in self.antecedents:
            if var_name not in variables:
                raise KeyError(f"unknown fuzzy variable {var_name!r}")
            if var_name not in inputs:
                raise KeyError(f"missing input for {var_name!r}")
            degree = min(degree,
                         variables[var_name].membership(set_label,
                                                        inputs[var_name]))
        return degree


class FuzzyEngine:
    """Zero-order Sugeno inference over a rule base."""

    def __init__(self, variables: Sequence[FuzzyVariable],
                 rules: Sequence[FuzzyRule]) -> None:
        if not rules:
            raise ValueError("a fuzzy engine needs at least one rule")
        self.variables = {v.name: v for v in variables}
        self.rules = list(rules)

    def infer(self, **inputs: float) -> float:
        """Crisp output: activation-weighted average of rule outputs.

        With zero total activation (inputs outside every set) returns 0.
        """
        weighted = 0.0
        total = 0.0
        for rule in self.rules:
            w = rule.activation(self.variables, inputs)
            weighted += w * rule.output
            total += w
        return weighted / total if total > 0 else 0.0

    def activations(self, **inputs: float) -> List[Tuple[FuzzyRule, float]]:
        """Per-rule activations, for explainability in the monitor GUI."""
        return [(rule, rule.activation(self.variables, inputs))
                for rule in self.rules]


def contract_violation_engine() -> FuzzyEngine:
    """The contract monitor's rule base.

    Input: ``ratio`` = measured / predicted phase time.  Output in
    [0, 1]: 0 = performing to contract, 1 = severe violation.
    """
    ratio = FuzzyVariable("ratio", {
        "fast": Trapezoid(0.0, 0.0, 0.5, 0.8),
        "nominal": Trapezoid(0.5, 0.8, 1.2, 1.6),
        "slow": Trapezoid(1.2, 1.6, 2.5, 3.5),
        "very_slow": Trapezoid(2.5, 3.5, 1e9, 1e9),
    })
    rules = [
        FuzzyRule((("ratio", "fast"),), 0.0),
        FuzzyRule((("ratio", "nominal"),), 0.0),
        FuzzyRule((("ratio", "slow"),), 0.6),
        FuzzyRule((("ratio", "very_slow"),), 1.0),
    ]
    return FuzzyEngine([ratio], rules)
