"""Finite-difference gradient checking: backprop against central differences.

Only the tests use it; ``from gradcheck import grad_check`` in a test module.
"""

from dataclasses import dataclass

import numpy as np

from volsynth import autodiff as ad


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    worst_index: tuple
    passed: bool


@dataclass
class GradCheckReport:
    entries: list
    tolerance: float

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    @property
    def max_rel_error(self):
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def __str__(self):
        lines = [f"grad check (tol {self.tolerance:g}):"]
        for e in self.entries:
            status = "ok" if e.passed else "FAIL"
            lines.append(f"  {e.name}: max rel err {e.max_rel_error:.3e} "
                         f"at {e.worst_index} [{status}]")
        return "\n".join(lines)


def grad_check(build_loss, params, tolerance=1e-4, step=1e-5, noise_floor=None):
    """Compare backprop against central finite differences, parameter by parameter.

    ``build_loss`` maps the parameter dict to a scalar Tensor and is re-run for
    every probe, so it must be deterministic. Use 64-bit parameters.

    The relative-error denominator is floored at the finite-difference noise
    scale (cancellation of two loss values of magnitude |f| leaves roundoff
    ~ eps*|f|/step); coordinates whose true gradient sits below that scale
    cannot be resolved by the probe and pass on the absolute criterion
    |analytic - numeric| <= noise_floor, exactly the usual atol+rtol rule.
    """
    loss = build_loss(params)
    grads = ad.backward(loss, params)
    if noise_floor is None:
        noise_floor = 100.0 * np.finfo(np.float64).eps \
            * max(1.0, abs(loss.item())) / step
    entries = []
    for name, p in params.items():
        analytic = grads[name]
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = build_loss(params).item()
            flat[i] = orig - step
            down = build_loss(params).item()
            flat[i] = orig
            nflat[i] = (up - down) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           noise_floor / tolerance)
        rel = np.abs(analytic - numeric) / denom
        worst = int(np.argmax(rel))
        entries.append(GradCheckEntry(
            name=name,
            max_rel_error=float(rel.reshape(-1)[worst]),
            worst_index=tuple(np.unravel_index(worst, rel.shape)),
            passed=bool(rel.reshape(-1)[worst] <= tolerance),
        ))
    return GradCheckReport(entries=entries, tolerance=tolerance)
