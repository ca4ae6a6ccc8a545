"""Frozen regression windows for the suite ratio ranges.

The implied constants in the comparability statements are not computed
symbolically; instead, the observed ratio window of every suite at the
canonical seed is frozen into a packaged text file. Later runs must stay
inside the frozen window up to a small headroom, which turns the
constants into regression tests.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

from .errors import BaselineViolationError, ParameterError

HEADROOM = 1e-6
# the seed and trial count the frozen windows were observed at, and `verify`'s defaults
CANONICAL_SEED = 7
CANONICAL_TRIALS = 100
_RESOURCE = "baselines.txt"


def baseline_path() -> Path:
    return Path(str(resources.files("sparselab").joinpath(_RESOURCE)))


def load_baselines(path: Path | None = None) -> dict[str, tuple[float, float]]:
    text = Path(path if path is not None else baseline_path()).read_text()
    windows: dict[str, tuple[float, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParameterError(f"baseline line {lineno} is not 'suite lo hi'")
        suite, lo, hi = parts
        windows[suite] = _finite_window(lo, hi, f"baseline line {lineno}")
    return windows


def _finite_window(lo, hi, where: str) -> tuple[float, float]:
    """(lo, hi) as floats; ParameterError naming where unless both are finite and lo <= hi."""
    try:
        window = float(lo), float(hi)
    except ValueError:  # a bound that is no number
        window = math.nan, math.nan
    if not -math.inf < window[0] <= window[1] < math.inf:
        raise ParameterError(f"{where} needs finite bounds lo <= hi, got {lo} {hi}")
    return window


def save_baselines(
    windows: dict[str, tuple[float, float]], path: Path | None = None
) -> Path:
    if path is None:
        path = baseline_path()
    lines = [
        "# frozen ratio windows per verification suite (canonical seed "
        f"{CANONICAL_SEED})",
        "# suite ratio-min ratio-max",
    ]
    for suite in sorted(windows):
        lo, hi = _finite_window(*windows[suite], f"suite {suite!r} window")
        lines.append(f"{suite} {lo:.12g} {hi:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def check_window(
    suite: str,
    window: tuple[float, float],
    baselines: dict[str, tuple[float, float]] | None = None,
) -> None:
    """Raise unless the window sits inside the frozen one (default: packaged), to HEADROOM."""
    if baselines is None:
        try:
            baselines = load_baselines()
        except OSError:
            baselines = {}
    if suite not in baselines:
        raise BaselineViolationError(
            f"suite {suite!r} has no frozen window; refresh the baselines first"
        )
    lo, hi = _finite_window(*baselines[suite], f"suite {suite!r} window")
    omin, omax = window
    if omin < lo * (1.0 - HEADROOM) or omax > hi * (1.0 + HEADROOM):
        raise BaselineViolationError(
            f"suite {suite!r} ratio window [{omin:.12g}, {omax:.12g}] leaves "
            f"the frozen window [{lo:.12g}, {hi:.12g}]"
        )
