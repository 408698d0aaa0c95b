"""Deterministic serialization helpers.

JSON output is byte-stable across runs: keys are sorted, floats are printed
with 17 significant digits, and complex numbers appear as [re, im] pairs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_PLACEHOLDER = re.compile(r'"@@raw(\d+)@@"')


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    # json.dumps prints floats by repr, not with 17 digits, so each float
    # goes in as a placeholder string and its text is spliced in afterwards
    floats = []

    def walk(o):
        if isinstance(o, float):
            floats.append(fmt_float(o))
            return f"@@raw{len(floats) - 1}@@"
        if isinstance(o, complex):
            return [walk(o.real), walk(o.imag)]
        if isinstance(o, Fraction):
            return f"{o.numerator}/{o.denominator}"
        if isinstance(o, dict):
            return {str(k): walk(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [walk(v) for v in o]
        return o

    text = json.dumps(walk(obj), sort_keys=True, indent=1)
    return _PLACEHOLDER.sub(lambda m: floats[int(m.group(1))], text) + "\n"


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
