"""Deterministic serialization helpers.

JSON output is byte-stable across runs: keys are sorted, floats are printed
with 17 significant digits, and complex numbers appear as [re, im] pairs.
`dumps_canonical` renders a whole document; `stream_canonical` yields the
same text in chunks for a document with one large list whose items the
caller renders itself, straight from its arrays.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Iterator

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


def stream_canonical(doc: dict, key: str, items: Iterable[str]) -> Iterator[str]:
    """The text of `dumps_canonical` of `doc` with the list `doc[key]`, in chunks.

    `doc` holds the other keys.  Each element of `items` is a nonempty run
    of the list's items, each already in canonical form at depth 2 and
    joined by ",\n".
    """
    head, _, tail = dumps_canonical({**doc, key: None}).partition(f'"{key}": null')
    yield f'{head}"{key}": ['
    sep = "\n"
    for chunk in items:
        yield sep + chunk
        sep = ",\n"
    yield ("]" if sep == "\n" else "\n ]") + tail


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
