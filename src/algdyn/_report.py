"""The JSON form of every report, decided in one place.

plain(v) turns a result into JSON-ready data: a value with its own to_obj
gives that (not walked again), a Fraction its exact string, a float that
is not finite null, a tuple a list, and dicts and lists are converted item
by item.  A missing bound is math.inf throughout the package, so it
prints as null and the report stays strict JSON.  A dataclass whose
report is its field list inherits Report.
"""

from __future__ import annotations

import math
from fractions import Fraction


def plain(v):
    if v is None or isinstance(v, (str, int)):  # the common leaves first
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [plain(x) for x in v]
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    return v.to_obj() if hasattr(v, "to_obj") else v


class Report:
    """Mixin for dataclasses: to_obj is every field, through plain."""

    def to_obj(self) -> dict:
        return {name: plain(getattr(self, name)) for name in self.__dataclass_fields__}
