"""The one JSON codec of the spec, result and job dataclasses.

Every document this repo writes to a wire, a spool or a trail file is a
dataclass turned into ``{field name: value}``.  Driving that from
:func:`dataclasses.fields` means a new counter is one line -- the field
-- and cannot be forgotten on one side of a round trip.  A class with a
field that is not JSON-shaped already (an exception, a visited table)
overrides the two methods and patches just that key.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict


def _plain(value: Any) -> Any:
    """Tuples become lists (what JSON would do anyway); lists are copied;
    an embedded codec dataclass becomes its own document."""
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, FieldCodec):
        return value.to_dict()
    return value


class FieldCodec:
    """Mixin for dataclasses: ``to_dict`` / ``from_dict`` over ``fields``."""

    def to_dict(self) -> Dict[str, Any]:
        return {item.name: _plain(getattr(self, item.name))
                for item in fields(self)}

    @classmethod
    def from_dict(cls, document: Dict[str, Any]):
        """Rebuild from :meth:`to_dict` output.  Unknown keys are ignored
        and missing keys fall back to the field defaults, so documents
        survive evolution of the class in both directions."""
        known = {item.name for item in fields(cls)}
        return cls(**{key: value for key, value in document.items()
                      if key in known})
