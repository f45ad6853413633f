"""One JSON encoder for the package's frozen result records."""

from dataclasses import fields


def _plain(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return list(value) if isinstance(value, tuple) else value


class JsonFields:
    """to_json_dict for a dataclass: every field under its own name, with a
    complex number as [re, im] and a tuple as a list."""

    def to_json_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
