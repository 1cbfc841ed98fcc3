"""Exception hierarchy shared across the package, and the field-type check
and JSON codec the config classes share."""

from dataclasses import asdict, fields


class VirtualSensorError(Exception):
    """Base class for all package-specific failures."""


class ParseError(VirtualSensorError):
    """A data file could not be parsed; message names the offending line."""


class SchemaError(VirtualSensorError):
    """Inputs violate the feature schema or shape contracts."""


class DegenerateFeatureError(VirtualSensorError):
    """A feature column has too few observations to standardize."""


class CheckpointError(VirtualSensorError):
    """Checkpoint file is corrupt, incompatible, or refuses to save."""


def check_types(cfg, ints=(), numbers=()) -> None:
    """Raise SchemaError naming the first field of `cfg` among `ints` that is
    not an int, or among `numbers` that is neither an int nor a float. A
    bool is neither, and a numpy integer is not an int."""
    for name in ints:
        value = getattr(cfg, name)
        if type(value) is not int:
            raise SchemaError(f"{name} must be an integer, got {value!r}")
    for name in numbers:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{name} must be a number, got {value!r}")


def check_keys(data, names, what: str) -> None:
    """Raise SchemaError unless `data` is a dict whose keys are exactly
    `names`, naming the first missing or unknown key."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} is not a JSON object")
    odd = [name for name in names if name not in data] + [key for key in data if key not in names]
    if odd:
        raise SchemaError(f"{'unknown' if odd[0] in data else 'missing'} field {odd[0]!r}")


class FlatConfig:
    """The JSON codec of TrainConfig and the model configs: `from_dict` takes
    exactly the dataclass's fields, JSON lists becoming tuples, and the
    class's own checks then reject a wrong value."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        check_keys(data, [f.name for f in fields(cls)], f"{cls.__name__} config")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
