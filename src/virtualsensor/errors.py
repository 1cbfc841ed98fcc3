"""Exception hierarchy shared across the package, and the field-type check
the config classes share."""


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
