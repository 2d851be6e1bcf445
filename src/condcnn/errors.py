"""Exception types shared across the library, and the config value checks
that raise them.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, numeric failures exit 3.
"""


class ShapeError(ValueError):
    """Operands have incompatible shapes. The message reports both shapes."""


class ConfigError(ValueError):
    """A layer, profile, or run configuration is invalid."""


class ArchitectureError(ConfigError):
    """A model cannot be built as specified (e.g. a pool longer than its input)."""


class DataError(ValueError):
    """Input data violates its declared format or range."""


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf or is otherwise numerically invalid."""


def is_number(value):
    """True for an int or float config value; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_dict(what, section):
    """Return `section`; raise ConfigError naming `what` unless it is a dict."""
    if not isinstance(section, dict):
        raise ConfigError(f"{what} must be a dict, got {section!r}")
    return section


def check_keys(what, section, required, optional=()):
    """Raise ConfigError naming `what` and the keys unless dict `section`
    holds every `required` key and no key beyond `required` and `optional`."""
    check_dict(what, section)
    unknown = sorted(set(section) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{what} has unknown key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigError(f"{what} is missing key(s): {', '.join(missing)}")


def check_count(what, value, least):
    """Raise ConfigError naming `what` unless `value` is an int >= `least`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
