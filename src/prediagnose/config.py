"""INI-style pipeline configuration files and the config snapshots kept in models.

Sections mirror module names; unknown sections or keys are hard errors.  Every
default lives in its config dataclass: the INI loader, the snapshot written to
a model's ``created_with`` and the config rebuilt from it all walk the
dataclass fields, with the fields of a nested config (``hog``, ``mfcc``)
flattened in place.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import sys
import typing

from .core import FormatError
from .persist import PersistError

_SCHEMA: dict[str, dict[str, type]] = {
    "synththermal": {
        "width": int, "height": int, "vessel_width": int, "base_temp": float,
        "axial_gradient": float, "clot_amplitude": float, "clot_sigma": float,
        "noise_sigma": float, "clot_margin": int,
    },
    "imageproc": {
        "canny_sigma": float, "canny_low": float, "canny_high": float,
        "intensity_blur_sigma": float,
        "cell_size": int, "block_size": int, "bins": int, "hog_view": str,
    },
    "audioproc": {
        "frame_len": float, "hop": float, "pre_emphasis": float,
        "n_filters": int, "n_coeffs": int, "log_floor": float,
        "denoise_levels": int,
    },
    "ml": {
        "svm_c": float, "svm_gamma": float, "n_trees": int, "max_depth": int,
        "min_samples_leaf": int, "mtry": int, "seed": int, "window": int,
    },
}
# Keys are unique across sections, so one flat table types every value.
_TYPES = {key: typ for keys in _SCHEMA.values() for key, typ in keys.items()}


def _parse_file(path) -> dict[str, object]:
    """Typed values of every key in the file, all sections merged.  Values are
    read literally: "%" is a character, not the start of an interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise FormatError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise FormatError(f"unknown config key {key!r} in [{section}]")
            typ = _SCHEMA[section][key]
            try:
                values[key] = raw if typ is str else typ(raw)
            except ValueError as exc:
                raise FormatError(f"bad value for {section}.{key}: {raw!r}") from exc
            if typ is float and not math.isfinite(values[key]):
                raise FormatError(f"bad value for {section}.{key}: {raw!r} is not finite")
    return values


def config_from_snapshot(cls, values: dict):
    """Config dataclass cls with each field taken from values (a model's
    ``created_with`` record, or a parsed INI file) when present, else its
    default.  A value of the wrong type, or a float that is not finite, raises
    PersistError; None passes only where the field's annotation allows it."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = config_from_snapshot(hint, values)
        elif f.name in values:
            kwargs[f.name] = _checked(f.name, values[f.name], type(None) in typing.get_args(hint))
    return cls(**kwargs)


def _checked(key: str, value, nullable: bool):
    typ = _TYPES[key]
    if value is None and nullable:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else typ):
        raise PersistError(f"config value {key}={value!r} is not {typ.__name__}")
    # NaN fails both comparisons; an int beyond the float range fails one
    if typ is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise PersistError(f"config value {key}={value!r} is not a finite float")
    return value


def load_config(cls, path):
    """Config dataclass cls with the values of the INI file at path (defaults when path is None)."""
    return config_from_snapshot(cls, _parse_file(path) if path else {})


def config_snapshot(kind: str, cfg) -> dict:
    """A model's ``created_with`` record: the pipeline kind, then every config
    field in declaration order, nested configs flattened in place."""
    snap: dict = {"pipeline": kind}
    for key, value in dataclasses.asdict(cfg).items():
        snap.update(value if isinstance(value, dict) else {key: value})
    return snap
