"""INI-style pipeline configuration files and the config snapshots kept in models.

Sections mirror module names; unknown sections or keys are hard errors.  Every
default lives in its config dataclass: the INI loader, the snapshot written to
a model's ``created_with`` and the config rebuilt from it all walk the
dataclass fields, a nested config's (``hog``, ``mfcc``, ``forest``) flattened
in place, and each value read is typed and checked by its field's annotation.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import sys
import typing

from .core import FormatError
from .persist import PersistError
from .pipeline import CardioPipelineConfig, ClotPipelineConfig
from .synththermal import ThermalConfig

# Each section's INI keys; a key's type is its config field's annotation.
_SCHEMA: dict[str, tuple[str, ...]] = {
    "synththermal": ("width", "height", "vessel_width", "base_temp", "axial_gradient",
                     "clot_amplitude", "clot_sigma", "noise_sigma", "clot_margin"),
    "imageproc": ("canny_sigma", "canny_low", "canny_high", "intensity_blur_sigma",
                  "cell_size", "block_size", "bins", "hog_view"),
    "audioproc": ("frame_len", "hop", "pre_emphasis", "n_filters", "n_coeffs", "log_floor",
                  "denoise_levels"),
    "ml": ("svm_c", "svm_gamma", "n_trees", "max_depth", "min_samples_leaf", "mtry", "seed",
           "window"),
}

# Each key's field annotation, nested configs flattened as config_snapshot flattens them.
_HINTS: dict[str, object] = {}
for _cls in (ThermalConfig, ClotPipelineConfig, CardioPipelineConfig):
    for _name, _t in typing.get_type_hints(_cls).items():
        _HINTS.update(typing.get_type_hints(_t) if dataclasses.is_dataclass(_t) else {_name: _t})


def _parse_file(path) -> dict[str, object]:
    """Typed values of every key in the file, all sections merged.  Values are
    read literally: "%" is a character, not the start of an interpolation.
    "none", in any case, is None."""
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
            typ = (typing.get_args(_HINTS[key]) or (_HINTS[key],))[0]  # float | None: float
            if raw.lower() == "none":  # only a nullable field takes it: see _checked
                values[key] = None
                continue
            try:
                values[key] = typ(raw)
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
            kwargs[f.name] = _checked(f.name, values[f.name], hint)
    return cls(**kwargs)


def _checked(key: str, value, hint):
    """value, if it has the type of the field annotation hint: ``float | None``
    is a nullable float."""
    args = typing.get_args(hint)
    if value is None and type(None) in args:
        return value
    typ = args[0] if args else hint
    if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else typ):
        raise PersistError(f"config value {key}={value!r} is not {typ.__name__}")
    # NaN fails both comparisons; an int beyond the float range fails one
    if typ is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise PersistError(f"config value {key}={value!r} is not a finite float")
    return value


def load_config(cls, path):
    """Config dataclass cls with the values of the INI file at path (defaults when path is None).

    One file may serve every pipeline, so keys that cls lacks are ignored, with
    one stderr line naming them.
    """
    values = _parse_file(path) if path else {}
    cfg = config_from_snapshot(cls, values)
    unused = sorted(values.keys() - config_snapshot("", cfg).keys())
    if unused:
        print(f"config {path}: {cls.__name__} does not use {', '.join(unused)}; ignored",
              file=sys.stderr)
    return cfg


def config_snapshot(kind: str, cfg) -> dict:
    """A model's ``created_with`` record: the pipeline kind, then every config
    field in declaration order, nested configs flattened in place."""
    snap: dict = {"pipeline": kind}
    for key, value in dataclasses.asdict(cfg).items():
        snap.update(value if isinstance(value, dict) else {key: value})
    return snap
