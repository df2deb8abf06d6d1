"""The package's settable values are the ones pinned here.

PipelineConfig's five fields choose what a run does; damp_and_invert's
percdamp stays a parameter because acceptance check 8 sets it. The
divergence's and range calibration's fixed values are module constants
(sba.EPSILON and MAX_TOKENS, sqc.STEP, COARSE and FINE), not records.
Every dataclass of the package whose name ends in Config is checked, so a
new one fails too. A setting added without a measured effect goes against ROADMAP
aim 2 ("delete any knob that has no measured effect"); one that earns its
place is pinned here with that measurement.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import slimquant
from slimquant.salience import damp_and_invert

ADVICE = "ROADMAP aim 2: delete any knob that has no measured effect"

# class name -> the parameters its constructor takes
CONFIGS = {
    "PipelineConfig": ["beta", "bits", "sba_enabled", "sqc_enabled", "compensation_enabled"],
}


def config_classes() -> dict[str, type]:
    """Every dataclass defined in the package whose name ends in Config."""
    found = {}
    for info in pkgutil.iter_modules(slimquant.__path__):
        module = importlib.import_module(f"slimquant.{info.name}")
        for name, obj in vars(module).items():
            if (
                dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
                and name.endswith("Config")
            ):
                found[name] = obj
    return found


def test_config_classes_take_only_the_pinned_values():
    found = config_classes()
    assert sorted(found) == sorted(CONFIGS), ADVICE
    for name, cls in found.items():
        assert list(inspect.signature(cls).parameters) == CONFIGS[name], f"{name}: {ADVICE}"
        assert cls.__dataclass_params__.frozen, name


def test_damping_is_the_one_numeric_parameter_of_the_gram_stage():
    params = inspect.signature(damp_and_invert).parameters
    assert list(params) == ["H", "percdamp"], ADVICE
    assert params["percdamp"].default == 0.01
