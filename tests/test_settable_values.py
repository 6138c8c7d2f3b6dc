"""A ceiling on the settable values of the package.

A settable value is one dataclass field of ``DeploymentSpec``,
``WorkloadSpec``, ``ScenarioChecks`` or of any ``*Config`` dataclass
defined in ``repro``: something a caller can set.  A knob nothing sets is
a branch nothing runs, so the count may only fall; a knob is added
deliberately, with the ceiling raised in the same commit and its caller
named there.

``PYTHONPATH=src python tests/test_settable_values.py`` prints the summary
line (CI appends it to the job summary).
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import repro

#: The count when committed (92 fields in 16 classes before the controller's
#: timings and the other values no caller set became constants).
MAX_FIELDS = 76
MAX_CLASSES = 13

SPECS = {"DeploymentSpec", "WorkloadSpec", "ScenarioChecks"}


def settable_classes() -> set:
    """Every spec and ``*Config`` dataclass defined in the package."""
    classes = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for name, obj in vars(importlib.import_module(info.name)).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == info.name
                    and (name.endswith("Config") or name in SPECS)):
                classes.add(obj)
    return classes


def count() -> tuple:
    """(dataclass fields, classes) over :func:`settable_classes`."""
    classes = settable_classes()
    return sum(len(dataclasses.fields(cls)) for cls in classes), len(classes)


def test_settable_values_stay_under_the_ceiling():
    fields, classes = count()
    assert fields <= MAX_FIELDS, (
        f"{fields} settable values, over the ceiling of {MAX_FIELDS}: name the "
        f"caller of the new knob and raise MAX_FIELDS with it")
    assert classes <= MAX_CLASSES, (
        f"{classes} specs and configs, over the ceiling of {MAX_CLASSES}")


if __name__ == "__main__":
    fields, classes = count()
    print(f"settable values: {fields} dataclass fields in {classes} specs and configs")
