"""Modules imported on first use, so that ``import bdar`` loads numpy only.

SciPy's import costs several times that of numpy and the rest of ``bdar``
together, yet only fits (the optimizer and the copula partials) and the
likelihood ratio test need it.
"""

from __future__ import annotations

import importlib


class DeferredModule:
    """Stands in for the module ``name``, importing it at the first attribute
    read. Each attribute read is kept on the instance, so later reads of it
    are plain attribute lookups."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value
