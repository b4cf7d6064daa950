"""The one numpy handle of the package, loaded on first use.

Only the float lane calls numpy; the exact lane (factor, verify) never
does.  Every module takes `np` from here, so `import darboux7r` costs no
numpy import: when numpy is not imported yet, `np` is a lazy module
(importlib.util.LazyLoader) that runs numpy on its first attribute
access.  When the caller has imported numpy already, `np` is that module.
"""

from __future__ import annotations

import importlib.util
import sys


def _numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _numpy()
