"""Build and load the batched engine's compiled replay kernel, ``_replay.c``.

It is compiled once into the bytecode cache directory of
:mod:`repro.xen.engine` (``importlib.util.cache_from_source``, so
``PYTHONPYCACHEPREFIX`` applies), or into a private directory under the
temporary one when that is not writable, under a name keyed by a hash
of the source, the flags and the interpreter; the build goes to a
temporary name and is moved into place with ``os.replace``, so
concurrent builds are safe.  A failed build (no C compiler, no Python
headers) warns once and yields None, and machines then run the
reference loop.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from types import ModuleType
from typing import Optional

SOURCE = os.path.join(os.path.dirname(__file__), "_replay.c")
COMPILER = shlex.split(sysconfig.get_config_var("CC") or "cc")
#: Doubles rounded as Python rounds them: no fused multiply-add, no reassociation.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")


def _cache_dir() -> str:
    engine = os.path.join(os.path.dirname(__file__), "engine.py")
    directory = os.path.dirname(importlib.util.cache_from_source(engine))
    try:
        os.makedirs(directory, exist_ok=True)
        if os.access(directory, os.W_OK):
            return directory
    except OSError:
        pass
    # Private to this user: a library another user could write is never loaded.
    directory = os.path.join(tempfile.gettempdir(), f"repro-kernel-{os.getuid()}")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    if os.stat(directory).st_uid != os.getuid():
        raise PermissionError(f"{directory} belongs to another user")
    return directory


def load(source: str = SOURCE, directory: Optional[str] = None) -> Optional[ModuleType]:
    """The compiled kernel, built first when needed; None if it cannot be built."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    try:
        with open(source, "rb") as fh:
            key = fh.read() + repr((FLAGS, sys.version, suffix)).encode()
        directory = directory or _cache_dir()
        path = os.path.join(directory, f"_replay-{hashlib.sha256(key).hexdigest()[:16]}{suffix}")
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=suffix, dir=directory)
            os.close(fd)
            try:
                include = ["-I", sysconfig.get_paths()["include"]]
                cmd = [*COMPILER, *FLAGS, *include, source, "-o", tmp, "-lm"]
                subprocess.run(cmd, check=True, capture_output=True)
                os.chmod(tmp, 0o755)  # readable like the bytecode beside it
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        loader = importlib.machinery.ExtensionFileLoader("_replay", path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader("_replay", loader))
        loader.exec_module(module)
        return module
    except (OSError, ImportError, subprocess.CalledProcessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")[-400:]
        warnings.warn(
            f"cannot build the replay kernel ({exc}) {stderr}; machines run the reference loop",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
