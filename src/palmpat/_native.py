"""The compiled library: ``_native.c``'s reproduction sampler and grid
nearest-neighbour kernel (with its query filing), built with ``cc`` into a
private cache on first use and loaded once per process by ``load``. Its callers
keep a pure-Python fallback each (the scalar sampler loop, the k-d tree) that
gives the same bytes.
"""
from __future__ import annotations

import logging
import os

import numpy as np

logger = logging.getLogger(__name__)

_lib = None  # the loaded library once loaded, False once it failed (forces every fallback)


def load():
    """The compiled ``_native.c``, loaded once per process; None when it cannot
    be (logged once). Builds are never deleted: each is keyed by its inputs, so
    checkouts and numpy versions that share the cache keep their own."""
    global _lib
    if _lib is None:
        import ctypes, hashlib, stat, subprocess, tempfile
        from pathlib import Path
        try:
            src = Path(__file__).with_name("_native.c")
            flags = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", f"-I{np.get_include()}"]
            key = hashlib.sha256(repr((src.read_bytes(), np.__version__, flags)).encode())
            cache = Path(tempfile.gettempdir(), f"palmpat-{os.getuid()}")
            cache.mkdir(mode=0o700, exist_ok=True)
            st = cache.lstat()  # another user must not be able to plant the library
            if st.st_uid != os.getuid() or st.st_mode & 0o022 or not stat.S_ISDIR(st.st_mode):
                raise OSError(f"cache {cache} is not a directory private to this user")
            path = cache / f"native-{key.hexdigest()[:32]}.so"
            if not path.exists():  # a temporary name, then os.replace: racing builds are safe
                tmp = f"{path}.{os.getpid()}.tmp"
                npyrandom = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
                subprocess.run(["cc", *flags, src, npyrandom, "-lm", "-o", tmp],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            lib = ctypes.CDLL(str(path))
            i64, real, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            lib.sample_reproduction.restype = i64
            lib.sample_reproduction.argtypes = [ptr, i64, *[real] * 6, i64, ptr]
            lib.nearest_distances.restype = i64
            lib.nearest_distances.argtypes = [ptr, i64, ptr, i64, *[real] * 4, ptr]
            lib.file_queries.restype = i64
            lib.file_queries.argtypes = [ptr, i64, i64, *[real] * 4, ptr]
            _lib = lib
        except (OSError, subprocess.SubprocessError, AttributeError) as exc:
            logger.warning("compiled library unavailable, using the scalar sampler loop and "
                           "the k-d tree: %s", exc)
            _lib = False
    return _lib or None
