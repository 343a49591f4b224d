import os

from setuptools import Extension, setup

# The compiled kernels are an optimisation, not a requirement.  With
# Cython the extension is generated from _fast.pyx; without it the
# committed _fast.c is compiled directly.  The extension is optional, so
# a failed compile (or NCTOPO_NO_EXT set) gives a pure-Python build and
# the package selects the fallback implementations at import time.
ext_modules = []
if not os.environ.get("NCTOPO_NO_EXT"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    source = "_fast.pyx" if cythonize is not None else "_fast.c"
    ext_modules = [
        Extension(
            "nctopo._kernels._fast",
            [f"src/nctopo/_kernels/{source}"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
    if cythonize is not None:
        ext_modules = cythonize(
            ext_modules,
            compiler_directives={
                "language_level": 3,
                "boundscheck": False,
                "wraparound": False,
            },
        )

setup(ext_modules=ext_modules)
