"""Test-session set-up shared by every test module.

Hypothesis reports a failing example through ``hypothesis.extra._patching``,
which imports libcst; libcst 1.0 imports ``mypy_extensions.TypedDict``, which
warns ``DeprecationWarning`` on import.  Under ``-W error`` that warning,
raised inside Hypothesis's report hook, aborts the whole session with
INTERNALERROR, so one failing property test hides every later result.
Importing the module here, once, with that warning ignored, leaves it cached
for the hook; every other warning filter stays as the command line sets it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # Hypothesis or libcst is absent, or laid out otherwise
        pass
