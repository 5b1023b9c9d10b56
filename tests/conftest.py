"""Loaded by pytest before any test module, and so before numpy: importing
prediagnose here sets its one OpenBLAS thread, so in-process tests compute
with the thread count the CLI uses."""

import prediagnose  # noqa: F401
