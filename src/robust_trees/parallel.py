"""A shim that re-exports :func:`robust_trees.dataeng._usable_cpus` as
``worker_count`` for the benchmark, the one reader left; ROADMAP direction 3
(the benchmark change) drops that import and deletes this module."""

from .dataeng import _usable_cpus as worker_count  # noqa: F401
