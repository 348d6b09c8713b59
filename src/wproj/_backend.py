"""The canonical-form kernel under the name perfbench's tracer wraps.

``perfbench/tracer.py`` reports the ``kernel.canonical_pair.*`` metrics by
wrapping ``wproj._backend.canonical_pair``.  This alias of the one pure
kernel keeps those counters live; it goes once the harness wraps
``_kernels_py.canonical_pair`` directly (ROADMAP item 1).
"""

from ._kernels_py import canonical_pair

__all__ = ["canonical_pair"]
