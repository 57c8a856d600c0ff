"""An empty module, kept only for an import.

The scalar incomplete-gamma routines that lived here are gone: the exact
edge law at coupling 2 (``ocp2d.exact``) sums its integer-shape factors
as a band of Poisson terms, and nothing in ``ocp2d`` imports this module.
The benchmark's traced mode (``perfbench/spans.py``) still imports it and
wraps every function in its ``__all__``, of which there are none.  The
benchmark change that drops that import deletes this file with it.
"""

__all__: list[str] = []
