"""Contact representations of axis-aligned boxes with profit graphs."""

# Callers import from the submodules; importing them all here keeps what
# ``import crown`` loads (and so its start-up cost) fixed.
from . import cycles, errors, gap, geometry, hier, pipeline, serialize, stars, svg, triangulation
