"""curv4: numerical curvature laboratory for explicit 4-manifolds."""

__version__ = "0.1.0"
