"""GrADS application manager (Figure 1 right-hand side)."""

from .manager import DEFAULT_PACKAGES, GradsEnvironment

__all__ = ["DEFAULT_PACKAGES", "GradsEnvironment"]
