"""Configurable Object Programs: what the binder ships to each target."""

from .cop import CompilationPackage, ConfigurableObjectProgram

__all__ = [
    "CompilationPackage",
    "ConfigurableObjectProgram",
]
