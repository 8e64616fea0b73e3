"""The schemes by their paper names, and :func:`make_scheme`."""

from __future__ import annotations

from repro.core.ns import NSScheme
from repro.core.snp import SNPScheme
from repro.core.sp import SPScheme

SCHEMES = {
    "NS": NSScheme,
    "SNP": SNPScheme,
    "SP": SPScheme,
}


def make_scheme(name: str, cpu, **kwargs):
    """Build a scheme by its paper name ("NS", "SNP" or "SP")."""
    cls = SCHEMES.get(name.upper()) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(
            "unknown scheme %r (expected one of %s)"
            % (name, ", ".join(sorted(SCHEMES))))
    return cls(cpu, **kwargs)
