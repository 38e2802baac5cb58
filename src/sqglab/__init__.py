"""Numerical laboratory for a 1D dispersive transport model on the circle.

Subpackages cover the exact dispersion symbols, truncated spectral fields,
exact-arithmetic resonance searches, multilinear normal-form corrections,
time evolution with corrected-energy diagnostics, and travelling-wave
continuation.  The ``sqglab`` CLI exposes each as a subcommand.
"""

__version__ = "0.1.0"

from .dispersion import dispersion, smoothing_symbol, smoothing_kernel

__all__ = [
    "__version__",
    "dispersion",
    "smoothing_symbol",
    "smoothing_kernel",
    "SpectralField",
    "hs_norm",
    "sobolev_energy",
]


def __getattr__(name):
    # import the field module on first use, so a job that never touches a
    # field (resonance, waves) does not load it, and a dispersion or
    # resonance job loads no NumPy
    if name in ("SpectralField", "hs_norm", "sobolev_energy"):
        from . import field

        return getattr(field, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
