"""Exception hierarchy shared by all choqlab modules."""

__all__ = [
    "ChoqlabError", "RegimeViolation", "OutOfRange", "NonPositiveConstant",
    "GridMismatch", "NonFinite", "AliasRisk", "ZeroField", "NoConvergence",
    "TruncationActive", "OutOfBox", "FormatError", "ConfigError",
    "NoPositivePart",
]


class ChoqlabError(Exception):
    """Base class for all package-specific errors."""


class RegimeViolation(ChoqlabError):
    """A parameter-regime inequality failed; names the first violated one."""

    def __init__(self, name, detail):
        self.name = name
        super().__init__(f"{name}: {detail}")


class OutOfRange(ChoqlabError):
    """Scalar argument outside its admissible interval."""


class NonPositiveConstant(ChoqlabError):
    """A derived constant that must be positive came out <= 0."""


class GridMismatch(ChoqlabError):
    """Two fields (or a field and a sampled potential) live on different grids."""


class NonFinite(ChoqlabError):
    """Field values contain NaN or Inf."""


class AliasRisk(ChoqlabError):
    """Requested dilation pushes significant spectral content past Nyquist."""

    def __init__(self, t, energy_fraction):
        self.t = t
        self.energy_fraction = energy_fraction
        super().__init__(
            f"dilation t={t:g} would alias {energy_fraction:.3e} of spectral energy"
        )


class ZeroField(ChoqlabError):
    """Operation undefined on the identically-zero field."""


class NoConvergence(ChoqlabError):
    """An iteration broke down before its tolerances were met."""


class TruncationActive(ChoqlabError):
    """Converged iterate has H^s norm >= R0: truncation radii are misconfigured."""


class OutOfBox(ChoqlabError):
    """Translated profile support exits the torus nontrivially."""


class FormatError(ChoqlabError):
    """Snapshot file malformed; reports the byte offset of the defect."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


class ConfigError(ChoqlabError):
    """Experiment configuration is invalid."""


class NoPositivePart(ChoqlabError):
    """Fiber profile has no Hartree term (B_p = B_q = 0): Psi never changes sign."""
