"""Coefficient size as the count of phase terms in numerator and denominator."""


def coeff_size(c) -> tuple[int, int]:
    """(numerator terms, denominator terms) of an exact coefficient.

    Reads the coefficient's ``num``/``den`` phase sums; a representation
    without them reports (0, 0) rather than failing the run, so a change
    of representation shows as a vanished count, not a crash.
    """
    num = getattr(getattr(c, "num", None), "terms", ())
    den = getattr(getattr(c, "den", None), "terms", ())
    return len(num), len(den)
