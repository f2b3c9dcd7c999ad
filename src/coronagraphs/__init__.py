"""Corona graph generation, structural analytics, closed-form spectra, and
the numeric oracle that cross-checks them.

The submodules are the API: ``graph``, ``structural``, ``distributions``,
``spectral``, ``oracle`` and ``cli``.
"""

__version__ = "0.1.0"
