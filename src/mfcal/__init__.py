"""Multifractal measure generation, exponent estimation, and recalibration.

Subpackage map:

* :mod:`mfcal.grid` -- fields and direct clipped window sums
* :mod:`mfcal.cascade` -- multiplicative cascades and their exact oracles
* :mod:`mfcal.holder` -- local scaling-exponent maps and normalization
* :mod:`mfcal.spectrum` -- spectrum and box-dimension estimators
* :mod:`mfcal.attention` -- channel recalibration forwards and gradients
* :mod:`mfcal.analysis` -- excitation covariance and SVD energy thresholds
* :mod:`mfcal.io` -- binary field containers, PGM ingestion, CSV/JSON emitters
* :mod:`mfcal.cli` -- command-line surface (``mfcal ...``)
"""

__version__ = "0.1.0"
