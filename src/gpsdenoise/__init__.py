"""GPS position-series denoising: band filtering + incremental RBF networks."""

__version__ = "0.1.0"
