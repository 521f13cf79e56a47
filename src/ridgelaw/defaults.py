"""Numeric defaults that the kernels and the command-line parser share, kept free of numpy."""

# critical Reynolds number of the pipe-flow regime switch
RE_CRITICAL = 3.0e3

# points per block when a grid is consumed in chunks: bounds an estimate's
# working memory and, being fixed, pins the summation order bit for bit
DEFAULT_CHUNK = 4096
