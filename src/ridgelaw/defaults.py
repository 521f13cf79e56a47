"""Numeric defaults that the kernels and the command-line parser share, kept free of numpy."""

# critical Reynolds number of the pipe-flow regime switch
RE_CRITICAL = 3.0e3

# points per chunk of the finite-difference pass: the model is evaluated and
# the outer products summed once per chunk, which bounds the pass's working
# memory; being fixed, it pins the summation order bit for bit
DEFAULT_CHUNK = 8192
