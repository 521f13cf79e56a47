"""Numeric defaults that the kernels and the command-line parser share, kept free of numpy."""

# critical Reynolds number of the pipe-flow regime switch
RE_CRITICAL = 3.0e3

# points per summation chunk of an estimate: being fixed, it pins the
# summation order bit for bit
DEFAULT_CHUNK = 4096

# summation chunks per evaluation block: the finite-difference pass evaluates
# the model on blocks of BLOCK_CHUNKS * DEFAULT_CHUNK points, which bounds its
# working memory
BLOCK_CHUNKS = 2
