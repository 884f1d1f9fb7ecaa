"""rootcovers: exact Chern invariants of cyclic root covers of curve arrangements.

The package is organized along the pipeline, and is used by module
(`from rootcovers import covers`); the package itself re-exports nothing:

    numth         exact kernels (continued fractions, Dedekind sums, Farey sets)
    arrangements  combinatorial arrangements, generators, log resolution
    partitions    weighted partitions of a prime, sampling, multiplicities
    covers        the invariant engine: report, the one evaluator of chi,
                  c1^2 and c2 on a checked CoverSpec; convergence scans
    tables        built-in reference tables
    cli           command-line front end
"""

__version__ = "0.1.0"
