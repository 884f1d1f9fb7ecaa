"""rootcovers: exact Chern invariants of cyclic root covers of curve arrangements.

The package is organized along the pipeline:

    numth         exact kernels (continued fractions, Dedekind sums, Farey sets)
    arrangements  combinatorial arrangements, generators, log resolution
    partitions    weighted partitions of a prime, sampling, multiplicities
    covers        the invariant engine: report, the one evaluator of chi,
                  c1^2 and c2 on a checked CoverSpec; convergence scans
    tables        built-in reference tables
    cli           command-line front end
"""

__version__ = "0.1.0"

from .arrangements import (
    Arrangement,
    CurveDecl,
    PointDecl,
    SurfaceClass,
    gen_ceva,
    gen_general_lines,
    gen_p1xp1,
    gen_pg2,
    gen_underline_ceva,
    log_chern_direct,
    log_chern_resolved,
    resolve,
    validate,
)
from .covers import ChernReport, CoverSpec, convergence_scan, report
from .numth import (
    FareyConfig,
    bad_set,
    canonical_part,
    dedekind_brute,
    dedekind_fast,
    dedekind_from_ncf,
    is_farey_neighbour,
    mod_inverse,
    ncf_eval,
    ncf_expand,
    ncf_length,
    rcf_total,
)
from .partitions import (
    DiophSystem,
    MultiplicityAssignment,
    PartitionSolution,
    assign,
    count_solutions,
    is_good,
    node_residues,
    sample_good,
    sample_uniform,
    system_for,
)

__all__ = [name for name in dir() if not name.startswith("_")]
