"""Exact verification lab for cross t-intersecting set families."""

import os

# xfam calls no BLAS routine, so OpenBLAS needs no worker thread; the
# variable is read once, when numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    CoverStructure,
    Family,
    anchored_family,
    closure_pair,
    covering_number,
    elements_of,
    family_from_text,
    family_to_text,
    full_mask,
    is_cross_t_intersecting,
    is_maximal_pair,
    is_maximal_t_intersecting,
    is_t_intersecting,
    mask_of,
    read_family,
    relabel,
    star,
)
from .canon import canonical_form, canonical_form_tuple
from .constructions import (
    ConstructionSpec,
    construct_A,
    construct_B,
    construct_C1,
    construct_C2,
    construct_D,
    construct_H,
    construction_pair,
    verify_construction,
    verify_grid,
)
from .formulas import (
    AuditPoint,
    AuditReport,
    audit_lemma,
    binom,
    eval_a,
    eval_c1,
    eval_c2,
    eval_f,
    eval_g,
    eval_h,
    eval_tau_bound,
    leading_constant,
    leading_constant_check,
    n_threshold,
    tilde_a,
    tilde_c1c2,
    tilde_g,
    tilde_h,
)
from .enumeration import (
    SearchResult,
    enumerate_maximal_t_intersecting,
    extremal_product_search,
    maximal_cross_tuples,
)
from .classify import (
    TemplateMatch,
    classify_fact_2_1,
    classify_pair_theorem_1_1,
    classify_theorem_1_2,
    count_theorem_1_2,
    match_theorem_1_2,
    theorem_1_2_instances,
)

__version__ = "0.1.0"
