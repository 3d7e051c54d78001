"""Nonabelian tensor squares and exact degree computations for small finite groups."""

from .abelian import abelian_basis
from .coset_enum import (
    CosetTable,
    Presentation,
    tensor_square_presentation,
    todd_coxeter,
)
from .degrees import (
    comm_degree,
    format_decimal,
    format_fraction,
    n_tensor_degree,
    rel_comm_degree,
    rel_n_tensor_degree,
    tensor_degree,
)
from .errors import ConsistencyError, GroupTensorError, LimitError, SpecError
from .groups import (
    FiniteGroup,
    GroupWord,
    SubgroupHandle,
    all_subgroups,
    center,
    commutator,
    conjugate,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_factors,
    direct_product,
    elementary_abelian,
    nilpotency_class,
    normal_subgroups,
    quaternion,
    quotient,
    subgroup_generated,
    symmetric,
    alternating,
    upper_central_series,
)
from .specs import group_from_spec, parse_group_spec, parse_words, subgroup_from_words
from .tensor import (
    Squares,
    TensorSquareData,
    j2_order,
    tensor_center,
    tensor_centralizer,
    tensor_class,
    tensor_square,
    tensor_upper_central,
)
from .verify import (
    ALL_CHECK_IDS,
    THEOREM_IDS,
    Config,
    CorpusEntry,
    TheoremCheck,
    VerificationReport,
    builtin_corpus,
    check_theorem,
    corpus_from_file,
    run_suite,
)
from .version import __version__

