"""Union stabilizer codes from Kerdock, Preparata, and Goethals codes.

A toolkit for non-additive quantum codes built as unions of translated
stabilizer codes: binary and Z4-linear classical constructions, CSS and
Steane-enlarged stabilizer codes, coset-graph clique search, encoder
synthesis, and dense Knill-Laflamme verification.
"""

from __future__ import annotations

from . import circuits, classical, errors, gf2, pauli, stab, unioncode, z4
from .circuits import (
    Circuit,
    EncoderReport,
    KLReport,
    align_labels,
    canonicalize_translations,
    code_basis,
    conjugate,
    format_circuit,
    full_encoder_check,
    kl_verify,
    parse_circuit,
    simulate,
    synth_q1,
    synth_qc,
    synth_qc_any_order,
)
from .classical import (
    CosetCode,
    LinearCode,
    distance_enumerator,
    format_coset_code,
    goethals_binary,
    linear_code,
    min_distance,
    nesting_check,
    nordstrom_robinson,
    parse_coset_code,
    preparata_like,
    rebase,
    reed_muller,
)
from .errors import UnionStabError
from .pauli import (
    PauliVector,
    pauli_mul,
    pauli_parse,
    pauli_str,
    pauli_weight,
    symplectic_ip,
)
from .stab import (
    CodeParams,
    StabilizerCode,
    css,
    enlarge_css,
    enlargement_weight_check,
    format_stabilizer,
    parse_stabilizer,
    purity_and_distance,
    stabilizer_from_generators,
)
from .unioncode import (
    CliqueResult,
    SearchGraph,
    UnionStabilizerCode,
    build_search_graph,
    coset_distance,
    css_like_union,
    family_build,
    family_params,
    format_union_code,
    max_clique,
    parse_union_code,
    true_distance,
    union_code,
    union_distance_bound,
    union_from_clique,
)
from .z4 import (
    Z4Code,
    goethals_z4,
    gray_image,
    kerdock_z4,
    lee_swe,
    phi_kernel,
    swe_macwilliams,
    z4_dual,
)

__version__ = "1.0.0"
