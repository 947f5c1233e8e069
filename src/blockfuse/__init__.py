"""blockfuse: block idempotents, Brauer pairs and block fusion systems of
finite-group algebras over finite fields, with Galois-descent verification
at desk scale."""

__version__ = "0.1.0"

from .gf import (FieldElement, FieldTower, Factorization, Poly, factor,
                 factor_over_subfield, make_tower)
from .groups import (ClassData, FiniteGroup, GroupMap, Subgroup, all_subgroups, build_group,
                     centralizer, centralizer_in, class_data, coset_reps, full_subgroup,
                     normalizer, normalizer_in, sylow_p_subgroup, trivial_subgroup)
from .algebra import (AlgebraElement, BlockIdempotent, VerificationError, augmentation,
                      basis_element, brauer_map, central_multiply, conjugate_element, embed,
                      find_block, galois_apply, is_k_rational, is_stable, multiply, one,
                      primitive_central_idempotents, principal_block, trace_map, zero)
from .brauer import (BrauerPair, MaximalPairs, SubpairTable, centralizer_blocks,
                     conjugate_block, is_pair_of_block, maximal_pairs, normal_leq,
                     pair_stabilizer, subpair_table)
from .fusion import (FusionSystem, SaturationReport, alperin_check, assert_fusion_axioms,
                     block_fusion, closure, factorization_check, fusion_equal, group_fusion,
                     inner_automorphisms, map_order, saturation_report, sylow_index)
from .descent import (Correspondence, GaloisContext, GoursatInvariants, SaturationTransfer,
                      block_correspondence, check_generation, check_local_agreement,
                      check_order_preservation, check_saturation_transfer, descend_pair,
                      frobenius_stabilizer_order, galois_context, galois_orbit,
                      goursat_invariants, orbit_sum, run_descent, twist_automorphism)

__all__ = [name for name in dir() if not name.startswith("_")]
