"""Entropic Ruzsa calculus over F_2^n.

Distances and the inequality corpus, exact fibring decompositions, the
sum-variable endgame, greedy tau descent to an approximating subgroup, and
explicit coset covers for sets of small doubling.
"""
from .groups import LinearMap, SubgroupBasis, span
from .dists import (Dist, JointDist, entropy, fwht, joint_product, load_dist,
                    pushforward_dist, uniform_on, uniform_on_subgroup,
                    xor_convolve)
from .ruzsa import (IneqReport, RefPair, check_cond_distance,
                    check_double_shift, check_madiman, check_ruzsa_diff,
                    check_submodularity, check_sum_shift,
                    check_sum_shift_cond, check_triangle, check_xor_lower,
                    cond_rdist, cond_rdist_via_joint, rdist, rdist_matrix)
from .fibring import FibringReport, cor_sum_pair, fibring_decompose, pair_dist
from .bsg import (BsgReport, EndgameChoice, EndgameTables, abstract_endgame,
                  bsg_check, endgame_tables)
from .descent import (DescentState, Move, MoveKind, SubgroupCertificate,
                      descend, diagnostics, entropic_pfr, extract_subgroup,
                      generate_candidates)
from .cover import (CosetCover, SetInput, best_shift, doubling_constant,
                    load_set, pfr_pipeline, ruzsa_cover, save_set)

__version__ = "0.1.0"
