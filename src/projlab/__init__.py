"""projlab: a numerical laboratory for dimension, projection, and
inverse-regularity experiments on finite point models.

Submodules:

* geom: point sets, atomic measures, CSV round-trip.
* linalg: random maps with unit-ball rows, Grassmannian planes,
  projections.
* dimension: covering numbers, box-counting and local-dimension fits,
  localized homogeneity probes.
* constructions: sphere nets, blocked dyadic words and their parabola
  lift, exact digit arithmetic, IFS/sparse/dense atom clouds.
* embedding: collision probabilities, transversality Monte Carlo,
  inverse moduli (continuity, pointwise Holder, log-Lipschitz).
* slicing: slab conditional measures, Dirac scores, translate pairs.
* experiments / cli: named, config-driven experiment runs with
  deterministic JSON/CSV/SVG artifacts.
"""

__version__ = "0.1.0"

from .geom import (AtomicMeasure, PointSet, normalized_measure,
                   read_points_csv, write_points_csv)
from .linalg import Plane, project, sample_e_batch, sample_grassmannian
from .dimension import (ScalingFit, assouad_probe, box_dimension_fit,
                        covering_number, fit_loglog, local_dimension,
                        min_nn_distance)
from .constructions import (BitWord, IfsSpec, SphereNetSpec, block_constraints,
                            dense_ball_atoms, dyadic_word_sample,
                            exceptional_set_membership, ifs_atoms,
                            ifs_chaos_sample, kernel_shell_witnesses,
                            parabola_lift_measure, pi_encode, sparse_atoms,
                            sphere_net, sphere_net_union, verify_digit_lemma,
                            word_entropy_dimension)
from .embedding import (HolderEstimate, collision_probability, holder_ceiling,
                        inverse_continuity_modulus, log_lipschitz_defect,
                        log_lipschitz_modulus, pointwise_holder,
                        transversality_fraction)
from .slicing import (SlabSlice, dirac_score, slab_conditional,
                      translate_pair_test)
from .experiments import experiment_names, run_experiment
