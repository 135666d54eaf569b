"""projlab: a numerical laboratory for dimension, projection, and
inverse-regularity experiments on finite point models.

Submodules:

* geom: point sets, atomic measures, CSV round-trip.
* linalg: random map stacks with unit-ball rows.
* grid: the neighbour grid of covers and decoding, squared distances.
* dimension: covering numbers, box-counting and local-dimension fits,
  localized homogeneity probes.
* constructions: sphere nets, blocked dyadic words and their parabola
  lift, exact digit arithmetic, IFS/sparse/dense atom clouds.
* embedding: per-map kernels on a given map stack: collision
  probabilities, transversality fractions, the inverse continuity
  modulus, pointwise Holder ceilings, the log-Lipschitz modulus,
  nearest-image decoding.
* slicing: slab conditionals on projected coordinates, Dirac scores,
  translate pairs.
* experiments / cli: named, config-driven experiment runs with
  deterministic JSON/CSV/SVG artifacts.
"""

__version__ = "0.1.0"

from .geom import (AtomicMeasure, PointSet, normalized_measure,
                   read_points_csv, write_points_csv)
from .linalg import sample_e_batch
from .dimension import (ScalingFit, assouad_probe, box_dimension_fit,
                        covering_number, fit_loglog, local_dimension)
from .constructions import (IfsSpec, SphereNetSpec, block_constraints,
                            dense_ball_atoms, exceptional_set_membership,
                            ifs_atoms, kernel_shell_witnesses,
                            parabola_lift_measure, sparse_atoms, sphere_net,
                            sphere_net_union, verify_digit_lemma,
                            word_entropy_dimension)
from .embedding import (collision_probability, holder_ceiling,
                        inverse_continuity_modulus, log_lipschitz_modulus,
                        transversality_fraction)
from .slicing import dirac_score, slab_conditional, translate_pair_test
from .experiments import experiment_names, run_experiment
