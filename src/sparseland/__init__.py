"""Loss-landscape analysis tools for masked (pruned) neural networks.

The package answers four kinds of questions about one-hidden-layer and
deeper masked networks under squared loss:

* structure: effective subnetworks and random sparse masks (`network`,
  `trainer`);
* certificates: closed-form gradients/Hessians, stationary-point
  classification, and self-validating spurious-minimum / spurious-valley
  instances (`calculus`, `counterexamples`);
* guarantees: non-increasing descent paths under structural conditions,
  rank certificates and feature-map machinery
  (`landscape`), plus convolution mode ranks (`convmodes`);
* experiments: full-batch GD training and batched trial statistics
  (`trainer`), all reachable from the `sparseland` CLI (`cli`).

Exports resolve on first use: `import sparseland` loads no submodule and no
numpy, and `sparseland.X` (or `from sparseland import X`) imports only the
submodule that defines X.
"""

__version__ = "0.3.14"

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in {
        "activations": ("KINDS", "Activation"),
        "calculus": ("StationaryReport", "TwoLayerLinearInstance",
                     "classify_stationary", "fd_gradient", "fd_hessian",
                     "hessian_two_layer_linear", "sym_eig"),
        "convmodes": ("MODES", "ConvSpec", "conv_matrix", "conv_rank_expected"),
        "counterexamples": ("ConstructionError", "ConvValleyInstance",
                            "MinimumVerification", "SpuriousMinimumInstance",
                            "SpuriousValleyInstance", "ValleyProbeReport", "conv_valley_instance",
                            "probe_conv_valley", "probe_valley", "spurious_minimum_instance",
                            "valley_instance", "verify_spurious_minimum"),
        "landscape": ("FeatureMaps", "PathTrace", "ZeroColumnResult", "check_assumptions",
                      "layer_ranks", "nonincreasing_path_overparam",
                      "nonincreasing_path_scalar_output", "numerical_rank", "poly_feature_maps",
                      "random_grouped_instance", "zero_column_transform"),
        "network": ("RemovalReport", "SparseLayer", "SparseNet", "effective_subnetwork",
                    "forward", "loss", "net_from_json", "net_to_json"),
        "trainer": ("TrainConfig", "TrainTrace", "TrialStats", "gd_train", "gen_synthetic",
                    "grad_net", "init_net", "loss_clusters", "random_effective_net",
                    "random_sparse_mask", "run_trials"),
    }.items()
    for name in names
}  # exported name -> the submodule that defines it

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
