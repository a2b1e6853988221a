"""Activation-function engineering toolkit: float32 kernels, a small numpy
conv-net substrate, activation-placement surgery on residual presets,
temporal phase smoothing, and microbenchmarks."""

from .bench import (
    MIN_ELEMENTS,
    MIN_REPEATS,
    BenchResult,
    compare,
    make_bench_input,
    save_bench_csv,
)
from .dataio import (
    CIFAR_RECORD_BYTES,
    ImageDataset,
    PhaseSequence,
    gen_synthetic_images,
    gen_synthetic_phases,
    load_cifar10_binary,
    load_phase_csv,
    save_phase_csv,
    subset,
)
from .errors import ActkitError, ConfigError, DomainError, FormatError, ShapeError
from .experiments import (
    DataConfig,
    ExperimentConfig,
    ExperimentReport,
    Hyperparams,
    SeedRun,
    SurgeryStep,
    apply_surgery,
    emit_report,
    evaluate,
    load_config,
    load_datasets,
    param_hash,
    run_experiment,
    run_grid,
    train,
)
from .kernels import (
    KNOTS,
    ActivationKind,
    activate,
    activate_batch,
    activate_batch_backward,
    activate_derivative,
    max_approx_error,
)
from .modelspec import (
    BAND_A,
    BAND_B,
    FULL_SCALE_BLOCKS,
    MIDDLE,
    ActivationSite,
    BlockSpec,
    GroupSelector,
    Model,
    ModelSpec,
    build_model,
    fingerprint,
    forward,
    list_sites,
    loss_and_gradients,
    preset,
    record_from_json,
    record_to_json,
    replace_activations,
)
from .smoother import (
    WindowSweepRow,
    argmax_decode,
    frame_accuracy,
    save_sweep_csv,
    sma,
    sweep_window,
)
from .tensor import (
    Rng,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    global_avg_pool,
    global_avg_pool_backward,
    he_init,
    sgd_momentum_step,
    softmax_cross_entropy,
)

__version__ = "0.1.0"
