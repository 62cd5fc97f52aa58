"""From-scratch numpy neural-network framework.

This package is the reproduction's PyTorch substitute (DESIGN.md §5):
it lowers the same :mod:`repro.graph` layer specs the accelerator
simulator consumes into runnable, trainable numpy code — forward,
backward, SGD, quantization — so the full train / quantize / deploy path
of an embedded vision model is real executable code.
"""

from repro.nn.augment import (
    additive_noise,
    augment_dataset,
    compose,
    random_horizontal_flip,
    random_translate,
)
from repro.nn.data import Dataset, SHAPE_CLASSES, make_shapes_dataset, train_test_split
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    Softmax,
    Upsample,
)
from repro.nn.compile import (
    CompiledPlan,
    compile_plan,
    compile_quantized_plan,
)
from repro.nn.infer import (
    ArenaRegistry,
    BufferArena,
    FusedConv2D,
    FusedDense,
    InferencePlan,
    build_inference_plan,
    fold_batchnorm,
)
from repro.nn.loss import CrossEntropyLoss, MSELoss
from repro.nn.metrics import (
    ClassificationReport,
    classification_report,
    confusion_matrix,
    top_k_accuracy,
)
from repro.nn.module import (
    Identity,
    Module,
    Parameter,
    is_grad_enabled,
    no_grad,
)
from repro.nn.network import GraphNetwork
from repro.nn.optim import SGD, Adam, CosineLR, StepLR
from repro.nn.quant import (
    symmetric_quantize,
    QuantizationSpec,
    QuantizedInferencePlan,
    TensorQuantization,
    activation_dtype,
    build_quantized_plan,
    dequantize_batch,
    quantization_sweep,
    quantize_batch,
    quantize_network,
    quantize_plan,
    quantize_tensor,
)
from repro.nn.fixed_point import DatapathReport, emulate_fixed_point
from repro.nn.trainer import (
    EpochStats,
    Trainer,
    TrainingHistory,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Adam",
    "AvgPool2D",
    "ArenaRegistry",
    "BufferArena",
    "ClassificationReport",
    "CompiledPlan",
    "BatchNorm2D",
    "Conv2D",
    "CosineLR",
    "CrossEntropyLoss",
    "DatapathReport",
    "Dataset",
    "Dense",
    "Dropout",
    "EpochStats",
    "Flatten",
    "FusedConv2D",
    "FusedDense",
    "GlobalAvgPool",
    "GraphNetwork",
    "Identity",
    "InferencePlan",
    "MSELoss",
    "MaxPool2D",
    "Module",
    "Parameter",
    "QuantizationSpec",
    "QuantizedInferencePlan",
    "ReLU",
    "SGD",
    "SHAPE_CLASSES",
    "Softmax",
    "StepLR",
    "TensorQuantization",
    "Trainer",
    "TrainingHistory",
    "Upsample",
    "activation_dtype",
    "additive_noise",
    "augment_dataset",
    "build_inference_plan",
    "build_quantized_plan",
    "classification_report",
    "compile_plan",
    "compile_quantized_plan",
    "compose",
    "dequantize_batch",
    "fold_batchnorm",
    "is_grad_enabled",
    "no_grad",
    "confusion_matrix",
    "emulate_fixed_point",
    "evaluate",
    "load_checkpoint",
    "make_shapes_dataset",
    "quantization_sweep",
    "quantize_batch",
    "quantize_network",
    "quantize_plan",
    "quantize_tensor",
    "symmetric_quantize",
    "random_horizontal_flip",
    "save_checkpoint",
    "random_translate",
    "top_k_accuracy",
    "train_test_split",
]
