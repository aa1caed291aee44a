"""Clustering-as-a-service: model registry + batched serving hot path.

Three pieces (docs/serving.md):

* :mod:`repro.serve.registry` — :class:`ModelRegistry`, the versioned,
  fsync'd on-disk store of fitted centroids, fit metadata, and trained
  selector artifacts, with content-hashed keys and tamper-detecting
  digests;
* :mod:`repro.serve.predictor` — :class:`Predictor`, the warm-cache
  serving hot path answering batched one-to-many assignment through the
  counted, certified exact kernels (bit-identical to training
  assignment);
* :mod:`repro.serve.batching` — :class:`MicroBatcher`, the coalescing
  front end with per-request deadlines and graceful
  :class:`FailedRequest` degradation.
"""

from repro.serve.batching import FailedRequest, MicroBatcher, Ticket
from repro.serve.predictor import Predictor
from repro.serve.registry import (
    MODEL_KIND,
    REGISTRY_VERSION,
    SELECTOR_KIND,
    ModelRegistry,
    RegistryEntry,
    content_key,
)

__all__ = [
    "MODEL_KIND",
    "REGISTRY_VERSION",
    "SELECTOR_KIND",
    "FailedRequest",
    "MicroBatcher",
    "ModelRegistry",
    "Predictor",
    "RegistryEntry",
    "Ticket",
    "content_key",
]
