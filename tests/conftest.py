"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.core.predictor import OracleBatchPredictor, cached_forest_predictor
from repro.core.qos import Q1_INTERACTIVE, Q2_RELAXED, Q3_BATCH
from repro.core.request import Request
from repro.engine import arrays
from repro.engine.arrays import ArrayReplicaEngine
from repro.engine.replica import ReplicaEngine
from repro.perfmodel import A100_80GB, LLAMA3_8B, ExecutionModel
from repro.simcore import Simulator


#: Engine cores the parity tests compare, by name: the reference
#: oracle and the production array engine.
ENGINE_CORES = {"objects": ReplicaEngine, "arrays": ArrayReplicaEngine}


@contextmanager
def engine_core(kind: str):
    """Build every serving replica inside the block on ``kind``.

    ``"arrays"`` runs the production seam untouched; ``"objects"``
    swaps the reference :class:`ReplicaEngine` in at that one
    construction seam, :func:`repro.engine.arrays.build_replica`.
    """
    if ENGINE_CORES[kind] is ArrayReplicaEngine:
        yield
        return
    with mock.patch.object(arrays, "build_replica", ENGINE_CORES[kind]):
        yield


@pytest.fixture(scope="session")
def execution_model() -> ExecutionModel:
    """Llama3-8B on one A100 — the paper's workhorse deployment."""
    return ExecutionModel(LLAMA3_8B, A100_80GB)


@pytest.fixture(scope="session")
def oracle_predictor(execution_model) -> OracleBatchPredictor:
    return OracleBatchPredictor(execution_model)


@pytest.fixture(scope="session")
def forest_predictor(execution_model):
    """Trained once per test session (a few seconds of CPU)."""
    return cached_forest_predictor(execution_model)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_request(
    request_id: int = 0,
    arrival_time: float = 0.0,
    prompt_tokens: int = 1000,
    decode_tokens: int = 50,
    qos=Q1_INTERACTIVE,
    app_id: str = "test-app",
    important: bool = True,
) -> Request:
    """Request factory with sensible defaults for unit tests."""
    return Request(
        request_id=request_id,
        arrival_time=arrival_time,
        prompt_tokens=prompt_tokens,
        decode_tokens=decode_tokens,
        qos=qos,
        app_id=app_id,
        important=important,
    )


@pytest.fixture
def request_factory():
    return make_request


# Re-export tier presets so tests can import them from one place.
Q1 = Q1_INTERACTIVE
Q2 = Q2_RELAXED
Q3 = Q3_BATCH
