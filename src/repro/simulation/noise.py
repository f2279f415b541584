"""Noise models for the simulated cluster.

The paper compares the LP-predicted execution time against the time measured
on a real cluster; measured times deviate because of OS jitter, MPI protocol
overheads and cache effects (up to ~20% in Figure 12, growing when
communication dominates in Figure 13b).  The simulator reproduces that gap
with pluggable noise models applied to every individual operation
(transfer or computation):

* :class:`NoJitter` — ideal linear-cost execution (matches the LP exactly);
* :class:`UniformJitter` — multiplicative noise ``U[1, 1 + amplitude]``,
  i.e. operations only ever get slower, as contention and overheads do;
* :class:`GaussianJitter` — multiplicative noise ``max(floor, N(1+bias, sigma))``;
* :class:`AffineOverhead` — adds a constant per-operation latency, the
  deviation from the pure linear model probed by Figure 13b.

Models are deterministic given their seed, so experiment campaigns are
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "OperationKind",
    "NoiseModel",
    "NoJitter",
    "UniformJitter",
    "GaussianJitter",
    "AffineOverhead",
    "ComposedNoise",
    "KIND_CODES",
    "apply_key",
    "perturb_sequence",
]


#: Operation kinds passed to noise models.
OperationKind = str
#: Integer code of each operation kind, as :meth:`apply` receives them.
KIND_CODES = {"send": 0, "compute": 1, "return": 2}
_COMPUTE = KIND_CODES["compute"]


class NoiseModel(Protocol):
    """Structural type of a noise model.

    Only :meth:`perturb` is required.  A model whose random draws do not
    depend on the operations they perturb may also split it in two, which
    lets replays take a whole stream up front:

    * ``draw(count)`` consumes the stream exactly like ``count``
      :meth:`perturb` calls and returns the raw draws (``None`` when the
      model has no random state);
    * ``apply(durations, kinds, draws)`` perturbs operations with those
      draws (``kinds`` as :data:`KIND_CODES` integers), bit-identical to
      the :meth:`perturb` calls that would have made them;
    * ``predraws = True`` announces the split.  Parameters are public
      attributes and random state is private, so :func:`apply_key` can
      tell which models apply their draws alike.

    A ``stateless`` flag tells composition whether draw order matters.
    """

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        """Return the perturbed duration of one operation."""
        ...  # pragma: no cover - protocol


def _check(duration: float, kind: OperationKind) -> None:
    if duration < 0:
        raise SimulationError(f"negative operation duration: {duration}")
    if kind not in KIND_CODES:
        raise SimulationError(f"unknown operation kind {kind!r}")


def _kind_codes(durations: np.ndarray, kinds: Sequence[OperationKind]) -> np.ndarray:
    """Validate a sequence of operations; the kinds as integer codes."""
    if len(durations) != len(kinds):
        raise SimulationError("durations and kinds must have the same length")
    if durations.size and durations.min() < 0:
        raise SimulationError(f"negative operation duration: {durations.min()}")
    try:
        return np.array([KIND_CODES[kind] for kind in kinds], dtype=np.intp)
    except KeyError as error:
        raise SimulationError(f"unknown operation kind {error.args[0]!r}") from None


def perturb_sequence(
    noise: "NoiseModel",
    durations: Sequence[float] | np.ndarray,
    kinds: Sequence[OperationKind],
    workers: Sequence[str],
) -> np.ndarray:
    """Perturb a whole sequence of operations, preserving the draw stream.

    A model that pre-draws (see :class:`NoiseModel`) takes the sequence's
    draws in one call and applies them vectorised; any other model (e.g.
    user-supplied) falls back to sequential :meth:`~NoiseModel.perturb`
    calls.  Either way the result — and the model's random state
    afterwards — is identical to perturbing the operations one by one in
    sequence order, which is what lets the analytic replays batch their
    noise draws without changing a single bit of the campaigns.
    """
    if getattr(noise, "predraws", False):
        durations = np.asarray(durations, dtype=float)
        codes = _kind_codes(durations, kinds)
        return noise.apply(durations, codes, noise.draw(len(durations)))
    return np.array(
        [
            noise.perturb(float(duration), kind, worker)
            for duration, kind, worker in zip(durations, kinds, workers)
        ]
    )


def apply_key(noise: "NoiseModel") -> tuple:
    """Equal for models whose ``apply`` is the same function.

    Two seeds of one model share a key (same class, same public
    attributes), so a batch can perturb all their operations in one call.
    """
    if isinstance(noise, ComposedNoise):
        return (ComposedNoise, *map(apply_key, noise.models))
    return (type(noise), *sorted(item for item in vars(noise).items() if item[0][0] != "_"))


@dataclass(frozen=True)
class NoJitter:
    """Ideal execution: durations are returned unchanged."""

    #: Draw-order independent (no random state).
    stateless = True
    predraws = True

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        return duration

    def draw(self, count: int) -> None:
        return None

    def apply(self, durations: np.ndarray, kinds: np.ndarray, draws: None) -> np.ndarray:
        return durations.copy()


class UniformJitter:
    """Multiplicative slowdown drawn uniformly from ``[1, 1 + amplitude]``.

    Separate amplitudes can be given for communication and computation, which
    is how the experiments model the fact that network transfers are noisier
    than CPU-bound matrix products.
    """

    #: Unit draws fetched from the generator per refill.  Batching amortises
    #: the per-call generator overhead; the stream is identical to drawing
    #: one ``uniform(0, amplitude)`` per operation (``uniform(0, a)`` is
    #: exactly ``random() * a`` for numpy's Generator).
    _BATCH = 64

    def __init__(
        self,
        amplitude: float = 0.1,
        comm_amplitude: float | None = None,
        seed: int = 0,
    ) -> None:
        if amplitude < 0 or (comm_amplitude is not None and comm_amplitude < 0):
            raise SimulationError("jitter amplitudes must be non-negative")
        self.amplitude = amplitude
        self.comm_amplitude = comm_amplitude if comm_amplitude is not None else amplitude
        # Same stream as np.random.default_rng(seed), constructed cheaper
        # (campaigns build one jitter per platform/size cell).
        self._rng = np.random.Generator(np.random.PCG64(seed))
        # The current block of unit draws, its values as floats (built on
        # the first perturb call) and the next unused position.
        self._block = np.empty(0)
        self._values: list[float] | None = None
        self._next = 0

    #: Consumes a seeded random stream: draw order matters.
    stateless = False
    predraws = True

    def _refill(self, size: int) -> None:
        self._block = self._rng.random(size)
        self._values = None
        self._next = 0

    def draw(self, count: int) -> np.ndarray:
        """Consume ``count`` unit draws, exactly like ``count`` perturb calls.

        Refills take whole ``_BATCH``-sized blocks of the generator's stream
        (one ``random(n)`` call yields the same values as ``n / _BATCH``
        calls of ``_BATCH``), so the state afterwards matches too.
        """
        start = self._next
        block = self._block
        if count <= block.size - start:
            self._next = start + count
            return block[start : self._next]
        missing = count - (block.size - start)
        self._refill(-(-missing // self._BATCH) * self._BATCH)
        self._next = missing
        return np.concatenate((block[start:], self._block[:missing]))

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        amplitude = self.amplitude if kind == "compute" else self.comm_amplitude
        if self._next == self._block.size:
            self._refill(self._BATCH)
        if self._values is None:
            self._values = self._block.tolist()
        draw = self._values[self._next]
        self._next += 1
        return duration * (1.0 + draw * amplitude)

    def apply(self, durations: np.ndarray, kinds: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """:meth:`perturb`'s arithmetic, elementwise: same bits."""
        amplitudes = np.where(kinds == _COMPUTE, self.amplitude, self.comm_amplitude)
        return durations * (1.0 + draws * amplitudes)


class GaussianJitter:
    """Multiplicative Gaussian noise with a floor.

    The factor is ``max(floor, N(1 + bias, sigma))``; the floor prevents
    negative or implausibly short durations.
    """

    def __init__(self, sigma: float = 0.05, bias: float = 0.0, floor: float = 0.5, seed: int = 0) -> None:
        if sigma < 0:
            raise SimulationError("sigma must be non-negative")
        if floor <= 0:
            raise SimulationError("floor must be positive")
        self.sigma = sigma
        self.bias = bias
        self.floor = floor
        self._rng = np.random.default_rng(seed)

    #: Consumes a seeded random stream: draw order matters.
    stateless = False
    predraws = True

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        factor = max(self.floor, self._rng.normal(1.0 + self.bias, self.sigma))
        return duration * factor

    def draw(self, count: int) -> np.ndarray:
        """The raw normal factors of ``count`` operations.

        ``Generator.normal(size=n)`` consumes the underlying bit stream
        exactly like ``n`` scalar calls, so the factors are bit-identical
        to the sequential path (asserted by the test-suite).
        """
        return self._rng.normal(1.0 + self.bias, self.sigma, size=count)

    def apply(self, durations: np.ndarray, kinds: np.ndarray, draws: np.ndarray) -> np.ndarray:
        return durations * np.maximum(self.floor, draws)


@dataclass(frozen=True)
class AffineOverhead:
    """Constant per-operation overheads (message latency, task start-up).

    ``comm_latency`` is added to every transfer and ``compute_latency`` to
    every computation, independent of the amount of load.  This breaks the
    pure linear model in exactly the way the paper's Section 5.3.3 probes.
    """

    comm_latency: float = 0.0
    compute_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.comm_latency < 0 or self.compute_latency < 0:
            raise SimulationError("latencies must be non-negative")

    #: Draw-order independent (no random state).
    stateless = True
    predraws = True

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        if kind == "compute":
            return duration + self.compute_latency
        return duration + self.comm_latency

    def draw(self, count: int) -> None:
        return None

    def apply(self, durations: np.ndarray, kinds: np.ndarray, draws: None) -> np.ndarray:
        return durations + np.where(kinds == _COMPUTE, self.compute_latency, self.comm_latency)


class ComposedNoise:
    """Apply several noise models in sequence (e.g. jitter then latency)."""

    def __init__(self, *models: NoiseModel) -> None:
        self.models = tuple(models)
        stateful = [not getattr(model, "stateless", False) for model in self.models]
        #: Draw-order independent iff every component is.
        self.stateless = not any(stateful)
        # Drawing every operation's value before applying the chain
        # reorders draws across models; that is observable only when two
        # or more components consume random state, so such a chain keeps
        # the sequential per-operation path.
        self.predraws = sum(stateful) <= 1 and all(
            getattr(model, "predraws", False) for model in self.models
        )
        self._stateful = stateful

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        for model in self.models:
            duration = model.perturb(duration, kind, worker)
        return duration

    def draw(self, count: int) -> np.ndarray | None:
        """The draws of the one stateful component (``None`` if none is)."""
        for model, stateful in zip(self.models, self._stateful):
            if stateful:
                return model.draw(count)
        return None

    def apply(
        self, durations: np.ndarray, kinds: np.ndarray, draws: np.ndarray | None
    ) -> np.ndarray:
        for model, stateful in zip(self.models, self._stateful):
            durations = model.apply(durations, kinds, draws if stateful else None)
        return durations
