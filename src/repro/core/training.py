"""Offline expert training (Sections 5.1-5.2).

Protocol (5.2.1): "The training experiments consisted of one target and
one workload from NAS suite where each program runs until the other
finishes.  These runs are repeated by varying the number of threads for
both programs. ... We capture features f = [c, e] ... and record the
number of threads n that leads to best performance."

Partitioning (5.1): "We first separate the training programs into 2
sets: those that scale well and those that do not.  We then built an
expert for each set on 2 different platforms: a 12 core machine and a
32 core machine, giving 4 experts in all.  We defined a program as being
scalable if it achieves at least P/4 speedup where P is the number of
processors."

Only NAS programs are used for training; SpecOMP and Parsec programs
appear exclusively in evaluation.  Section 8.4 builds 8 experts "by
further splitting the training programs based on scaling behavior";
we split each 2x2 slice at its median measured speedup.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..machine.topology import TWELVE_CORE, Topology, XEON_L7555
from ..programs import registry
from ..programs.model import ProgramModel
from ..runtime import engine
from ..sched.scheduler import ProportionalShareScheduler
from . import expert
from .expert import Expert, train_expert
from .features import FeatureSample, env_norm_of
from .policies.fixed import RecordingPolicy


_PLATFORMS: Dict[str, Topology] = {
    TWELVE_CORE.name: TWELVE_CORE,
    XEON_L7555.name: XEON_L7555,
}


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the offline training pipeline."""

    platform_names: Tuple[str, ...] = (TWELVE_CORE.name, XEON_L7555.name)
    target_names: Tuple[str, ...] = (
        "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp",
    )
    workload_names: Tuple[str, ...] = ("cg", "ep")
    #: Multi-program workloads ("one workload" in the sense of Table 3:
    #: a *set* of co-running benchmarks).  These extend the training
    #: distribution to the contention levels the large evaluation
    #: workloads produce; without them every model would extrapolate.
    workload_bundles: Tuple[Tuple[str, ...], ...] = (
        (),  # isolated runs: the static scenario must be in-distribution
        ("is", "cg", "ft"),
        ("is", "cg", "ft", "mg", "bt", "sp"),
    )
    #: Workload thread counts as fractions of the platform's cores.
    workload_fractions: Tuple[float, ...] = (0.3, 0.8)
    #: Shrink factor on program iteration counts for training runs.
    iterations_scale: float = 0.1
    dt: float = 0.1
    seed: int = 42
    #: Cap on harvested samples per training run (subsampled evenly).
    max_samples_per_run: int = 12
    #: Available-processor levels (fractions of the platform's cores).
    #: Each training run executes at one *fixed* level, so the best-n
    #: label is specific to a processor count; sweeping levels across
    #: runs is what teaches the thread models their processors slope.
    availability_levels: Tuple[float, ...] = (0.25, 0.5, 1.0)

    def platforms(self) -> List[Topology]:
        return [_PLATFORMS[name] for name in self.platform_names]


def thread_candidates(processors: int) -> List[int]:
    """Candidate thread counts: powers of two up to P, plus P."""
    if processors < 1:
        raise ValueError("processors must be >= 1")
    candidates = []
    n = 1
    while n < processors:
        candidates.append(n)
        n *= 2
    candidates.append(processors)
    return candidates


def scale_program(program: ProgramModel, factor: float) -> ProgramModel:
    """A copy of ``program`` with iteration count scaled by ``factor``."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    iterations = max(4, int(round(program.iterations * factor)))
    return replace(program, iterations=iterations)


@dataclass(frozen=True)
class ScalabilityRecord:
    """Measured isolated scaling of one program on one platform."""

    program: str
    platform: str
    speedup_at_p: float
    processors: int

    @property
    def scalable(self) -> bool:
        """The paper's criterion: speedup >= P/4."""
        return self.speedup_at_p >= self.processors / 4.0


def _scalability_request(
    name: str, platform: Topology, threads: int, config: TrainingConfig
):
    """One isolated static run of the scalability measurement."""
    from ..exec import PolicySpec, RunRequest

    return RunRequest(
        target=name,
        policy=PolicySpec.fixed(threads),
        scenario=None,
        topology=platform,
        iterations_scale=config.iterations_scale,
        dt=config.dt,
        processors=platform.cores,
    )


def measure_scalability_grid(
    config: TrainingConfig, executor=None
) -> List[ScalabilityRecord]:
    """Scalability of every training target on every platform, batched
    through one executor call so the runs parallelise together."""
    from ..exec import Executor

    if executor is None:
        executor = Executor()
    grid = [
        (name, platform)
        for platform in config.platforms()
        for name in config.target_names
    ]
    summaries = executor.run([
        _scalability_request(name, platform, threads, config)
        for name, platform in grid
        for threads in (1, platform.cores)
    ])
    records = []
    for index, (name, platform) in enumerate(grid):
        serial, parallel = summaries[2 * index], summaries[2 * index + 1]
        records.append(ScalabilityRecord(
            program=name,
            platform=platform.name,
            speedup_at_p=serial.target_time / parallel.target_time,
            processors=platform.cores,
        ))
    return records


def _training_request(
    target_name: str,
    workload_names: Tuple[str, ...],
    platform: Topology,
    workload_threads: int,
    target_threads: int,
    config: TrainingConfig,
    processors: int,
):
    """One training run at a fixed processor level, as a request.

    ``record=True`` wraps the fixed target policy in a
    :class:`RecordingPolicy` so the harvested feature vectors come back
    in the run summary.
    """
    from ..exec import PolicySpec, RunRequest, WorkloadSpec

    workload = None
    if workload_names:
        workload = WorkloadSpec(
            program_names=tuple(workload_names),
            policy=PolicySpec.fixed(workload_threads),
        )
    return RunRequest(
        target=target_name,
        policy=PolicySpec.fixed(target_threads),
        scenario=None,
        workload=workload,
        topology=platform,
        iterations_scale=config.iterations_scale,
        dt=config.dt,
        max_time=7200.0,
        processors=processors,
        record=True,
    )


def harvest_samples(
    records: Sequence,
    best_threads: int,
    speedup: float,
    program: str,
    platform: str,
    max_samples: int,
) -> List[FeatureSample]:
    """Turn a recorded best-n run into labelled training samples.

    ``records`` is the selection log of the best run — any sequence of
    objects with ``features`` (array-like feature vectors).  Consecutive
    records give (f_t, ‖e_{t+1}‖) pairs; each is labelled with the run's
    best thread count and achieved speedup.
    """
    records = list(records)
    if len(records) < 2:
        return []
    pairs = list(zip(records[:-1], records[1:]))
    if len(pairs) > max_samples:
        stride = len(pairs) / max_samples
        pairs = [pairs[int(i * stride)] for i in range(max_samples)]
    samples = []
    for current, nxt in pairs:
        samples.append(FeatureSample(
            features=np.asarray(current.features, dtype=float),
            best_threads=best_threads,
            speedup=speedup,
            next_env_norm=env_norm_of(
                np.asarray(nxt.features, dtype=float)
            ),
            program=program,
            platform=platform,
        ))
    return samples


def _training_grid(
    config: TrainingConfig,
) -> List[Tuple[str, Topology, Tuple[str, ...], int, int, List[int]]]:
    """The Section 5.2.1 sweep as a flat list of run configurations."""
    workload_options: List[Tuple[str, ...]] = [
        (name,) for name in config.workload_names
    ] + [tuple(bundle) for bundle in config.workload_bundles]
    grid = []
    for platform in config.platforms():
        for target_name in config.target_names:
            for workload_names in workload_options:
                # A single workload program must differ from the target;
                # inside multi-program bundles a copy of the target may
                # co-run (as the Table 3 large sets do in evaluation).
                if len(workload_names) == 1 and target_name in workload_names:
                    continue
                # An empty workload is one isolated run; sweeping the
                # (meaningless) workload thread count would duplicate it.
                fractions = (
                    config.workload_fractions if workload_names else (1.0,)
                )
                for fraction in fractions:
                    wn = max(1, int(round(platform.cores * fraction)))
                    for level in config.availability_levels:
                        processors = max(1, int(round(
                            platform.cores * level
                        )))
                        grid.append((
                            target_name, platform, workload_names, wn,
                            processors, thread_candidates(platform.cores),
                        ))
    return grid


def generate_training_data(
    config: TrainingConfig = TrainingConfig(),
    executor=None,
    jobs: int = None,
) -> List[FeatureSample]:
    """Run the full Section 5.2.1 protocol; returns labelled samples.

    The sweep — platforms x targets x workloads x thread counts x
    availability levels — is one flat batch of independent runs, fanned
    out through :class:`repro.exec.Executor` (``jobs``/``REPRO_JOBS``
    control parallelism; results are identical at any worker count).
    """
    from ..exec import Executor

    if executor is None:
        executor = Executor(jobs=jobs)
    grid = _training_grid(config)
    requests = [
        _training_request(
            target_name, workload_names, platform, wn, n, config,
            processors,
        )
        for target_name, platform, workload_names, wn, processors,
            candidates in grid
        for n in candidates
    ]
    summaries = executor.run(requests)

    samples: List[FeatureSample] = []
    cursor = 0
    for target_name, platform, workload_names, wn, processors, \
            candidates in grid:
        runs = summaries[cursor:cursor + len(candidates)]
        cursor += len(candidates)
        best_index = min(
            range(len(candidates)), key=lambda i: runs[i].target_time
        )
        best_n = candidates[best_index]
        best = runs[best_index]
        serial = scale_program(
            registry.get(target_name), config.iterations_scale
        ).serial_time()
        samples.extend(harvest_samples(
            best.records,
            best_threads=best_n,
            speedup=serial / best.target_time,
            program=target_name,
            platform=platform.name,
            max_samples=config.max_samples_per_run,
        ))
    if not samples:
        raise RuntimeError("training produced no samples")
    return samples


@dataclass(frozen=True)
class ExpertBundle:
    """Trained experts plus the provenance needed by the analyses."""

    experts: Tuple[Expert, ...]
    scalability: Tuple[ScalabilityRecord, ...]
    samples_per_expert: Dict[str, int]
    config: TrainingConfig

    def expert(self, name: str) -> Expert:
        for expert in self.experts:
            if expert.name == name:
                return expert
        raise KeyError(f"no expert named {name!r}")

    def scalability_of(self, program: str, platform: str) -> ScalabilityRecord:
        for record in self.scalability:
            if record.program == program and record.platform == platform:
                return record
        raise KeyError(f"no scalability record for {program}@{platform}")


def partition_samples(
    samples: Sequence[FeatureSample],
    scalability: Sequence[ScalabilityRecord],
    granularity: int,
) -> Dict[str, List[FeatureSample]]:
    """Split training samples into expert slices (Figure 5).

    ``granularity`` 4 gives the paper's 2x2 split (scalable? x platform);
    8 additionally splits each slice at its median measured speedup;
    1 pools everything (the monolithic aggregate model of Section 7.7).
    """
    if granularity not in (1, 2, 4, 8):
        raise ValueError("granularity must be 1, 2, 4 or 8")
    if granularity == 1:
        return {"E1": list(samples)}

    scal = {(r.program, r.platform): r for r in scalability}

    def slice_key(sample: FeatureSample) -> str:
        record = scal[(sample.program, sample.platform)]
        if granularity == 2:
            return "scalable" if record.scalable else "nonscalable"
        key = (
            f"{'scalable' if record.scalable else 'nonscalable'}"
            f"@{sample.platform}"
        )
        if granularity == 8:
            # Median split of speedups within the 2x2 slice.
            peers = [
                r.speedup_at_p for r in scalability
                if r.platform == sample.platform
                and r.scalable == record.scalable
            ]
            midpoint = float(np.median(peers))
            tier = "hi" if record.speedup_at_p >= midpoint else "lo"
            key = f"{key}:{tier}"
        return key

    slices: Dict[str, List[FeatureSample]] = {}
    for sample in samples:
        slices.setdefault(slice_key(sample), []).append(sample)
    # Drop slices too small to fit a 10-d model reliably.
    return {k: v for k, v in slices.items() if len(v) >= 15}


#: Canonical expert naming order for the paper's 4-expert configuration:
#: E1/E2 on the 12-core platform, E3/E4 on the 32-core platform,
#: scalable before non-scalable (matching Figure 5's layout).
_CANONICAL_ORDER = (
    f"scalable@{TWELVE_CORE.name}",
    f"nonscalable@{TWELVE_CORE.name}",
    f"scalable@{XEON_L7555.name}",
    f"nonscalable@{XEON_L7555.name}",
)


def build_experts(
    config: TrainingConfig = TrainingConfig(),
    granularity: int = 4,
    samples: Sequence[FeatureSample] = None,
    scalability: Sequence[ScalabilityRecord] = None,
) -> ExpertBundle:
    """Full pipeline: train data -> partition -> fit experts.

    ``samples``/``scalability`` may be passed in to reuse one expensive
    data-generation run across granularities (as Section 8 does: "for
    the same amount of training data").
    """
    if samples is None:
        samples = generate_training_data(config)
    if scalability is None:
        scalability = measure_scalability_grid(config)
    slices = partition_samples(samples, scalability, granularity)
    if not slices:
        raise RuntimeError("no expert slice had enough training samples")

    def order(key: str) -> tuple:
        try:
            return (0, _CANONICAL_ORDER.index(key))
        except ValueError:
            return (1, key)

    experts = []
    counts = {}
    for index, key in enumerate(sorted(slices, key=order), start=1):
        slice_samples = slices[key]
        name = f"E{index}"
        experts.append(train_expert(
            name=name, samples=slice_samples, provenance=key,
        ))
        counts[name] = len(slice_samples)
    return ExpertBundle(
        experts=tuple(experts),
        scalability=tuple(scalability),
        samples_per_expert=counts,
        config=config,
    )


_BUNDLE_CACHE: Dict[Tuple[TrainingConfig, int], ExpertBundle] = {}
_DATA_CACHE: Dict[TrainingConfig, tuple] = {}

#: Bump when feature semantics change (e.g. what the environment sample
#: includes) so cached training artefacts are regenerated.
_PIPELINE_VERSION = 4


#: Calibration constants -> (the topology it was computed for, its
#: fingerprint).
_FINGERPRINTS: Dict[tuple, Tuple[Topology, str]] = {}


def _simulator_fingerprint() -> str:
    """Hash of the calibration constants baked into training data.

    Cached training artefacts are invalid whenever the simulator's
    physics change, so those constants are part of the cache key.  The
    hash is memoised on the constants themselves and the identity of
    ``XEON_L7555``; the scheduler's follow from its field defaults and
    the (frozen) topology.
    """
    calibration = (
        _PIPELINE_VERSION,
        expert.DEFAULT_RIDGE,
        engine.SPIN_WASTE_COEFF,
        engine.MAX_SPIN_WASTE,
        engine.SERIAL_MEMORY_INTENSITY,
    )
    key = calibration + (
        ProportionalShareScheduler.switch_overhead,
        ProportionalShareScheduler.memory_overhead,
    )
    memo = _FINGERPRINTS.get(key)
    if memo is not None and memo[0] is XEON_L7555:
        return memo[1]
    sched = ProportionalShareScheduler(XEON_L7555)
    parts = calibration + (
        sched.switch_overhead,
        sched.memory_overhead,
        round(sched.traffic_capacity, 6),
    )
    fingerprint = hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
    _FINGERPRINTS[key] = (XEON_L7555, fingerprint)
    return fingerprint


def simulator_fingerprint() -> str:
    """Public alias of the calibration fingerprint (run-cache keys)."""
    return _simulator_fingerprint()


def _cache_path(config: TrainingConfig, granularity: int) -> Path:
    from .persistence import cache_root

    key = hashlib.sha256(
        repr((config, granularity, _simulator_fingerprint())).encode()
    ).hexdigest()[:24]
    return cache_root() / f"experts-{key}.pkl"


def _disk_cached(path: Path, build: Callable[[], Any],
                 use_disk_cache: bool) -> Any:
    """``build()``'s result, cached as a pickle at ``path`` unless
    ``use_disk_cache`` is off.  A pickle that will not load (torn or
    otherwise corrupt) is quarantined to ``<cache root>/quarantine/``
    with a warning and rebuilt; publication is atomic."""
    # persistence imports this module at load time, hence the late import.
    from .persistence import atomic_write, cache_root, move_aside

    if use_disk_cache:
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            pass
        except Exception as error:
            try:
                target = move_aside(path, cache_root() / "quarantine")
            except OSError:
                target = None
            warnings.warn(
                f"repro.core.training: unreadable training cache {path} "
                f"({type(error).__name__}: {error}) quarantined to "
                f"{target}; rebuilding it",
                stacklevel=3,
            )
    value = build()
    if use_disk_cache:
        atomic_write(path, lambda fh: pickle.dump(value, fh), binary=True)
    return value


def default_experts(
    config: TrainingConfig = TrainingConfig(),
    granularity: int = 4,
    use_disk_cache: bool = True,
) -> ExpertBundle:
    """Cached expert bundles (training is a one-off cost, Section 5.2.1).

    Results are memoised in-process and, by default, on disk under
    ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``).  The disk key
    includes the simulator calibration constants, so stale artefacts are
    never reused after the physics change; a corrupt cached pickle is
    quarantined and retrained.
    """
    key = (config, granularity)
    if key in _BUNDLE_CACHE:
        return _BUNDLE_CACHE[key]

    def build() -> ExpertBundle:
        samples, scalability = training_dataset(config, use_disk_cache)
        return build_experts(
            config, granularity, samples=samples, scalability=scalability,
        )

    bundle = _disk_cached(
        _cache_path(config, granularity), build, use_disk_cache
    )
    _BUNDLE_CACHE[key] = bundle
    return bundle


def pretrain_selector_state(
    experts: Sequence[Expert],
    samples: Sequence[FeatureSample],
    epochs: int = 3,
    learning_rate: float = 0.5,
    margin: float = 0.1,
    domain_weight: float = 5.0,
    seed: int = 0,
) -> dict:
    """Pre-seed the expert selector on the offline training data.

    Every expert's environment-prediction error on every training sample
    is computable offline, so the hyperplane partition can be fitted
    before deployment.  The runtime selector still adapts online (the
    paper's Section 5.3 updates); pre-seeding replaces the blind
    even-initialisation with an informed one.  This substitutes for the
    density of decision points a real loop-level runtime enjoys: our
    simulated programs present ~10^2 mapping decisions per run where a
    real OpenMP code presents ~10^4.
    """
    from .features import NUM_FEATURES
    from .selector import HyperplaneSelector

    experts = list(experts)
    samples = list(samples)
    if not experts or not samples:
        raise ValueError("need experts and samples to pretrain")
    selector = HyperplaneSelector(
        num_experts=len(experts),
        dim=NUM_FEATURES,
        learning_rate=learning_rate,
        margin=margin,
    )
    rng = np.random.default_rng(seed)
    order = np.arange(len(samples))
    for _ in range(epochs):
        rng.shuffle(order)
        for index in order:
            sample = samples[index]
            errors = [
                abs(e.predict_env_norm(sample.features)
                    - sample.next_env_norm)
                + domain_weight * e.domain_distance(sample.features)
                for e in experts
            ]
            selector.update(sample.features, errors)
    return selector.export_state()


def training_dataset(
    config: TrainingConfig = TrainingConfig(),
    use_disk_cache: bool = True,
) -> Tuple[List[FeatureSample], List[ScalabilityRecord]]:
    """The shared (samples, scalability) pair, memoised + disk-cached."""
    if config not in _DATA_CACHE:
        _DATA_CACHE[config] = _disk_cached(
            _cache_path(config, granularity=0),  # 0 marks raw data
            lambda: (generate_training_data(config),
                     measure_scalability_grid(config)),
            use_disk_cache,
        )
    samples, scalability = _DATA_CACHE[config]
    return list(samples), list(scalability)
